"""Exception hierarchy shared by all specmat modules.

Three broad classes map onto the CLI exit codes: invalid input (2),
numerical failure (3) and the singular-matrix refusal (4).
"""


class SpecmatError(Exception):
    """Base class for all specmat errors."""

    exit_code = 3


class InvalidInput(SpecmatError):
    """Malformed or out-of-contract input."""

    exit_code = 2


class NonRealInput(InvalidInput):
    """A real matrix was required but complex entries were given."""


class OutOfDomain(InvalidInput):
    """Parameter outside the admissible domain of a curve family."""


class DegreeTooHigh(InvalidInput):
    """Polynomial degree beyond the supported / numerically stable cap."""


class ResolutionTooLow(InvalidInput):
    """Grid resolution too small for the requested computation."""


class SingularMatrix(SpecmatError):
    """The coefficient matrix is singular: the operator is not closed and
    its spectrum is the whole complex plane, so no finite spectral data
    can be produced."""

    exit_code = 4


class SingularJordan(SpecmatError):
    """Jordan factor is singular; the fundamental matrix is undefined."""

    exit_code = 4


class NumericalFailure(SpecmatError):
    """An algorithm failed to converge or lost too much accuracy."""


class BoundaryZero(NumericalFailure):
    """A zero persists on the integration contour after repeated dilation."""


class NonConvergent(NumericalFailure):
    """Adaptive refinement hit its sample cap without stabilising."""


class IllConditioned(NumericalFailure):
    """Near-degenerate data: the two secular representations disagree."""


class NearSpectrum(NumericalFailure):
    """Resolvent probe requested too close to an eigenvalue."""


class NonConverged(NumericalFailure):
    """Eigenvalue extraction failed: the Arnoldi iteration did not
    converge, or its low end could not be certified complete."""


class NoSignChange(NumericalFailure):
    """No bracketing sign change found on the search segment."""

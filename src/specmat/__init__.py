"""specmat: spectra of -A d2/dx2 on (0,1) with Dirichlet/Neumann mixed
boundary conditions, for 2x2 complex coefficient matrices A."""

from .errors import (BoundaryZero, DegreeTooHigh, IllConditioned, InvalidInput,
                     NearSpectrum, NoSignChange, NonConvergent, NonConverged,
                     NonRealInput, NumericalFailure, OutOfDomain,
                     ResolutionTooLow, SingularJordan, SingularMatrix,
                     SpecmatError)
from .mat2 import (CMatrix2, Eigen2, EigKind, Ellipse, adjoint_projection,
                   eig2, enclosing_sector, numerical_range)
from .secular import SecularFn, boundary_determinant, build, fundamental_matrix
from .rootfind import (Rect, Spectrum, cluster_roots, isolate_zeros,
                       polyroots, spectrum, winding_count)
from .canonical import (CanonicalForm, Certificate, Family, Locus, LocusKind,
                        Region, RegionTag, SpectralPrediction, a4_eigs,
                        classify_region, family_matrix, perturbation_coeffs,
                        predict, reduce_real, similarity_certificates)
from .chebpath import (ChebPoint, GPoly, build_g, cheb_spectrum, lambda_curve,
                       level_curve_d)
from .oracle import (Discretization, GrowthProbe, discretize, growth_probe,
                     oracle_spectrum, resolvent_norm)
from .sweep import (SweepRecord, SweepSpec, emit, run_sweep,
                    track_negative_eigenvalue)

__version__ = "0.1.0"

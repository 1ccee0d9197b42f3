import numpy as np
import pytest

from specmat import CMatrix2
from specmat.mat2 import EigKind
from specmat.oracle import _KU, _interleaved

# the worked complex example: eigenvalues 1 and 1/4, eigenvectors (1,1), (2i,1)
EXAMPLE = CMatrix2(0.4 + 0.3j, 0.6 - 0.3j, 0.15 + 0.3j, 0.85 - 0.3j)
EXAMPLE_V = np.array([[1.0, 2.0j], [1.0, 1.0]])

# thermodynamic-model matrix (gamma = 1)
STREATER = CMatrix2.real(1.0, 1.0, 0.5, 1.0)


def gauge_to(S, V_ref) -> complex:
    """Constant g such that the secular function ``S`` equals g times the
    secular function written with eigenvector matrix ``V_ref`` (columns
    proportional to ``S.eigen.V``'s)."""
    V_ref = np.asarray(V_ref, dtype=complex)
    V = S.eigen.V
    if S.kind is EigKind.DEFECTIVE:
        # only the eigenvector column (second) carries gauge freedom
        j = int(np.argmax(np.abs(V_ref[:, 1])))
        return (V[j, 1] / V_ref[j, 1]) ** 4
    ratios = []
    for col in (0, 1):
        j = int(np.argmax(np.abs(V_ref[:, col])))
        ratios.append(V[j, col] / V_ref[j, col])
    return (ratios[0] * ratios[1]) ** 2


def dense_matrix(disc) -> np.ndarray:
    """The discretization's matrix in the original unknown order, unpacked
    from its band storage: entry (i, j) of the interleaved matrix sits at
    ``band[_KU + i - j, j]``."""
    N = disc.size
    r, j = np.indices(disc.band.shape)
    i = r - _KU + j
    inside = (i >= 0) & (i < N)
    M = np.zeros((N, N), dtype=complex)
    M[i[inside], j[inside]] = disc.band[inside]
    pos = _interleaved(disc.n)
    return M[np.ix_(pos, pos)]


def a4(a, d):
    return CMatrix2.real(a, -1.0, 1.0, d)


def corpus30():
    """The 30-matrix regional corpus of acceptance criterion 6, on which the
    oracle must agree with the secular spectra."""
    pts_a4 = [(0.0, 2.0), (0.5, 2.5), (3.0, 5.0), (-0.3, 1.7),   # R1
              (2.0, -1.0), (-3.0, 1.0), (1.5, -2.0), (4.0, -0.5),  # R2
              (0.5, 3.0), (1.0, 4.0), (2.0, 4.5), (-0.5, 1.55),    # R3
              (-0.5, -3.0), (-1.0, -4.0), (-2.0, -4.3), (0.4, -2.7),  # R4
              (0.3, 1.1), (-1.0, 0.0), (1.2, 0.4), (0.0, 0.0),     # R5
              (1.0, 2.9), (-0.8, 0.9)]
    mats = [a4(a, d) for a, d in pts_a4]
    mats += [CMatrix2.real(1, 0, 0, 4), CMatrix2.real(2.5, 0, 0, -1.5),
             CMatrix2.real(1, 0, 1, 4), CMatrix2.real(0.8, 1, 0, -2.0),
             CMatrix2.real(3, 0, 0, 2), CMatrix2.real(1, 1, 0.5, 1),
             CMatrix2.real(2, 1, 1, 3), CMatrix2.real(-1, 1, 1, -3)]
    assert len(mats) == 30
    return mats


@pytest.fixture(scope="session")
def region_corpus():
    """Matrices spanning all qualitative regimes, used for cross-checks.

    Mix of antisymmetric-family points in every region, diagonal,
    triangular, symmetric-family and complex matrices; defective-singleton
    points are excluded (their spectrum is {0} and there is nothing to
    match numerically).
    """
    pts_a4 = [
        (0.0, 2.0), (0.5, 2.5), (3.0, 5.0), (-0.3, 1.7),       # defective line
        (2.0, -1.0), (-3.0, 1.0), (1.5, -2.0), (4.0, -0.5),    # ad < -1
        (0.5, 3.0), (1.0, 4.0), (2.0, 4.5), (-0.5, 1.55),      # band, a+d > 0
        (-0.5, -3.0), (-1.0, -4.0), (-2.0, -4.3),              # band, a+d < 0
        (0.3, 1.1), (-1.0, 0.0), (1.2, 0.4), (0.0, 0.0),       # oscillatory
        (1.0, 2.9),
    ]
    mats = [a4(a, d) for a, d in pts_a4]
    mats += [
        CMatrix2.real(1, 0, 0, 4), CMatrix2.real(2.5, 0, 0, -1.5),
        CMatrix2.real(1, 0, 1, 4), CMatrix2.real(0.8, 1, 0, -2.0),
        CMatrix2.real(3, 0, 0, 2),
        STREATER, CMatrix2.real(2, 1, 1, 3), CMatrix2.real(-1, 1, 1, -3),
        CMatrix2.real(0.5, 1, 1, -0.5),   # symmetric family, mixed signs
        EXAMPLE,
        CMatrix2(1.2 + 0.1j, 0.3, -0.2, 0.9 - 0.2j),
    ]
    return mats

"""Coherency-matrix handling of possibly partially polarized beams.

C = (1/2) sum_a s_a sigma_a is Hermitian positive semidefinite with
tr C = s0, det C = S/4 and tr C^2 = s0^2 - S/2, where S = s0^2 - |s_vec|^2
vanishes exactly for pure states.  Its eigenspinors mark two antipodal
points of the Poincare sphere; a filter acts by C -> (scale m) C (scale m)^dag.

One closed form, `_coherency_entries`, writes the entries
C = [[p, q], [conj q, r]] = (1/2)[[s0 + t3, t1 - i t2], [t1 + i t2, s0 - t3]]
with t = (s1, s2, s3) in the circular basis and t = circular_to_linear(s1,
s2, s3) in the linear one; `_read_stokes` is its exact inverse.
`coherency_from_stokes`, the Mueller probes and `kernels` all use it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStokesError, ZeroFluxError
from .filters import _entries, _extinction, compose
from .pauli import circular_to_linear, linear_to_circular
from .spinor import FLUX_MIN, MAX_MAGNITUDE, StokesVector

PSD_TOL = 1e-9


@dataclass(frozen=True)
class CoherencyMatrix:
    """2x2 Hermitian PSD matrix in flux-density units, with its basis tag."""

    matrix: np.ndarray
    basis: str = "circular"

    def __post_init__(self):
        c = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", c)
        (p, q), (q2, r) = c.tolist()
        scale = max((p + r).real, 1.0e-30)
        # largest |C - C^dag| entry; |p - conj p| = 2 |Im p|
        skew = max(2.0 * abs(p.imag), abs(q - q2.conjugate()), 2.0 * abs(r.imag))
        if skew > 1e-12 * scale:
            raise ValueError("coherency matrix is not Hermitian")
        _require_psd(p, q, q2, r)


@dataclass(frozen=True)
class PolarizationDecomposition:
    """Antipodal sphere points with their flux weights, larger first."""

    point_plus: np.ndarray
    point_minus: np.ndarray
    lambda_plus: float
    lambda_minus: float
    degenerate: bool


def _require_psd(p, q, q2, r):
    # closed-form 2x2 Hermitian spectrum of [[p, q], [q2, r]]:
    # (tr +- sqrt(tr^2 - 4 det)) / 2; the lower one may dip to -PSD_TOL tr
    tr = (p + r).real
    det = (p * r - q * q2).real
    lo = 0.5 * (tr - math.sqrt(max(tr * tr - 4.0 * det, 0.0)))
    if lo < -PSD_TOL * max(tr, 1.0e-30):
        raise ValueError("coherency matrix is not positive semidefinite")


def _check_stokes(s):
    """Reject s unless it is finite, s0 >= 0 and |s_vec|^2 <= s0^2 (to PSD_TOL)."""
    m = MAX_MAGNITUDE
    if not (abs(s.s0) <= m and abs(s.s1) <= m and abs(s.s2) <= m and abs(s.s3) <= m):
        raise InvalidStokesError(
            f"Stokes parameters must be finite and at most {MAX_MAGNITUDE:.4g} "
            f"in magnitude: {s}"
        )
    if s.s0 < 0.0:
        raise InvalidStokesError(f"s0 must be nonnegative: {s.s0}")
    excess = -purity_invariant(s)
    if excess > PSD_TOL * max(s.s0**2, 1e-30):
        raise InvalidStokesError(
            f"over-polarized Stokes vector: |s_vec|^2 - s0^2 = {excess}"
        )


def _coherency_entries(s0, s1, s2, s3, basis):
    """(p, q, r) of C = (1/2) sum s_a sigma_a = [[p, q], [conj q, r]] in the
    Pauli set of the basis; Python floats or NumPy arrays alike.

    Exact inverse of _read_stokes.  Every zero entry comes out as +0.0.
    """
    if basis == "linear":
        s1, s2, s3 = circular_to_linear(s1, s2, s3)
    elif basis != "circular":
        raise ValueError(f"unknown basis tag: {basis!r}")
    p, r = 0.5 * (s0 + s3) + 0.0, 0.5 * (s0 - s3) + 0.0
    # x + 1j * y with y never -0.0 gives Im q = y under every complex rule
    return p, 0.5 * s1 + 0.0 + 1j * (0.0 - 0.5 * s2), r


def coherency_from_stokes(s, basis="circular"):
    """C = (1/2) sum s_a sigma_a, using the Pauli set of the requested basis."""
    _check_stokes(s)
    p, q, r = _coherency_entries(s.s0, s.s1, s.s2, s.s3, basis)
    # conj q, but a zero imaginary part stays +0.0 (`convert` prints the sign)
    return CoherencyMatrix(np.array([[p, q], [complex(q.real, 0.0 - q.imag), r]]), basis)


def _read_stokes(p, q, r, basis):
    """s_a = tr(C sigma_a) of C = [[p, q], [conj q, r]], Pauli set of the basis."""
    s0, t1, t2, t3 = (p + r).real, 2.0 * q.real, -2.0 * q.imag, (p - r).real
    if basis == "circular":
        return s0, t1, t2, t3
    if basis == "linear":
        return (s0, *linear_to_circular(t1, t2, t3))
    raise ValueError(f"unknown basis tag: {basis!r}")


def stokes_from_coherency(c):
    """s_a = tr(C sigma_a); exact inverse of coherency_from_stokes."""
    (p, q), (_, r) = c.matrix.tolist()
    return StokesVector(*_read_stokes(p, q, r, c.basis))


def purity_invariant(s):
    """S = s0^2 - s1^2 - s2^2 - s3^2; zero for a completely polarized beam."""
    return s.s0**2 - s.s1**2 - s.s2**2 - s.s3**2


def degree_of_polarization(s):
    """|s_vec| / s0, in [0, 1]."""
    if s.s0 == 0.0:
        raise ZeroFluxError("degree of polarization undefined at s0 = 0")
    return math.hypot(s.s1, s.s2, s.s3) / s.s0


def eig_decompose(c):
    """Closed-form eigen-decomposition into two antipodal sphere points.

    Eigenvalues are (s0 +- |s_vec|)/2.  For unpolarized light the
    eigenvectors are not unique; the points are fixed at +-(0, 0, 1) and
    the result is flagged degenerate.
    """
    s = stokes_from_coherency(c)
    svec = s.vec3()
    norm = math.hypot(s.s1, s.s2, s.s3)  # no squares: exact under 2^k scaling
    lam_plus = 0.5 * (s.s0 + norm)
    lam_minus = 0.5 * (s.s0 - norm)
    if 1e12 * norm <= s.s0:
        return PolarizationDecomposition(
            np.array([0.0, 0.0, 1.0]),
            np.array([0.0, 0.0, -1.0]),
            lam_plus,
            lam_minus,
            True,
        )
    point = svec / norm
    return PolarizationDecomposition(point, -point, lam_plus, lam_minus, False)


def _conjugate_raw(p, q, r, scale, a, b, g, d):
    """(top, off, bottom) of F C F^dag in closed form, for any Hermitian
    C = [[p, q], [conj q, r]] (p, r real) and F = scale [[a, b], [g, d]]."""
    qc = q.conjugate()
    # scale first: a strong attenuator's cosh^2 overflows, scale * cosh does not
    a, b, g, d = scale * a, scale * b, scale * g, scale * d
    u0, u1 = a * p + b * qc, a * q + b * r  # rows of F C
    w0, w1 = g * p + d * qc, g * q + d * r
    top = (u0 * a.conjugate() + u1 * b.conjugate()).real
    off = u0 * g.conjugate() + u1 * d.conjugate()
    bottom = (w0 * g.conjugate() + w1 * d.conjugate()).real
    return top, off, bottom


def _step_coherency(entries, p, q, r):
    """One element F = scale [[a, b], [g, d]] on raw C = [[p, q], [conj q, r]].

    p and r are floats, so C stays Hermitian by construction; a flux
    s0 = p + r below FLUX_MIN is extinction.  The caller checks that the
    result is PSD: the CoherencyMatrix constructor does, a raw loop calls
    _require_psd.
    """
    p, q, r = _conjugate_raw(p, q, r, *entries)
    if not p + r >= FLUX_MIN:
        raise _extinction(p + r)
    return p, q, r


def _conjugate(c, entries):
    """C -> F C F^dag for entries (scale, a, b, g, d) of F, as a CoherencyMatrix."""
    (p, q), (_, r) = c.matrix.tolist()
    p, q, r = _step_coherency(entries, p.real, q, r.real)
    return CoherencyMatrix(np.array([[p, q], [q.conjugate(), r]]), c.basis)


def apply_filter_to_coherency(e, c):
    """C -> F C F^dag with F = scale * m taken in the matrix basis of c."""
    return _conjugate(c, _entries(e, c.basis))


def apply_train_to_coherency(train, c):
    em = compose(train, c.basis)
    (a, b), (g, d) = em.m.tolist()
    return _conjugate(c, (em.scale, a, b, g, d))


# (p, q, r) of C_j = (1/2) sigma_j, the entries of the unit Stokes vector e_j;
# built once per basis, since four calls per train slow a 6-element
# mueller_of_train by 10-20%
_PROBES = {
    basis: [_coherency_entries(*e, basis) for e in np.eye(4).tolist()]
    for basis in ("circular", "linear")
}


def mueller_of_train(train, basis="circular"):
    """4x4 real Stokes-space matrix of a train.

    Column j is the Stokes reading of F C_j F^dag, with F the composed
    train and C_j the probe of the unit Stokes vector e_j in `basis`.  The
    probes are not positive, so they are conjugated as raw (p, q, r), not
    as CoherencyMatrix.
    """
    em = compose(train, basis)
    (a, b), (g, d) = em.m.tolist()
    columns = [
        _read_stokes(*_conjugate_raw(p, q, r, em.scale, a, b, g, d), basis)
        for p, q, r in _PROBES[basis]
    ]
    if not columns[0][0] >= FLUX_MIN:  # M00, the flux of unpolarized light
        raise _extinction(columns[0][0])
    return np.array(columns).T


def apply_mueller(mm, s):
    out = mm @ s.as_array()
    return StokesVector(*out)

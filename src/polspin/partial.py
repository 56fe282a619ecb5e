"""Coherency-matrix handling of possibly partially polarized beams.

C = (1/2) sum_a s_a sigma_a is Hermitian positive semidefinite with
tr C = s0, det C = S/4 and tr C^2 = s0^2 - S/2, where S = s0^2 - |s_vec|^2
vanishes exactly for pure states.  Its eigenspinors mark two antipodal
points of the Poincare sphere; a filter acts by C -> (scale m) C (scale m)^dag.

A CoherencyMatrix holds in slots its Stokes vector, the same in either basis, and a basis tag;
its entries C = [[p, q], [conj q, r]] = (1/2)[[s0 + t3, t1 - i t2], [t1 + i t2, s0 - t3]], with
t = (s1, s2, s3) in the circular basis and circular_to_linear(s1, s2, s3) in the linear one,
are a view by one closed form, `_coherency_entries`, of which `_read_stokes` is the inverse.
`_conjugate` is the one F C F^dag kernel (linear F): `_mueller_rows` runs it on four probes,
`_propagate` adds the extinction and PSD checks for the train calls and the CLI's mixed `trace`.
NumPy is imported only by the calls that take or return an ndarray, when called:
`CoherencyMatrix(matrix)`, `.matrix`, `eig_decompose` (the CLI reads `_decomposition`)
and `mueller_of_train`.
The train calls share filters._train_product, the memo of the last train they folded: its
product and, once asked, its Mueller matrix.  Every per-beam check runs on every call.  No call
here keeps element forms: a memo miss and `apply_filter_to_coherency` compute them afresh.
"""

import functools
import math

from . import filters
from .errors import InvalidStokesError, NotPositiveSemidefiniteError, ZeroFluxError
from .filters import _extinction, _fold, _train_product
from .pauli import _check_basis, circular_to_linear, linear_to_circular
from .spinor import FLUX_MIN, MAX_MAGNITUDE, StokesVector, _Record

PSD_TOL = 1e-9


class CoherencyMatrix(_Record):
    """2x2 Hermitian PSD matrix [[p, q], [conj q, r]] in flux-density units, held as its
    Stokes vector and its basis tag; the entries p, r (float), q (complex) and `.matrix`
    (a fresh ndarray) are views in the Pauli set of the tag, made on each access."""

    stokes: StokesVector
    basis: str

    def __new__(cls, matrix, basis="circular"):
        import numpy as np
        (p, q), (q2, r) = np.asarray(matrix, dtype=complex).tolist()
        # largest |C - C^dag| entry; |p - conj p| = 2 |Im p|
        skew = max(2.0 * abs(p.imag), abs(q - q2.conjugate()), 2.0 * abs(r.imag))
        s = _read_stokes(p, q, r, basis)
        # both matrix tests are relative to the trace and free of squares, so 2^k
        # scaling keeps the verdict
        if not 1e12 * skew <= abs(s[0]):
            raise ValueError("coherency matrix is not Hermitian")
        _require_psd(*s)
        return cls._of(StokesVector(*s), basis)

    @classmethod
    def _of(cls, s, basis):
        """From a checked StokesVector s; every CoherencyMatrix but a copy is made here."""
        _check_basis(basis)
        c = cls.__base__()
        c.stokes, c.basis = s, basis
        c.__class__ = cls
        return c

    @property
    def _entries(self):
        s = self.stokes
        return _coherency_entries(s.s0, s.s1, s.s2, s.s3, self.basis)

    p = property(lambda self: self._entries[0])
    q = property(lambda self: self._entries[1])
    r = property(lambda self: self._entries[2])

    @property
    def matrix(self):
        import numpy as np
        return np.array(_rows(*self._entries))


class PolarizationDecomposition(_Record):
    """Antipodal sphere points with their flux weights, larger first."""

    point_plus: "numpy.ndarray"
    point_minus: "numpy.ndarray"
    lambda_plus: float
    lambda_minus: float
    degenerate: bool


def _require_psd(s0, s1, s2, s3):
    # C's lower eigenvalue (s0 - |s_vec|) / 2 may dip to -PSD_TOL s0; no square can underflow
    if not math.hypot(s1, s2, s3) <= (1.0 + 2.0 * PSD_TOL) * s0:
        raise NotPositiveSemidefiniteError("coherency matrix is not positive semidefinite")


def _check_stokes(s):
    """Reject s unless it is finite, s0 >= 0 and |s_vec| <= s0 (to PSD_TOL / 2)."""
    m = MAX_MAGNITUDE
    if not (abs(s.s0) <= m and abs(s.s1) <= m and abs(s.s2) <= m and abs(s.s3) <= m):
        raise InvalidStokesError("Stokes parameters must be finite and at most "
                                 f"{MAX_MAGNITUDE:.4g} in magnitude: {s}")
    if s.s0 < 0.0:
        raise InvalidStokesError(f"s0 must be nonnegative: {s.s0}")
    norm = math.hypot(s.s1, s.s2, s.s3)  # no squares: the verdict is scale-free
    if not norm <= (1.0 + 0.5 * PSD_TOL) * s.s0:
        raise InvalidStokesError(f"over-polarized Stokes vector: |s_vec| = {norm} > s0 = {s.s0}")


def _coherency_entries(s0, s1, s2, s3, basis):
    """(p, q, r) of C = (1/2) sum s_a sigma_a = [[p, q], [conj q, r]] in the
    Pauli set of the basis; Python floats or NumPy arrays alike.

    Exact inverse of _read_stokes.  Every zero entry comes out as +0.0.
    Any tag but "linear" reads as circular: CoherencyMatrix checks the tag.
    """
    if basis == "linear":
        s1, s2, s3 = circular_to_linear(s1, s2, s3)
    p, r = 0.5 * (s0 + s3) + 0.0, 0.5 * (s0 - s3) + 0.0
    # x + 1j * y with y never -0.0 gives Im q = y under every complex rule
    return p, 0.5 * s1 + 0.0 + 1j * (0.0 - 0.5 * s2), r


def _rows(p, q, r):
    """Rows ((p, q), (conj q, r)) of C; Im conj q is +0.0 where Im q is 0 (`convert` prints it)."""
    return (p, q), (complex(q.real, 0.0 - q.imag), r)


def coherency_from_stokes(s, basis="circular"):
    """C = (1/2) sum s_a sigma_a, its entries in the Pauli set of the requested basis."""
    _check_stokes(s)
    return CoherencyMatrix._of(s, basis)


def _read_stokes(p, q, r, basis):
    """s_a = tr(C sigma_a) of C = [[p, q], [conj q, r]], Pauli set of the basis
    (circular unless "linear", as in _coherency_entries)."""
    s0, t1, t2, t3 = (p + r).real, 2.0 * q.real, -2.0 * q.imag, (p - r).real
    if basis == "linear":
        return (s0, *linear_to_circular(t1, t2, t3))
    return s0, t1, t2, t3


def stokes_from_coherency(c):
    """s_a = tr(C sigma_a); exact inverse of coherency_from_stokes."""
    return c.stokes


def purity_invariant(s):
    """S = s0^2 - s1^2 - s2^2 - s3^2; zero for a completely polarized beam.

    Built from squares: below s0 ~ 1.5e-154 they are subnormal and S loses
    digits, and below about 2e-162 S reads 0 for any beam, pure or not.
    """
    return s.s0**2 - s.s1**2 - s.s2**2 - s.s3**2


def degree_of_polarization(s):
    """|s_vec| / s0, in [0, 1]."""
    if s.s0 == 0.0:
        raise ZeroFluxError("degree of polarization undefined at s0 = 0")
    return math.hypot(s.s1, s.s2, s.s3) / s.s0


def _decomposition(s):
    """eig_decompose's fields for Stokes vector s, points as float tuples; the CLI reads them."""
    s0, s1, s2, s3 = s.s0, s.s1, s.s2, s.s3
    norm = math.hypot(s1, s2, s3)  # no squares: exact under 2^k scaling
    lam_plus, lam_minus = 0.5 * (s0 + norm), 0.5 * (s0 - norm)
    if 1e12 * norm <= s0:
        return (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), lam_plus, lam_minus, True
    p1, p2, p3 = s1 / norm, s2 / norm, s3 / norm
    return (p1, p2, p3), (-p1, -p2, -p3), lam_plus, lam_minus, False


def eig_decompose(c):
    """Closed-form eigen-decomposition into two antipodal sphere points.

    Eigenvalues are (s0 +- |s_vec|)/2.  For unpolarized light the
    eigenvectors are not unique; the points are fixed at +-(0, 0, 1) and
    the result is flagged degenerate.
    """
    import numpy as np
    plus, minus, lam_plus, lam_minus, degenerate = _decomposition(c.stokes)
    return PolarizationDecomposition(
        np.array(plus), np.array(minus), lam_plus, lam_minus, degenerate)


def _conjugate(f, p, q, r):
    """s_a of F C F^dag, F = (a, b, g, d) = [[a, b], [g, d]] and C = [[p, q], [conj q, r]] both
    in the linear basis.  p and r are floats, so F C F^dag is Hermitian by construction.
    No checks: the Mueller probes are not positive."""
    a, b, g, d = f
    qc = q.conjugate()
    u0, u1 = a * p + b * qc, a * q + b * r  # rows of F C
    w0, w1 = g * p + d * qc, g * q + d * r
    p = (u0 * a.conjugate() + u1 * b.conjugate()).real
    r = (w0 * g.conjugate() + w1 * d.conjugate()).real
    return _read_stokes(p, u0 * g.conjugate() + u1 * d.conjugate(), r, "linear")


def _propagate(p, q, r, f):
    """s_a of F C F^dag for C = [[p, q], [conj q, r]] and F, both in the linear basis; a flux
    below FLUX_MIN is extinction, and the result must be PSD."""
    out = _conjugate(f, p, q, r)
    if not out[0] >= FLUX_MIN:
        raise _extinction(out[0])
    _require_psd(*out)
    return out


def _propagator(s):
    """F -> _propagate(p, q, r, F), the (p, q, r) of StokesVector s made once: the mixed trace's."""
    return functools.partial(_propagate, *_coherency_entries(s.s0, s.s1, s.s2, s.s3, "linear"))


def _apply(f, c):
    """F C F^dag of a linear-basis F, in c's basis."""
    s = c.stokes
    out = _propagate(*_coherency_entries(s.s0, s.s1, s.s2, s.s3, "linear"), f)
    return CoherencyMatrix._of(StokesVector(*out), c.basis)


def apply_filter_to_coherency(e, c):
    """C -> F C F^dag with F = scale * m of one element."""
    return _apply(_fold((e,)), c)


def apply_train_to_coherency(train, c):
    """C -> F C F^dag with F the composed train."""
    return _apply(_train_product(train), c)


# linear (p, q, r) of the probes C_j = (1/2) sigma_j, the unit Stokes vectors e_j, made
# once: four calls per train slow a 6-element mueller_of_train by 10-20%
_PROBES = [_coherency_entries(*(float(i == j) for j in range(4)), "linear") for i in range(4)]


def _mueller_rows(*f):
    """Mueller rows (float tuples) of a linear-basis F = (a, b, g, d): column j is the
    Stokes vector of F C_j F^dag."""
    columns = [_conjugate(f, *probe) for probe in _PROBES]
    if not columns[0][0] >= FLUX_MIN:  # M00, the flux of unpolarized light
        raise _extinction(columns[0][0])
    return list(zip(*columns))


def mueller_of_train(train, basis="circular"):
    """4x4 real Stokes-space matrix of a train, the same for either basis tag and a fresh array
    on each call.  Kept read-only in the train memo entry of its product for a sweep's beams."""
    _check_basis(basis)
    product, entry = _train_product(train), filters._last_fold
    if entry[1] is product and entry[2] is not None:
        return entry[2].copy()
    import numpy as np
    mm = np.array(_mueller_rows(*product))  # M00 extinction keeps nothing
    mm.flags.writeable = False
    if filters._last_fold is entry and entry[1] is product:  # still this train's: replace whole
        filters._last_fold = (*entry[:2], mm)
    return mm.copy()


def apply_mueller(mm, s):
    """mm s, each row summed in a fixed order: m_i0 s0 + m_i1 s1 + m_i2 s2 + m_i3 s3."""
    s0, s1, s2, s3 = s.s0, s.s1, s.s2, s.s3
    return StokesVector(*(m0 * s0 + m1 * s1 + m2 * s2 + m3 * s3 for m0, m1, m2, m3 in mm.tolist()))

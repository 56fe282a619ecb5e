"""Fully polarized plane waves: representations and exact conversions.

A monochromatic plane wave is carried by a positive amplitude and a unit
two-component spinor

    o = e^{-i chi/2} (e^{-i phi/2} cos(theta/2), e^{i phi/2} sin(theta/2)),

where (theta, phi) are spherical coordinates of the polarization point on
the Poincare sphere and chi/2 is the wave's phase.  The spinor determines
the sphere point r together with a tangent vector m_re encoding chi, the
Stokes parameters, the Jones components (after the basis change U), and
the sampled electric field.  All of it is scalar Python: NumPy is imported
only by the calls that return ndarrays (`as_array`, `poincare_frame`,
`jones_from_wave`, `su2_to_so3`, `basis_permutation_check`), when called.

The frozen value classes here and in `filters`, `partial`, `beamio` and `dsl` subclass `_Record`:
each field is a slot; the class is a frozen dataclass for `fields`, `replace`, `==`, `hash`, `repr`.

Conventions fixed here:
  * chi is canonicalized to [0, 2pi); the spinor is recovered from angles
    only up to a global sign (the SU(2) double cover).
  * at the poles (circular polarization) phi is reported as 0.
  * the flux normalization is s0 = A^2.
"""

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import (
    InvalidStokesError,
    NonUnimodularError,
    NonUnitaryError,
    OrthogonalStatesError,
    ZeroFieldError,
)
from .pauli import U_INV_ROWS, U_ROWS

TWO_PI = 2.0 * math.pi
# Bound on amplitudes and Stokes parameters: the square of a value up to it,
# and the sum of two such squares, stay finite (flux A^2, Jones a1^2 + a2^2,
# the over-polarization check), so an over-large input is a typed error.
MAX_MAGNITUDE = math.sqrt(0.5 * sys.float_info.max)
# Least flux a beam may carry: below the smallest normal float the direction
# s_vec / s0 has lost digits.  A declared beam below it is an input error; a
# train that drives a beam below it has extinguished it.
FLUX_MIN = sys.float_info.min
PHASE_TOL = 1e-12  # |<a|b>| below which the relative phase is undefined
UNIT_TOL = 1e-10  # | |o| - 1 | above which a spinor is not unit
PURITY_FLOOR = 1e-9  # wave_from_stokes' default tol; beam_from_stokes checks at no less


class _RecordMeta(type):
    """Makes a class that annotates fields a record, its fields the slots of a mutable twin, its one
    base: a straight-line `__new__` fills them, runs `__post_init__` and sets the record's class."""

    def __new__(mcs, name, bases, ns):
        names = tuple(ns.get("__annotations__", ()))
        if not names:
            return super().__new__(mcs, name, bases, {"__slots__": (), **ns})
        twin = super().__new__(mcs, "_" + name, bases, {
            "__slots__": names + ns.pop("__slots__", ()), "__module__": ns["__module__"]})
        cls = super().__new__(mcs, name, (twin,), {**ns, "__slots__": ()})
        if "__new__" not in ns:
            lines = [f"def __new__(cls, {', '.join(names)}):", "self = twin()"]
            lines += [f"self.{n} = {n}" for n in names]
            lines += ["cls.__post_init__(self)"] * hasattr(cls, "__post_init__")
            lines += ["self.__class__ = cls", "return self"]
            exec("\n    ".join(lines), env := {"twin": twin})
            env["__new__"].__annotations__ = dict(ns["__annotations__"])
            cls.__new__ = staticmethod(env["__new__"])
        return dataclass(frozen=True, init=False)(cls)


class _Record(metaclass=_RecordMeta):
    """Base of the frozen value records: no instance dict; weak references allowed.  A constructor
    of its own (`_of`, `_held`) fills `cls.__base__()`, the twin, then sets `__class__`."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):  # pickles and copies hold the twin's slots as they are, unchecked
        return type(self)._held, tuple(getattr(self, n) for n in type(self).__base__.__slots__)

    @classmethod
    def _held(cls, *values):  # the record that holds values, one per slot of its twin, unchecked
        x = cls.__base__()
        for name, value in zip(cls.__base__.__slots__, values, strict=True):
            setattr(x, name, value)
        x.__class__ = cls
        return x


def _wrap_2pi(x):
    # x % TWO_PI can round up to TWO_PI itself for tiny negative x
    y = x % TWO_PI
    return 0.0 if y >= TWO_PI else y

# The Jones components are prefactor * e^{i(kz - wt)} * (U o) with
# prefactor = sqrt(2) e^{-i pi/4} A; this constant is the A = 1 value.
JONES_PREFACTOR_UNIT = math.sqrt(2.0) * cmath.exp(-0.25j * math.pi)


class Spinor2(_Record):
    """Unit two-component spinor (c1, c2)."""

    c1: complex
    c2: complex

    def as_array(self):
        import numpy as np
        return np.array([self.c1, self.c2], dtype=complex)

    def norm(self):
        return math.hypot(abs(self.c1), abs(self.c2))

    def normalized(self):
        n = self.norm()
        return Spinor2(self.c1 / n, self.c2 / n)

    def require_unit(self, tol=UNIT_TOL):
        _require_unit(self.c1, self.c2, tol)
        return self


def _require_unit(c1, c2, tol=UNIT_TOL):
    n = math.hypot(abs(c1), abs(c2))
    if abs(n - 1.0) > tol:
        raise ValueError(f"spinor is not unit-norm: |o| = {n}")


def _check_wave(amp, c1, c2):
    """(amp, c1, c2), checked: 0 < A <= MAX_MAGNITUDE, |o| = 1, a normal float A^2."""
    if not 0.0 < amp <= MAX_MAGNITUDE:
        raise ValueError(f"amplitude out of (0, {MAX_MAGNITUDE:.4g}]: {amp}")
    _require_unit(c1, c2)
    if not amp * amp >= FLUX_MIN:
        raise ValueError(f"flux A^2 of amplitude {amp} underflows (below {FLUX_MIN:.4g})")
    return amp, c1, c2


class AngleSet(_Record):
    """Polar angle theta in [0, pi], azimuth phi in [0, 2pi), phase chi in [0, 2pi)."""

    theta: float
    phi: float
    chi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta out of [0, pi]: {self.theta}")
        if not 0.0 <= self.phi < TWO_PI:
            raise ValueError(f"phi out of [0, 2pi): {self.phi}")
        if not 0.0 <= self.chi < TWO_PI:
            raise ValueError(f"chi out of [0, 2pi): {self.chi}")


class WaveState(_Record):
    """A > 0 times a unit spinor o: one plane wave.  It holds U o, its Jones spinor, in `_jones`."""

    __slots__ = ("_jones",)
    amplitude: float
    spinor: Spinor2

    def __post_init__(self):  # on the twin: the check, then U o with a plain store
        _check_wave(self.amplitude, self.spinor.c1, self.spinor.c2)
        self._jones = _times(U_ROWS, self.spinor.c1, self.spinor.c2)

    @classmethod
    def _of(cls, amp, c1, c2):  # filters._step's result, which _step has checked: no check here
        (a, b), (c, d) = U_INV_ROWS  # o = U^-1 v, in _times's digits, stored into Spinor2's twin
        o, w = Spinor2.__base__(), cls.__base__()
        o.c1, o.c2 = a * c1 + b * c2, c * c1 + d * c2
        w.amplitude, w.spinor, w._jones = amp, o, (c1, c2)
        o.__class__, w.__class__ = Spinor2, cls
        return w


class EllipseParams(_Record):
    """Major semiaxis a >= 0, signed minor semiaxis b, orientation phi/2."""

    a: float
    b: float
    orientation: float


class StokesVector(_Record):
    s0: float
    s1: float
    s2: float
    s3: float

    def as_array(self):
        import numpy as np
        return np.array([self.s0, self.s1, self.s2, self.s3])


class JonesAmpPhase(_Record):
    """Real amplitudes and phases of the two linear Jones components."""

    a1: float
    a2: float
    phi1: float
    phi2: float

    def __post_init__(self):
        if not (0.0 <= self.a1 <= MAX_MAGNITUDE and 0.0 <= self.a2 <= MAX_MAGNITUDE):
            raise ValueError(
                f"Jones amplitudes out of [0, {MAX_MAGNITUDE:.4g}]: {self.a1}, {self.a2}"
            )


class PoincareFrame(_Record):
    """Sphere point r with tangent pair (m_re, m_im); right-handed orthonormal."""

    r: "numpy.ndarray"
    m_re: "numpy.ndarray"
    m_im: "numpy.ndarray"


def spinor_from_angles(angles):
    """Spinor e^{-i chi/2}(e^{-i phi/2} cos(theta/2), e^{i phi/2} sin(theta/2))."""
    half_t = 0.5 * angles.theta
    phase = cmath.exp(-0.5j * angles.chi)
    return Spinor2(
        phase * cmath.exp(-0.5j * angles.phi) * math.cos(half_t),
        phase * cmath.exp(0.5j * angles.phi) * math.sin(half_t),
    )


def angles_from_spinor(s):
    """Invert spinor_from_angles, up to the global-sign (chi + 2pi) ambiguity.

    At the poles (one component vanishing) phi is set to 0.
    """
    s.require_unit()
    a1, a2 = abs(s.c1), abs(s.c2)
    theta = 2.0 * math.atan2(a2, a1)
    pole_tol = 1e-15
    if a2 <= pole_tol:
        return AngleSet(0.0, 0.0, _wrap_2pi(-2.0 * cmath.phase(s.c1)))
    if a1 <= pole_tol:
        return AngleSet(math.pi, 0.0, _wrap_2pi(-2.0 * cmath.phase(s.c2)))
    g1, g2 = cmath.phase(s.c1), cmath.phase(s.c2)  # -chi/2 - phi/2, -chi/2 + phi/2 (mod 2pi)
    return AngleSet(theta, _wrap_2pi(g2 - g1), _wrap_2pi(-(g1 + g2)))


def ellipse_from_wave(w):
    """Polarization-ellipse semiaxes; b > 0 for right-hand polarization."""
    ang = angles_from_spinor(w.spinor)
    half_t = 0.5 * ang.theta
    a = w.amplitude * (math.cos(half_t) + math.sin(half_t))
    b = w.amplitude * (math.cos(half_t) - math.sin(half_t))
    return EllipseParams(a, b, 0.5 * ang.phi)


def _sphere_point(c1, c2):
    """r = (2 Re(conj(c1) c2), 2 Im(conj(c1) c2), |c1|^2 - |c2|^2); scalars or arrays."""
    cross = c1.conjugate() * c2
    return 2.0 * cross.real, 2.0 * cross.imag, abs(c1) ** 2 - abs(c2) ** 2


def _tangent(c1, c2):
    """M = (c1^2 - c2^2, i (c1^2 + c2^2), -2 c1 c2); scalars or arrays."""
    sq1, sq2 = c1 * c1, c2 * c2
    return sq1 - sq2, 1j * (sq1 + sq2), -2.0 * c1 * c2


def poincare_frame(s):
    """Vectors r_i = o^dag sigma_i o and M_i = o^t eps sigma_i o, M split re/im."""
    import numpy as np
    s.require_unit()
    r = np.array(_sphere_point(s.c1, s.c2))
    m = np.array(_tangent(s.c1, s.c2))
    return PoincareFrame(r, m.real.copy(), m.imag.copy())


def stokes_from_wave(w):
    """Stokes parameters with the flux normalization s0 = A^2."""
    s0 = w.amplitude**2
    r1, r2, r3 = _sphere_point(w.spinor.c1, w.spinor.c2)
    return StokesVector(s0, s0 * r1, s0 * r2, s0 * r3)


def wave_from_stokes(s, tol=PURITY_FLOOR):
    """WaveState for a pure Stokes vector (|s_vec| = s0); chi is set to 0."""
    norm = math.hypot(s.s1, s.s2, s.s3)
    if s.s0 <= 0.0:
        raise InvalidStokesError(f"s0 must be positive for a pure state: {s.s0}")
    if abs(norm - s.s0) > tol * s.s0:
        raise InvalidStokesError(f"Stokes vector is not pure: |s_vec| = {norm}, s0 = {s.s0}")
    sxy = math.hypot(s.s1, s.s2)
    if sxy <= 1e-12 * norm:
        ang = AngleSet(0.0 if s.s3 > 0.0 else math.pi, 0.0, 0.0)
    else:  # atan2 keeps a tilt that acos(s3 / norm) rounds to 0 near a pole
        ang = AngleSet(math.atan2(sxy, s.s3), _wrap_2pi(math.atan2(s.s2, s.s1)), 0.0)
    return WaveState(math.sqrt(s.s0), spinor_from_angles(ang))


def _times(rows, c1, c2):
    """U_ROWS or U_INV_ROWS times (c1, c2) on Python complex numbers, in the ndarray's digits."""
    (a, b), (c, d) = rows
    return a * c1 + b * c2, c * c1 + d * c2


def jones_from_wave(w):
    """Jones spinor o_tilde = U o and the prefactor sqrt(2) e^{-i pi/4} A.

    The physical Jones components are prefactor * e^{i(kz - wt)} * o_tilde;
    their real parts at t = z = 0 are the sampled field there.
    """
    import numpy as np
    return np.array(w._jones), JONES_PREFACTOR_UNIT * w.amplitude


def wave_from_jones(j):
    """WaveState from linear-basis amplitudes/phases; inverse of jones_from_wave.

    The prefactor sqrt(2) e^{-i pi/4} A is divided out so round-trips are
    exact including the global phase.
    """
    flux = 0.5 * (j.a1**2 + j.a2**2)
    # zero or subnormal for a zero field and for amplitudes whose squares underflow
    if not flux >= FLUX_MIN:
        what = "has zero flux" if flux == 0.0 else f"flux underflows (below {FLUX_MIN:.4g})"
        raise ZeroFieldError(f"Jones field {what}: a1={j.a1}, a2={j.a2}")
    amp = math.sqrt(flux)
    # z / k in NumPy's order (Smith's method), whose digits CPython's `/` does not keep; as
    # JONES_PREFACTOR_UNIT is 1.0000000000000002 - 1j, Re k >= |Im k| for every amp > 0
    k = JONES_PREFACTOR_UNIT * amp
    rat = k.imag / k.real
    scl = 1.0 / (k.real + k.imag * rat)
    z1, z2 = j.a1 * cmath.exp(1j * j.phi1), j.a2 * cmath.exp(1j * j.phi2)
    v = (complex((z.real + z.imag * rat) * scl, (z.imag - z.real * rat) * scl) for z in (z1, z2))
    return WaveState(amp, Spinor2(*_times(U_INV_ROWS, *v)).normalized())


def basis_permutation_check(tol=1e-15):
    """Library self-test: conjugation by U permutes sigma1->sigma3->sigma2->sigma1."""
    from .pauli import SIGMA, U_BASIS, U_BASIS_INV
    results = []
    for i, j in ((1, 3), (2, 1), (3, 2)):
        lhs = U_BASIS @ SIGMA[i] @ U_BASIS_INV
        results.append(bool(abs(lhs - SIGMA[j]).max() <= tol))
    return tuple(results)


def field_sample(w, omega, k, t, z):
    """Real field (E_x, E_y) via E_x + i E_y = A(e^{i tau} conj(c1) + e^{-i tau} c2)."""
    tau = omega * t - k * z
    e = w.amplitude * (
        cmath.exp(1j * tau) * w.spinor.c1.conjugate()
        + cmath.exp(-1j * tau) * w.spinor.c2
    )
    return e.real, e.imag


def _quaternion(m11, m12, m21, m22):
    """(a, b, c, d) of m = a 1 + i(b sigma1 + c sigma2 + d sigma3) = [[m11, m12], [m21, m22]]."""
    tr, diff = 0.5 * (m11 + m22), 0.5 * (m11 - m22)
    return tr.real, 0.5 * (m12 + m21).imag, 0.5 * (m12 - m21).real, diff.imag


def su2_to_so3(q, tol=1e-10):
    """SO(3) image of Q in SU(2): a_ij = (1/2) tr(sigma_j Q^dag sigma_i Q).

    With Q = a 1 + i(v . sigma) this is (a^2 - |v|^2) delta_ij + 2 v_i v_j
    + 2 a eps_ijk v_k.  For o' = Q o the frame vectors transform as r' = a r
    and M' = a M.
    """
    import numpy as np
    (m11, m12), (m21, m22) = np.asarray(q, dtype=complex).tolist()
    # largest |Q^dag Q - 1| entry; the two off-diagonal entries are conjugates
    off = m11.conjugate() * m12 + m21.conjugate() * m22
    d1, d2 = abs(m11) ** 2 + abs(m21) ** 2 - 1.0, abs(m12) ** 2 + abs(m22) ** 2 - 1.0
    if max(abs(d1), abs(off), abs(d2)) > tol:
        raise NonUnitaryError("matrix is not unitary")
    if abs(m11 * m22 - m12 * m21 - 1.0) > tol:
        raise NonUnimodularError("matrix determinant is not 1")
    a, b, c, d = _quaternion(m11, m12, m21, m22)
    w = a * a - b * b - c * c - d * d
    return np.array([[w + 2.0 * b * b, 2.0 * (b * c + a * d), 2.0 * (b * d - a * c)],
                     [2.0 * (b * c - a * d), w + 2.0 * c * c, 2.0 * (c * d + a * b)],
                     [2.0 * (b * d + a * c), 2.0 * (c * d - a * b), w + 2.0 * d * d]])


def pancharatnam_phase(s1, s2, tol=PHASE_TOL):
    """arg(s1^dag s2) in (-pi, pi]; zero means the waves are in phase."""
    inner = s1.c1.conjugate() * s2.c1 + s1.c2.conjugate() * s2.c2
    if abs(inner) < tol:
        raise OrthogonalStatesError("states are orthogonal; relative phase undefined")
    return cmath.phase(inner)


def mate(s):
    """Orthogonal unit spinor (-conj(c2), conj(c1)); its sphere point is antipodal."""
    return Spinor2(-s.c2.conjugate(), s.c1.conjugate())

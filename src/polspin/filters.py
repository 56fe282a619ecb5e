"""Optical elements as 2x2 matrix actions on spinors and Jones vectors.

Each element factors into (scale, m) with m unimodular, so the Poincare
rotation of the SU(2) part can always be read off m alone while phase and
attenuation prefactors live in scale.  Circular-basis matrices:

    phase shifter   scale e^{-i(d1+d2)/2},  m = exp(i (d/2) sigma1), d = d2-d1
    rotator         m = exp(i alpha sigma3)
    gyrotropic      scale e^{-i(d1+d2)/2},  m = exp(i (d/2) sigma3)
    quarter-wave    m = (1/sqrt 2)[1 - i cos(2a) sigma1 - i sin(2a) sigma2]
    half-wave       m = -i (cos(2a) sigma1 + sin(2a) sigma2), the quarter-wave squared
    attenuator      scale e^{-(e1+e2)/2},   m = exp((e/2) sigma1),  e = e2-e1

Linear-basis matrices are U m U^-1 with the same scale.  Composition is in
propagation order: the first element of a train is the rightmost factor.
`_fold` folds each element's (scale, a, b, c, d) into a running product
of Python complex scalars in either basis; `compose` wraps it in an ndarray.
A product of strong attenuators has a scale past the float range on one side
and an m past it on the other while F = scale m is fine, so `_fold` moves the
binary exponent of m into scale where scale gets small, and carries it.
One cache per level.  `apply`, which a sweep calls per element and beam, keeps the element's
circular form after first use, outside its fields and pickled state.  The two train calls of
`partial` fold through `_train_product`, which keeps the product of the last train they folded
and, once `mueller_of_train` asks, its Mueller matrix, keyed by its element objects: it keeps
them alive until a different train is folded, and calls alternating between trains (concurrent
sweeps) only miss, never mix entries.  The CLI included, all else computes closed forms afresh.
"""

import cmath
import math
import sys
from dataclasses import dataclass
from operator import is_not
from typing import Union

import numpy as np

from .errors import EmptyTrainError, ExtinctionError, FloatRangeError
from .pauli import circular_to_linear
from .spinor import FLUX_MIN, WaveState, _quaternion

# Largest |e2 - e1| at which m's gain e^{|e2 - e1|/2} is finite (cosh alone: ~1420.95).
ETA_SPREAD_MAX = 2.0 * math.log(sys.float_info.max)
# At an Attenuator, a scale below this takes m's binary exponent (_fold).  F
# has no entry above 1, so max |m| <= 1 / |scale|: no product of two factors
# within it underflows or overflows.
_TINY = 2.0**-300


class _Element:
    def __getstate__(self):  # pickles and copies leave out the closed form apply keeps
        return {k: v for k, v in vars(self).items() if k != "_circular"}


@dataclass(frozen=True)
class PhaseShifter(_Element):
    delta1: float
    delta2: float


@dataclass(frozen=True)
class Rotator(_Element):
    alpha: float


@dataclass(frozen=True)
class Gyrotropic(_Element):
    delta1: float
    delta2: float


@dataclass(frozen=True)
class QuarterWave(_Element):
    axis_angle: float


@dataclass(frozen=True)
class HalfWave(_Element):
    axis_angle: float


@dataclass(frozen=True)
class Attenuator(_Element):
    eta1: float
    eta2: float

    def __post_init__(self):
        if self.eta1 < 0.0 or self.eta2 < 0.0:
            raise ValueError("attenuation exponents must be nonnegative")
        spread = abs(self.eta2 - self.eta1)
        if not spread <= ETA_SPREAD_MAX:
            raise ValueError(f"attenuation spread |e2 - e1| = {spread!r} > {ETA_SPREAD_MAX!r}")


FilterElement = Union[PhaseShifter, Rotator, Gyrotropic, QuarterWave, HalfWave, Attenuator]


@dataclass(frozen=True)
class ElementMatrix:
    """Unimodular 2x2 matrix m with the overall coefficient factored into scale."""

    m: np.ndarray
    scale: complex
    basis: str

    def full(self):
        return self.scale * self.m


@dataclass(frozen=True)
class PoincareRotation:
    axis: np.ndarray
    angle: float


@dataclass(frozen=True)
class ConformalMap:
    boost_axis: np.ndarray
    rapidity: float


def _shifter(e):
    h = 0.5 * (e.delta2 - e.delta1)
    c, s = math.cos(h), 1j * math.sin(h)
    return cmath.exp(-0.5j * (e.delta1 + e.delta2)), c, s, s, c


def _rotator(e):
    z = cmath.exp(1j * e.alpha)
    return 1.0 + 0.0j, z, 0.0, 0.0, z.conjugate()


def _gyrotropic(e):
    z = cmath.exp(0.5j * (e.delta2 - e.delta1))
    return cmath.exp(-0.5j * (e.delta1 + e.delta2)), z, 0.0, 0.0, z.conjugate()


def _quarter_wave(e):
    # (1/sqrt 2)[1 + off], off = -i(cos2a sigma1 + sin2a sigma2)
    c, s = math.cos(2.0 * e.axis_angle), math.sin(2.0 * e.axis_angle)
    k = 1.0 / math.sqrt(2.0)
    return 1.0 + 0.0j, k, k * complex(-s, -c), k * complex(s, -c), k


def _half_wave(e):
    # -i(cos2a sigma1 + sin2a sigma2), the exact square of the quarter-wave
    c, s = math.cos(2.0 * e.axis_angle), math.sin(2.0 * e.axis_angle)
    return 1.0 + 0.0j, 0.0, complex(-s, -c), complex(s, -c), 0.0


def _attenuator(e):
    h = 0.5 * (e.eta2 - e.eta1)
    c, s = math.cosh(h), math.sinh(h)
    return cmath.exp(-0.5 * (e.eta1 + e.eta2)), c, s, s, c


# The element registry: kind -> (.pol keyword, .pol keys in field order,
# circular-basis (scale, a, b, c, d) of F = scale [[a, b], [c, d]]), the
# closed forms of the module docstring.  The DSL and the CLI read it.
ELEMENTS = {
    PhaseShifter: ("shifter", ("d1", "d2"), _shifter),
    Rotator: ("rotate", ("alpha",), _rotator),
    Gyrotropic: ("gyro", ("d1", "d2"), _gyrotropic),
    QuarterWave: ("qwp", ("axis",), _quarter_wave),
    HalfWave: ("hwp", ("axis",), _half_wave),
    Attenuator: ("atten", ("e1", "e2"), _attenuator),
}


def _entries(e, basis="circular"):
    """(scale, a, b, c, d) of one element in either basis, from its closed form."""
    kind = ELEMENTS.get(type(e))
    if kind is None:
        raise TypeError(f"not a filter element: {e!r}")
    entries = kind[2](e)
    if basis == "circular":
        return entries
    scale, a, b, c, d = entries
    if basis == "linear":
        # m = p + q . sigma; re-expand U m U^-1 in the standard Pauli set
        p = 0.5 * (a + d)
        q1, q2, q3 = circular_to_linear(0.5 * (b + c), 0.5j * (b - c), 0.5 * (a - d))
        return scale, p + q3, q1 - 1j * q2, q1 + 1j * q2, p - q3
    raise ValueError(f"unknown basis tag: {basis!r}")


def element_matrix(e, basis="circular"):
    scale, a, b, c, d = _entries(e, basis)
    return ElementMatrix(np.array([[a, b], [c, d]], dtype=complex), scale, basis)


def matrix_circular(e):
    """Circular-basis (scale, m) for one element."""
    return element_matrix(e, "circular")


def matrix_linear(e):
    """Linear-basis matrix U m U^-1, same scale."""
    return element_matrix(e, "linear")


def _extinction(flux):
    return ExtinctionError(
        f"flux {flux!r} underflows below the smallest normal float ({FLUX_MIN:.4g})"
    )


def _step(entries, amp, c1, c2):
    """One element F = scale [[a, b], [c, d]] on a raw wave (A, c1, c2).

    v = F o, A' = A ||v||, o' = v / ||v||; a flux A'^2 below FLUX_MIN is
    extinction.  The caller checks the other WaveState invariants on the
    result: `apply` through WaveState._of, a raw loop with spinor._check_wave.
    """
    scale, a, b, c, d = entries
    v1 = scale * (a * c1 + b * c2)
    v2 = scale * (c * c1 + d * c2)
    n = math.sqrt(v1.real**2 + v2.real**2 + v1.imag**2 + v2.imag**2)
    amp *= n
    if not amp * amp >= FLUX_MIN:
        raise _extinction(amp * amp)
    return amp, v1 / n, v2 / n


def apply(e, w):
    """Pass a wave through one element: v = scale * m * o, A' = A ||v||.

    The global phase of v is retained in the spinor components, so the
    Pancharatnam phase against the input reflects the element's phase.
    """
    entries = getattr(e, "_circular", None)  # e's circular form, kept for the next beam
    if entries is None:  # first use; not a field, so == and hash are unchanged
        object.__setattr__(e, "_circular", entries := _entries(e))
    return WaveState._of(*_step(entries, w.amplitude, w.spinor.c1, w.spinor.c2))


def classify(e):
    """Rotation (axis, angle) for SU(2) elements; conformal map for attenuators.

    An SU(2) matrix exp(i (psi/2) n.sigma) rotates the Poincare sphere by
    -psi about n; the angle is reported with psi in [0, 2pi].
    """
    if isinstance(e, Attenuator):
        return ConformalMap(np.array([1.0, 0.0, 0.0]), e.eta2 - e.eta1)
    c, *v = _quaternion(*_entries(e)[1:])
    vn = math.hypot(*v)
    psi = 2.0 * math.atan2(vn, c)
    if vn < 1e-15:
        axis = np.array([1.0, 0.0, 0.0])  # identity (or -I); axis arbitrary
    else:
        axis = np.array(v) / vn
    return PoincareRotation(axis, -psi)


def _ldexp(z, k):
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _balance(j, scale, a, b, c, d):
    """Move m's binary exponent k into scale, so that max |m| is in [1/2, 1).

    Exact (powers of two), so F = scale m is unchanged; j + k is returned.
    """
    k = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    f = math.ldexp(1.0, -k)
    return j + k, _ldexp(scale, k), a * f, b * f, c * f, d * f


def _fold(train, basis="circular"):
    """(scale, a, b, c, d, j) of a train's F, first element first.

    F = scale [[a, b], [c, d]] exactly; the unimodular m of the train is
    2^j [[a, b], [c, d]].  |scale| falls only at an Attenuator; there, the
    element and the running product each have m's exponent moved into
    scale (_balance) where their scale is below _TINY.  On trains where no
    scale gets that small the product is the plain one, with j = 0.
    """
    circular = basis == "circular"  # circular forms skip _entries' per-element dispatch
    scale, a, b, c, d, j = 1.0 + 0.0j, 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j, 0
    e = None  # still None after the loop only if train was empty (None is no element)
    try:
        for e in train:
            kind = type(e)
            s, ea, eb, ec, ed = ELEMENTS[kind][2](e) if circular else _entries(e, basis)
            if kind is Attenuator:
                if abs(s) < _TINY:
                    j, s, ea, eb, ec, ed = _balance(j, s, ea, eb, ec, ed)
                if abs(scale) < _TINY:
                    j, scale, a, b, c, d = _balance(j, scale, a, b, c, d)
            a, b, c, d = ea * a + eb * c, ea * b + eb * d, ec * a + ed * c, ec * b + ed * d
            scale *= s
    except KeyError:
        raise TypeError(f"not a filter element: {e!r}") from None
    if e is None:
        raise EmptyTrainError("train has no elements")
    return scale, a, b, c, d, j


_last_fold = None  # (elements, basis, product, Mueller matrix or None); keeps the ids unique


def _train_product(train, basis):
    """_fold(train, basis)[:5], reused while train holds the same element objects (`is`,
    in order) in the same basis; a fold that returns replaces the one entry, whole."""
    global _last_fold
    elements, last = tuple(train), _last_fold
    if last and last[1] == basis and len(last[0]) == len(elements):
        if not any(map(is_not, last[0], elements)):
            return last[2]
    product = _fold(elements, basis)[:5]
    _last_fold = elements, basis, product, None
    return product


def compose(train, basis="circular"):
    """Matrix of a train, first element applied first (rightmost factor).

    Raises FloatRangeError where m overflows or scale underflows to 0 as
    factors of an F that does not (strong attenuators).
    """
    scale, *m, j = _fold(train, basis)
    if j:  # give m its exponent back
        try:
            m = [_ldexp(z, j) for z in m]
        except OverflowError:
            raise FloatRangeError("the unimodular factor m of the train overflows a float") from None
        s = _ldexp(scale, -j)
        if scale and not s:
            raise FloatRangeError("the scale of the train underflows a float")
        scale = s
    return ElementMatrix(np.array(m, dtype=complex).reshape(2, 2), scale, basis)

"""Optical elements as 2x2 matrix actions on spinors and Jones vectors.

Each element factors into (scale, m) with m unimodular, so the Poincare
rotation of the SU(2) part can always be read off m alone while phase and
attenuation prefactors live in scale.  The closed forms are in the linear
(Jones) basis, to which the paper's U takes the circular spinor:

    phase shifter   scale e^{-i(d1+d2)/2},  m = diag(z, conj z), z = e^{i(d2-d1)/2}
    rotator         m = [[cos alpha, sin alpha], [-sin alpha, cos alpha]]
    gyrotropic      scale e^{-i(d1+d2)/2},  m = [[cos h, sin h], [-sin h, cos h]], h = (d2-d1)/2
    quarter-wave    m = (1/sqrt 2)[[1 - i cos 2a, -i sin 2a], [-i sin 2a, 1 + i cos 2a]]
    half-wave       m = -i [[cos 2a, sin 2a], [sin 2a, -cos 2a]], the quarter-wave squared
    attenuator      scale e^{-(e1+e2)/2},   m = diag(e^{(e2-e1)/2}, e^{(e1-e2)/2})

The circular basis is an edge view, U^-1 m U with the same scale, for `element_matrix` and
`compose`: there an attenuator's m has cosh and sinh entries, which round alike past a spread of
about 37.  Composition is in propagation order: the first element of a train is the rightmost
factor.  One cache per level: element, train and the CLI's train file.  `_step` steps a raw
amplitude and Jones spinor (A, U o), checked once: the pure `trace` steps its input by each prefix
product; `apply` wraps the step in a WaveState and keeps the element's linear form in its `_linear`
slot, no field and not pickled.  The train calls of `partial` fold through `_train_product`, which
keeps the product of the last train they folded and, once `mueller_of_train` asks, its Mueller
matrix, keyed by its element objects: it keeps them alive until a different train is folded, and
calls alternating between trains (concurrent sweeps) only miss, never mix entries.  The CLI's memo
keeps its train's prefix products; all else computes closed forms afresh.
"""

import cmath
import math
import sys
from collections import deque
from operator import is_not

from .errors import EmptyTrainError, ExtinctionError, FloatRangeError
from .pauli import _check_basis, linear_to_circular
from .spinor import FLUX_MIN, WaveState, _check_wave, _quaternion, _Record

# Largest |e2 - e1| at which the linear m's larger entry e^{|e2 - e1|/2} is finite.
ETA_SPREAD_MAX = 2.0 * math.log(sys.float_info.max)
# A step's gain ||F o||, 1 to within 2 ulps for a unitary F: within this it keeps amplitudes
_UNIT_GAIN = 2.0**-50


class _Element(_Record):
    __slots__ = ("_linear",)  # the linear form apply keeps; pickles and copies leave it out


class _Phases(_Element):
    def __post_init__(self):  # the closed forms take d1 + d2 and d2 - d1; the larger is |d1| + |d2|
        if not math.isfinite(abs(self.delta1) + abs(self.delta2)):
            raise ValueError(f"d1 + d2 or d2 - d1 overflows: d1 = {self.delta1!r}, "
                             f"d2 = {self.delta2!r}")


class _Plate(_Element):
    def __post_init__(self):  # the closed forms take 2 axis
        if not math.isfinite(2.0 * self.axis_angle):
            raise ValueError(f"2 axis overflows: axis = {self.axis_angle!r}")


class PhaseShifter(_Phases):
    delta1: float
    delta2: float


class Rotator(_Element):
    alpha: float


class Gyrotropic(_Phases):
    delta1: float
    delta2: float


class QuarterWave(_Plate):
    axis_angle: float


class HalfWave(_Plate):
    axis_angle: float


class Attenuator(_Element):
    eta1: float
    eta2: float

    def __post_init__(self):
        if self.eta1 < 0.0 or self.eta2 < 0.0:
            raise ValueError("attenuation exponents must be nonnegative")
        spread = abs(self.eta2 - self.eta1)
        if not spread <= ETA_SPREAD_MAX:
            raise ValueError(f"attenuation spread |e2 - e1| = {spread!r} > {ETA_SPREAD_MAX!r}")


class ElementMatrix(_Record):
    """Unimodular 2x2 matrix m with the overall coefficient factored into scale."""

    m: "numpy.ndarray"
    scale: complex
    basis: str

    def full(self):
        return self.scale * self.m


class PoincareRotation(_Record):
    axis: "numpy.ndarray"
    angle: float


class ConformalMap(_Record):
    boost_axis: "numpy.ndarray"
    rapidity: float


def _shifter(e):
    z = cmath.exp(0.5j * (e.delta2 - e.delta1))
    return cmath.exp(-0.5j * (e.delta1 + e.delta2)), z, 0.0, 0.0, z.conjugate()


def _rotator(e):
    c, s = math.cos(e.alpha), math.sin(e.alpha)
    return 1.0 + 0.0j, c, s, -s, c


def _gyrotropic(e):
    h = 0.5 * (e.delta2 - e.delta1)
    c, s = math.cos(h), math.sin(h)
    return cmath.exp(-0.5j * (e.delta1 + e.delta2)), c, s, -s, c


def _quarter_wave(e):
    # (1/sqrt 2)[1 + off], off = -i(cos2a sigma3 + sin2a sigma1)
    c, s = math.cos(2.0 * e.axis_angle), math.sin(2.0 * e.axis_angle)
    k = 1.0 / math.sqrt(2.0)
    off = complex(0.0, -k * s)
    return 1.0 + 0.0j, complex(k, -k * c), off, off, complex(k, k * c)


def _half_wave(e):
    # -i(cos2a sigma3 + sin2a sigma1), the exact square of the quarter-wave
    c, s = math.cos(2.0 * e.axis_angle), math.sin(2.0 * e.axis_angle)
    off = complex(0.0, -s)
    return 1.0 + 0.0j, complex(0.0, -c), off, off, complex(0.0, c)


def _attenuator(e):
    h = 0.5 * (e.eta2 - e.eta1)
    return cmath.exp(-0.5 * (e.eta1 + e.eta2)), math.exp(h), 0.0, 0.0, math.exp(-h)


# The element registry: kind -> (.pol keyword, .pol keys in field order,
# linear-basis (scale, a, b, c, d) of F = scale [[a, b], [c, d]]), the
# closed forms of the module docstring.  The DSL and the CLI read it.
ELEMENTS = {
    PhaseShifter: ("shifter", ("d1", "d2"), _shifter),
    Rotator: ("rotate", ("alpha",), _rotator),
    Gyrotropic: ("gyro", ("d1", "d2"), _gyrotropic),
    QuarterWave: ("qwp", ("axis",), _quarter_wave),
    HalfWave: ("hwp", ("axis",), _half_wave),
    Attenuator: ("atten", ("e1", "e2"), _attenuator),
}


def _entries(e, scaled=False):
    """Linear-basis (scale, a, b, c, d) of one element, from its closed form.  scaled is for the
    routes that multiply scale into m: an attenuator's scale, the one not of modulus 1, may fall
    below the smallest normal float, where scale m rounds F to 0; there it gives scale 1, m = F."""
    kind = ELEMENTS.get(type(e))
    if kind is None:
        raise TypeError(f"not a filter element: {e!r}")
    form = kind[2](e)
    if scaled and type(e) is Attenuator and form[0].real < sys.float_info.min:
        return 1.0 + 0.0j, math.exp(-e.eta1), 0.0, 0.0, math.exp(-e.eta2)
    return form


def _matrix(entries, basis):
    """ElementMatrix of a linear (scale, a, b, c, d) in a basis: circular is U^-1 m U."""
    import numpy as np
    scale, a, b, c, d = entries
    _check_basis(basis)
    if basis == "circular":  # m = p + q . sigma; re-expand U^-1 m U in the standard Pauli set
        p = 0.5 * a + 0.5 * d
        q1, q2, q3 = linear_to_circular(0.5 * (b + c), 0.5j * (b - c), 0.5 * a - 0.5 * d)
        a, b, c, d = p + q3, q1 - 1j * q2, q1 + 1j * q2, p - q3
    return ElementMatrix(np.array([[a, b], [c, d]], dtype=complex), scale, basis)


def element_matrix(e, basis="circular"):
    return _matrix(_entries(e), basis)


def matrix_circular(e):
    """Circular-basis (scale, m) for one element."""
    return element_matrix(e, "circular")


def matrix_linear(e):
    """Linear-basis matrix U m U^-1, same scale."""
    return element_matrix(e, "linear")


def _extinction(flux):
    return ExtinctionError(f"flux {flux!r} underflows below the smallest normal float "
                           f"({FLUX_MIN:.4g})")


def _step(entries, amp, c1, c2):
    """(A', o') of one element F = scale [[a, b], [c, d]] on a wave A o, o its Jones spinor U o:
    v = F o, A' = A ||v||, o' = v / ||v||.  A flux below FLUX_MIN raises ExtinctionError (exit 3);
    then _check_wave, the one check of a stepped wave, holds A' and o' to the WaveState
    invariants (its flux test, which raises the constructor's ValueError, then always passes)."""
    scale, a, b, c, d = entries
    v1 = scale * (a * c1 + b * c2)
    v2 = scale * (c * c1 + d * c2)
    n = math.sqrt(v1.real**2 + v2.real**2 + v1.imag**2 + v2.imag**2)
    if abs(n - 1.0) > _UNIT_GAIN:  # else A is kept bit for bit
        if n < 2.0**-510:  # v's squares may have underflowed: the norm without squares
            n = math.hypot(abs(v1), abs(v2))
        amp *= n
    if not amp * amp >= FLUX_MIN:
        raise _extinction(amp * amp)
    return _check_wave(amp, v1 / n, v2 / n)


def apply(e, w):
    """Pass a wave through one element: v = F U o, A' = A ||v||, in the linear basis.

    The result, checked by _step and wrapped by WaveState._of, holds the Jones spinor v / ||v||
    and, as every wave does, its spinor U^-1 v / ||v||.  The global phase of v is retained, so
    the Pancharatnam phase against the input reflects the element's phase.
    """
    entries = getattr(e, "_linear", None)  # e's linear form, kept for the next beam
    if entries is None:  # first use; not a field, so == and hash are unchanged
        object.__setattr__(e, "_linear", entries := _entries(e, scaled=True))
    c1, c2 = w._jones
    amp, c1, c2 = _step(entries, w.amplitude, c1, c2)
    return WaveState._of(amp, c1, c2)


def classify(e):
    """Rotation (axis, angle) for SU(2) elements; conformal map for attenuators.

    An SU(2) matrix exp(i (psi/2) n.sigma) rotates the Poincare sphere by
    -psi about n; the angle is reported with psi in [0, 2pi].
    """
    import numpy as np
    if isinstance(e, Attenuator):
        return ConformalMap(np.array([1.0, 0.0, 0.0]), e.eta2 - e.eta1)
    c, *v = _quaternion(*_entries(e)[1:])  # linear; its circular v is linear_to_circular(v)
    vn = math.hypot(*v)
    psi = 2.0 * math.atan2(vn, c)
    if vn < 1e-15:
        axis = np.array([1.0, 0.0, 0.0])  # identity (or -I); axis arbitrary
    else:
        axis = np.array(linear_to_circular(*v)) / vn
    return PoincareRotation(axis, -psi)


def _prefixes(train):
    """(a, b, c, d) of F = [[a, b], [c, d]] of each prefix of a train in the linear basis, the
    first element first: each element's scale is multiplied into its m, so that no factor has
    an entry above 1 in modulus, however strong its attenuation; the product is the plain one."""
    a, b, c, d = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    e = None  # still None after the loop only if train was empty (None is no element)
    for e in train:
        s, ea, eb, ec, ed = _entries(e, scaled=True)
        ea, eb, ec, ed = s * ea, s * eb, s * ec, s * ed
        a, b, c, d = ea * a + eb * c, ea * b + eb * d, ec * a + ed * c, ec * b + ed * d
        yield a, b, c, d
    if e is None:
        raise EmptyTrainError("train has no elements")


def _fold(train):
    """(a, b, c, d) of a train's F, the last of its prefixes."""
    return deque(_prefixes(train), maxlen=1)[0]


_last_fold = None  # (elements, product, Mueller matrix or None); keeps the ids unique


def _train_product(train):
    """_fold(train), reused while train holds the same element objects (`is`, in order);
    a fold that returns replaces the one entry, whole."""
    global _last_fold
    elements, last = tuple(train), _last_fold
    if last and len(last[0]) == len(elements) and not any(map(is_not, last[0], elements)):
        return last[1]
    product = _fold(elements)
    _last_fold = elements, product, None
    return product


def compose(train, basis="circular"):
    """Matrix of a train, first element applied first (rightmost factor): the products of
    the elements' linear scales and m.  Raises FloatRangeError where m overflows or scale
    underflows to 0 as factors of an F that does not (strong attenuators)."""
    forms = [_entries(e) for e in train]
    if not forms:
        raise EmptyTrainError("train has no elements")
    scale, a, b, c, d = 1.0 + 0.0j, 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    for s, ea, eb, ec, ed in forms:
        a, b, c, d = ea * a + eb * c, ea * b + eb * d, ec * a + ed * c, ec * b + ed * d
        scale *= s
    em = _matrix((scale, a, b, c, d), basis)
    if not all(map(cmath.isfinite, em.m.flat)):
        raise FloatRangeError("the unimodular factor m of the train overflows a float")
    if not scale:
        raise FloatRangeError("the scale of the train underflows a float")
    return em

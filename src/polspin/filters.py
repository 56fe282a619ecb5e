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
`compose` folds each element's (scale, a, b, c, d) into a running product
of Python complex scalars, in either basis, and builds one ndarray at the end.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EmptyTrainError, ExtinctionError
from .pauli import circular_to_linear
from .spinor import Spinor2, WaveState, _quaternion


@dataclass(frozen=True)
class PhaseShifter:
    delta1: float
    delta2: float


@dataclass(frozen=True)
class Rotator:
    alpha: float


@dataclass(frozen=True)
class Gyrotropic:
    delta1: float
    delta2: float


@dataclass(frozen=True)
class QuarterWave:
    axis_angle: float


@dataclass(frozen=True)
class HalfWave:
    axis_angle: float


@dataclass(frozen=True)
class Attenuator:
    eta1: float
    eta2: float

    def __post_init__(self):
        if self.eta1 < 0.0 or self.eta2 < 0.0:
            raise ValueError("attenuation exponents must be nonnegative")


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
    """(scale, a, b, c, d) of one element as Python scalars, in either basis."""
    kind = ELEMENTS.get(type(e))
    if kind is None:
        raise TypeError(f"not a filter element: {e!r}")
    scale, a, b, c, d = kind[2](e)
    if basis == "circular":
        return scale, a, b, c, d
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


def apply(e, w):
    """Pass a wave through one element: v = scale * m * o, A' = A ||v||.

    The global phase of v is retained in the spinor components, so the
    Pancharatnam phase against the input reflects the element's phase.
    """
    scale, a, b, c, d = _entries(e)
    c1, c2 = w.spinor.c1, w.spinor.c2
    v1 = scale * (a * c1 + b * c2)
    v2 = scale * (c * c1 + d * c2)
    n = math.sqrt(v1.real**2 + v2.real**2 + v1.imag**2 + v2.imag**2)
    if n < 1e-300:
        raise ExtinctionError("filter annihilated the state")
    return WaveState(w.amplitude * n, Spinor2(v1 / n, v2 / n))


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


def compose(train, basis="circular"):
    """Matrix of a train, first element applied first (rightmost factor)."""
    if not train:
        raise EmptyTrainError("train has no elements")
    scale, a, b, c, d = 1.0 + 0.0j, 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    for e in train:
        s, ea, eb, ec, ed = _entries(e, basis)
        a, b, c, d = ea * a + eb * c, ea * b + eb * d, ec * a + ed * c, ec * b + ed * d
        scale *= s
    return ElementMatrix(np.array([[a, b], [c, d]], dtype=complex), scale, basis)

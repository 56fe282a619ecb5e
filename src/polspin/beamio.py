"""Beam JSON handling shared by the CLI and the `.pol` DSL.

A beam JSON object takes exactly one of three forms:

    {"angles": {"theta": r, "phi": r, "chi": r, "amp": r}}
    {"stokes": [s0, s1, s2, s3]}
    {"jones": {"a1": r, "a2": r, "phi1": r, "phi2": r}}

Angles are radians and every number must be finite.  A Stokes beam may be
mixed (s0^2 > |s_vec|^2); the other two forms always describe a pure wave.
The same three forms, with the same keys, are the `.pol` beam statements.
"""

import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

from .errors import PolspinError, ZeroFluxError
from .partial import _check_stokes, degree_of_polarization
from .spinor import (
    AngleSet,
    JonesAmpPhase,
    StokesVector,
    WaveState,
    spinor_from_angles,
    stokes_from_wave,
    wave_from_jones,
    wave_from_stokes,
)

PURITY_TOL = 1e-12


@dataclass(frozen=True)
class AnglesBeam:
    """Sphere angles plus amplitude of a pure beam, as declared."""

    theta: float
    phi: float
    chi: float
    amp: float


BeamDecl = Union[AnglesBeam, StokesVector, JonesAmpPhase]

# Beam form -> (declaration class, keys in field order); the Stokes form is
# a JSON list in this order.
BEAM_FORMS = {
    "angles": (AnglesBeam, ("theta", "phi", "chi", "amp")),
    "stokes": (StokesVector, ("s0", "s1", "s2", "s3")),
    "jones": (JonesAmpPhase, ("a1", "a2", "phi1", "phi2")),
}


@dataclass
class Beam:
    """Either a pure wave (wave set) or a mixed Stokes beam (wave None)."""

    stokes: StokesVector
    wave: Optional[WaveState] = None

    @property
    def pure(self):
        return self.wave is not None


class BeamFormatError(PolspinError):
    """Beam JSON does not match any accepted form."""


def _require_number(v, where):
    # integers arrive as floats (parse_int=float); NaN, Infinity and
    # out-of-range literals such as 1e400 are rejected here
    if not isinstance(v, float) or not math.isfinite(v):
        raise BeamFormatError(f"{where} must be a finite number")
    return v


def beam_from_wave(wave):
    s = stokes_from_wave(wave)
    # a subnormal s0 has lost digits, and so has the direction s_vec / s0
    if not s.s0 >= sys.float_info.min:
        raise ZeroFluxError(
            f"flux A^2 of amplitude {wave.amplitude} underflows "
            f"(below {sys.float_info.min:.4g})"
        )
    return Beam(s, wave)


def beam_from_stokes(s, tol=PURITY_TOL):
    """Classify a Stokes vector as pure or mixed; reject over-polarized input."""
    _check_stokes(s)
    if s.s0 > 0.0 and degree_of_polarization(s) >= 1.0 - tol:
        return Beam(s, wave_from_stokes(s))
    return Beam(s, None)


def parse_beam_json(text, tol=PURITY_TOL):
    """Parse one beam JSON object into a Beam."""
    try:
        obj = json.loads(text, parse_int=float)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise BeamFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict) or len(obj) != 1:
        raise BeamFormatError(
            "beam JSON must be an object with exactly one of "
            "'angles', 'stokes', 'jones'"
        )
    (form, body), = obj.items()
    if form not in BEAM_FORMS:
        raise BeamFormatError(f"unknown beam form {form!r}")
    cls, keys = BEAM_FORMS[form]
    if form == "stokes":
        if not isinstance(body, list) or len(body) != len(keys):
            raise BeamFormatError("'stokes' must be a list of four numbers")
        body = dict(zip(keys, body))
    elif not isinstance(body, dict):
        raise BeamFormatError(f"{form!r} must map to an object")
    values = [_require_number(body.get(k), f"{form}.{k}") for k in keys]
    try:
        return beam_from_decl(cls(*values), tol)
    except ValueError as exc:
        raise BeamFormatError(str(exc)) from exc


def beam_from_decl(decl, tol=PURITY_TOL):
    """Beam from a beam declaration (parsed from JSON or a `.pol` statement)."""
    if isinstance(decl, AnglesBeam):
        ang = AngleSet(decl.theta, decl.phi, decl.chi)
        return beam_from_wave(WaveState(decl.amp, spinor_from_angles(ang)))
    if isinstance(decl, StokesVector):
        return beam_from_stokes(decl, tol)
    if isinstance(decl, JonesAmpPhase):
        return beam_from_wave(wave_from_jones(decl))
    raise TypeError(f"not a beam declaration: {decl!r}")

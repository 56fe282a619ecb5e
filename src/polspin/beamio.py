"""Beam JSON handling shared by the CLI and the `.pol` DSL.

A beam JSON object takes exactly one of three forms:

    {"angles": {"theta": r, "phi": r, "chi": r, "amp": r}}
    {"stokes": [s0, s1, s2, s3]}
    {"jones": {"a1": r, "a2": r, "phi1": r, "phi2": r}}

Angles are radians, every number must be finite, and an object holds no
other key.  A Stokes beam may be mixed (s0^2 > |s_vec|^2); the other two
forms always describe a pure wave.
The same three forms, with the same keys, are the `.pol` beam statements.
"""

import json
import math

from .errors import PolspinError
from .partial import _check_stokes, degree_of_polarization
from .spinor import (PURITY_FLOOR, AngleSet, JonesAmpPhase, StokesVector, WaveState, _Record,
                     spinor_from_angles, stokes_from_wave, wave_from_jones, wave_from_stokes)

PURITY_TOL = 1e-12
_DECODER = json.JSONDecoder(parse_int=float)  # json.loads(..., parse_int=float) makes one per call


class AnglesBeam(_Record):
    """Sphere angles plus amplitude of a pure beam, as declared."""

    theta: float
    phi: float
    chi: float
    amp: float


class Beam(_Record):
    """Either a pure wave (wave set) or a mixed Stokes beam (wave None)."""

    stokes: StokesVector
    wave: "WaveState | None"

    @property
    def pure(self):
        return self.wave is not None


class BeamFormatError(PolspinError):
    """Beam JSON does not match any accepted form."""


def beam_from_wave(wave):
    return Beam(stokes_from_wave(wave), wave)


def beam_from_stokes(s, tol=PURITY_TOL):
    """Classify a Stokes vector as pure (DoP >= 1 - tol) or mixed; reject over-polarized input.
    tol must be below 1 and not NaN; below 0 every beam is mixed.  A pure beam's wave is
    checked at tol, or at PURITY_FLOOR if tol is less."""
    if not tol < 1.0:  # at 1 even unpolarized light would read as pure
        raise ValueError(f"purity tolerance must be below 1: {tol!r}")
    _check_stokes(s)
    if s.s0 > 0.0 and degree_of_polarization(s) >= 1.0 - tol:
        return Beam(s, wave_from_stokes(s, max(tol, PURITY_FLOOR)))
    return Beam(s, None)


# Beam form -> (declaration class, keys in field order, (decl, tol) -> Beam); Stokes is a JSON list
BEAM_FORMS = {
    "angles": (AnglesBeam, ("theta", "phi", "chi", "amp"), lambda d, tol: beam_from_wave(
        WaveState(d.amp, spinor_from_angles(AngleSet(d.theta, d.phi, d.chi))))),
    "stokes": (StokesVector, ("s0", "s1", "s2", "s3"), beam_from_stokes),
    "jones": (JonesAmpPhase, ("a1", "a2", "phi1", "phi2"),
              lambda d, tol: beam_from_wave(wave_from_jones(d))),
}


def _decode_json(text):
    """json.loads(text, parse_int=float), on the shared decoder for str without a BOM."""
    try:
        if isinstance(text, str) and not text.startswith("\ufeff"):
            return _DECODER.decode(text)
        return json.loads(text, parse_int=float)  # its own handling of bytes and a BOM
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise BeamFormatError(f"malformed JSON: {exc}") from exc


def parse_beam_json(text, tol=PURITY_TOL):
    """Parse one beam JSON object into a Beam."""
    return _beam_from_json(_decode_json(text), tol)


def _beam_from_json(obj, tol=PURITY_TOL):
    """Beam from one decoded beam JSON object."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise BeamFormatError("beam JSON must be an object with exactly one of "
                              "'angles', 'stokes', 'jones'")
    (form, body), = obj.items()
    if form not in BEAM_FORMS:
        raise BeamFormatError(f"unknown beam form {form!r}")
    cls, keys, build = BEAM_FORMS[form]
    if form == "stokes":
        if not isinstance(body, list) or len(body) != len(keys):
            raise BeamFormatError("'stokes' must be a list of four numbers")
        body = dict(zip(keys, body))
    elif not isinstance(body, dict):
        raise BeamFormatError(f"{form!r} must map to an object")
    values = [body.get(k) for k in keys]
    # integers arrive as floats (parse_int=float); NaN, Infinity and
    # out-of-range literals such as 1e400 are rejected here
    numbers = [isinstance(v, float) and math.isfinite(v) for v in values]
    if len(body) != len(keys) or not all(numbers):  # only a failing beam looks for other keys
        extra = next((k for k in body if k not in keys), None)  # a misspelled key reads as missing
        if extra is not None:
            raise BeamFormatError(f"unknown key {extra!r} for {form!r}")
        raise BeamFormatError(f"{form}.{keys[numbers.index(False)]} must be a finite number")
    try:
        return build(cls(*values), tol)
    except ValueError as exc:
        raise BeamFormatError(str(exc)) from exc

"""Line-oriented parser and serializer for `.pol` optical-train files.

One statement per line; `#` starts a comment.  Statements:

    beam angles theta=<r> phi=<r> chi=<r> amp=<r>
    beam stokes s0=<r> s1=<r> s2=<r> s3=<r>
    beam jones a1=<r> a2=<r> phi1=<r> phi2=<r>
    shifter d1=<r> d2=<r>
    rotate alpha=<r>
    gyro d1=<r> d2=<r>
    qwp axis=<r>
    hwp axis=<r>
    atten e1=<r> e2=<r>

Angles are radians; a `deg(<r>)` value is converted at parse time.
key=value pairs may appear in any order within a line; duplicates are
errors.  Parsing recovers per line: one bad line yields one diagnostic
and later lines are still parsed.  Serialization is canonical (grammar
key order, shortest round-tripping decimals, LF endings).
"""

import math
import re
from dataclasses import dataclass, field
from typing import List, Tuple, Union

from .filters import (
    Attenuator,
    Gyrotropic,
    HalfWave,
    PhaseShifter,
    QuarterWave,
    Rotator,
)
from .spinor import TWO_PI


@dataclass(frozen=True)
class AnglesBeam:
    theta: float
    phi: float
    chi: float
    amp: float


@dataclass(frozen=True)
class StokesBeam:
    s0: float
    s1: float
    s2: float
    s3: float


@dataclass(frozen=True)
class JonesBeam:
    a1: float
    a2: float
    phi1: float
    phi2: float


BeamDecl = Union[AnglesBeam, StokesBeam, JonesBeam]


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str
    line: int
    column: int
    message: str
    offending_token: str


@dataclass
class TrainDocument:
    beams: List[BeamDecl] = field(default_factory=list)
    elements: List[object] = field(default_factory=list)
    # (line, col_start, col_end) per beam / per element, in document order
    beam_spans: List[Tuple[int, int, int]] = field(default_factory=list)
    element_spans: List[Tuple[int, int, int]] = field(default_factory=list)

    def same_content(self, other):
        return self.beams == other.beams and self.elements == other.elements


@dataclass
class ParseResult:
    document: TrainDocument
    diagnostics: List[ParseDiagnostic]

    @property
    def ok(self):
        return not any(d.severity == "error" for d in self.diagnostics)


_BEAM_KEYS = {
    "angles": ("theta", "phi", "chi", "amp"),
    "stokes": ("s0", "s1", "s2", "s3"),
    "jones": ("a1", "a2", "phi1", "phi2"),
}
_ELEMENT_KEYS = {
    "shifter": ("d1", "d2"),
    "rotate": ("alpha",),
    "gyro": ("d1", "d2"),
    "qwp": ("axis",),
    "hwp": ("axis",),
    "atten": ("e1", "e2"),
}

_DEG_RE = re.compile(r"^deg\((.+)\)$")
_TOKEN_RE = re.compile(r"\S+")


def _parse_number(text):
    """Float literal or deg(<float>); returns None on malformed/non-finite."""
    deg = _DEG_RE.match(text)
    raw = deg.group(1) if deg else text
    try:
        value = float(raw)
    except ValueError:
        return None
    if not math.isfinite(value):
        return None
    return math.radians(value) if deg else value


def _validate(kind, values):
    """Range check for one statement; returns (key, message) or None."""
    if kind == "angles":
        if not 0.0 <= values["theta"] <= math.pi:
            return "theta", "theta must lie in [0, pi]"
        if not 0.0 <= values["phi"] < TWO_PI:
            return "phi", "phi must lie in [0, 2pi)"
        if not 0.0 <= values["chi"] < TWO_PI:
            return "chi", "chi must lie in [0, 2pi)"
        if not values["amp"] > 0.0:
            return "amp", "amp must be positive"
    elif kind == "stokes":
        if values["s0"] < 0.0:
            return "s0", "s0 must be nonnegative"
        excess = (
            values["s1"] ** 2
            + values["s2"] ** 2
            + values["s3"] ** 2
            - values["s0"] ** 2
        )
        if excess > 1e-9 * max(values["s0"] ** 2, 1e-30):
            return "s0", "over-polarized: s1^2 + s2^2 + s3^2 exceeds s0^2"
    elif kind == "jones":
        if values["a1"] < 0.0 or values["a2"] < 0.0:
            return "a1", "Jones amplitudes must be nonnegative"
        if values["a1"] == 0.0 and values["a2"] == 0.0:
            return "a1", "Jones amplitudes must not both be zero"
    elif kind == "atten":
        if values["e1"] < 0.0 or values["e2"] < 0.0:
            return "e1", "attenuation exponents must be nonnegative"
    return None


def _build(kind, values):
    if kind == "angles":
        return AnglesBeam(values["theta"], values["phi"], values["chi"], values["amp"])
    if kind == "stokes":
        return StokesBeam(values["s0"], values["s1"], values["s2"], values["s3"])
    if kind == "jones":
        return JonesBeam(values["a1"], values["a2"], values["phi1"], values["phi2"])
    if kind == "shifter":
        return PhaseShifter(values["d1"], values["d2"])
    if kind == "rotate":
        return Rotator(values["alpha"])
    if kind == "gyro":
        return Gyrotropic(values["d1"], values["d2"])
    if kind == "qwp":
        return QuarterWave(values["axis"])
    if kind == "hwp":
        return HalfWave(values["axis"])
    if kind == "atten":
        return Attenuator(values["e1"], values["e2"])
    raise AssertionError(kind)


def parse_train(source):
    """Parse `.pol` text into a TrainDocument plus diagnostics."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            doc = TrainDocument()
            return ParseResult(
                doc,
                [
                    ParseDiagnostic(
                        "error", 1, 1, f"input is not valid UTF-8: {exc}", ""
                    )
                ],
            )
    doc = TrainDocument()
    diagnostics = []

    def error(line_no, column, message, token):
        diagnostics.append(
            ParseDiagnostic("error", line_no, column, message, token)
        )

    for line_no, line in enumerate(source.split("\n"), start=1):
        line = line.rstrip("\r")
        code = line.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(code)]
        if not tokens:
            continue
        head, head_col = tokens[0]
        if head == "beam":
            if len(tokens) < 2:
                error(line_no, head_col, "beam statement missing its form", head)
                continue
            kind, kind_col = tokens[1]
            if kind not in _BEAM_KEYS:
                error(line_no, kind_col, f"unknown beam form {kind!r}", kind)
                continue
            keys = _BEAM_KEYS[kind]
            pairs = tokens[2:]
            is_beam = True
        else:
            kind, kind_col = head, head_col
            if kind not in _ELEMENT_KEYS:
                error(line_no, kind_col, f"unknown statement {kind!r}", kind)
                continue
            keys = _ELEMENT_KEYS[kind]
            pairs = tokens[1:]
            is_beam = False

        values = {}
        bad = False
        for token, col in pairs:
            if "=" not in token:
                error(line_no, col, f"expected key=value, got {token!r}", token)
                bad = True
                break
            key, _, raw = token.partition("=")
            if key not in keys:
                error(line_no, col, f"unknown key {key!r} for {kind!r}", token)
                bad = True
                break
            if key in values:
                error(line_no, col, f"duplicate key {key!r}", token)
                bad = True
                break
            value = _parse_number(raw)
            if value is None:
                error(line_no, col, f"malformed or non-finite number {raw!r}", token)
                bad = True
                break
            values[key] = value
        if bad:
            continue
        missing = [k for k in keys if k not in values]
        if missing:
            error(line_no, head_col, f"missing key {missing[0]!r} for {kind!r}", head)
            continue
        violation = _validate(kind, values)
        if violation is not None:
            key, message = violation
            error(line_no, head_col, message, f"{key}={values[key]!r}")
            continue
        span = (line_no, head_col, tokens[-1][1] + len(tokens[-1][0]))
        item = _build(kind, values)
        if is_beam:
            doc.beams.append(item)
            doc.beam_spans.append(span)
        else:
            doc.elements.append(item)
            doc.element_spans.append(span)
    return ParseResult(doc, diagnostics)


def _fmt(x):
    # shortest decimal that reparses to the identical double
    return repr(float(x))


def _statement(item):
    if isinstance(item, AnglesBeam):
        return (
            f"beam angles theta={_fmt(item.theta)} phi={_fmt(item.phi)} "
            f"chi={_fmt(item.chi)} amp={_fmt(item.amp)}"
        )
    if isinstance(item, StokesBeam):
        return (
            f"beam stokes s0={_fmt(item.s0)} s1={_fmt(item.s1)} "
            f"s2={_fmt(item.s2)} s3={_fmt(item.s3)}"
        )
    if isinstance(item, JonesBeam):
        return (
            f"beam jones a1={_fmt(item.a1)} a2={_fmt(item.a2)} "
            f"phi1={_fmt(item.phi1)} phi2={_fmt(item.phi2)}"
        )
    if isinstance(item, PhaseShifter):
        return f"shifter d1={_fmt(item.delta1)} d2={_fmt(item.delta2)}"
    if isinstance(item, Rotator):
        return f"rotate alpha={_fmt(item.alpha)}"
    if isinstance(item, Gyrotropic):
        return f"gyro d1={_fmt(item.delta1)} d2={_fmt(item.delta2)}"
    if isinstance(item, QuarterWave):
        return f"qwp axis={_fmt(item.axis_angle)}"
    if isinstance(item, HalfWave):
        return f"hwp axis={_fmt(item.axis_angle)}"
    if isinstance(item, Attenuator):
        return f"atten e1={_fmt(item.eta1)} e2={_fmt(item.eta2)}"
    raise TypeError(f"cannot serialize {item!r}")


def serialize_train(doc):
    """Canonical text form: beams first, then elements, one per line, LF."""
    lines = [_statement(b) for b in doc.beams]
    lines += [_statement(e) for e in doc.elements]
    return "\n".join(lines) + ("\n" if lines else "")

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
from dataclasses import dataclass, field, fields
from typing import List, Tuple

from .beamio import BEAM_FORMS, AnglesBeam, BeamDecl, beam_from_decl
from .errors import PolspinError
from .filters import ELEMENTS
from .spinor import JonesAmpPhase, StokesVector

# The `.pol` beam declarations (AnglesBeam, StokesBeam, JonesBeam) are the
# classes of the beam JSON forms.
StokesBeam = StokesVector
JonesBeam = JonesAmpPhase


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


_ELEMENT_STATEMENTS = {name: (cls, keys) for cls, (name, keys, _) in ELEMENTS.items()}
# class -> (statement head, keys in field order), for serialization
_HEADS = {cls: (name, keys) for name, (cls, keys) in _ELEMENT_STATEMENTS.items()}
_HEADS.update({cls: (f"beam {form}", keys) for form, (cls, keys) in BEAM_FORMS.items()})

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
            if kind not in BEAM_FORMS:
                error(line_no, kind_col, f"unknown beam form {kind!r}", kind)
                continue
            cls, keys = BEAM_FORMS[kind]
            pairs = tokens[2:]
        else:
            kind, kind_col = head, head_col
            if kind not in _ELEMENT_STATEMENTS:
                error(line_no, kind_col, f"unknown statement {kind!r}", kind)
                continue
            cls, keys = _ELEMENT_STATEMENTS[kind]
            pairs = tokens[1:]

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
        span = (line_no, head_col, tokens[-1][1] + len(tokens[-1][0]))
        # range checks live in the constructors (and, for beams, in the
        # conversion to a Beam); a failure is one diagnostic for the statement
        try:
            item = cls(*[values[k] for k in keys])
            if head == "beam":
                beam_from_decl(item)
        except (ValueError, PolspinError) as exc:
            error(line_no, head_col, str(exc), code[head_col - 1 : span[2] - 1])
            continue
        if head == "beam":
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
    syntax = _HEADS.get(type(item))
    if syntax is None:
        raise TypeError(f"cannot serialize {item!r}")
    head, keys = syntax
    values = [getattr(item, f.name) for f in fields(item)]
    return " ".join([head] + [f"{k}={_fmt(v)}" for k, v in zip(keys, values)])


def serialize_train(doc):
    """Canonical text form: beams first, then elements, one per line, LF."""
    lines = [_statement(b) for b in doc.beams]
    lines += [_statement(e) for e in doc.elements]
    return "\n".join(lines) + ("\n" if lines else "")

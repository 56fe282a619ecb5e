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

One table, keyed by the head (`beam <form>` for a beam), reads every statement.
Angles are radians; `deg(<r>)` is converted at parse time, for an angle key (_ANGLE_KEYS) only.
key=value pairs may appear in any order within a line; duplicates are
errors.  Parsing recovers per line: one bad line yields one diagnostic
and later lines are still parsed.  Serialization is canonical (grammar
key order, shortest round-tripping decimals, LF endings).  Bytes are read
as a file's content: UTF-8 with universal newlines (CRLF and CR end a
line, as in text mode); a str is taken as given, so a lone CR in it is
whitespace.
"""

import math
import re

from .beamio import BEAM_FORMS, PURITY_TOL, AnglesBeam
from .errors import PolspinError
from .filters import ELEMENTS
from .spinor import JonesAmpPhase, StokesVector, _Record

# The `.pol` beam declarations (AnglesBeam, StokesBeam, JonesBeam) are the
# classes of the beam JSON forms.
StokesBeam = StokesVector
JonesBeam = JonesAmpPhase


class ParseDiagnostic(_Record):
    severity: str
    line: int
    column: int
    message: str
    offending_token: str


class TrainDocument(_Record):
    beams: list
    elements: list
    # (line, col_start, col_end) per beam / per element, in document order
    beam_spans: list
    element_spans: list

    def __new__(cls, beams: list = None, elements: list = None, beam_spans: list = None,
                element_spans: list = None):  # a list not given is a new empty one
        given = beams, elements, beam_spans, element_spans
        return cls._held(*([] if x is None else x for x in given))

    def same_content(self, other):
        return self.beams == other.beams and self.elements == other.elements


class ParseResult(_Record):
    document: TrainDocument
    diagnostics: list

    @property
    def ok(self):
        return not any(d.severity == "error" for d in self.diagnostics)


# The one statement table: head -> (class, keys in field order, (decl, tol) -> Beam for a beam,
# None for an element); a beam's head is "beam <form>"
_STATEMENTS = {name: (cls, keys, None) for cls, (name, keys, _) in ELEMENTS.items()}
_STATEMENTS.update((f"beam {form}", entry) for form, entry in BEAM_FORMS.items())
# its inverse, for serialization: class -> (head, (key, field name) pairs in field order)
_HEADS = {cls: (head, tuple(zip(keys, cls.__match_args__)))
          for head, (cls, keys, _) in _STATEMENTS.items()}

_ANGLE_KEYS = frozenset(("d1", "d2", "alpha", "axis", "theta", "phi", "chi", "phi1", "phi2"))
# only for diagnostic columns; splits where str.split() and str.strip() do
_TOKEN_RE = re.compile(r"\S+")


def _number(text, key):
    """float(text), else deg(<float>) in radians for an angle key; None for any other text."""
    try:
        return float(text)
    except ValueError:
        if not (text.startswith("deg(") and text.endswith(")")) or key not in _ANGLE_KEYS:
            return None
    try:
        return math.radians(float(text[4:-1]))
    except ValueError:
        return None


def parse_train(source):
    """Parse `.pol` text, or a file's bytes, into a TrainDocument plus diagnostics."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            diagnostic = ParseDiagnostic("error", 1, 1, f"input is not valid UTF-8: {exc}", "")
            return ParseResult(TrainDocument(), [diagnostic])
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    doc = TrainDocument()
    diagnostics = []

    def error(index, message, token):
        # at the index-th token of the current line; columns are found only here
        column = [m.start() for m in _TOKEN_RE.finditer(code)][index] + 1
        diagnostics.append(ParseDiagnostic("error", line_no, column, message, token))

    for line_no, line in enumerate(source.split("\n"), start=1):
        # in a str, a CRLF's "\r" is whitespace to str.split() and str.strip()
        code = line.split("#", 1)[0] if "#" in line else line
        words = code.split()
        if not words:
            continue
        head = name = kind = words[0]
        first = 1  # the index of the first key=value token
        if head == "beam":
            if len(words) < 2:
                error(0, "beam statement missing its form", head)
                continue
            kind, name, first = words[1], f"beam {words[1]}", 2
        syntax = _STATEMENTS.get(name)
        if syntax is None:
            error(first - 1, f"unknown {'statement' if first == 1 else 'beam form'} {kind!r}", kind)
            continue
        cls, keys, build = syntax

        values = {}
        message = None
        for index, token in enumerate(words[first:], first):
            key, eq, raw = token.partition("=")
            if not eq:
                message = f"expected key=value, got {token!r}"
            elif key not in keys:
                message = f"unknown key {key!r} for {kind!r}"
            elif key in values:
                message = f"duplicate key {key!r}"
            else:
                value = _number(raw, key)
                if value is not None and math.isfinite(value):
                    values[key] = value
                    continue
                message = (f"deg() is for angles, not for {key!r}"
                           if raw.startswith("deg(") and key not in _ANGLE_KEYS
                           else f"malformed or non-finite number {raw!r}")
            error(index, message, token)
            break
        if message is not None:
            continue
        if len(values) < len(keys):
            missing = next(k for k in keys if k not in values)
            error(0, f"missing key {missing!r} for {kind!r}", head)
            continue
        statement = code.strip()
        # range checks live in the constructors (and, for beams, in the
        # conversion to a Beam); a failure is one diagnostic for the statement
        try:
            item = cls(*[values[k] for k in keys])
            if build:
                build(item, PURITY_TOL)
        except (ValueError, PolspinError) as exc:
            error(0, str(exc), statement)
            continue
        items, spans = (doc.beams, doc.beam_spans) if build else (doc.elements, doc.element_spans)
        head_col = code.find(head) + 1
        items.append(item)
        spans.append((line_no, head_col, head_col + len(statement)))
    return ParseResult(doc, diagnostics)


def _fmt(x):
    # shortest decimal that reparses to the identical double
    return repr(float(x))


def _statement(item):
    syntax = _HEADS.get(type(item))
    if syntax is None:
        raise TypeError(f"cannot serialize {item!r}")
    head, pairs = syntax
    return " ".join([head] + [f"{k}={_fmt(getattr(item, name))}" for k, name in pairs])


def serialize_train(doc):
    """Canonical text form: beams first, then elements, one per line, LF."""
    lines = [_statement(b) for b in doc.beams]
    lines += [_statement(e) for e in doc.elements]
    return "\n".join(lines) + ("\n" if lines else "")

"""A seeded corpus of `.pol` lines, parsed and pinned by one digest.

`corpus` writes LINES lines from one seeded random.Random: statements of every element head
and beam form, with keys in any order, values as reprs, short decimals, exponents and
`deg()`; comments, blank lines and unusual whitespace around and between the tokens; and, one
line in four, a line that fails on one of the parser's diagnostic branches.  The text is
parsed as a str and, with CRLF line ends, as a file's bytes.  DIGEST is the sha256 of the
`repr` of the elements, the beams, both span lists and the diagnostics, recorded at commit
d661af4 and again when `deg()` became an angle-key form: the corpus writes `deg()` values for
`e1`, `e2`, `amp`, `a1` and `a2` too, and those are diagnostics since.  A change to the parser
that moves one value, span, column or message moves it.
"""

import hashlib
import math
import random

from polspin.beamio import BEAM_FORMS
from polspin.dsl import parse_train
from polspin.filters import ELEMENTS

LINES = 3000
STATEMENTS = {name: keys for name, keys, _ in ELEMENTS.values()}
STATEMENTS.update({f"beam {form}": keys for form, (_, keys, _) in BEAM_FORMS.items()})
SPACES = (" ", " ", " ", "  ", "\t", " \t ", "\xa0", "\x1c", "\f", "\v", "\u2003")
TWO_PI = 2.0 * math.pi


def number(rng, low, high):
    x = rng.uniform(low, high)
    style = rng.randrange(6)
    if style == 0:
        return f"{x:.3g}"
    if style == 1:
        return f"{x:e}"
    if style == 2 and low >= 0.0:
        return f"deg({math.degrees(x)!r})"
    return repr(x)


def values(rng, head):
    """One value text per key of a valid statement."""
    u = lambda low, high: number(rng, low, high)  # noqa: E731
    if head == "beam angles":
        return [u(0, math.pi), u(0, TWO_PI), u(0, TWO_PI), u(1e-3, 1e3)]
    if head == "beam stokes":
        s0, dop = 10.0 ** rng.uniform(-5, 5), rng.choice((0.0, rng.random(), 1.0))
        z, p = rng.uniform(-1, 1), rng.uniform(0, TWO_PI)
        rho = math.sqrt(1.0 - z * z)
        return [repr(s0)] + [repr(s0 * dop * x) for x in (rho * math.cos(p), rho * math.sin(p), z)]
    if head == "beam jones":
        return [u(0, 2), u(0, 2), u(-7, 7), u(-7, 7)]
    if head == "atten":
        return [u(0, 60), u(0, 60)]
    return [u(-7, 7) for _ in STATEMENTS[head]]


def bad(rng, head, pairs):
    """(head, pairs) of a statement that fails on one diagnostic branch."""
    branch = rng.randrange(12)
    if branch == 0:
        return "beam", []
    if branch == 1:
        return "beam " + rng.choice(("spinor", "Stokes", "angle")), pairs
    if branch == 2:
        return rng.choice(("rot", "polarizer", "QWP", "deg(1)")), pairs
    if branch == 3:  # a token without "="
        return head, pairs + [rng.choice(("1.0", "alpha", ":"))]
    if branch == 4:
        return head, [rng.choice(("x=1", "axis2=0", "=1"))] + pairs
    if branch == 5:
        return head, pairs + [pairs[0]]
    if branch == 6:
        return head, pairs[1:]
    if branch == 7:
        key = pairs[0].split("=")[0]
        raw = rng.choice(("nan", "inf", "-inf", "1e400", "deg(1e400)", "deg(x)", "", "1,5"))
        return head, [f"{key}={raw}"] + pairs[1:]
    if branch == 8:
        return "atten", rng.choice((["e1=-0.5", "e2=1"], ["e1=0", "e2=1500"]))
    if branch == 9:
        return "beam angles", rng.choice((["theta=4.0", "phi=0", "chi=0", "amp=1"],
                                          ["theta=1", "phi=0", "chi=0", "amp=0"]))
    if branch == 10:
        return "beam jones", rng.choice((["a1=0", "a2=0", "phi1=0", "phi2=0"],
                                         ["a1=-1", "a2=1", "phi1=0", "phi2=0"]))
    return "beam stokes", rng.choice((["s0=1", "s1=0.8", "s2=0.8", "s3=0"],
                                      ["s0=1", "s1=1.5", "s2=0", "s3=0"],
                                      ["s0=-1", "s1=0", "s2=0", "s3=0"]))


def line(rng):
    if rng.randrange(12) == 0:
        return rng.choice(("", "   ", "# a comment", "\t# beam stokes s0=1", "#"))
    head = rng.choice(sorted(STATEMENTS))
    pairs = [f"{k}={v}" for k, v in zip(STATEMENTS[head], values(rng, head))]
    rng.shuffle(pairs)
    if rng.randrange(4) == 0:
        head, pairs = bad(rng, head, pairs)
    gap = lambda: rng.choice(SPACES)  # noqa: E731
    text = rng.choice(("", "", " ", "\t", "\xa0 ")) + gap().join(head.split(" "))
    text += "".join(gap() + pair for pair in pairs)
    text += rng.choice(("", "", " ", "\t", " # trailing", "#c", "\x1c"))
    return text


def corpus():
    rng = random.Random(2801)
    return "\n".join(line(rng) for _ in range(LINES)) + "\n"


def digest(result):
    doc = result.document
    parts = (doc.elements, doc.beams, doc.element_spans, doc.beam_spans, result.diagnostics)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


DIGEST = "bd7df4ca39c23ad1e43d58f6992c645f14f072f5cd9fd24940b573ab36046610"


def test_parse_corpus_is_pinned_as_text_and_as_crlf_bytes():
    text = corpus()
    assert len(text.split("\n")) == LINES + 1
    crlf = text.replace("\n", "\r\n").encode("utf-8")
    assert (digest(parse_train(text)), digest(parse_train(crlf))) == (DIGEST, DIGEST)


def test_parse_corpus_reaches_every_statement_and_branch():
    result = parse_train(corpus())
    doc = result.document
    kinds = {type(item) for item in doc.elements + doc.beams}
    assert kinds == set(ELEMENTS) | {cls for cls, _, _ in BEAM_FORMS.values()}
    messages = " | ".join(d.message for d in result.diagnostics)
    for fragment in ("beam statement missing its form", "unknown beam form",
                     "unknown statement", "expected key=value", "unknown key",
                     "duplicate key", "missing key", "malformed or non-finite number",
                     "attenuation exponents", "attenuation spread", "theta out of",
                     "over-polarized", "s0 must be nonnegative", "deg() is for angles"):
        assert fragment in messages, fragment
    assert len(doc.elements) + len(doc.beams) > LINES // 2

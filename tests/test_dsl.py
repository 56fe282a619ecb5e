import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polspin import dsl
from polspin.beamio import BEAM_FORMS, PURITY_TOL, parse_beam_json
from polspin.dsl import (
    AnglesBeam,
    JonesBeam,
    StokesBeam,
    TrainDocument,
    parse_train,
    serialize_train,
)
from polspin.filters import (
    ELEMENTS,
    Attenuator,
    Gyrotropic,
    HalfWave,
    PhaseShifter,
    QuarterWave,
    Rotator,
)

from .conftest import slots


def parse_ok(source):
    result = parse_train(source)
    assert result.ok, result.diagnostics
    return result.document


def random_document(rng):
    doc = TrainDocument()
    for _ in range(int(rng.integers(0, 4))):
        pick = rng.integers(0, 3)
        if pick == 0:
            doc.beams.append(
                AnglesBeam(
                    rng.uniform(0, math.pi),
                    rng.uniform(0, 2 * math.pi),
                    rng.uniform(0, 2 * math.pi),
                    rng.uniform(0.1, 3.0),
                )
            )
        elif pick == 1:
            s0 = rng.uniform(0.1, 3.0)
            frac = rng.uniform(0, 1.0)
            doc.beams.append(
                StokesBeam(s0, frac * s0, 0.0, 0.0)
            )
        else:
            doc.beams.append(
                JonesBeam(
                    rng.uniform(0.1, 2.0),
                    rng.uniform(0.1, 2.0),
                    rng.uniform(-3, 3),
                    rng.uniform(-3, 3),
                )
            )
    for _ in range(int(rng.integers(0, 6))):
        pick = rng.integers(0, 6)
        if pick == 0:
            doc.elements.append(PhaseShifter(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        elif pick == 1:
            doc.elements.append(Rotator(rng.uniform(-3, 3)))
        elif pick == 2:
            doc.elements.append(Gyrotropic(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        elif pick == 3:
            doc.elements.append(QuarterWave(rng.uniform(0, math.pi)))
        elif pick == 4:
            doc.elements.append(HalfWave(rng.uniform(0, math.pi)))
        else:
            doc.elements.append(Attenuator(rng.uniform(0, 2), rng.uniform(0, 2)))
    return doc


class TestParse:
    def test_single_qwp(self):
        doc = parse_ok("qwp axis=0.7853981633974483")
        assert doc.elements == [QuarterWave(0.7853981633974483)]
        assert doc.beams == []

    def test_over_polarized_stokes_rejected(self):
        result = parse_train("beam stokes s0=1 s1=2 s2=0 s3=0")
        assert not result.ok
        assert len(result.diagnostics) == 1
        d = result.diagnostics[0]
        assert d.line == 1 and "over-polarized" in d.message

    def test_comments_and_blank_lines(self):
        doc = parse_ok("# a train\n\nrotate alpha=0.5  # trailing comment\n")
        assert doc.elements == [Rotator(0.5)]

    def test_key_order_free(self):
        doc = parse_ok("shifter d2=1.0 d1=0.5")
        assert doc.elements == [PhaseShifter(0.5, 1.0)]

    def test_deg_wrapper(self):
        doc = parse_ok("rotate alpha=deg(90)")
        assert doc.elements[0].alpha == pytest.approx(math.pi / 2)

    def test_duplicate_key(self):
        result = parse_train("rotate alpha=1 alpha=2")
        assert not result.ok
        assert "duplicate" in result.diagnostics[0].message
        assert result.diagnostics[0].column == 16

    def test_missing_key(self):
        result = parse_train("shifter d1=0.2")
        assert not result.ok
        assert "missing key 'd2'" in result.diagnostics[0].message

    def test_unknown_statement(self):
        result = parse_train("polarize hard=1")
        assert not result.ok
        assert "unknown statement" in result.diagnostics[0].message
        assert result.diagnostics[0].offending_token == "polarize"

    def test_non_finite_number(self):
        result = parse_train("rotate alpha=nan")
        assert not result.ok
        assert "non-finite" in result.diagnostics[0].message

    def test_theta_range(self):
        result = parse_train("beam angles theta=4.0 phi=0 chi=0 amp=1")
        assert not result.ok
        assert "theta" in result.diagnostics[0].message

    @pytest.mark.parametrize(
        "statement",
        [
            "beam angles theta=4.0 phi=0 chi=0 amp=1",
            "beam angles theta=1 phi=0 chi=0 amp=0",
            "beam stokes s0=-1 s1=0 s2=0 s3=0",
            "beam stokes s0=1 s1=0.8 s2=0.8 s3=0",
            "beam jones a1=0 a2=0 phi1=0 phi2=0",
            "beam jones a1=-1 a2=1 phi1=0 phi2=0",
            "atten e1=-0.5 e2=1",
            "beam angles theta=1 phi=0 chi=0 amp=1e200",
            "beam stokes s0=1e200 s1=0 s2=0 s3=0",
            "beam jones a1=1e200 a2=0 phi1=0 phi2=0",
        ],
    )
    def test_constructor_error_is_one_diagnostic(self, statement):
        result = parse_train(f"rotate alpha=0.5\n  {statement}  # bad\nqwp axis=0.1\n")
        assert len(result.diagnostics) == 1
        d = result.diagnostics[0]
        assert (d.line, d.column, d.offending_token) == (2, 3, statement)
        assert result.document.elements == [Rotator(0.5), QuarterWave(0.1)]
        assert result.document.beams == []

    def test_recovery_one_diagnostic_per_bad_line(self):
        source = "rotate alpha=1\nbogus x=1\nqwp axis=0.1\nrotate alpha=oops\nhwp axis=0.2\n"
        result = parse_train(source)
        assert len(result.diagnostics) == 2
        assert [d.line for d in result.diagnostics] == [2, 4]
        assert len(result.document.elements) == 3

    def test_crlf_accepted(self):
        doc = parse_ok("rotate alpha=0.25\r\nqwp axis=0.5\r\n")
        assert len(doc.elements) == 2

    def test_spans_point_into_source(self):
        source = "  rotate alpha=0.25\nbeam stokes s0=1 s1=0 s2=0 s3=0\n"
        doc = parse_ok(source)
        assert doc.element_spans == [(1, 3, 20)]
        assert doc.beam_spans[0][0] == 2

    def test_bad_utf8_bytes(self):
        result = parse_train(b"\xff\xfe rotate")
        assert not result.ok
        assert "UTF-8" in result.diagnostics[0].message

    @pytest.mark.parametrize("newlines", [["\n"] * 4, ["\r\n"] * 4, ["\r"] * 4,
                                          ["\r", "\r\n", "\n", "\r"]],
                             ids=["lf", "crlf", "cr", "mixed"])
    def test_file_bytes_parse_as_its_text(self, tmp_path, newlines):
        # bytes are a file's content: their lines end where text mode ends them
        lines = ["rotate alpha=1", "beam stokes s0=1 s1=0 s2=0 s3=0", "bogus x=1", "qwp axis=2 #"]
        path = tmp_path / "train.pol"
        path.write_bytes("".join(map(str.__add__, lines, newlines)).encode())
        text = parse_train(path.read_text(encoding="utf-8"))
        assert [d.line for d in text.diagnostics] == [3]
        assert text.document.element_spans == [(1, 1, 15), (4, 1, 11)]
        assert parse_train(path.read_bytes()) == text

    # Every diagnostic branch of parse_train, with its exact column and
    # token.  The bad line is line 2, between two good lines; indentation
    # and separators include tab, \x1c (a str.isspace control character),
    # \xa0 (no-break space) and a CRLF ending.
    @pytest.mark.parametrize(
        "line, diagnostic",
        [
            ("beam", (1, "beam statement missing its form", "beam")),
            ("  beam  # no form", (3, "beam statement missing its form", "beam")),
            ("beam laser x=1", (6, "unknown beam form 'laser'", "laser")),
            ("\tbeam\xa0laser", (7, "unknown beam form 'laser'", "laser")),
            ("polarize hard=1", (1, "unknown statement 'polarize'", "polarize")),
            ("\x1cpolarize", (2, "unknown statement 'polarize'", "polarize")),
            ("rotate alpha", (8, "expected key=value, got 'alpha'", "alpha")),
            (
                "beam stokes s0=1 s1 s2=0 s3=0",
                (18, "expected key=value, got 's1'", "s1"),
            ),
            ("rotate beta=1", (8, "unknown key 'beta' for 'rotate'", "beta=1")),
            (
                "beam angles theta=1 amp=1 s0=1",
                (27, "unknown key 's0' for 'angles'", "s0=1"),
            ),
            ("rotate alpha=1  alpha=2", (17, "duplicate key 'alpha'", "alpha=2")),
            (
                "rotate alpha=1x",
                (8, "malformed or non-finite number '1x'", "alpha=1x"),
            ),
            (
                "rotate alpha=deg(1",
                (8, "malformed or non-finite number 'deg(1'", "alpha=deg(1"),
            ),
            (
                "rotate alpha=deg()",
                (8, "malformed or non-finite number 'deg()'", "alpha=deg()"),
            ),
            (
                "rotate alpha=deg(deg(1))",
                (8, "malformed or non-finite number 'deg(deg(1))'", "alpha=deg(deg(1))"),
            ),
            ("rotate alpha=", (8, "malformed or non-finite number ''", "alpha=")),
            (
                "\xa0\x1c rotate \t alpha=inf",
                (13, "malformed or non-finite number 'inf'", "alpha=inf"),
            ),
            ("shifter d1=0.2", (1, "missing key 'd2' for 'shifter'", "shifter")),
            ("\t\tshifter", (3, "missing key 'd1' for 'shifter'", "shifter")),
            (
                " beam jones a1=1 a2=1 phi1=0\r",
                (2, "missing key 'phi2' for 'jones'", "beam"),
            ),
            (
                "\x1cbeam\xa0angles theta=4.0 phi=0 chi=0 amp=1\x1c# bad",
                (
                    2,
                    "theta out of [0, pi]: 4.0",
                    "beam\xa0angles theta=4.0 phi=0 chi=0 amp=1",
                ),
            ),
            # float() would strip the tab, but the value is the empty text before it
            ("qwp axis=\t0.5", (5, "malformed or non-finite number ''", "axis=")),
            ("qwp axis=inf", (5, "malformed or non-finite number 'inf'", "axis=inf")),
            (
                "atten e1=-0.5 e2=1",
                (1, "attenuation exponents must be nonnegative", "atten e1=-0.5 e2=1"),
            ),
            (
                "rotate alpha=deg(1e400)",
                (8, "malformed or non-finite number 'deg(1e400)'", "alpha=deg(1e400)"),
            ),
            # deg() converts angle keys only
            ("atten e1=deg(90) e2=0", (7, "deg() is for angles, not for 'e1'", "e1=deg(90)")),
            (
                "beam stokes s0=deg(180) s1=0 s2=0 s3=0",
                (13, "deg() is for angles, not for 's0'", "s0=deg(180)"),
            ),
            (
                "beam angles theta=1 phi=0 chi=0 amp=deg(57.3)",
                (33, "deg() is for angles, not for 'amp'", "amp=deg(57.3)"),
            ),
            # the closed forms' d1 + d2, d2 - d1 and 2 axis must be finite
            (
                "gyro d1=1e308 d2=-1e308",
                (1, "d1 + d2 or d2 - d1 overflows: d1 = 1e+308, d2 = -1e+308",
                 "gyro d1=1e308 d2=-1e308"),
            ),
            (
                "shifter d1=9e307 d2=1.7e308",
                (1, "d1 + d2 or d2 - d1 overflows: d1 = 9e+307, d2 = 1.7e+308",
                 "shifter d1=9e307 d2=1.7e308"),
            ),
            ("qwp axis=1e308", (1, "2 axis overflows: axis = 1e+308", "qwp axis=1e308")),
            ("hwp axis=-9e307", (1, "2 axis overflows: axis = -9e+307", "hwp axis=-9e307")),
        ],
    )
    def test_diagnostic_position_per_branch(self, line, diagnostic):
        source = f"rotate alpha=0.5\r\n{line}\nqwp axis=0.1\n"
        result = parse_train(source)
        assert len(result.diagnostics) == 1
        d = result.diagnostics[0]
        assert (d.severity, d.line) == ("error", 2)
        assert (d.column, d.message, d.offending_token) == diagnostic
        assert result.document.elements == [Rotator(0.5), QuarterWave(0.1)]

    def test_spans_under_unusual_whitespace(self):
        source = (
            "\x1c\trotate\xa0alpha=0.25\x1c\r\n\xa0beam stokes s0=1 s1=0 s2=0 s3=0 #c\n"
            "qwp axis=0.5\x85\n"
        )
        doc = parse_ok(source)
        assert doc.element_spans == [(1, 3, 20), (3, 1, 13)]
        assert doc.beam_spans == [(2, 2, 33)]


@pytest.mark.parametrize("decl", [AnglesBeam(0.7, 0.4, 0.2, 1.5), StokesBeam(1.3, 0.2, 0.5, 0.1),
                                  StokesBeam(2.0, 0.0, 1.2, 1.6), JonesBeam(1.2, 0.5, 0.2, 1.0)],
                         ids=["angles", "mixed", "pure", "jones"])
def test_each_beam_forms_builder_builds_its_declaration_as_its_json(decl):
    form, (_, keys, build) = next((f, v) for f, v in BEAM_FORMS.items() if type(decl) is v[0])
    values = list(slots(decl).values())  # the fields, in key order
    body = values if form == "stokes" else dict(zip(keys, values))
    assert build(decl, PURITY_TOL) == parse_beam_json(json.dumps({form: body}))


def test_the_serializer_table_inverts_the_statement_table():
    assert {cls.__name__: syntax for cls, syntax in dsl._HEADS.items()} == {
        "PhaseShifter": ("shifter", (("d1", "delta1"), ("d2", "delta2"))),
        "Rotator": ("rotate", (("alpha", "alpha"),)),
        "Gyrotropic": ("gyro", (("d1", "delta1"), ("d2", "delta2"))),
        "QuarterWave": ("qwp", (("axis", "axis_angle"),)),
        "HalfWave": ("hwp", (("axis", "axis_angle"),)),
        "Attenuator": ("atten", (("e1", "eta1"), ("e2", "eta2"))),
        "AnglesBeam": ("beam angles", tuple((k, k) for k in ("theta", "phi", "chi", "amp"))),
        "StokesVector": ("beam stokes", tuple((k, k) for k in ("s0", "s1", "s2", "s3"))),
        "JonesAmpPhase": ("beam jones", tuple((k, k) for k in ("a1", "a2", "phi1", "phi2"))),
    }
    assert {head: (cls, tuple(k for k, _ in pairs)) for cls, (head, pairs) in dsl._HEADS.items()} \
        == {head: (cls, keys) for head, (cls, keys, _) in dsl._STATEMENTS.items()}


# .pol lines for the properties of parse_train: statement head -> keys in
# grammar order, for elements and beams
KEYS_OF = {name: keys for name, keys, _ in ELEMENTS.values()}
KEYS_OF.update({f"beam {form}": keys for form, (_, keys, _) in BEAM_FORMS.items()})
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(0, 3).map(str),
    # non-finite, out of range, a digit separator, deg(...), malformed;
    # -0.5 is a negative attenuation and 1500 a spread past ETA_SPREAD_MAX
    st.sampled_from(["inf", "-inf", "nan", "1e400", "1_0", "-0.5", "1500", "deg(45)",
                     "deg(1", "1x", "0.5=1", "#", ""]),
)
# characters str.split() treats as whitespace, "" and runs of spaces
BLANK = st.sampled_from(["", " ", "  ", "\t", "\r", "\x85", "\u2000"])


@st.composite
def canonical_line(draw):
    head = draw(st.sampled_from(sorted(KEYS_OF)))
    return " ".join([head] + [f"{k}={draw(NUMBER)}" for k in KEYS_OF[head]])


@st.composite
def messy_line(draw):
    head = draw(st.sampled_from(sorted(KEYS_OF) + ["beam", "beam laser", "bogus", "qwp#"]))
    keys = list(KEYS_OF.get(head, ("x",)))
    # swapped, duplicate, unknown and missing keys
    names = draw(st.one_of(st.permutations(keys),
                           st.lists(st.sampled_from(keys + ["bogus"]), max_size=4)))
    line = draw(BLANK) + head
    for name in names:
        eq = draw(st.sampled_from(["=", "=", "", "=="]))
        line += draw(BLANK.filter(bool)) + name + eq + draw(BLANK) + draw(NUMBER) + draw(BLANK)
    return line + draw(st.sampled_from(["", "#", " # note", "#x=1"]))


LINES = st.lists(st.one_of(canonical_line(), messy_line(), st.just("")), max_size=8)


class TestCommentsAndSpans:
    """A trailing comment changes nothing a line parses to, and a serialized
    element line spans the whole line."""

    @settings(max_examples=400, deadline=None)
    @given(LINES, st.sampled_from(["", "\n"]))
    def test_a_trailing_comment_moves_nothing(self, lines, end):
        # no element, diagnostic, column, span or token moves
        bare = parse_train("\n".join(lines) + end)
        commented = parse_train("\n".join(line + " #" for line in lines) + end)
        assert bare == commented
        assert repr(bare) == repr(commented)  # float signs too

    def test_serialized_lines_span_the_whole_line(self, rng):
        for _ in range(50):
            doc = random_document(rng)
            doc.beams.clear()
            lines = serialize_train(doc).splitlines()
            spans = parse_train(serialize_train(doc)).document.element_spans
            assert spans == [(i, 1, 1 + len(line)) for i, line in enumerate(lines, start=1)]


class TestSerialize:
    def test_empty_document(self):
        assert serialize_train(TrainDocument()) == ""

    def test_canonical_rotator(self):
        doc = TrainDocument(elements=[Rotator(0.25)])
        assert serialize_train(doc) == "rotate alpha=0.25\n"

    def test_round_trip_generated_documents(self, rng):
        for _ in range(100):
            doc = random_document(rng)
            reparsed = parse_train(serialize_train(doc))
            assert reparsed.ok
            assert reparsed.document.same_content(doc)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(
            allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
        )
    )
    def test_float_rendering_bit_exact(self, value):
        doc = TrainDocument(elements=[PhaseShifter(value, -value)])
        reparsed = parse_train(serialize_train(doc))
        assert reparsed.ok
        element = reparsed.document.elements[0]
        # bit-identical doubles after one round trip
        assert element.delta1 == value and element.delta2 == -value

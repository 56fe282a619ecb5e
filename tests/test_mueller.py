"""The one Mueller kernel, `partial._mueller_rows`, against the four-probe loop
it replaced, repr for repr: through the kernel itself, `mueller_of_train`
(which keeps element closed forms) and the CLI `mueller` (which does not).
The loop runs in the linear basis, where the train's F is folded; the
basis tag of `mueller_of_train` does not change the matrix."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polspin import (
    Attenuator,
    ExtinctionError,
    Gyrotropic,
    HalfWave,
    PhaseShifter,
    QuarterWave,
    Rotator,
    StokesVector,
    apply,
    mueller_of_train,
)
from polspin.cli import cmd_mueller, main
from polspin.dsl import ParseResult, TrainDocument, parse_train, serialize_train
from polspin.filters import _fold, _prefixes
from polspin.partial import _PROBES, _coherency_entries, _mueller_rows, apply_mueller
from polspin.pauli import linear_to_circular
from polspin.spinor import FLUX_MIN

from .conftest import slots
from .test_filters import linear_x_wave
from .test_partial import README_TRAIN

# -- the oracle: the four-probe loop as it stood before the kernel, on the linear F ----

ORACLE_PROBES = [_coherency_entries(*e, "linear") for e in np.eye(4).tolist()]


def oracle_conjugate(p, q, r, a, b, g, d):
    qc = q.conjugate()
    u0, u1 = a * p + b * qc, a * q + b * r
    w0, w1 = g * p + d * qc, g * q + d * r
    top = (u0 * a.conjugate() + u1 * b.conjugate()).real
    off = u0 * g.conjugate() + u1 * d.conjugate()
    bottom = (w0 * g.conjugate() + w1 * d.conjugate()).real
    return top, off, bottom


def oracle_read_stokes(p, q, r):
    s0, t1, t2, t3 = (p + r).real, 2.0 * q.real, -2.0 * q.imag, (p - r).real
    return (s0, *linear_to_circular(t1, t2, t3))


def oracle_mueller(train):
    f = _fold(train)
    columns = [oracle_read_stokes(*oracle_conjugate(p, q, r, *f)) for p, q, r in ORACLE_PROBES]
    if not columns[0][0] >= FLUX_MIN:
        raise ExtinctionError(f"M00 = {columns[0][0]!r}")
    return np.array(columns).T


def outcome(call):
    """repr of the matrix as nested lists, or the type of the error raised."""
    try:
        rows = call()
    except ExtinctionError:
        return ExtinctionError
    return repr([list(row) for row in rows])


def csv(rows):
    return "\n".join(",".join(map(repr, row)) for row in rows) + "\n"


# -- trains --------------------------------------------------------------------

# exact zeros of both signs among the angles, so that signed-zero entries occur
ANGLE = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, math.pi]), st.floats(-7.0, 7.0))
ETA = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 3.0))
ELEMENT = st.one_of(
    st.builds(PhaseShifter, ANGLE, ANGLE),
    st.builds(Rotator, ANGLE),
    st.builds(Gyrotropic, ANGLE, ANGLE),
    st.builds(QuarterWave, ANGLE),
    st.builds(HalfWave, ANGLE),
    st.builds(Attenuator, ETA, ETA),
)
TRAIN = st.lists(ELEMENT, min_size=1, max_size=60)
BASIS = st.sampled_from(["circular", "linear"])
SINGLES = [Rotator(0.0), Rotator(-0.0), PhaseShifter(0.0, 0.0), Gyrotropic(0.0, 0.0),
           QuarterWave(0.0), HalfWave(0.0), Attenuator(0.0, 0.0), Attenuator(0.0, 0.8),
           Rotator(0.3), HalfWave(0.4)]


class TestAgainstTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(TRAIN, BASIS)
    def test_kernel_and_mueller_of_train(self, train, basis):
        want = outcome(lambda: oracle_mueller(train).tolist())
        assert outcome(lambda: _mueller_rows(*_fold(train))) == want
        assert outcome(lambda: mueller_of_train(train, basis).tolist()) == want

    @settings(max_examples=150, deadline=None)
    @given(TRAIN, BASIS, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    def test_apply_mueller_sums_as_before(self, train, basis, s1, s2, s3):
        # each row summed in one fixed order: mm's memory layout does not move a digit
        s = StokesVector(1.0, s1, s2, s3)
        mm = mueller_of_train(train, basis)
        rows = mm.tolist()
        want = repr(StokesVector(*[m0 * s.s0 + m1 * s.s1 + m2 * s.s2 + m3 * s.s3
                                   for m0, m1, m2, m3 in rows]))
        assert repr(apply_mueller(oracle_mueller(train), s)) == want
        for layout in (mm, np.asfortranarray(mm), np.ascontiguousarray(mm)):
            assert repr(apply_mueller(layout, s)) == want

    @settings(max_examples=100, deadline=None)
    @given(TRAIN)
    def test_cli_text(self, tmp_path_factory, train):
        path = tmp_path_factory.mktemp("mueller") / "t.pol"
        path.write_text(serialize_train(TrainDocument(elements=train)))
        parsed = parse_train(path.read_text()).document.elements
        assert parsed == train
        assert cmd_mueller(str(path)) == csv(oracle_mueller(parsed).tolist())

    @pytest.mark.parametrize("basis", ["circular", "linear"])
    @pytest.mark.parametrize("e", SINGLES, ids=repr)
    def test_single_elements(self, e, basis):
        want = repr(oracle_mueller([e]).tolist())
        assert repr([list(r) for r in _mueller_rows(*_fold([e]))]) == want
        assert repr(mueller_of_train([copy.deepcopy(e)], basis).tolist()) == want

    def test_signed_zeros_occur(self):
        # the oracle checks mean something only if -0.0 entries are exercised
        text = repr(oracle_mueller([HalfWave(0.0)]).tolist())
        assert "-0.0" in text and ", 0.0" in text

    @pytest.mark.parametrize("basis", ["circular", "linear"])
    def test_extinction_raised_by_the_kernel(self, basis):
        train = [Attenuator(400.0, 400.0)]
        with pytest.raises(ExtinctionError, match="underflows"):
            _mueller_rows(*_fold(train))
        with pytest.raises(ExtinctionError, match="underflows"):
            mueller_of_train(train, basis)

    def test_probes_unchanged(self):
        assert repr(_PROBES) == repr(ORACLE_PROBES)

    def test_rows_are_float_tuples(self):
        rows = _mueller_rows(*_fold(parse_train(README_TRAIN).document.elements))
        assert len(rows) == 4
        assert all(type(row) is tuple and len(row) == 4 for row in rows)
        assert all(type(v) is float for row in rows for v in row)


class TestKeptForms:
    """mueller_of_train gives the same digits however its elements were made or used;
    the CLI keeps products, not element forms."""

    @settings(max_examples=100, deadline=None)
    @given(TRAIN, BASIS)
    def test_same_reprs_however_the_forms_were_made(self, train, basis):
        want = outcome(lambda: oracle_mueller(train).tolist())
        got = [outcome(lambda: mueller_of_train(train, basis).tolist())]  # fresh
        got.append(outcome(lambda: mueller_of_train(train, basis).tolist()))  # second call
        got.append(outcome(lambda: mueller_of_train(copy.deepcopy(train), basis).tolist()))
        applied = copy.deepcopy(train)
        for e in applied:
            apply(e, linear_x_wave())
        got.append(outcome(lambda: mueller_of_train(applied, basis).tolist()))
        assert got == [want] * 4

    def test_cli_keeps_nothing(self, tmp_path, monkeypatch):
        train = parse_train(README_TRAIN).document.elements
        entry = b"", ParseResult(TrainDocument(elements=train), []), lambda: list(_prefixes(train))
        monkeypatch.setattr("polspin.cli._load_train", lambda path: entry)
        assert cmd_mueller("t.pol") == csv(oracle_mueller(train).tolist())
        assert not any("_linear" in slots(e) for e in train)


CROSSED = "atten e1=0 e2=20\nrotate alpha=1.5707963267948966\natten e1=0 e2=20\n"


def test_crossed_attenuators_mueller_matches_trace(capsys, tmp_path):
    path = tmp_path / "crossed.pol"
    path.write_text(CROSSED)
    assert main(["mueller", str(path)]) == 0
    mm = np.array([[float(v) for v in line.split(",")] for line in capsys.readouterr().out.split()])
    assert main(["trace", str(path), '{"stokes": [1, 0, 0, 0]}']) == 0
    last = [float(v) for v in capsys.readouterr().out.split()[-1].split(",")[8:12]]
    np.testing.assert_allclose(mm @ [1.0, 0.0, 0.0, 0.0], last, rtol=0, atol=1e-9 * last[0])

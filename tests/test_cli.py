import cmath
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polspin import (
    Attenuator,
    ExtinctionError,
    Gyrotropic,
    HalfWave,
    OrthogonalStatesError,
    PhaseShifter,
    QuarterWave,
    Rotator,
    Spinor2,
    StokesVector,
    WaveState,
    apply,
    apply_filter_to_coherency,
    apply_train_to_coherency,
    coherency_from_stokes,
    jones_from_wave,
    matrix_circular,
    matrix_linear,
    pancharatnam_phase,
    poincare_frame,
    stokes_from_coherency,
    stokes_from_wave,
)
from polspin import cli, errors, filters
from polspin.beamio import BeamFormatError, beam_from_stokes, parse_beam_json
from polspin.cli import TRACE_HEADER, cmd_convert, cmd_mueller, cmd_trace, main
from polspin.dsl import TrainDocument, parse_train, serialize_train
from polspin.filters import ELEMENTS, _entries, _prefixes, _step
from polspin.pauli import linear_to_circular
from polspin.spinor import FLUX_MIN

from .conftest import slots
from .test_filters import STRONG_TRAIN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LINEAR_X = '{"jones": {"a1": 1.0, "a2": 0.0, "phi1": 0.0, "phi2": 0.0}}'
NORTH_POLE = '{"angles": {"theta": 0.0, "phi": 0.0, "chi": 0.0, "amp": 1.0}}'
UNPOLARIZED = '{"stokes": [1.0, 0.0, 0.0, 0.0]}'


class TestConvert:
    def test_angles_to_spinor(self, capsys):
        code, out, _ = run(capsys, "convert", "--to", "spinor", NORTH_POLE)
        assert code == 0
        assert json.loads(out) == {"spinor": [[1.0, 0.0], [0.0, 0.0]]}

    def test_jones_to_stokes_direction(self, capsys):
        code, out, _ = run(capsys, "convert", "--to", "stokes", LINEAR_X)
        assert code == 0
        s = json.loads(out)["stokes"]
        np.testing.assert_allclose(np.array(s[1:]) / s[0], [1, 0, 0], atol=1e-12)

    def test_mixed_to_spinor_fails(self, capsys):
        code, _, err = run(capsys, "convert", "--to", "spinor", UNPOLARIZED)
        assert code == 2
        assert "mixed" in err

    def test_mixed_to_stokes_ok(self, capsys):
        code, out, _ = run(capsys, "convert", "--to", "stokes", UNPOLARIZED)
        assert code == 0
        assert json.loads(out)["stokes"] == [1.0, 0.0, 0.0, 0.0]

    def test_mixed_to_coherency_ok(self, capsys):
        code, out, _ = run(capsys, "convert", "--to", "coherency", UNPOLARIZED)
        assert code == 0
        matrix = json.loads(out)["coherency"]["matrix"]
        assert matrix == [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]

    @pytest.mark.parametrize(
        "stokes, circular, linear",
        [
            (
                "[1, 0, 0, -0.0]",
                "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]",
                "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]",
            ),
            (
                "[1, -0.0, 0.5, 0]",
                "[[[0.5, 0.0], [0.0, -0.25]], [[0.0, 0.25], [0.5, 0.0]]]",
                "[[[0.5, 0.0], [0.25, 0.0]], [[0.25, 0.0], [0.5, 0.0]]]",
            ),
            (
                "[1, 0.3, -0.2, -0.1]",
                "[[[0.45, 0.0], [0.15, 0.1]], [[0.15, -0.1], [0.55, 0.0]]]",
                "[[[0.65, 0.0], [-0.1, 0.05]], [[-0.1, -0.05], [0.35, 0.0]]]",
            ),
            (
                "[0, 0, 0, 0]",
                "[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]",
                "[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]",
            ),
            (
                "[2, 0, -2, 0]",
                "[[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]]",
                "[[[1.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [1.0, 0.0]]]",
            ),
            (
                "[1, -0.0, -0.0, -0.0]",
                "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]",
                "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]",
            ),
            (
                "[1, 0.6, 0, -0.8]",
                "[[[0.09999999999999998, 0.0], [0.3, 0.0]], [[0.3, 0.0], [0.9, 0.0]]]",
                "[[[0.8, 0.0], [0.0, 0.4]], [[0.0, -0.4], [0.2, 0.0]]]",
            ),
        ],
    )
    def test_coherency_exact_stdout(self, capsys, stokes, circular, linear):
        # exact bytes, signed zeros included, in both bases
        for basis, matrix in (("circular", circular), ("linear", linear)):
            beam = f'{{"stokes": {stokes}}}'
            code, out, err = run(capsys, "convert", "--to", "coherency", "--basis", basis, beam)
            expected = f'{{"coherency": {{"basis": "{basis}", "matrix": {matrix}}}}}\n'
            assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize(
        "options, stokes, message",
        [
            ((), "[0, 1e-300, 0, 0]", "|s_vec| = 1e-300 > s0 = 0.0"),
            (("--tolerance", "-5"), "[1e-300, 2e-300, 0, 0]", "|s_vec| = 2e-300 > s0 = 1e-300"),
            ((), "[0, 1e-20, 0, 0]", "|s_vec| = 1e-20 > s0 = 0.0"),
        ],
        ids=["zero-s0", "negative-tolerance", "zero-s0-1e-20"],
    )
    def test_tiny_over_polarized_beam_exit_2(self, capsys, options, stokes, message):
        # the over-polarization test is relative, so it holds at every scale
        beam = f'{{"stokes": {stokes}}}'
        code, out, err = run(capsys, "convert", "--to", "coherency", *options, beam)
        assert (code, out, err) == (2, "", f"over-polarized Stokes vector: {message}\n")

    def test_round_trip_jones(self, capsys):
        code, out, _ = run(capsys, "convert", "--to", "jones", LINEAR_X)
        assert code == 0
        j = json.loads(out)["jones"]
        assert j["a1"] == pytest.approx(1.0)
        assert j["a2"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "beam",
        [
            '{"angles": {"theta": NaN, "phi": 0, "chi": 0, "amp": 1}}',
            '{"angles": {"theta": 0, "phi": 0, "chi": 0, "amp": Infinity}}',
            '{"stokes": [1, NaN, 0, 0]}',
            '{"stokes": [NaN, 0, 0, 0]}',
            '{"stokes": [Infinity, 0, 0, 0]}',
            '{"stokes": [1e400, 0, 0, 0]}',
            '{"stokes": [1%s, 0, 0, 0]}' % ("0" * 400),
            '{"stokes": [%s, 0, 0, 0]}' % ("1" * 5000),
            '{"jones": {"a1": 1, "a2": 0, "phi1": NaN, "phi2": 0}}',
            '{"jones": {"a1": Infinity, "a2": 0, "phi1": 0, "phi2": 0}}',
        ],
        ids=[
            "angles-nan", "angles-inf", "stokes-nan", "stokes-nan-s0", "stokes-inf",
            "stokes-1e400", "stokes-401-digit-int", "stokes-5000-digit-int",
            "jones-nan", "jones-inf",
        ],
    )
    def test_non_finite_number_exit_2(self, capsys, beam):
        code, out, err = run(capsys, "convert", "--to", "coherency", beam)
        assert code == 2 and out == "" and "must be a finite number" in err
        # decompose rejects it too (non-Stokes forms at its form check)
        code, out, _ = run(capsys, "decompose", beam)
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "beam",
        [
            '{"angles": {"theta": 0, "phi": 0, "chi": 0, "amp": 1e200}}',
            '{"stokes": [1e200, 0, 0, 0]}',
            '{"stokes": [1, 1e200, 0, 0]}',
            '{"jones": {"a1": 1e200, "a2": 0, "phi1": 0, "phi2": 0}}',
            '{"jones": {"a1": 1e154, "a2": 1e154, "phi1": 0, "phi2": 0}}',
        ],
        ids=["angles-amp", "stokes-s0", "stokes-s1", "jones-a1", "jones-both"],
    )
    def test_values_too_large_to_square_exit_2(self, capsys, beam):
        code, out, err = run(capsys, "convert", "--to", "stokes", beam)
        assert code == 2 and out == ""
        assert "out of" in err or "at most" in err

    @pytest.mark.parametrize(
        "beam, message",
        [
            (
                '{"angles": {"theta": 1, "phi": 0, "chi": 0, "amp": 1e-200}}',
                "flux A^2 of amplitude 1e-200 underflows (below 2.225e-308)",
            ),
            (
                '{"jones": {"a1": 1e-200, "a2": 0, "phi1": 0, "phi2": 0}}',
                "Jones field has zero flux: a1=1e-200, a2=0.0",
            ),
            (
                '{"angles": {"theta": 1, "phi": 0, "chi": 0, "amp": 1e-160}}',
                "flux A^2 of amplitude 1e-160 underflows (below 2.225e-308)",
            ),
            (
                '{"jones": {"a1": 1e-160, "a2": 0, "phi1": 0, "phi2": 0}}',
                "Jones field flux underflows (below 2.225e-308): a1=1e-160, a2=0.0",
            ),
        ],
        ids=["angles-amp", "jones-a1", "angles-amp-subnormal", "jones-a1-subnormal"],
    )
    def test_flux_underflow_exit_2(self, capsys, beam, message):
        # a pure beam whose flux A^2 underflows to zero or to a subnormal is
        # rejected, not printed as an all-zero or degraded Stokes vector, and
        # without NumPy RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in (
                ("convert", "--to", "stokes", beam),
                ("phase", beam, NORTH_POLE),
            ):
                code, out, err = run(capsys, *argv)
                assert (code, out, err) == (2, "", message + "\n")

    @pytest.mark.parametrize(
        "beam, key",
        [
            ('{"angles": {"theta": 1, "phi": 0, "chi": 0, "amp": 1, "Chi": 5}}', "Chi"),
            ('{"angles": {"theta": 1, "phi": 0, "chi": 0, "amp": 1, "note": "x"}}', "note"),
            ('{"jones": {"a1": 1, "a2": 0, "phi1": 0, "a3": 0, "phi2": 0}}', "a3"),
            # misspelled: the form's own key is missing, yet the unknown one is named
            ('{"angles": {"theta": 1, "phi": 0, "chi": 0, "Amp": 1}}', "Amp"),
        ],
        ids=["angles-number", "angles-text", "jones", "angles-misspelled"],
    )
    def test_key_outside_the_form_exit_2(self, capsys, tmp_path, beam, key):
        ((form, body),) = json.loads(beam).items()
        message = f"unknown key {key!r} for {form!r}"
        # the message of the .pol beam statement with that key
        statement = f"beam {form} " + " ".join(f"{k}={v}" for k, v in body.items())
        assert [d.message for d in parse_train(statement).diagnostics] == [message]
        train = tmp_path / "t.pol"
        train.write_text("qwp axis=0.3\n")
        for argv in (("convert", "--to", "stokes", beam), ("trace", str(train), beam),
                     ("phase", NORTH_POLE, beam)):
            assert run(capsys, *argv) == (2, "", message + "\n")

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "convert", "--to", "stokes", "{nope")
        assert code == 2 and "JSON" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("convert", "--to", "stokes", "{}"),
            ("decompose", "{}"),
            ("phase", "{}", NORTH_POLE),
            ("phase", NORTH_POLE, "{}"),
        ],
        ids=["convert", "decompose", "phase-a", "phase-b"],
    )
    def test_deeply_nested_json_exit_2(self, capsys, argv):
        deep = "[" * 100_000
        code, out, err = run(capsys, *[deep if a == "{}" else a for a in argv])
        assert code == 2 and out == ""
        assert err.startswith("malformed JSON: maximum recursion depth exceeded")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "convert", "--to", "stokes", NORTH_POLE, "--output", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["stokes"][3] == 1.0


    @pytest.mark.parametrize("command", ["convert", "mueller"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_exit_2(self, capsys, tmp_path, command, where):
        target = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
        train = tmp_path / "t.pol"
        train.write_text("qwp axis=0.3\n")
        argv = {"convert": ["convert", "--to", "stokes", NORTH_POLE],
                "mueller": ["mueller", str(train)]}[command] + ["--output", str(target)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("cannot write output file: [Errno ") and str(target) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert run_fresh(*argv) == (code, out, err)


def old_convert_text(beam_json, target, basis):
    """cmd_convert's stokes and coherency text as built through as_array() and .matrix."""
    beam = parse_beam_json(beam_json)
    if target == "stokes":
        return json.dumps({"stokes": list(beam.stokes.as_array())})
    c = coherency_from_stokes(beam.stokes, basis)
    matrix = [[[z.real, z.imag] for z in row] for row in c.matrix]
    return json.dumps({"coherency": {"basis": basis, "matrix": matrix}})


SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-1.0, 1.0))


@st.composite
def any_beam(draw):
    """A beam JSON in each of the three forms; Stokes beams pure, mixed, at zero flux and
    with signed zeros."""
    form = draw(st.sampled_from(["angles", "jones", "stokes"]))
    if form == "angles":
        keys = {"theta": (0.0, math.pi), "phi": (-7.0, 7.0), "chi": (-7.0, 7.0), "amp": (0.1, 3.0)}
        body = {k: draw(st.floats(*bounds)) for k, bounds in keys.items()}
    elif form == "jones":
        keys = {"a1": (0.0, 3.0), "a2": (0.0, 3.0), "phi1": (-7.0, 7.0), "phi2": (-7.0, 7.0)}
        body = {k: draw(st.floats(*bounds)) for k, bounds in keys.items()}
    else:
        s0 = draw(st.sampled_from([0.0, 1.0, 2.5, 1e-300, 3e100]))
        t = [draw(SIGNED) for _ in range(3)]
        scale = min(1.0, 1.0 / max(math.hypot(*t), 1e-300)) * draw(st.sampled_from([0.0, 0.3, 1.0]))
        body = [s0] + [s0 * scale * x for x in t]
    return json.dumps({form: body})


@settings(max_examples=300, deadline=None)
@given(any_beam(), st.sampled_from(["stokes", "coherency"]),
       st.sampled_from(["circular", "linear"]))
def test_convert_text_equals_the_array_route(beam, target, basis):
    def outcome(build):
        try:
            return build(beam, target, basis)
        except Exception as exc:  # a beam both routes refuse, with one message
            return type(exc), str(exc)

    assert outcome(cmd_convert) == outcome(old_convert_text)


class TestTrace:
    def make_train(self, tmp_path, text):
        path = tmp_path / "train.pol"
        path.write_text(text)
        return str(path)

    def parse_csv(self, out):
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        return header, rows

    def test_empty_train_single_row(self, capsys, tmp_path):
        train = self.make_train(tmp_path, "# nothing\n")
        code, out, _ = run(capsys, "trace", train, LINEAR_X)
        assert code == 0
        header, rows = self.parse_csv(out)
        assert header[:3] == ["step", "element", "rx"]
        assert len(rows) == 1
        assert rows[0][0] == "0" and rows[0][1] == "input"

    def test_half_turn_rotator_flips_x(self, capsys, tmp_path):
        train = self.make_train(tmp_path, f"rotate alpha={math.pi / 2}\n")
        code, out, _ = run(capsys, "trace", train, LINEAR_X)
        assert code == 0
        _, rows = self.parse_csv(out)
        r = [float(v) for v in rows[1][2:5]]
        np.testing.assert_allclose(r, [-1, 0, 0], atol=1e-12)

    def test_unitary_train_conserves_s0(self, capsys, tmp_path):
        train = self.make_train(
            tmp_path, "qwp axis=0.3\nrotate alpha=0.9\nshifter d1=0.1 d2=1.2\n"
        )
        code, out, _ = run(capsys, "trace", train, LINEAR_X)
        assert code == 0
        _, rows = self.parse_csv(out)
        s0s = {row[8] for row in rows}
        assert len(s0s) == 1

    def test_pure_stokes_beam_keeps_its_tilt_near_a_pole(self, capsys, tmp_path):
        # theta = atan2(|s_xy|, s3) = 1e-9, which acos(s3 / |s|) rounded to 0: the input row
        # read r = (0, 0, 1) and the row after the identity element s1 = 0.0
        train = self.make_train(tmp_path, "shifter d1=0 d2=0\n")
        code, out, _ = run(capsys, "trace", train, '{"stokes": [1, 1e-9, 0, 1]}')
        assert code == 0
        _, (first, second) = self.parse_csv(out)
        assert float(first[2]) == pytest.approx(1e-9, rel=1e-15)  # rx, from the spinor
        assert float(first[9]) == pytest.approx(1e-9, rel=1e-15)
        # in the linear basis the tilt is a difference of two components of modulus 1/sqrt 2,
        # so the propagated s1 keeps it to a rounding of s0 = 1, not of s1
        assert float(second[9]) == pytest.approx(1e-9, rel=0, abs=1e-15)
        assert float(second[2]) == pytest.approx(1e-9, rel=0, abs=1e-15)

    def test_mixed_beam_empty_tangent_and_phase(self, capsys, tmp_path):
        train = self.make_train(tmp_path, "qwp axis=0.3\n")
        code, out, _ = run(capsys, "trace", train, UNPOLARIZED)
        assert code == 0
        _, rows = self.parse_csv(out)
        for row in rows:
            assert row[5] == row[6] == row[7] == ""  # m columns
            assert row[12] == ""  # phase column

    def test_phase_column_tracks_scale(self, capsys, tmp_path):
        d1 = d2 = 0.4
        train = self.make_train(tmp_path, f"shifter d1={d1} d2={d2}\n")
        code, out, _ = run(capsys, "trace", train, LINEAR_X)
        assert code == 0
        _, rows = self.parse_csv(out)
        assert float(rows[1][12]) == pytest.approx(-(d1 + d2) / 2, abs=1e-12)

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        train = self.make_train(tmp_path, "bogus x=1\n")
        code, _, err = run(capsys, "trace", train, LINEAR_X)
        assert code == 2 and "unknown statement" in err

    def test_near_ideal_polarizer_mixed_beam_matches_mueller(self, capsys, tmp_path):
        # dichroism of 750 nepers: cosh^2 of half of it overflows a double
        train = self.make_train(tmp_path, "atten e1=0 e2=750\n")
        beam = '{"stokes": [1, 0.2, 0.1, 0.3]}'
        code, out, _ = run(capsys, "trace", train, beam)
        assert code == 0
        _, rows = self.parse_csv(out)
        final = [float(v) for v in rows[1][8:12]]
        code, mueller_out, _ = run(capsys, "mueller", train)
        assert code == 0
        mm = np.array([[float(v) for v in line.split(",")] for line in mueller_out.split()])
        np.testing.assert_allclose(final, mm @ [1, 0.2, 0.1, 0.3], rtol=0, atol=1e-12)
        np.testing.assert_allclose(final, [0.6, 0.6, 0, 0], rtol=0, atol=1e-12)

    def test_beam_statement_too_large_to_square_exit_2(self, capsys, tmp_path):
        train = self.make_train(tmp_path, "beam stokes s0=1e200 s1=0 s2=0 s3=0\nqwp axis=0.1\n")
        for argv in (["mueller", train], ["trace", train, LINEAR_X]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith(f"{train}:1:1: error: Stokes parameters must be finite")

    @pytest.mark.parametrize(
        "statement, message",
        [
            (
                "beam angles theta=1 phi=0 chi=0 amp=1e-200",
                "flux A^2 of amplitude 1e-200 underflows (below 2.225e-308)",
            ),
            (
                "beam jones a1=0 a2=1e-200 phi1=0 phi2=0",
                "Jones field has zero flux: a1=0.0, a2=1e-200",
            ),
            (
                "beam angles theta=1 phi=0 chi=0 amp=1e-160",
                "flux A^2 of amplitude 1e-160 underflows (below 2.225e-308)",
            ),
            (
                "beam jones a1=0 a2=1e-160 phi1=0 phi2=0",
                "Jones field flux underflows (below 2.225e-308): a1=0.0, a2=1e-160",
            ),
        ],
        ids=["angles", "jones", "angles-subnormal", "jones-subnormal"],
    )
    def test_beam_statement_flux_underflow_exit_2(self, capsys, tmp_path, statement, message):
        train = self.make_train(tmp_path, f"qwp axis=0.1\n{statement}\n")
        for argv in (["mueller", train], ["trace", train, LINEAR_X]):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"{train}:2:1: error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("trace", LINEAR_X, "--basis", "linear"),
            ("mueller", "--basis", "linear"),
            ("mueller", "--tolerance", "1e-9"),
        ],
        ids=["trace-basis", "mueller-basis", "mueller-tolerance"],
    )
    def test_removed_flags_rejected(self, capsys, tmp_path, argv):
        train = self.make_train(tmp_path, "qwp axis=0.4\n")
        with pytest.raises(SystemExit) as exc:
            main([argv[0], train, *argv[1:]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_extinction_exit_3(self, capsys, tmp_path):
        train = self.make_train(tmp_path, "atten e1=1500 e2=1500\n")
        code, _, err = run(capsys, "trace", train, LINEAR_X)
        assert code == 3


class TestMueller:
    def test_rotator_block(self, capsys, tmp_path):
        alpha = 0.3
        path = tmp_path / "t.pol"
        path.write_text(f"rotate alpha={alpha}\n")
        code, out, _ = run(capsys, "mueller", str(path))
        assert code == 0
        mm = np.array([[float(v) for v in line.split(",")] for line in out.strip().split("\n")])
        c, s = math.cos(2 * alpha), math.sin(2 * alpha)
        expected = np.array(
            [[1, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, 1]]
        )
        np.testing.assert_allclose(mm, expected, atol=1e-12)

    def test_attenuator_boost_entries(self, capsys, tmp_path):
        eta = 0.8
        path = tmp_path / "t.pol"
        path.write_text(f"atten e1=0 e2={eta}\n")
        code, out, _ = run(capsys, "mueller", str(path))
        assert code == 0
        mm = np.array([[float(v) for v in line.split(",")] for line in out.strip().split("\n")])
        factor = math.exp(-eta)
        assert mm[0, 0] == pytest.approx(factor * math.cosh(eta), abs=1e-12)
        assert mm[0, 1] == pytest.approx(factor * math.sinh(eta), abs=1e-12)

    def test_empty_train_exit_2(self, capsys, tmp_path):
        path = tmp_path / "t.pol"
        path.write_text("# only a comment\n")
        code, _, err = run(capsys, "mueller", str(path))
        assert code == 2 and "no elements" in err

    @pytest.mark.parametrize(
        "argv", [(), (LINEAR_X,), ('{"stokes": [1, 0, 0, 0]}',)], ids=["mueller", "pure", "mixed"]
    )
    def test_attenuator_spread_over_bound_exit_2(self, capsys, tmp_path, argv):
        # cosh(1000) overflows a double: one diagnostic, not an OverflowError
        path = tmp_path / "t.pol"
        path.write_text("qwp axis=0.1\natten e1=0 e2=2000\n")
        code, out, err = run(capsys, "trace" if argv else "mueller", str(path), *argv)
        assert (code, out) == (2, "")
        assert err == (f"{path}:2:1: error: attenuation spread |e2 - e1| = 2000.0 "
                       "> 1419.565425786768\n")


class TestStrongAttenuators:
    """Strong attenuators whose scale and m leave the float range while F does not."""

    TRAINS = {
        "double": "atten e1=0 e2=1000\n" * 2,
        "rising": "atten e1=0 e2=400\natten e1=0 e2=1100\n",
        "repeated": "atten e1=0 e2=400\n" * 4,  # no element alone is balanced
        "interleaved": "atten e1=0.5 e2=700\nrotate alpha=3.141592653589793\n" * 3,
    }

    def test_double_attenuator_mueller(self, capsys, tmp_path):
        path = tmp_path / "t.pol"
        path.write_text(self.TRAINS["double"])
        code, out, err = run(capsys, "mueller", str(path))
        assert (code, err) == (0, "")
        assert abs(float(out.split(",")[0]) - 0.5) <= 1e-15  # (1 + e^-2000) / 2

    @pytest.mark.parametrize("beam", ['{"stokes": [1, 1, 0, 0]}', '{"stokes": [1, 0.5, 0, 0]}',
                                      '{"stokes": [2, 0.6, -0.9, 0.5]}'],
                             ids=["pure", "mixed", "mixed-oblique"])
    @pytest.mark.parametrize("train", list(TRAINS))
    def test_mueller_times_input_equals_last_trace_row(self, capsys, tmp_path, beam, train):
        path = tmp_path / "t.pol"
        path.write_text(self.TRAINS[train])
        code, out, err = run(capsys, "mueller", str(path))
        assert (code, err) == (0, "")
        mm = np.array([[float(v) for v in line.split(",")] for line in out.split()])
        code, out, err = run(capsys, "trace", str(path), beam)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.split()[1:]]
        s_in = np.array([float(v) for v in rows[0][8:12]])
        final = np.array([float(v) for v in rows[-1][8:12]])
        np.testing.assert_allclose(mm @ s_in, final, rtol=0, atol=1e-13 * s_in[0])

    def test_crossed_attenuators_mixed_trace_exit_0(self, capsys, tmp_path):
        # the circular-basis steps cancelled the third step's entries to rounding noise
        # that was not PSD (exit 2); the linear-basis steps keep the crossed pass e^-20
        path = tmp_path / "crossed.pol"
        path.write_text("atten e1=0 e2=20\nrotate alpha=1.5707963267948966\natten e1=0 e2=20\n")
        argv = ("trace", str(path), '{"stokes":[1,0,0.5,0]}')
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert float(out.split()[-1].split(",")[8]) > 0.0
        assert run_fresh(*argv) == (code, out, err)


# 60-digit references (mpmath) for crossed polarizers, `atten e1=0 e2=E`, `rotate
# alpha=1.5707963267948966`, `atten e1=0 e2=E`, by E: M00; the last row of the mixed
# trace of [1, 0, 0, 0] (direction, Stokes); the last row of the pure trace of
# [1, 0, 1, 0] (r, Re M, Stokes), its phase and |<input|output>| of the unit spinors.
# cos(alpha) = 6.1e-17, so each passes cos^2 / 2 = 1.87e-33 plus what leaks by e^-E.
CROSSED = {
    20: (4.248354255291591e-18,
         (4.4127669579161536e-16, -2.9707800180814975e-08, 0.0,
          4.248354255291591e-18, 1.874699728327322e-33, -1.262092593135176e-25, 0.0),
         (2.9707799517493696e-08, -0.9999999999999996, 2.2204459832857464e-16,
          6.59645653372272e-24, -2.2204459832857455e-16, -1.0,
          4.24835438150085e-18, 1.2620926024489318e-25, -4.248354381500848e-18,
          9.433241421977964e-34),
         1.494857266937089e-08, 1.4853899869769154e-08),
    30: (8.756512637396248e-27,
         (2.1409204850811068e-07, -0.0006543577044288627, 0.0,
          8.756512637396248e-27, 1.874699728327322e-33, -5.7298915082089364e-30, 0.0),
         (0.0006541437524729142, -0.9999997860479527, 2.2189935583394922e-16,
          1.452015841842264e-19, -2.218993083270514e-16, -1.0,
          8.762242528904458e-27, 5.731766207935319e-30, -8.76224065420473e-27,
          1.9443359728247334e-42),
         6.786641492388391e-13, 0.0003270718937309939),
    40: (1.892748242205776e-33,
         (0.9904643874573511, -0.13743860182703713, 0.0,
          1.892748242205776e-33, 1.874699728327322e-33, -2.6013667201934407e-34, 0.0),
         (0.9916165914122027, -0.1292150751113997, 1.861490647802568e-18,
          2.6830019655666423e-17, 1.9149160397375972e-16, -1.0,
          2.1528849142251208e-33, 2.1348364003466665e-33, -2.781851858977983e-34,
          4.007575133625297e-51),
         3.081130470775983e-17, 0.6598427558474066),
    60: (1.874699728327322e-33,
         (1.0, -2.860093463288564e-10, 0.0,
          1.874699728327322e-33, 1.874699728327322e-33, -5.361816438617821e-43, 0.0),
         (1.0, -2.8600934628795574e-10, 9.081773795667633e-36,
          6.350683229229383e-26, 2.2204460486152446e-16, -1.0,
          1.874699728863504e-33, 1.874699728863504e-33, -5.361816439384587e-43,
          1.7025598872337788e-68),
         6.350683231045736e-26, 0.707106781085428),
    300: (1.874699728327322e-33,
          (1.0, -1.6815298014076848e-114, 0.0,
           1.874699728327322e-33, 1.874699728327322e-33, -3.152363461873282e-147, 0.0),
          (1.0, -1.6815298014076848e-114, -4.709450917125723e-176,
           3.7337462042323565e-130, 2.2204460492503128e-16, -1.0,
           1.8746997283273224e-33, 1.8746997283273224e-33, -3.152363461873283e-147,
           -8.828806354906452e-209),
          -3.1211444883602188e-62, 0.7071067811865476),
}


def apply_chain(train, w):
    """The library's pure route: apply, one element after another."""
    for e in train:
        w = apply(e, w)
    return w


@pytest.mark.parametrize("e2", list(CROSSED))
def test_crossed_polarizers_every_route_exits_0_at_the_reference(capsys, tmp_path, e2):
    """`mueller`, the mixed and pure `trace` and a chain of `apply` calls on crossed
    polarizers: exit 0, and M00 and the last rows within 1e-12 of the flux (of 1 for unit
    vectors) of the references."""
    m00, mixed, pure, phase, overlap = CROSSED[e2]
    path = tmp_path / "crossed.pol"
    path.write_text(f"atten e1=0 e2={e2}\nrotate alpha=1.5707963267948966\natten e1=0 e2={e2}\n")
    code, out, err = run(capsys, "mueller", str(path))
    assert (code, err) == (0, "")
    assert abs(float(out.split(",")[0]) - m00) <= 1e-12 * m00

    def meets(got, want):
        unit = len(want) - 4  # the direction or r and Re M, then s0..s3
        np.testing.assert_allclose(got[:unit], want[:unit], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[unit:], want[unit:], rtol=0, atol=1e-12 * want[unit])

    pure_beam = '{"stokes": [1, 0, 1, 0]}'
    for beam, want in (('{"stokes": [1, 0, 0, 0]}', mixed), (pure_beam, pure)):
        code, out, err = run(capsys, "trace", str(path), beam)
        assert (code, err) == (0, "")
        last = out.split()[-1].split(",")
        meets([float(v) for v in last[2:12] if v], want)  # a mixed row has no M
    # the phase of <input|output> is good to about 2 eps / |<input|output>|
    assert abs(float(last[12]) - phase) <= 1e-15 / overlap
    w0 = parse_beam_json(pure_beam).wave
    w = apply_chain(parse_train(path.read_text()).document.elements, w0)
    f, s = poincare_frame(w.spinor), stokes_from_wave(w)
    meets([*f.r, *f.m_re, s.s0, s.s1, s.s2, s.s3], pure)
    assert abs(pancharatnam_phase(w0.spinor, w.spinor) - phase) <= 1e-15 / overlap


class TestTrainFile:
    """How `trace` and `mueller` read a `.pol` file."""

    @pytest.mark.parametrize("argv", [(), (LINEAR_X,), (UNPOLARIZED,)],
                             ids=["mueller", "pure", "mixed"])
    def test_invalid_utf8_exit_2(self, capsys, tmp_path, argv):
        raw = "rotate alpha=0.1\r\nqwp axis=0.".encode() + b"\xff3\n"
        path = tmp_path / "bad.pol"
        path.write_bytes(raw)
        (diagnostic,) = parse_train(raw).diagnostics  # the library's verdict on the bytes
        code, out, err = run(capsys, "trace" if argv else "mueller", str(path), *argv)
        assert (code, out) == (2, "")
        assert err == f"{path}:1:1: error: {diagnostic.message}\n"
        assert "position 29: invalid start byte" in err  # a byte offset into the file
        assert "Traceback" not in err

    @pytest.mark.parametrize("newlines", [["\r\n"] * 3, ["\r"] * 3, ["\r", "\r\n", "\r"]],
                             ids=["crlf", "cr", "mixed"])
    def test_any_newline_reads_as_lf(self, capsys, tmp_path, newlines):
        lines = ["beam stokes s0=1 s1=0 s2=0 s3=0", "qwp axis=0.3", "atten e1=0 e2=0.4"]
        lf = tmp_path / "lf.pol"
        lf.write_bytes("".join(line + "\n" for line in lines).encode())
        other = tmp_path / "other.pol"
        other.write_bytes("".join(map(str.__add__, lines, newlines)).encode())
        for argv in (("mueller",), ("trace", LINEAR_X), ("trace", UNPOLARIZED)):
            want = run(capsys, argv[0], str(lf), *argv[1:])
            assert want[0] == 0
            assert run(capsys, argv[0], str(other), *argv[1:]) == want

    def test_utf8_bom_starts_the_first_statement(self, capsys, tmp_path):
        path = tmp_path / "bom.pol"
        path.write_bytes(b"\xef\xbb\xbfqwp axis=0.3\n")
        for argv in (("mueller",), ("trace", LINEAR_X)):
            err = f"{path}:1:1: error: unknown statement '\\ufeffqwp'\n"
            assert run(capsys, argv[0], str(path), *argv[1:]) == (2, "", err)


class TestDecompose:
    def test_huge_integer_message_as_convert(self, capsys):
        # one decode with integers as floats: 5000 digits read as inf, not as
        # an int past Python's digit limit
        beam = '{"stokes": [%s, 0, 0, 0]}' % ("1" * 5000)
        code, out, err = run(capsys, "decompose", beam)
        assert (code, out, err) == (2, "", "stokes.s0 must be a finite number\n")
        assert run(capsys, "convert", "--to", "stokes", beam) == (code, out, err)

    def test_byte_order_mark_message(self, capsys):
        code, out, err = run(capsys, "decompose", "\ufeff" + UNPOLARIZED)
        assert (code, out) == (2, "")
        assert err == ("malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                       "line 1 column 1 (char 0)\n")

    def test_unpolarized(self, capsys):
        code, out, _ = run(capsys, "decompose", UNPOLARIZED)
        assert code == 0
        obj = json.loads(out)
        assert obj["degenerate"] is True
        assert obj["dop"] == 0.0

    def test_pure_beam(self, capsys):
        code, out, _ = run(capsys, "decompose", '{"stokes": [1, 0, 0, 1]}')
        assert code == 0
        obj = json.loads(out)
        assert obj["dop"] == pytest.approx(1.0)
        assert obj["eigenvalues"] == [pytest.approx(1.0), pytest.approx(0.0)]

    def test_partial(self, capsys):
        code, out, _ = run(capsys, "decompose", '{"stokes": [1, 0, 0, 0.5]}')
        assert code == 0
        obj = json.loads(out)
        assert obj["eigenvalues"] == [pytest.approx(0.75), pytest.approx(0.25)]
        assert obj["points"] == [[0, 0, 1], [0, 0, -1]]

    def test_non_stokes_input_exit_2(self, capsys):
        code, _, err = run(capsys, "decompose", NORTH_POLE)
        assert code == 2 and "Stokes" in err

    def test_exact_stdout(self, capsys):
        # |s_vec| is math.hypot(s1, s2, s3); a norm that squares its inputs
        # prints other last digits for this beam
        beam = (
            '{"stokes": [1.858999279253553, -1.3546618895925253, '
            '0.3880326760172408, -0.7223421787669144]}'
        )
        expected = (
            '{"points": [[-0.855488580216484, 0.24504824830012983, -0.45616953550650696], '
            "[0.855488580216484, -0.24504824830012983, 0.45616953550650696]], "
            '"eigenvalues": [1.72124713978027, 0.1377521394732829], '
            '"dop": 0.8517996849051015, "degenerate": false}\n'
        )
        assert run(capsys, "decompose", beam) == (0, expected, "")

    def test_tiny_polarized_beam_is_polarized(self, capsys):
        # s_vec's squares underflow here; its norm does not
        beam = '{"stokes": [1e-300, 0, 0, 1e-300]}'
        code, out, _ = run(capsys, "decompose", beam)
        assert code == 0
        obj = json.loads(out)
        assert obj["dop"] == 1.0 and obj["degenerate"] is False
        assert obj["eigenvalues"] == [1e-300, 0.0]
        # and the beam is classified pure
        code, out, _ = run(capsys, "convert", "--to", "angles", beam)
        assert code == 0 and json.loads(out)["angles"]["amp"] == 1e-150

    def test_reads_the_beams_own_floats(self, capsys):
        # points s_vec / |s_vec| and eigenvalues (s0 +- |s_vec|) / 2 of the beam's own floats,
        # no rounding between them; a zero component keeps its sign
        rng = np.random.default_rng(2020)
        beams = [[1.0, 0.0, 0.0, 0.5], [1.0, -0.0, 0.0, -0.5]]
        low, high = [0.01, -0.57, -0.57, -0.57], [100.0, 0.57, 0.57, 0.57]  # |s_vec| < s0
        for s0, *u in rng.uniform(low, high, (300, 4)).tolist():
            beams.append([s0, *(s0 * x for x in u)])
        for s0, s1, s2, s3 in beams:
            norm = math.hypot(s1, s2, s3)
            point = [s1 / norm, s2 / norm, s3 / norm]
            code, out, _ = run(capsys, "decompose", json.dumps({"stokes": [s0, s1, s2, s3]}))
            obj = json.loads(out)
            assert code == 0 and repr(obj["points"]) == repr([point, [-x for x in point]])
            assert repr(obj["eigenvalues"]) == repr([0.5 * (s0 + norm), 0.5 * (s0 - norm)])


class TestFluxFloor:
    @pytest.mark.parametrize("s0", ["0", "1e-310"])
    def test_stokes_beam_below_floor_exit_2(self, capsys, tmp_path, s0):
        # an input error at the beam, as for a pure beam of that flux, not
        # an extinction blamed on the train
        train = tmp_path / "t.pol"
        train.write_text("rotate alpha=0.1\n")
        beam = f'{{"stokes": [{s0}, 0, 0, 0]}}'
        message = f"beam flux s0 = {float(s0)!r} is zero or underflows (below 2.225e-308)\n"
        for argv in (("trace", str(train), beam), ("decompose", beam)):
            assert run(capsys, *argv) == (2, "", message)

    def test_stokes_beam_above_floor_traces(self, capsys, tmp_path):
        train = tmp_path / "t.pol"
        train.write_text("rotate alpha=0.1\n")
        code, out, err = run(capsys, "trace", str(train), '{"stokes": [3e-308, 0, 0, 0]}')
        assert (code, err) == (0, "")
        s0 = [float(row.split(",")[8]) for row in out.split()[1:]]
        assert s0 == [3e-308, pytest.approx(3e-308, rel=1e-15)]


class TestPhase:
    def test_identical_beams(self, capsys):
        code, out, _ = run(capsys, "phase", NORTH_POLE, NORTH_POLE)
        assert code == 0
        obj = json.loads(out)
        assert obj["phase"] == 0.0 and obj["in_phase"] is True

    def test_chi_shift_recovered(self, capsys):
        chi = 1.1
        beam_b = json.dumps(
            {"angles": {"theta": 0.7, "phi": 0.4, "chi": chi, "amp": 1.0}}
        )
        beam_a = json.dumps(
            {"angles": {"theta": 0.7, "phi": 0.4, "chi": 0.0, "amp": 1.0}}
        )
        code, out, _ = run(capsys, "phase", beam_a, beam_b)
        assert code == 0
        # o(chi) = e^{-i chi/2} o(0), so the relative phase is -chi/2
        assert json.loads(out)["phase"] == pytest.approx(-chi / 2, abs=1e-12)

    def test_mixed_input_exit_2(self, capsys):
        code, _, err = run(capsys, "phase", UNPOLARIZED, NORTH_POLE)
        assert code == 2 and "pure" in err

    def test_orthogonal_exit_4(self, capsys):
        south = '{"angles": {"theta": 3.141592653589793, "phi": 0.0, "chi": 0.0, "amp": 1.0}}'
        code, _, err = run(capsys, "phase", NORTH_POLE, south)
        assert code == 4


NEAR_PURE = '{"stokes": [1, 0.9999999, 0, 0]}'  # DoP 1 - 1e-7: pure at tolerance 1e-6 only
# NEAR_PURE's wave at tolerance 1e-6, given as angles
NEAR_PURE_ANGLES = '{"angles": {"theta": 1.5707963267948966, "phi": 0, "chi": 0, "amp": 1}}'


class TestTolerance:
    """--tolerance classifies a Stokes beam, and a beam it calls pure runs as pure."""

    @staticmethod
    def argv(command, tmp_path):
        """The command line up to its beam; trace runs the README train."""
        if command == "trace":
            (tmp_path / "t.pol").write_text(README_ELEMENTS)
            return ["trace", str(tmp_path / "t.pol")]
        return ["convert", "--to", "angles"] if command == "convert" else [command]

    @pytest.mark.parametrize("command", ["decompose", "convert", "trace"])
    def test_beam_pure_at_a_wider_tolerance_runs(self, capsys, tmp_path, command):
        argv = self.argv(command, tmp_path)
        code, out, err = run(capsys, *argv, NEAR_PURE, "--tolerance", "1e-6")
        assert (code, err) == (0, "")
        default = run(capsys, *argv, NEAR_PURE)
        if command == "decompose":  # the eigen-decomposition is the same either way
            assert default == (0, out, "")
        elif command == "convert":
            assert json.loads(out) == json.loads(NEAR_PURE_ANGLES)
            assert default[0] == 2 and "mixed beam" in default[2]
        else:  # pure rows: past the input row, those of the same wave given as angles
            pure = run(capsys, *argv, NEAR_PURE_ANGLES)[1]
            assert out.splitlines()[2:] == pure.splitlines()[2:]
            assert default[0] == 0 and default[1].splitlines()[1].endswith(",")  # mixed row

    @pytest.mark.parametrize("tol", ["1", "2", "inf", "nan"])
    @pytest.mark.parametrize("command", ["decompose", "convert", "trace"])
    def test_tolerance_of_1_or_more_or_nan_exit_2(self, capsys, tmp_path, command, tol):
        code, out, err = run(capsys, *self.argv(command, tmp_path), UNPOLARIZED, "--tolerance", tol)
        assert (code, out) == (2, "")
        assert err == f"purity tolerance must be below 1: {float(tol)!r}\n"

    @pytest.mark.parametrize("spelling", ["plain", "equals"])
    @pytest.mark.parametrize("tol", ["1", "2", "nan"])
    @pytest.mark.parametrize("beam", [NORTH_POLE, LINEAR_X, UNPOLARIZED],
                             ids=["angles", "jones", "stokes"])
    @pytest.mark.parametrize("command", ["convert", "trace", "decompose", "phase"])
    def test_tolerance_checked_for_every_beam_form(self, capsys, tmp_path, command, beam, tol,
                                                   spelling):
        argv = self.argv(command, tmp_path) + [beam] * (2 if command == "phase" else 1)
        argv += ["--tolerance", tol] if spelling == "plain" else [f"--tolerance={tol}"]
        # a plain line is read from the command table, --tolerance=x by argparse
        assert (cli._read_argv(argv) is None) == (spelling == "equals")
        assert run(capsys, *argv) == (2, "", f"purity tolerance must be below 1: {float(tol)!r}\n")

    @pytest.mark.parametrize("command", ["convert", "trace", "phase"])
    def test_tolerance_below_1_runs_pure_beams_of_every_form(self, capsys, tmp_path, command):
        beams = [NORTH_POLE, LINEAR_X] if command == "phase" else [NORTH_POLE]
        argv = self.argv(command, tmp_path) + beams
        want = run(capsys, *argv)
        assert want[0] == 0
        for tol in ("0.5", "-1", "1e-300"):
            assert run(capsys, *argv, "--tolerance", tol) == want

    def test_library_tolerance(self):
        near_pure = StokesVector(1.0, 0.9999999, 0.0, 0.0)
        assert beam_from_stokes(near_pure, 1e-6).wave == parse_beam_json(NEAR_PURE_ANGLES).wave
        assert not beam_from_stokes(near_pure).pure
        for tol in (1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="purity tolerance must be below 1"):
                beam_from_stokes(StokesVector(1.0, 0.0, 0.0, 0.0), tol)
            with pytest.raises(BeamFormatError, match="purity tolerance must be below 1"):
                parse_beam_json(UNPOLARIZED, tol)
        # below 0 no beam is pure, so every Stokes beam takes the mixed path
        assert not beam_from_stokes(StokesVector(1.0, 0.0, 0.0, 1.0), -1.0).pure


def test_numeric_output_reparses_bit_exact(capsys, tmp_path):
    path = tmp_path / "t.pol"
    path.write_text("qwp axis=0.123456789\n")
    code, out, _ = run(capsys, "mueller", str(path))
    assert code == 0
    for line in out.strip().split("\n"):
        for field in line.split(","):
            assert repr(float(field)) == field


def long_train_text(rng, per_kind=1000):
    """Seeded .pol train, per_kind elements of each kind in shuffled order.

    Attenuation exponents stay in [0, 0.01], so the total loss over 1000
    attenuators is a few nepers and s0 stays well above underflow.
    """
    kinds = rng.permutation(np.repeat(np.arange(6), per_kind))
    lines = []
    for k in kinds:
        a, b = map(float, rng.uniform(0.0, 2.0 * math.pi, 2))
        lines.append(
            [
                f"shifter d1={a!r} d2={b!r}",
                f"rotate alpha={a!r}",
                f"gyro d1={a!r} d2={b!r}",
                f"qwp axis={0.5 * a!r}",
                f"hwp axis={0.5 * b!r}",
                f"atten e1={0.01 * a / (2 * math.pi)!r} e2={0.01 * b / (2 * math.pi)!r}",
            ][k]
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "beam",
    [
        '{"angles": {"theta": 1.1, "phi": 0.4, "chi": 0.3, "amp": 1.7}}',
        '{"stokes": [2.0, 0.6, -0.9, 0.5]}',
    ],
    ids=["pure", "mixed"],
)
def test_long_train_trace_matches_mueller(capsys, tmp_path, rng, beam):
    path = tmp_path / "long.pol"
    path.write_text(long_train_text(rng))
    code, out, _ = run(capsys, "trace", str(path), beam)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 6001
    pure = "angles" in beam
    for row in rows:
        r = np.array([float(v) for v in row[2:5]])
        s0 = float(row[8])
        assert s0 > 0.0
        if pure:
            assert abs(np.linalg.norm(r) - 1.0) <= 1e-12
    code, mueller_out, _ = run(capsys, "mueller", str(path))
    assert code == 0
    mm = np.array([[float(v) for v in line.split(",")] for line in mueller_out.split()])
    s_in = np.array([float(v) for v in rows[0][8:12]])
    expected = mm @ s_in
    final = np.array([float(v) for v in rows[-1][8:12]])
    assert np.max(np.abs(final - expected)) <= 1e-9 * expected[0]


README_ELEMENTS = """\
shifter d1=0.1 d2=1.2
rotate alpha=deg(45)
gyro d1=0.0 d2=0.3
qwp axis=0.785
hwp axis=0.4
atten e1=0.1 e2=0.8
"""
README_BEAM = '{"angles": {"theta": 1.0, "phi": 0.2, "chi": 0.0, "amp": 1.0}}'
# DoP = 1: classified pure by default, forced through the mixed path by a
# tolerance no beam can meet
DOP1_STOKES = '{"stokes": [1.0, 0.0, 0.0, 1.0]}'


@pytest.mark.parametrize("beam", [LINEAR_X, UNPOLARIZED], ids=["pure", "mixed"])
def test_an_attenuator_whose_scale_underflows_keeps_its_flux(capsys, tmp_path, beam):
    # F = diag(e^-100, e^-1519): its scale e^-809.5 underflows to 0, where scale m gave flux 0.0
    path = tmp_path / "big.pol"
    path.write_text("atten e1=100 e2=1519\n")
    code, out, err = run(capsys, "trace", str(path), beam)
    assert (code, err) == (0, "")
    s_in, s_out = (float(line.split(",")[8]) for line in out.split()[1:])
    # the x beam passes e^-200 of its flux; unpolarized light passes half of that
    assert s_out == pytest.approx(math.exp(-200.0) * s_in * (0.5 if beam == UNPOLARIZED else 1),
                                  rel=1e-14)
    code, out, err = run(capsys, "mueller", str(path))
    assert (code, err) == (0, "")
    assert float(out.split(",")[0]) == pytest.approx(0.5 * math.exp(-200.0), rel=1e-14)


# Large beams through strong losses: each step's ||F o|| is below 1.5e-154, where the squares
# of F o's parts underflow (wholly at e^-400, partly at e^-370), while A ||F o|| is a normal
# float.  The flux from squares read 0.0 (exit 3) or lost the digits that keep o unit (a
# ValueError out of main); mueller still exits 3 on all three, its M00 < e^-700 underflows.
LARGE_BEAM_TRAINS = {
    "uniform": "atten e1=400 e2=400\n",
    "uneven": "atten e1=370 e2=380\n",
    "chain": "rotate alpha=0.3\natten e1=380 e2=370\nhwp axis=0.2\n",
}


@pytest.mark.parametrize("beam", ['{"stokes": [1e150, 0, 0, 1e150]}',
                                  '{"stokes": [1e150, 6e149, 0, 8e149]}',
                                  '{"jones": {"a1": 6e74, "a2": 8e74, "phi1": 0.3, "phi2": 1.9}}'],
                         ids=["north", "oblique", "jones"])
@pytest.mark.parametrize("train", list(LARGE_BEAM_TRAINS))
def test_a_large_beam_keeps_a_flux_whose_norm_squares_underflow(capsys, tmp_path, train, beam):
    path = tmp_path / "loss.pol"
    path.write_text(LARGE_BEAM_TRAINS[train])
    code, out, err = run(capsys, "trace", str(path), beam)
    assert (code, err) == (0, "")
    code, mixed, err = run(capsys, "trace", str(path), beam, "--tolerance=-1")
    assert (code, err) == (0, "")
    for row, want in zip(out.split()[1:], mixed.split()[1:]):
        got, want = ([float(v) for v in line.split(",")[8:12]] for line in (row, want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want[0])
    if train == "uniform" and "stokes" in beam:  # 1e150 e^-800, as the mixed route gives it
        assert float(out.split()[-1].split(",")[8]) == 3.667874584177687e-198
    assert run(capsys, "mueller", str(path))[0] == 3


class TestExtinction:
    """A flux (s0, or M00 for mueller) below the smallest normal float is exit 3."""

    ARGVS = {
        "trace-pure": ("trace", "TRAIN", README_BEAM),
        "trace-stokes-dop1": ("trace", "TRAIN", DOP1_STOKES),
        "trace-stokes-dop1-mixed-path": ("trace", "TRAIN", DOP1_STOKES, "--tolerance=-1"),
        "trace-mixed": ("trace", "TRAIN", '{"stokes": [1.0, 0.0, 0.0, 0.5]}'),
        "mueller": ("mueller", "TRAIN"),
    }

    def run_repeated(self, capsys, tmp_path, repeats, key):
        path = tmp_path / "repeated.pol"
        path.write_text(README_ELEMENTS * repeats)
        argv = [str(path) if a == "TRAIN" else a for a in self.ARGVS[key]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(capsys, *argv)

    @pytest.mark.parametrize("key", list(ARGVS))
    def test_readme_train_times_1000_exit_3(self, capsys, tmp_path, key):
        code, out, err = self.run_repeated(capsys, tmp_path, 1000, key)
        assert (code, out) == (3, "")
        assert err.startswith("flux ") and err.endswith(
            " underflows below the smallest normal float (2.225e-308)\n"
        )
        assert float(err.split()[1]) < sys.float_info.min

    @pytest.mark.parametrize("key", list(ARGVS))
    def test_readme_train_times_800_keeps_a_normal_flux(self, capsys, tmp_path, key):
        # about e^-630: far below 1 but above the threshold, so exit 0
        code, out, _ = self.run_repeated(capsys, tmp_path, 800, key)
        assert code == 0
        rows = [line.split(",") for line in out.split()]
        if key == "mueller":
            assert sys.float_info.min <= float(rows[0][0]) < 1e-250
        else:
            assert len(rows) == 4802
            assert all(float(row[8]) >= sys.float_info.min for row in rows[1:])
            assert float(rows[-1][8]) < 1e-250


# every class main turns into an exit code: the PolspinErrors of `errors`, and those of the CLI
# and the beam forms
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.PolspinError)]
ERROR_CLASSES += [cli.CliError, BeamFormatError]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_carries_its_exit_code(cls):
    assert cls.exit_code == {ExtinctionError: 3, OrthogonalStatesError: 4}.get(cls, 2)


# .pol values at the float range's ends: zero, subnormals, values whose squares overflow, and
# values whose sums, differences or doubles do
EXTREMES = [0.0, 5e-324, 1e-310, 1e153, 1e300, 8.9e307, -8.9e307, 9e307, -9e307, 1.7e308,
            -1.7e308]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([kind[0] for kind in ELEMENTS.values()]),
       st.lists(st.sampled_from(EXTREMES), min_size=2, max_size=2))
@example("gyro", [9e307, 1.7e308])  # d2 - d1 and d1 + d2 overflow: rows of NaN at exit 0
@example("shifter", [9e307, 1.7e308])
@example("qwp", [9e307, 0.0])  # 2 axis overflows: math.cos(inf) raised out of main
@example("hwp", [-9e307, 0.0])
def test_no_one_element_train_makes_main_raise(tmp_path_factory, keyword, values):
    """mueller and the pure and mixed trace of one element with extreme values return an exit
    code of an error class, or 0 with no NaN or infinity in their output."""
    keys = next(kind[1] for kind in ELEMENTS.values() if kind[0] == keyword)
    path = str(tmp_path_factory.mktemp("extreme") / "t.pol")
    with open(path, "w") as fh:
        fh.write(keyword + "".join(f" {k}={v!r}" for k, v in zip(keys, values)) + "\n")
    codes = {0} | {cls.exit_code for cls in ERROR_CLASSES}
    for argv in (["mueller", path], ["trace", path, README_BEAM],
                 ["trace", path, '{"stokes": [1.3, 0.2, 0.5, 0.1]}']):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in codes, argv
        assert code != 0 or not ("nan" in out.getvalue() or "inf" in out.getvalue()), argv


def oracle_trace(train_text, beam_json, basis="linear"):
    """`trace` stdout rebuilt step by step from the public objects.

    In the linear basis, which `trace` works in, this is its output byte for byte:
    for a pure beam, the Jones-basis spinor U o stepped with each element's
    matrix_linear, read by poincare_frame, stokes_from_wave and pancharatnam_phase
    and permuted to the circular basis; for a mixed one, apply_train_to_coherency
    of each prefix of the train on a linear C, and stokes_from_coherency.  In the
    circular basis: apply, read through the wave's circular spinor, and
    apply_filter_to_coherency on a circular C, one element at a time, which agree
    with it to rounding."""
    doc = parse_train(train_text).document
    beam = parse_beam_json(beam_json)

    def row(step, name, r, m_re, s, phase):
        cells = [*r, *m_re, s.s0, s.s1, s.s2, s.s3]
        cells = ["" if v is None else repr(float(v)) for v in cells + [phase]]
        return ",".join([str(step), name, *cells])

    def direction(s):
        return (s.s1 / s.s0, s.s2 / s.s0, s.s3 / s.s0) if s.s0 > 0 else (0.0, 0.0, 0.0)

    lines = ["step,element,rx,ry,rz,mx,my,mz,s0,s1,s2,s3,phase"]
    names = [ELEMENTS[type(e)][0] for e in doc.elements]
    if beam.pure:
        w, ref = beam.wave, beam.wave.spinor
        frame = poincare_frame(ref)
        lines.append(row(0, "input", frame.r, frame.m_re, beam.stokes, 0.0))
        if basis == "linear":
            ref = Spinor2(*jones_from_wave(w)[0].tolist())  # U o
            w = WaveState(w.amplitude, ref)
        for step, (name, e) in enumerate(zip(names, doc.elements), start=1):
            if basis == "linear":
                em = matrix_linear(e)
                f = (em.scale, *em.m.ravel().tolist())
                # w holds U o as its spinor; _step takes and gives the raw (A, U o)
                amp, c1, c2 = _step(f, w.amplitude, w.spinor.c1, w.spinor.c2)
                w = WaveState(amp, Spinor2(c1, c2))
            else:
                w = apply(e, w)
            frame = poincare_frame(w.spinor)
            try:
                phase = pancharatnam_phase(ref, w.spinor)
            except OrthogonalStatesError:
                phase = None
            s, r, m_re = stokes_from_wave(w), frame.r, frame.m_re
            if basis == "linear":
                r, m_re = linear_to_circular(*r), linear_to_circular(*m_re)
                s = StokesVector(s.s0, *linear_to_circular(s.s1, s.s2, s.s3))
            lines.append(row(step, name, r, m_re, s, phase))
    else:
        s = beam.stokes
        c_in = c = coherency_from_stokes(s, basis)
        lines.append(row(0, "input", direction(s), [None] * 3, s, None))
        for step, (name, e) in enumerate(zip(names, doc.elements), start=1):
            if basis == "linear":
                c = apply_train_to_coherency(doc.elements[:step], c_in)
            else:
                c = apply_filter_to_coherency(e, c)
            s = stokes_from_coherency(c)
            lines.append(row(step, name, direction(s), [None] * 3, s, None))
    return "\n".join(lines) + "\n"


# a half turn takes linear x to its antipode, where the phase is undefined
ANTIPODE_TRAIN = f"qwp axis=0.0\nrotate alpha={math.pi / 2!r}\nhwp axis=0.3\n"


@pytest.mark.parametrize(
    "beam",
    [
        '{"angles": {"theta": 1.1, "phi": 0.4, "chi": 0.3, "amp": 1.7}}',
        '{"stokes": [2.0, 0.6, -0.9, 0.5]}',
        LINEAR_X,
    ],
    ids=["pure", "mixed", "linear-x"],
)
@pytest.mark.parametrize("train", ["seeded", "antipode"])
def test_trace_stdout_equals_public_api_oracle(capsys, tmp_path, beam, train):
    rng = np.random.default_rng(6)
    text = long_train_text(rng, per_kind=333) + "rotate alpha=0.0\n" * 2
    if train == "antipode":
        text = ANTIPODE_TRAIN + text
    path = tmp_path / "t.pol"
    path.write_text(text)
    code, out, err = run(capsys, "trace", str(path), beam)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2002 + 3 * (train == "antipode")
    # byte for byte; naming the first row that differs keeps a failure readable
    want = oracle_trace(text, beam)
    first = next((i for i, (a, b) in enumerate(zip(out.split("\n"), want.split("\n"))) if a != b), None)
    assert (first, len(out)) == (None, len(want))
    # the circular-basis public path, apply or a circular C, ends each step at the same beam
    got, circular = ([[float(v) for v in line.split(",")[8:12]] for line in csv.split()[1:]]
                     for csv in (out, oracle_trace(text, beam, "circular")))
    for row, other in zip(got, circular):
        np.testing.assert_allclose(row, other, rtol=0, atol=1e-12 * row[0])
    if train == "antipode" and beam == LINEAR_X:
        assert out.splitlines()[3].endswith(",")  # step 2: an empty phase


def circular_steps(train_text, beam_json):
    """The pure `trace` rows after the input, stepped in the circular basis: the circular
    spinor o of the input times each element's matrix_circular, v = scale m o, A' = A ||v||,
    o' = v / ||v||, read as (r, Re M, Stokes, <input|o'>) by poincare_frame."""
    w = parse_beam_json(beam_json).wave
    amp, o = w.amplitude, w.spinor.as_array()
    rows = []
    for e in parse_train(train_text).document.elements:
        em = matrix_circular(e)
        v = em.scale * (em.m @ o)
        n = np.linalg.norm(v)
        amp, o = amp * n, v / n
        f = poincare_frame(Spinor2(*o.tolist()))
        rows.append((f.r, f.m_re, amp**2 * np.array([1.0, *f.r]), np.vdot(w.spinor.as_array(), o)))
    return rows


@pytest.mark.parametrize("seed", range(9))
def test_pure_trace_rows_equal_the_circular_steps(capsys, tmp_path, seed):
    """Every pure `trace` row, stepped in the linear basis, meets a step-by-step oracle in the
    circular closed forms to 1e-12: r and Re M; Stokes, of s0; the phase, as |<input|o>|
    e^{i phase} against <input|o>.  The README train and beam, then seeded trains of 6 or 12
    elements with weak attenuators and pure beams of all three forms."""
    rng = np.random.default_rng(seed)
    text, beam = README_ELEMENTS, README_BEAM
    if seed:
        text = long_train_text(rng, per_kind=1 + seed % 2)
        theta, phi, chi = map(float, rng.uniform(0.0, [math.pi, 2 * math.pi, 2 * math.pi]))
        amp = float(rng.uniform(0.5, 2.0))
        beam = json.dumps({"angles": {"theta": theta, "phi": phi, "chi": chi, "amp": amp}})
        beam = [beam, cmd_convert(beam, "stokes"), cmd_convert(beam, "jones")][seed % 3]
    path = tmp_path / "t.pol"
    path.write_text(text)
    code, out, err = run(capsys, "trace", str(path), beam)
    assert (code, err) == (0, "")
    rows = out.split()[2:]
    want = circular_steps(text, beam)
    assert len(rows) == len(want) == len(text.splitlines())
    for row, (r, m_re, stokes, inner) in zip(rows, want):
        cells = row.split(",")
        got = [float(v) for v in cells[2:12]]
        np.testing.assert_allclose(got[:6], [*r, *m_re], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[6:], stokes, rtol=0, atol=1e-12 * stokes[0])
        if cells[12]:
            assert abs(abs(inner) * cmath.exp(1j * float(cells[12])) - inner) <= 1e-12
        else:  # the input and o are orthogonal to the PHASE_TOL of pancharatnam_phase
            assert abs(inner) < 1e-12 + 1e-15


def test_a_step_checks_once_and_the_pure_trace_builds_no_wave(capsys, tmp_path, monkeypatch):
    """filters._step checks each stepped wave once, by _check_wave, for apply and the pure
    `trace` alike; the trace builds no WaveState past its input's, and apply one per step."""
    checks, waves = [], []
    check, of, post_init = filters._check_wave, WaveState._of, WaveState.__post_init__
    monkeypatch.setattr(filters, "_check_wave", lambda *a: checks.append(a) or check(*a))
    monkeypatch.setattr(WaveState, "_of", classmethod(lambda cls, *a: waves.append(a) or of(*a)))
    monkeypatch.setattr(WaveState, "__post_init__", lambda w: waves.append(w) or post_init(w))
    path = tmp_path / "t.pol"
    path.write_text(README_ELEMENTS)
    assert run(capsys, "trace", str(path), README_BEAM)[0] == 0
    assert (len(checks), len(waves)) == (6, 1)
    w = parse_beam_json(README_BEAM).wave
    assert stokes_from_wave(apply_chain(parse_train(README_ELEMENTS).document.elements, w)).s0
    assert (len(checks), len(waves)) == (12, 8)


ANGLE = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


@st.composite
def trains_and_beams(draw):
    """Up to 10^3 elements of all six kinds, and one pure or mixed beam.

    Every attenuator exponent is at most eta_max <= 0.35, so each element
    keeps at least e^-0.7 of the flux and 10^3 of them keep it normal.
    """
    n = draw(st.integers(1, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eta_max = draw(st.floats(0.0, 0.35))
    lines = []
    angles = rng.uniform(0.0, 2.0 * math.pi, (2, n)).tolist()
    for kind, a, b in zip(rng.integers(0, 6, n).tolist(), *angles):
        e1, e2 = eta_max * a / (2.0 * math.pi), eta_max * b / (2.0 * math.pi)
        lines.append(
            [f"shifter d1={a!r} d2={b!r}", f"rotate alpha={a!r}", f"gyro d1={a!r} d2={b!r}",
             f"qwp axis={0.5 * a!r}", f"hwp axis={0.5 * b!r}", f"atten e1={e1!r} e2={e2!r}"][kind]
        )
    theta, phi = draw(st.floats(0.0, math.pi)), draw(ANGLE)
    if draw(st.booleans()):
        beam = {"angles": {"theta": theta, "phi": phi, "chi": draw(ANGLE), "amp": 1.3}}
    else:
        d = draw(st.floats(0.0, 0.9))
        u = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
        beam = {"stokes": [1.5] + [1.5 * d * x for x in u]}
    return "\n".join(lines) + "\n", json.dumps(beam)


@settings(max_examples=25, deadline=None)
@given(trains_and_beams())
def test_trace_final_row_equals_mueller_times_input(tmp_path_factory, case):
    text, beam = case
    path = tmp_path_factory.mktemp("property") / "t.pol"
    path.write_text(text)
    rows = [line.split(",") for line in cmd_trace(str(path), beam).split()[1:]]
    mm = np.array([[float(v) for v in line.split(",")] for line in cmd_mueller(str(path)).split()])
    s_in = np.array([float(v) for v in rows[0][8:12]])
    final = np.array([float(v) for v in rows[-1][8:12]])
    expected = mm @ s_in
    assert np.max(np.abs(final - expected)) <= 1e-9 * expected[0]


def outcome(call):
    """A route's output Stokes vector as a list, or ExtinctionError where it raised that."""
    try:
        return call()
    except ExtinctionError:
        return ExtinctionError


def exactly_pure(theta, phi):
    """Stokes floats near the sphere point (theta, phi) with s0^2 = |s_vec|^2 exactly: the
    inverse stereographic image (1 + r^2, 2x, 2y, +-(1 - r^2)), r^2 = x^2 + y^2, of a point
    (x, y) of the unit disc on a 2^-20 grid, seen from the nearer pole; every square and sum
    of it is an exact float.  A spinor and a Stokes vector then hold the same state, where
    rounded Stokes floats carry about eps s0 in C's weak entry, which a strong attenuator can
    leave as the whole output."""
    t = math.tan(0.5 * min(theta, math.pi - theta))
    x, y = (round(t * f(phi) * 2.0**20) / 2.0**20 for f in (math.cos, math.sin))
    r2 = x * x + y * y
    return [1.0 + r2, 2.0 * x, 2.0 * y, 1.0 - r2 if theta <= 0.5 * math.pi else r2 - 1.0]


@settings(max_examples=150, deadline=None)
@given(STRONG_TRAIN, st.floats(0.0, math.pi), ANGLE, st.floats(0.0, 0.9))
# a mixed trace that carried its coherency matrix from step to step went non-PSD on the
# first draw and to a negative flux on the second
@example([Attenuator(0.0, 21.0), HalfWave(3.0), HalfWave(3.0), Attenuator(9.0, 0.0)],
         0.0, 0.0, 0.0)
@example([Attenuator(0.0, 291.0), HalfWave(3.0), HalfWave(3.0), Attenuator(20.0, 0.0)],
         0.0, 0.0, 0.0)
# a pure beam given by its angles put the trace 1.1e-12 from the coherency routes, which
# started from its rounded Stokes floats (see test_strong_route_draw_meets_its_reference)
@example([Attenuator(7.0, 0.0)], 1.578125, 0.0, 0.0)
# M00 = 2.06e-308 is below FLUX_MIN, so mueller raises, while the pure beam, near the train's
# strongest state, leaves with flux 2.9e-308, above FLUX_MIN; the unpolarized beam raises
@example([Attenuator(0.5, 1.5), QuarterWave(-1.0), Attenuator(1.0, 0.0), Gyrotropic(-1.0, 0.0),
          Attenuator(1.0, 0.0), Attenuator(1.0, 2.0), Attenuator(350.0, 1.0),
          Attenuator(0.5, 347.5), Attenuator(0.25, 3.25)], 0.0, 0.0, 0.0)
def test_strong_trains_every_route_raises_together_or_agrees(tmp_path_factory, train, theta,
                                                              phi, dop):
    """Trains of all kinds with attenuator spreads up to ETA_SPREAD_MAX, on a pure and a mixed
    beam along one direction, both given as Stokes floats, from which every route starts;
    the pure one is exactly pure.  The trace, apply_train_to_coherency in either basis,
    Mueller x s_in and, on the pure beam, a chain of apply calls from the wave parsed from
    those floats agree within n 1e-12 of the output flux, give or take (n eps)^2 of the
    input flux: each route's spinor or F holds rounding noise of about n eps, which
    a later attenuator can leave standing where the true output is smaller still.  The
    Mueller product rounds at n eps of M00 s0, the flux of unpolarized light.  No route
    raises where another returns.  `mueller`, which checks M00, may return where this beam
    is extinguished, and may raise where it is not: a beam's output flux M00 s0 + m . s_vec,
    m the rest of row 0 with |m| <= M00, is at most M00 (s0 + |s_vec|), so it then stays
    below FLUX_MIN (s0 + |s_vec|).  On the mixed beam the trace and both tags run one kernel on one
    Stokes vector, so their final Stokes vectors are the same floats."""
    path = tmp_path_factory.mktemp("strong") / "t.pol"
    path.write_text(serialize_train(TrainDocument(elements=train)))
    n = len(train)
    mueller = outcome(lambda: [[float(v) for v in line.split(",")]
                               for line in cmd_mueller(str(path)).split()])
    s0, *u = exactly_pure(theta, phi)
    pure = {"stokes": [s0, *u]}
    for beam in (pure, {"stokes": [s0, *(dop * x for x in u)]}):
        s = parse_beam_json(json.dumps(beam)).stokes  # the state the trace starts from
        s_in = [s.s0, s.s1, s.s2, s.s3]
        c_in = {basis: coherency_from_stokes(s, basis) for basis in ("circular", "linear")}
        routes = {
            "trace": outcome(lambda: [float(v) for v in cmd_trace(
                str(path), json.dumps(beam)).split()[-1].split(",")[8:12]]),
            **{basis: outcome(lambda: stokes_from_coherency(
                apply_train_to_coherency(train, c)).as_array().tolist())
               for basis, c in c_in.items()},
        }
        if beam is pure:
            routes["apply"] = outcome(lambda: stokes_from_wave(apply_chain(
                train, parse_beam_json(json.dumps(beam)).wave)).as_array().tolist())
        if ExtinctionError in routes.values():
            assert all(got is ExtinctionError for got in routes.values())
            continue
        if beam is not pure:
            assert repr(routes["trace"]) == repr(routes["circular"]) == repr(routes["linear"])
        want = routes["linear"]
        if mueller is ExtinctionError:
            assert want[0] <= (s.s0 + math.hypot(*s_in[1:])) * FLUX_MIN * (1.0 + n * 1e-12)
        else:
            routes["mueller"] = [sum(m * s for m, s in zip(row, s_in)) for row in mueller]
        for name, got in routes.items():
            flux = mueller[0][0] * s.s0 if name == "mueller" else want[0]
            tol = n * 1e-12 * flux + n * n * 1e-30 * s.s0
            np.testing.assert_allclose(got, want, rtol=0, atol=tol, err_msg=name)


# F C F^dag of [Attenuator(7, 0)] on exactly_pure(1.578125, 0.0), to 60 digits (mpmath)
STRONG_DRAW_STOKES = [1.985448754873687, 1.9853954315185547, 0.0, -0.014551245126313006]
STRONG_DRAW_OUT = ["0.0000283126130561885250892013675495", "-0.0000250107420761179352019458645062",
                   "0.0", "-0.0000132690180070478784217137797531"]


def test_strong_route_draw_meets_its_reference(tmp_path):
    """The draw on which the property failed.  From the same exactly pure floats, the trace
    meets the reference to about 1e-14 and the coherency routes to about 1e-16, within the
    property's 1e-12 of the flux; from the angles, the trace was 1.3e-14 from its reference
    and the coherency routes, on the rounded floats, 1.1e-12."""
    assert exactly_pure(1.578125, 0.0) == STRONG_DRAW_STOKES
    path = tmp_path / "t.pol"
    path.write_text("atten e1=7 e2=0\n")
    beam = json.dumps({"stokes": STRONG_DRAW_STOKES})
    parsed = parse_beam_json(beam)
    assert parsed.pure
    routes = {"trace": [float(v) for v in cmd_trace(str(path), beam).split()[-1].split(",")[8:12]]}
    for basis in ("circular", "linear"):
        c = coherency_from_stokes(parsed.stokes, basis)
        c = apply_train_to_coherency([Attenuator(7.0, 0.0)], c)
        routes[basis] = stokes_from_coherency(c).as_array().tolist()
    want = [float(v) for v in STRONG_DRAW_OUT]
    for name, got in routes.items():
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * want[0], err_msg=name)


FALSE_EXTINCTION = ("FOUND: the pure trace's false extinction; trace and apply raise "
                    "ExtinctionError where the coherency routes return e^-76/2")
CROSS_TERM = ("FOUND: the strong-train property's missing cross term; the pure trace's "
              "rounding, about n eps sqrt(s0_in s0_out), exceeds the property's tolerance")


SUB_FLOOR = ("FOUND: the sub-floor draw; the pure routes exit 0 with s0 = 5.2e-35 and the "
             "coherency routes raise at 1.65e-308, where the 60-digit flux is 4.48e-113")


def crossed(eta1, eta2):
    """Two half-wave plates between crossed strong attenuators."""
    return [Attenuator(eta1, 0.0), HalfWave(1.0), HalfWave(1.0), Attenuator(0.0, eta2)]


@pytest.mark.parametrize("train", [
    pytest.param(crossed(38.0, 354.0), id="38.0-354.0", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=FALSE_EXTINCTION)),
    # s2 = -6.555776485207533e-22 against 3.997079174152804e-33, over an atol of 5.68e-22
    pytest.param(crossed(13.0, 11.0), id="13.0-11.0", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=CROSS_TERM)),
    # s0 = 1.922139272666543e-11 against 1.9221392726742506e-11, over an atol of 7.69e-23
    pytest.param(crossed(12.0, 14.0), id="12.0-14.0", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=CROSS_TERM)),
    # a shifter between the plates: the trace's s2 = -1.0873458300400275e-17 against
    # -1.087505952223769e-17, over an atol of 1.40e-21; the 80-digit s2 is -1.0875160431e-17
    pytest.param([Attenuator(11.0, 0.0), HalfWave(1.0), PhaseShifter(0.0, 2.0**-24), HalfWave(1.0),
                  Attenuator(0.0, 11.0)], id="11.0-shifter-11.0", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=CROSS_TERM)),
    # the true flux, below every route's rounding noise, leaves no route a right answer
    pytest.param([Rotator(1.0), Attenuator(1.0, 129.0), HalfWave(1.5), HalfWave(1.5),
                  Attenuator(353.0, 0.0)], id="sub-floor", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=SUB_FLOOR)),
])
def test_strong_train_draws_the_property_fails(tmp_path_factory, train):
    """The property's body on five draws it can find, circular beams through strong trains.
    The routes share their rounding, so only a reference (ROADMAP item 4), a derived cross
    term or a verdict below the noise floor (item 2) can settle them; each flips its draw."""
    test_strong_trains_every_route_raises_together_or_agrees.hypothesis.inner_test(
        tmp_path_factory, train, 0.0, 0.0, 0.0)


def run_fresh(*argv, python=()):
    """(exit code, stdout, stderr) of `python [python] -m polspin argv` in a new process."""
    import polspin

    src = os.path.dirname(os.path.dirname(polspin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, *python, "-m", "polspin", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["convert", "--to", "stokes", LINEAR_X]
    proc_code, proc_out, proc_err = run_fresh(*argv)
    assert proc_code == 0, proc_err
    code, out, _ = run(capsys, *argv)
    assert code == 0 and proc_out == out


def test_repeated_main_calls_match_fresh_processes(capsys, tmp_path, monkeypatch):
    # main() builds its argument parser once per process; no call may see
    # another's options, defaults, output file or error state
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    train, target = tmp_path / "t.pol", tmp_path / "m.csv"
    train.write_text(README_ELEMENTS)
    beam = '{"stokes": [1, 0.6, 0, -0.8]}'
    near_pure = '{"stokes": [1, 0, 0.6, 0.7999]}'  # pure at tolerance 1e-3 only
    calls = [
        ("convert", "--to", "bogus", beam),
        ("mueller", str(train), "--output", str(target)),
        ("mueller", str(train)),
        ("convert", "--to", "coherency", "--basis", "linear", beam),
        ("convert", "--to", "coherency", beam),
        ("trace", str(train), near_pure, "--tolerance", "1e-3"),
        ("trace", str(train), near_pure),
    ]
    # build the parser while other streams are current: each call must write
    # to sys.stdout and sys.stderr as they stand when it runs
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["convert", "--to", "stokes", LINEAR_X])
    results = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        results.append((code, out, err))
        if "--output" in argv:
            written = target.read_text()
            target.write_text("untouched\n")
    assert target.read_text() == "untouched\n"
    assert results[0][0] == 2 and "invalid choice: 'bogus'" in results[0][2]
    assert results[2][1] == written and results[3][1] != results[4][1]
    assert results[5][1] != results[6][1]
    for argv, result in zip(calls, results):
        assert result == run_fresh(*argv), argv


# mueller, a pure trace and a mixed trace of one train file
TRAIN_COMMANDS = [
    ("mueller",), ("trace", README_BEAM), ("trace", '{"stokes": [1.3, 0.2, 0.5, 0.1]}')]


class TestTrainMemo:
    """`trace` and `mueller` parse a train file again only when its bytes change."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The sources cli hands to parse_train, the memo emptied first."""
        sources = []

        def counting(source):
            sources.append(source)
            return parse_train(source)

        monkeypatch.setattr(cli, "_last_train", None)
        monkeypatch.setattr("polspin.cli.parse_train", counting)
        return sources

    def test_unchanged_file_parses_once(self, capsys, tmp_path, parses):
        path = tmp_path / "t.pol"
        path.write_text(README_ELEMENTS)
        first = [run(capsys, argv[0], str(path), *argv[1:]) for argv in TRAIN_COMMANDS]
        again = [run(capsys, argv[0], str(path), *argv[1:]) for argv in TRAIN_COMMANDS]
        assert len(parses) == 1 and first == again
        assert all(code == 0 for code, _, _ in first)

    def test_same_length_edit_in_place_is_read(self, capsys, tmp_path, parses):
        path = tmp_path / "t.pol"
        path.write_text(README_ELEMENTS)
        old = [run(capsys, argv[0], str(path), *argv[1:]) for argv in TRAIN_COMMANDS]
        stat = path.stat()
        edited = README_ELEMENTS.replace("axis=0.785", "axis=0.786")
        assert len(edited) == len(README_ELEMENTS)
        path.write_text(edited)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # same size, same mtime
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        for argv, before in zip(TRAIN_COMMANDS, old):
            got = run(capsys, argv[0], str(path), *argv[1:])
            assert got == run_fresh(argv[0], str(path), *argv[1:]) and got != before
        assert len(parses) == 2

    def test_bad_file_names_each_calls_path(self, capsys, tmp_path, parses):
        raw = b"qwp axis=0.3\nrotate beta=1\n"
        paths = [tmp_path / "a.pol", tmp_path / "b.pol"]
        for path in paths:
            path.write_bytes(raw)
        for path in paths * 2:
            for argv in TRAIN_COMMANDS:
                err = f"{path}:2:8: error: unknown key 'beta' for 'rotate'\n"
                assert run(capsys, argv[0], str(path), *argv[1:]) == (2, "", err)
        assert len(parses) == 1  # the same bytes: the diagnostics are formatted per call

    def test_alternating_files_keep_their_outputs(self, capsys, tmp_path, parses, monkeypatch):
        lines = ["beam stokes s0=1 s1=0 s2=0 s3=0", "qwp axis=0.3", "atten e1=0 e2=0.4"]
        files = {
            "lf": "".join(line + "\n" for line in lines).encode(),
            "crlf": "".join(line + "\r\n" for line in lines).encode(),
            "readme": README_ELEMENTS.encode(),
            "undecodable": b"rotate alpha=0.1\r\nqwp axis=0." + b"\xff3\n",
        }
        for name, raw in files.items():
            (tmp_path / f"{name}.pol").write_bytes(raw)
        order = ["lf", "crlf", "lf", "undecodable", "crlf", "readme", "crlf", "undecodable",
                 "undecodable", "readme", "lf"]
        calls = [(argv[0], str(tmp_path / f"{name}.pol"), *argv[1:])
                 for name in order for argv in TRAIN_COMMANDS]
        got = [run(capsys, *argv) for argv in calls]
        want = []
        for argv in calls:  # each with the memo emptied: a parse of its own file
            monkeypatch.setattr(cli, "_last_train", None)
            want.append(run(capsys, *argv))
        assert got == want
        assert [code for code, _, _ in got[:3]] == [0, 0, 0] and got[:3] == got[3:6]
        assert got[9][0] == 2 and "not valid UTF-8" in got[9][2]
        # one parse per change of file in the sequence, then one per call
        assert len(parses) == sum(a != b for a, b in zip([None] + order, order)) + len(calls)

    @pytest.fixture
    def folds(self, monkeypatch):
        """The trains cli hands to _prefixes, as lists."""
        trains = []

        def counting(elements):
            trains.append(list(elements))
            return _prefixes(elements)

        monkeypatch.setattr("polspin.cli._prefixes", counting)
        return trains

    @pytest.fixture
    def closed_forms(self, monkeypatch):
        """The elements cli hands to _entries, in order."""
        elements = []

        def counting(e, scaled=False):
            elements.append(e)
            return _entries(e, scaled)

        monkeypatch.setattr("polspin.cli._entries", counting)
        return elements

    def test_prefixes_are_built_once_per_content(self, capsys, tmp_path, parses, folds,
                                                 closed_forms, monkeypatch):
        paths = [tmp_path / "a.pol", tmp_path / "b.pol"]
        paths[0].write_text(README_ELEMENTS)
        paths[1].write_text("qwp axis=0.35\natten e1=0.1 e2=0.8\n")
        calls = [(path, argv) for path in paths for argv in TRAIN_COMMANDS]
        fresh = {}
        for path, argv in calls:
            monkeypatch.setattr(cli, "_last_train", None)
            fresh[path, argv] = run(capsys, argv[0], str(path), *argv[1:])
        pure = TRAIN_COMMANDS[1]
        trains = {path: parse_train(path.read_text()).document.elements for path in paths}
        for sequence in itertools.product(calls, repeat=3):
            monkeypatch.setattr(cli, "_last_train", None)
            folds.clear()
            closed_forms.clear()
            for path, argv in sequence:
                assert run(capsys, argv[0], str(path), *argv[1:]) == fresh[path, argv]
            # each route builds only what it reads, once per run of calls on one file: the
            # prefixes for a mueller or a mixed trace, the linear forms for a pure trace
            runs = [(path, [argv for _, argv in group])
                    for path, group in itertools.groupby(sequence, key=lambda call: call[0])]
            assert len(folds) == sum(any(argv != pure for argv in group) for _, group in runs)
            assert closed_forms == [e for path, group in runs if pure in group
                                    for e in trains[path]]

    def test_a_warm_pure_trace_evaluates_no_closed_form(self, capsys, tmp_path, parses,
                                                        monkeypatch):
        path = tmp_path / "t.pol"
        path.write_text(README_ELEMENTS)
        evaluated = []

        def counting(form):
            return lambda e: evaluated.append(e) or form(e)

        for kind, (name, keys, form) in list(ELEMENTS.items()):  # every closed form, any caller
            monkeypatch.setitem(ELEMENTS, kind, (name, keys, counting(form)))
        pure = ("trace", str(path), README_BEAM)
        first = run(capsys, *pure)
        assert first[0] == 0 and len(evaluated) == len(README_ELEMENTS.splitlines())
        evaluated.clear()
        assert [run(capsys, *pure) for _ in range(3)] == [first] * 3 and evaluated == []

    def test_kept_forms_are_the_closed_forms(self, capsys, tmp_path, parses):
        # every kind, and an attenuator whose scale e^-715 is below the smallest normal float
        path = tmp_path / "t.pol"
        path.write_text(README_ELEMENTS + "atten e1=710 e2=720\n")
        assert run(capsys, "trace", str(path), README_BEAM)[0] == 3  # the forms are built whole
        elements = parse_train(path.read_text()).document.elements
        kept = cli._last_train[3]()
        assert repr(kept) == repr([_entries(e, scaled=True) for e in elements])
        assert kept[-1][0] == 1.0 and kept[-1] != _entries(elements[-1])
        # kept in the memo's own list: the parsed elements hold their fields alone
        assert all("_linear" not in slots(e) for e in cli._last_train[1].document.elements)

    def test_same_length_edit_drops_the_kept_forms(self, capsys, tmp_path, parses,
                                                   closed_forms):
        path = tmp_path / "t.pol"
        path.write_text(README_ELEMENTS)
        pure = TRAIN_COMMANDS[1]
        old = run(capsys, pure[0], str(path), *pure[1:])
        kept = cli._last_train[3]()
        stat = path.stat()
        path.write_text(README_ELEMENTS.replace("atten e1=0.1", "atten e1=0.2"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # same size, same mtime
        assert path.stat().st_size == stat.st_size
        got = run(capsys, pure[0], str(path), *pure[1:])
        assert got == run_fresh(pure[0], str(path), *pure[1:]) and got != old
        assert len(parses) == 2 and cli._last_train[3]() is not kept
        elements = parse_train(path.read_text()).document.elements
        assert closed_forms[len(kept):] == elements and len(closed_forms) == 2 * len(kept)

    def test_same_length_edit_drops_the_kept_prefixes(self, capsys, tmp_path, parses, folds):
        path = tmp_path / "t.pol"
        path.write_text(README_ELEMENTS)
        mueller, _, mixed = TRAIN_COMMANDS
        old = [run(capsys, argv[0], str(path), *argv[1:]) for argv in (mixed, mueller)]
        kept = cli._last_train[2]()
        stat = path.stat()
        path.write_text(README_ELEMENTS.replace("atten e1=0.1", "atten e1=0.2"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # same size, same mtime
        assert path.stat().st_size == stat.st_size
        for argv, before in zip((mueller, mixed), old[::-1]):
            got = run(capsys, argv[0], str(path), *argv[1:])
            assert got == run_fresh(argv[0], str(path), *argv[1:]) and got != before
        assert len(parses) == len(folds) == 2 and cli._last_train[2]() is not kept
        elements = parse_train(path.read_text()).document.elements
        assert cli._last_train[2]() == list(_prefixes(elements))

    @pytest.mark.parametrize("text", ["", "# no elements\n", "beam stokes s0=1 s1=0 s2=0 s3=0\n"],
                             ids=["empty", "comment", "beam-only"])
    def test_empty_train_in_either_order(self, capsys, tmp_path, parses, monkeypatch, text):
        path = tmp_path / "t.pol"
        path.write_text(text)
        want = [run_fresh(argv[0], str(path), *argv[1:]) for argv in TRAIN_COMMANDS]
        assert want[0] == (2, "", "train has no elements\n")
        for code, out, err in want[1:]:  # the input row only
            assert (code, err, out.splitlines()[0]) == (0, "", TRACE_HEADER)
            assert [row.split(",")[:2] for row in out.splitlines()[1:]] == [["0", "input"]]
        for order in (TRAIN_COMMANDS, TRAIN_COMMANDS[::-1]):
            monkeypatch.setattr(cli, "_last_train", None)
            got = [run(capsys, argv[0], str(path), *argv[1:]) for argv in order * 2]
            assert got == [want[TRAIN_COMMANDS.index(argv)] for argv in order * 2]

    def test_concurrent_calls_on_different_files(self, tmp_path, monkeypatch):
        # more threads than cores, switching often: no call may read another file's prefixes or
        # linear forms, whichever thread replaced the entry while this one built them
        texts = [README_ELEMENTS, "qwp axis=0.35\natten e1=0.1 e2=0.8\n",
                 "".join(reversed(README_ELEMENTS.splitlines(keepends=True))), "hwp axis=0.3\n"]
        paths = []
        for i, text in enumerate(texts):
            paths.append(str(tmp_path / f"{i}.pol"))
            (tmp_path / f"{i}.pol").write_text(text)
        pure, mixed = TRAIN_COMMANDS[1][1], TRAIN_COMMANDS[2][1]
        want = []
        for path in paths:
            monkeypatch.setattr(cli, "_last_train", None)
            want.append((cmd_mueller(path), cmd_trace(path, mixed), cmd_trace(path, pure)))
        bad = []

        def calls(i):
            for _ in range(300):
                got = cmd_mueller(paths[i]), cmd_trace(paths[i], mixed), cmd_trace(paths[i], pure)
                if got != want[i]:
                    bad.append(i)

        threads = [threading.Thread(target=calls, args=(i % 4,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and bad == []

    def test_a_miss_frees_the_old_entry_before_parsing(self, capsys, tmp_path, parses,
                                                       monkeypatch):
        a, b = tmp_path / "a.pol", tmp_path / "b.pol"
        a.write_text(README_ELEMENTS)
        b.write_text("qwp axis=0.35\natten e1=0.1 e2=0.8\n")
        assert run(capsys, "mueller", str(a))[0] == 0
        raw, result, prefixes, forms = cli._last_train
        assert raw == a.read_bytes() and len(prefixes()) == len(README_ELEMENTS.splitlines())
        old = weakref.ref(result.document)
        del result, prefixes, forms
        seen = []

        def inspecting(source):
            seen.append((cli._last_train, old()))
            return parse_train(source)

        monkeypatch.setattr("polspin.cli.parse_train", inspecting)
        assert run(capsys, "mueller", str(b))[0] == 0
        assert seen == [(None, None)]
        assert cli._last_train[0] == b.read_bytes()

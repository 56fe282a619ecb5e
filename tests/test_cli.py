import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from polspin.cli import main


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
                "flux A^2 of amplitude 7.0710284513028335e-161 underflows (below 2.225e-308)",
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
                "flux A^2 of amplitude 7.0710284513028335e-161 underflows (below 2.225e-308)",
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


class TestDecompose:
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


def test_python_dash_m_runs_the_cli(capsys):
    import polspin

    src = os.path.dirname(os.path.dirname(polspin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["convert", "--to", "stokes", LINEAR_X]
    proc = subprocess.run(
        [sys.executable, "-m", "polspin", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0 and proc.stdout == out

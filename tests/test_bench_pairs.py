"""The summary arithmetic of tools/bench_pairs.py on synthetic perfbench records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DIRECTIONS = {"ops_per_s": "higher", "op_p50_us": "lower"}


def record(ops, p50, attempted=100, failed=0, sha="a"):
    return {"metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "op_p50_us": {"value": p50, "unit": "us"}},
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "outputs_sha256": sha}


def pairs():
    parent = [record(100.0 + i, 1000.0 - i, attempted=90 + i % 2) for i in range(5)]
    # the change is faster in every pair but the last, and prints other
    # bytes in pair 3
    change = [record(300.0 + i, 400.0 + i, sha="b" if i == 3 else "a") for i in range(5)]
    change[4] = record(99.0, 1001.0)
    return {"parent": parent, "change": change}


def test_summary_medians_quartiles_wins():
    summary = bench_pairs.summarize(pairs(), DIRECTIONS)
    ops = summary["metrics"]["ops_per_s"]
    # parent 100..104: exclusive quartiles of 5 points sit at positions 1.5 and 4.5
    assert ops["parent"] == {"median": 102.0, "q1": 100.5, "q3": 103.5}
    # change 99, 300, 301, 302, 303
    assert ops["change"] == {"median": 301.0, "q1": 199.5, "q3": 302.5}
    assert ops["change_wins"] == 4 and ops["unit"] == "1/s"
    assert ops["rel_change"] == pytest.approx(301.0 / 102.0 - 1.0)
    p50 = summary["metrics"]["op_p50_us"]
    assert p50["change_wins"] == 4  # lower is better here
    assert p50["rel_change"] == pytest.approx(402.0 / 998.0 - 1.0)
    assert summary["pairs"] == 5 and summary["correct"] is True
    assert summary["attempted"] == {"parent": [90, 91], "change": [100]}
    assert summary["failed"] == {"parent": [0], "change": [0]}
    assert summary["outputs_sha256_match"] == 4


def test_failed_run_makes_summary_incorrect():
    records = pairs()
    records["change"][2] = record(300.0, 400.0, failed=3)
    summary = bench_pairs.summarize(records, DIRECTIONS)
    assert summary["correct"] is False and summary["failed"]["change"] == [0, 3]


def test_claim_and_held_out():
    records = pairs()
    summary = bench_pairs.summarize(records, DIRECTIONS)
    held = bench_pairs.held_out_summary(
        {"parent": [record(90.0, 1100.0)], "change": [record(270.0, 420.0)]}, "w", 9)
    assert held["ops_per_s"] == {"parent": 90.0, "change": 270.0}
    assert held["outputs_sha256_match"] is True and held["seed"] == 9
    claim = bench_pairs.claim_summary(summary, "w", "ops_per_s", "3x", held)
    assert claim["change_wins"] == 4 and claim["pairs"] == 5
    assert claim["median_gap"] == 199.0 and claim["parent_iqr"] == 3.0
    assert claim["held_out_rel_change"] == pytest.approx(2.0)


def test_traced_counts_lower_pairs():
    traced = bench_pairs.summarize_traced(pairs())
    assert traced["op_p50_us"] == {"parent_median": 998.0, "change_median": 402.0,
                                   "change_lower": 4}


def test_unpaired_records_rejected():
    records = pairs()
    records["change"].pop()
    with pytest.raises(ValueError):
        bench_pairs.summarize(records, DIRECTIONS)


def test_cold_pairs_time_each_command_in_each_tree(tmp_path):
    trees = {side: tmp_path / side for side in bench_pairs.SIDES}
    for tree in trees.values():
        tree.mkdir()
        (tree / "src").symlink_to(bench_pairs.ROOT / "src", target_is_directory=True)
    argvs = bench_pairs.cold_argvs(tmp_path)
    # the three commands of aim 1, the two requests that built ndarrays, and phase
    assert list(argvs) == ["convert", "trace", "mueller", "decompose", "convert_jones", "phase"]
    records = bench_pairs.cold_pairs(trees, argvs, runs=2)
    assert [len(records[side]) for side in bench_pairs.SIDES] == [2, 2]
    layers = bench_pairs.summarize_traced(records)
    assert sorted(layers) == ["cold.convert_jones_ms", "cold.convert_ms", "cold.decompose_ms",
                              "cold.mueller_ms", "cold.phase_ms", "cold.trace_ms"]
    for layer in layers.values():
        assert layer["parent_median"] > 0 and layer["change_median"] > 0
        assert 0 <= layer["change_lower"] <= 2
    with pytest.raises(SystemExit, match="polspin convert failed"):
        bench_pairs.cold_pairs(trees, {"convert": ["convert", "--to", "bogus", "{}"]}, runs=1)


def test_layer_rounds_time_parse_and_prefixes_in_each_tree(tmp_path):
    trees = {side: tmp_path / side for side in bench_pairs.SIDES}
    for tree in trees.values():
        tree.mkdir()
        for name in ("src", "perfbench"):
            (tree / name).symlink_to(bench_pairs.ROOT / name, target_is_directory=True)
    layers = bench_pairs.layer_rounds(trees, seed=1, rounds=2, repeats=1)
    assert sorted(layers) == ["apply_chain_long_us", "apply_chain_us", "parse_train_us_per_line",
                              "prefixes_ms", "record_init_us", "record_read_us",
                              "trace_pure_first_ms", "trace_pure_warm_ms"]
    for layer in layers.values():
        assert layer["parent"] > 0 and layer["change"] > 0
        assert layer["rel_change"] == pytest.approx(layer["change"] / layer["parent"] - 1.0)
        assert layer["parent_median"] >= layer["parent"]  # the best of the rounds is their least
        assert layer["change_median"] >= layer["change"] and 0 <= layer["change_lower"] <= 2
    (trees["change"] / "src").unlink()  # a tree without polspin fails loudly
    with pytest.raises(SystemExit, match="layer timing failed"):
        bench_pairs.layer_rounds(trees, seed=1, rounds=1, repeats=1)


def test_layer_rounds_give_a_median_of_eight_or_more():
    # each layer reports its median over the alternating rounds: eight or more of them
    assert bench_pairs.LAYER_ROUNDS >= 8


def test_cold_runs_resolve_more_than_ten_pairs():
    # ten cold pairs of a ~100 ms process could not resolve +-20% on a 2-vCPU host
    assert bench_pairs.COLD_RUNS == 30


def test_src_lines_counts_python_lines_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("z = 3")  # no final newline: still a line
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not code\n")
    (tmp_path / "c.py").write_text("outside src\n")
    assert bench_pairs.src_lines(tmp_path) == 4


def test_main_records_src_lines_of_each_tree(tmp_path, monkeypatch):
    sources = {"rev-parent": "a = 1\nb = 2\nc = 3\n", "rev-change": "a = 1\n"}

    def export(rev, dest):
        (dest / "src").mkdir(parents=True)
        (dest / "src" / "m.py").write_text(sources[rev])

    def run_pairs(trees, workload, seeds, trace):
        records = pairs()
        for r in records["parent"] + records["change"]:
            r["env"] = dict.fromkeys(("python", "numpy", "nproc", "affinity", "src_sha256"), "x")
        return records

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: f"rev-{args[1]}")
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_pairs", run_pairs)
    monkeypatch.setattr(bench_pairs, "cold_argvs", lambda workdir: {})
    monkeypatch.setattr(bench_pairs, "cold_pairs", lambda trees, argvs: pairs())
    layers = {"prefixes_ms": {"parent": 2.0, "change": 1.0, "rel_change": -0.5}}
    seeds = []
    monkeypatch.setattr(bench_pairs, "layer_rounds", lambda trees, seed: seeds.append(seed) or layers)
    monkeypatch.setattr(bench_pairs, "directions_from_spec", lambda: DIRECTIONS)
    bench_pairs.main(["--pr", "t", "--parent", "parent", "--change", "change",
                      "--first-seed", "7"])
    result = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert result["src_lines"] == {"parent": 3, "change": 1}
    assert result["cold_process"]["runs"] == bench_pairs.COLD_RUNS
    assert result["in_process_layers"]["metrics"] == layers and seeds == [7]


class _Reached(Exception):
    """Raised in place of the first git call: main got past its argument checks."""


@pytest.mark.parametrize("claim", ["beam-sweep:mueler_ms", "beam_sweep:mueller_ms",
                                   "beam-sweep", "mueller_ms", ":", "beam-sweep:mueller_ms:x",
                                   "beam-sweep:import.calls"])
def test_malformed_or_unknown_claim_rejected_before_any_run(claim, monkeypatch, capsys):
    def reached(*args):
        raise _Reached

    for name in ("git", "export", "run_bench", "run_pairs"):
        monkeypatch.setattr(bench_pairs, name, reached)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--pr", "0", "--first-seed", "1", "--claim", claim])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--claim {claim!r}: want WORKLOAD:METRIC" in err and "beam-sweep" in err


@pytest.mark.parametrize("claim", ["beam-sweep:mueller_ms", "cli-requests:ops_per_s", None])
def test_known_claim_passes_the_check(claim, monkeypatch):
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(bench_pairs, "git", reached)
    argv = ["--pr", "0", "--first-seed", "1"] + (["--claim", claim] if claim else [])
    with pytest.raises(_Reached):
        bench_pairs.main(argv)

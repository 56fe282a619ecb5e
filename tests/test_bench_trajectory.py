"""tools/bench_trajectory.py on the committed BENCH_<n>.json files."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)

RECORDS = bench_trajectory.load()


def test_every_committed_file_is_read_in_pr_order():
    numbers = [n for n, _ in RECORDS]
    assert {4, 6, 22, 23, 25} <= set(numbers)
    assert numbers == sorted(int(p.stem.split("_")[1])
                             for p in bench_trajectory.ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("workload", bench_trajectory.WORKLOADS)
def test_every_file_has_every_end_to_end_metric(workload):
    for metric in bench_trajectory.METRICS:
        assert [row[0] for row in bench_trajectory.trajectory(RECORDS, workload, metric)] \
            == [n for n, _ in RECORDS]


def test_a_row_sets_the_parent_next_to_the_previous_change():
    rows = {row[0]: row for row in bench_trajectory.trajectory(RECORDS, "long-train",
                                                               "trace_pure_ms")}
    assert rows[4][1:3] + rows[4][5:] == (None, None, None)
    n, prev_n, prev, parent, change, same = rows[25]
    assert (n, prev_n, same) == (25, 23, True)  # no BENCH_24.json: the previous file is 23
    assert (round(parent, 2), round(change, 2)) == (100.87, 84.34)
    assert round(rows[22][4], 2) == 89.39
    assert rows[23][1:3] == (22, rows[22][4])
    assert round(rows[23][3], 2) == 93.39  # the same src/, measured 4.5% slower
    assert rows[23][5] is True and rows[22][5] is False


def test_main_prints_one_row_per_file(capsys):
    bench_trajectory.main()
    out = capsys.readouterr().out
    section = out[out.index("long-train trace_pure_ms (ms, lower is better)\n"):].split("\n\n")[0]
    rows = [line.split() for line in section.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == [n for n, _ in RECORDS]
    assert rows[[n for n, _ in RECORDS].index(25)][1:] == ["23", "98.58", "same", "100.87",
                                                          "+2.3%", "84.342", "-16.4%"]


def test_main_prints_the_src_lines_of_every_file(capsys):
    bench_trajectory.main()
    section = capsys.readouterr().out.split("src_lines (lines of src/, lower is better)\n")[1]
    rows = {int(row[0]): row[1:] for row in map(str.split, section.splitlines()[1:])}
    assert list(rows) == [n for n, _ in RECORDS]
    assert rows[26] == ["1850", "1811", "-39"]
    assert rows[22] == ["1840", "1850", "+10"]
    assert rows[19] == ["-", "-", "-"]

"""Print the trajectory of every end-to-end metric across the committed BENCH_<n>.json files.

    python3 tools/bench_trajectory.py

Each BENCH_<n>.json (written by tools/bench_pairs.py) holds, per workload and metric, the
median of the parent's runs and of the change's.  For each workload and end-to-end metric
of BENCHMARK.json this prints one row per file, in order of n: the previous file's n and
change median, whether this file's parent has the same src/ as that change ("same" or
"new", by src_sha256), this file's parent median and its relative gap to the previous
change ("drift"), then this file's change median and its relative change.  Where the src/ is
the same, the drift is the host's, not the code's.  Last, one row per file gives the lines
of the parent's and the change's src/ (src_lines, recorded from BENCH_20 on) and their
difference, or "-" where the file has no count.  Standard library only.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def load():
    """[(n, record)] of every BENCH_<n>.json in the repository root, in order of n."""
    found = ((re.fullmatch(r"BENCH_(\d+)\.json", p.name), p) for p in ROOT.iterdir())
    return sorted((int(m[1]), json.loads(p.read_text(encoding="utf-8"))) for m, p in found if m)


def medians(record, workload, metric):
    """(parent, change) medians of one metric in one file, or None where it has none."""
    m = record.get("workloads", {}).get(workload, {}).get("metrics", {}).get(metric)
    return m and (m["parent"]["median"], m["change"]["median"])


def trajectory(records, workload, metric):
    """[(n, previous n, previous change, parent, change, same src)] per file holding the
    metric.  same src is True when this file's parent src/ hashes (src_sha256) as the
    previous file's change did; it and the previous fields are None on the first row."""
    rows, previous = [], (None, None, None)
    for n, record in records:
        pair = medians(record, workload, metric)
        if pair:
            prev_n, prev_change, prev_src = previous
            src = record["src_sha256"]
            rows.append((n, prev_n, prev_change, *pair, prev_src and src["parent"] == prev_src))
            previous = (n, pair[1], src["change"])
    return rows


def _rel(new, old):
    return "-" if old is None else f"{new / old - 1.0:+.1%}"


def _num(x):
    return "-" if x is None else f"{x:.5g}"


def main():
    records = load()
    for workload in WORKLOADS:
        for metric, spec in METRICS.items():
            print(f"{workload} {metric} ({spec['unit']}, {spec['better']} is better)")
            print(f"{'file':>5} {'prev':>5} {'prev change':>11} {'src':>4} {'parent':>11} "
                  f"{'drift':>7} {'change':>11} {'rel':>7}")
            for n, prev_n, prev, parent, change, same in trajectory(records, workload, metric):
                src = {None: "-", True: "same", False: "new"}[same]
                print(f"{n:>5} {'-' if prev_n is None else prev_n:>5} {_num(prev):>11} {src:>4} "
                      f"{_num(parent):>11} {_rel(parent, prev):>7} {_num(change):>11} "
                      f"{_rel(change, parent):>7}")
            print()
    print("src_lines (lines of src/, lower is better)")
    print(f"{'file':>5} {'parent':>7} {'change':>7} {'diff':>5}")
    for n, record in records:
        lines = record.get("src_lines")
        parent, change = (lines["parent"], lines["change"]) if lines else ("-", "-")
        diff = f"{change - parent:+d}" if lines else "-"
        print(f"{n:>5} {parent:>7} {change:>7} {diff:>5}")


if __name__ == "__main__":
    main()

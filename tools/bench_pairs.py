"""Benchmark a change against its parent in alternating pairs; write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr 7 --parent HEAD~1 --change HEAD --first-seed 701 \\
        --claim cli-requests:ops_per_s --claim-target "median at least 3x the parent's" \\
        --held-out 90210 --traced cli-requests

Exports both committed revisions with `git archive` into a temporary
directory (so uncommitted edits never leak into either side, and `.git`
gets no worktree entry) and runs `perfbench/run.py` in each, for every
workload.  Pair i of a workload runs the parent first when i is even, the change first when
it is odd, so the host's slow drift hits both sides alike.  Each workload
gets PAIRS consecutive seeds, starting at --first-seed; every run lasts
SECONDS, the run length BENCHMARK.json fixes.  The traced workload gets
TRACED_PAIRS more pairs with the per-layer tracer on.  Then COLD_RUNS
alternating pairs of cold `python -S -m polspin` processes time every command
(`cold_argvs`); their medians are layers, not bounds.  `-S` skips the site-packages
`.pth` files, whose imports at startup are no part of polspin, so a cold time is the
interpreter's bare start plus polspin's own imports and work.  Last, LAYER_ROUNDS alternating
rounds time, in one process per tree and round, `parse_train` and the prefix products
(`filters._prefixes`) of the first long-train seed's 6000-element train, the best of
LAYER_REPEATS calls each: warm CLI passes reuse both from the CLI's train memo, so no
perfbench layer sees them.  They also time `apply_chain_us`: one pure beam built, stepped
through the README train by `filters.apply` and read as `.spinor`, which shows what a wave's
two spinors cost, `apply_chain_long_us`: the same through the README train ten times over
(60 elements), which shows the cost per step, `record_init_us`: 1000 each of `StokesVector`,
`Spinor2` and `AngleSet` built from fixed floats, the cost of the value records' constructors,
`record_read_us`: 1000 x 4 field reads of each of the three, `trace_pure_warm_ms`: `cli.cmd_trace`
of that train file with its pure beam, a hit of the CLI's train memo, and `trace_pure_first_ms`:
the same call with the memo emptied first, so it parses the file and builds the prefix
products that it reads.  Each layer gives both
sides' best and median over the rounds and the rounds in which the change was lower.  These
and `src_lines`, the line count of each tree's `src/`, are records, not gates.  The summary
gives, per end-to-end metric, the medians and quartiles (statistics.quantiles, exclusive) of
both sides, in how many pairs the change was better (the direction comes from BENCHMARK.json)
and the relative change of the medians.  Standard library only.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("long-train", "cli-requests", "beam-sweep")
SIDES = ("parent", "change")
PAIRS = 10  # alternating pairs per workload
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = SPEC["run_seconds"]
TRACED_PAIRS = 5
COLD_RUNS = 30  # alternating pairs of cold processes per command; 10 could not resolve 20%
LAYER_ROUNDS, LAYER_REPEATS = 8, 9  # in-process layer timings: alternating rounds, calls each
JONES_BEAM = {"jones": {"a1": 1.0, "a2": 0.5, "phi1": 0.0, "phi2": 0.7}}  # cold convert_jones and phase
COMMAND = f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {SECONDS:g} --trace "


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """Write the files of commit rev into the new directory dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # pragma: no cover - Python before 3.11.4
            tar.extractall(dest)


def src_lines(tree):
    """Lines of the Python files under tree/src, a final line without a newline included."""
    return sum(len(path.read_bytes().splitlines()) for path in (tree / "src").rglob("*.py"))


def run_bench(tree, workload, seed, trace):
    """One perfbench run in tree; return its full result record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, seed {seed}):\n"
                         f"{proc.stderr[-2000:]}")
    path = tree / ".perfbench_run" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_pairs(trees, workload, seeds, trace):
    """{side: [record per seed]}, alternating which side runs first."""
    records = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            records[side].append(run_bench(trees[side], workload, seed, trace))
            value = records[side][-1]["metrics"]
            print(f"{workload} seed {seed} {side}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(value.items())
                             if not trace or k.startswith("cli.")),
                  file=sys.stderr, flush=True)
    return records


def cold_pairs(trees, argvs, runs=COLD_RUNS):
    """Wall ms of cold `python -S -m polspin <argv>` processes in each tree, alternating sides.

    argvs maps a command name to its argv.  Returns {side: [record per pair]},
    each record {"metrics": {"cold.<name>_ms": {"value": ms}}}, the shape
    summarize_traced reads.
    """
    records = {side: [] for side in SIDES}
    for i in range(runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            metrics = {}
            for name, argv in argvs.items():
                start = time.perf_counter_ns()
                proc = subprocess.run([sys.executable, "-S", "-m", "polspin", *argv],
                                      cwd=trees[side], env={**os.environ, "PYTHONPATH": "src"},
                                      capture_output=True)
                if proc.returncode != 0:
                    raise SystemExit(f"polspin {name} failed in {trees[side]}:\n"
                                     f"{proc.stderr.decode()[-2000:]}")
                metrics[f"cold.{name}_ms"] = {"value": (time.perf_counter_ns() - start) / 1e6}
            records[side].append({"metrics": metrics})
    return records


def cold_argvs(workdir):
    """The cold commands' argvs: the README pure beam converted, and traced through the
    README train (written to workdir), and that train's Mueller matrix; the README mixed
    beam decomposed; a Jones beam converted to Jones; the phase of the README pure beam
    against that Jones beam."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import README_MIXED_BEAM, README_PURE_BEAM, README_TRAIN

    train, beam = Path(workdir) / "readme.pol", json.dumps(README_PURE_BEAM)
    train.write_text(README_TRAIN, encoding="utf-8")
    jones = json.dumps(JONES_BEAM)
    return {"convert": ["convert", "--to", "stokes", beam],
            "trace": ["trace", str(train), beam],
            "mueller": ["mueller", str(train)],
            "decompose": ["decompose", json.dumps(README_MIXED_BEAM)],
            "convert_jones": ["convert", "--to", "jones", jones],
            "phase": ["phase", beam, jones]}


# Run in a tree with the seed as argv[1]: the best of LAYER_REPEATS timings of parse_train
# (us per line) and of the prefix products (ms) of that seed's long-train train, of
# 1000 chains of apply through the README train and through it ten times over (us per chain;
# about 12 and 110 us), of 1000 builds each of three value records (us in all) and of the
# CLI's pure trace of that train with the memo emptied, then warm (ms), as JSON.  The memo is
# filled only by the last two, so it holds nothing while the other layers are timed.
LAYER_SCRIPT = """
import json, sys, tempfile, time
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
from polspin import cli
from polspin.dsl import parse_train
from polspin.filters import _prefixes, apply
from polspin.spinor import AngleSet, Spinor2, StokesVector, WaveState, spinor_from_angles
from workloads import README_PURE_BEAM, README_TRAIN, generate
seed, repeats = int(sys.argv[1]), int(sys.argv[2])
tmp = tempfile.TemporaryDirectory()  # removed at exit
inputs = generate("long-train", seed, Path(tmp.name))
train, pure = inputs["reference_train"], inputs["stream"][0]["argv"][2]  # trace_pure's beam
text = Path(train).read_text(encoding="utf-8")
def best(call):
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        call()
        times.append(time.perf_counter_ns() - start)
    return min(times)
elements = parse_train(text).document.elements
readme = parse_train(README_TRAIN).document.elements
b = README_PURE_BEAM["angles"]
o = spinor_from_angles(AngleSet(b["theta"], b["phi"], b["chi"]))
def chains(train=readme):  # the wave built, stepped through a train and read as .spinor
    for _ in range(1000):
        w = WaveState(b["amp"], o)
        for e in train:
            w = apply(e, w)
        w.spinor
def records():  # 1000 each of three value records, from fixed floats
    for _ in range(1000):
        StokesVector(1.0, 0.6, 0.0, 0.8)
        Spinor2(0.6 + 0.0j, 0.8j)
        AngleSet(1.0, 0.5, 0.25)
def reads(s=StokesVector(1.0, 0.6, 0.0, 0.8), o=Spinor2(0.6 + 0.0j, 0.8j),
          a=AngleSet(1.0, 0.5, 0.25)):  # 1000 x 4 field reads of each of the three
    for _ in range(1000):
        s.s0; s.s1; s.s2; s.s3
        o.c1; o.c2; o.c1; o.c2
        a.theta; a.phi; a.chi; a.theta
def trace_pure(first):  # first: the memo emptied, so the file is parsed, its prefixes built
    if first:
        cli._last_train = None
    cli.cmd_trace(train, pure)
print(json.dumps({"parse_train_us_per_line": best(lambda: parse_train(text)) / 1e3
                  / len(text.splitlines()),
                  "prefixes_ms": best(lambda: list(_prefixes(elements))) / 1e6,
                  "apply_chain_us": best(chains) / 1e6,
                  "apply_chain_long_us": best(lambda: chains(readme * 10)) / 1e6,
                  "record_init_us": best(records) / 1e3,
                  "record_read_us": best(reads) / 1e3,
                  "trace_pure_first_ms": best(lambda: trace_pure(True)) / 1e6,
                  "trace_pure_warm_ms": best(lambda: trace_pure(False)) / 1e6}))
"""


def layer_rounds(trees, seed, rounds=LAYER_ROUNDS, repeats=LAYER_REPEATS):
    """{metric: {side: best over the rounds, "rel_change": change / parent - 1 of the bests,
    "<side>_median": median over the rounds, "change_lower": rounds where the change was
    lower}} of LAYER_SCRIPT, run in each tree once per round, alternating which side runs
    first."""
    runs = {side: [] for side in SIDES}
    for i in range(rounds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            proc = subprocess.run([sys.executable, "-c", LAYER_SCRIPT, str(seed), str(repeats)],
                                  cwd=trees[side], capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"layer timing failed in {trees[side]}:\n{proc.stderr[-2000:]}")
            runs[side].append(json.loads(proc.stdout))
    out = {}
    for name in runs["parent"][0]:
        p, c = ([run[name] for run in runs[side]] for side in SIDES)
        out[name] = {"parent": min(p), "change": min(c), "rel_change": min(c) / min(p) - 1.0,
                     "parent_median": statistics.median(p), "change_median": statistics.median(c),
                     "change_lower": sum(b < a for a, b in zip(p, c))}
    return out


def spread(values):
    """Median and quartiles (statistics.quantiles, exclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def summarize(records, directions):
    """Pairwise summary of one workload's end-to-end runs.

    records maps "parent" and "change" to equally long lists of perfbench
    result records, pair i at index i; directions maps each metric to
    "lower" or "higher".
    """
    parent, change = records["parent"], records["change"]
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more complete pairs")
    metrics = {}
    for name in sorted(parent[0]["metrics"]):
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        ps, cs = spread(p), spread(c)
        metrics[name] = {
            "unit": parent[0]["metrics"][name]["unit"],
            "parent": ps, "change": cs,
            "change_wins": sum(better(b, a, directions[name]) for a, b in zip(p, c)),
            "rel_change": cs["median"] / ps["median"] - 1.0,
        }
    return {
        "pairs": len(parent),
        "correct": all(r["correct"] for r in parent + change),
        "failed": {side: sorted({r["failed"] for r in records[side]}) for side in SIDES},
        "attempted": {side: sorted({r["attempted"] for r in records[side]}) for side in SIDES},
        "outputs_sha256_match": sum(a["outputs_sha256"] == b["outputs_sha256"]
                                    for a, b in zip(parent, change)),
        "metrics": metrics,
    }


def summarize_traced(records):
    """Per-layer medians of both sides and in how many pairs the change was lower."""
    out = {}
    for name in sorted(records["parent"][0]["metrics"]):
        p, c = ([r["metrics"][name]["value"] for r in records[side]] for side in SIDES)
        out[name] = {"parent_median": statistics.median(p),
                     "change_median": statistics.median(c),
                     "change_lower": sum(b < a for a, b in zip(p, c))}
    return out


def claim_summary(workload_summary, workload, metric, target, held_out):
    m = workload_summary["metrics"][metric]
    claim = {"workload": workload, "metric": metric, "target": target,
             "change_wins": m["change_wins"], "pairs": workload_summary["pairs"],
             "rel_change": m["rel_change"],
             "median_gap": abs(m["change"]["median"] - m["parent"]["median"]),
             "parent_iqr": m["parent"]["q3"] - m["parent"]["q1"]}
    if held_out is not None:
        h = held_out[metric]
        claim["held_out_rel_change"] = h["change"] / h["parent"] - 1.0
    return claim


def held_out_summary(records, workload, seed):
    parent, change = records["parent"][0], records["change"][0]
    out = {"workload": workload, "seed": seed}
    for name in sorted(parent["metrics"]):
        out[name] = {side: records[side][0]["metrics"][name]["value"] for side in SIDES}
    out["failed"] = {side: records[side][0]["failed"] for side in SIDES}
    out["outputs_sha256_match"] = parent["outputs_sha256"] == change["outputs_sha256"]
    return out


def directions_from_spec():
    return {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="the record goes to BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD~1", help="parent revision")
    parser.add_argument("--change", default="HEAD", help="changed revision")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--claim-target", default="", help="the claim, in words")
    parser.add_argument("--held-out", type=int, help="one more seed for the claim workload")
    parser.add_argument("--traced", choices=WORKLOADS, help="workload for traced pairs")
    args = parser.parse_args(argv)

    directions = directions_from_spec()
    # (workload, metric), checked before any run: a typo would otherwise end a long run with nothing
    claim = args.claim and tuple(args.claim.partition(":")[::2])
    if claim and (claim[0] not in WORKLOADS or claim[1] not in directions):
        parser.error(f"--claim {args.claim!r}: want WORKLOAD:METRIC, WORKLOAD one of "
                     f"{', '.join(WORKLOADS)} and METRIC one of {', '.join(directions)}")
    revs = {side: git("rev-parse", getattr(args, side)) for side in SIDES}
    result = {
        "description": f"perfbench/run.py --seconds {SECONDS:g}, calibrated end-to-end "
        "metrics, parent vs change run in alternating order on the seeds listed (pair i "
        "runs the parent first when i is even); medians and quartiles "
        "(statistics.quantiles, exclusive) over the runs",
        "command": COMMAND + "0",
        "git_sha": revs, "src_sha256": {}, "src_lines": {}, "env": {}, "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as workdir:
        trees = {side: Path(workdir) / side for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
            result["src_lines"][side] = src_lines(trees[side])

        seed = args.first_seed
        for workload in WORKLOADS:
            seeds = list(range(seed, seed + PAIRS))
            seed += PAIRS
            records = run_pairs(trees, workload, seeds, 0)
            result["workloads"][workload] = dict(summarize(records, directions), seeds=seeds)
        env = records["parent"][0]["env"]
        result["env"] = {k: env[k] for k in ("python", "numpy", "nproc", "affinity")}
        result["src_sha256"] = {side: records[side][0]["env"]["src_sha256"] for side in SIDES}

        if claim:
            workload, metric = claim
            held_out = None
            if args.held_out is not None:
                records = run_pairs(trees, workload, [args.held_out], 0)
                held_out = result["held_out"] = held_out_summary(records, workload,
                                                                 args.held_out)
            result["claim"] = claim_summary(result["workloads"][workload], workload, metric,
                                            args.claim_target, held_out)

        if args.traced:
            seeds = list(range(seed, seed + TRACED_PAIRS))
            records = run_pairs(trees, args.traced, seeds, 1)
            result[f"traced_{args.traced.replace('-', '_')}"] = {
                "command": (COMMAND + "1").replace("<w>", args.traced),
                "seeds": seeds, "metrics": summarize_traced(records)}

        argvs = cold_argvs(workdir)
        result["cold_process"] = {
            "command": "python -S -m polspin convert --to stokes <README pure beam>; "
                       "python -S -m polspin trace <README train> <README pure beam>; "
                       "python -S -m polspin mueller <README train>; "
                       "python -S -m polspin decompose <README mixed beam>; "
                       f"python -S -m polspin convert --to jones '{json.dumps(JONES_BEAM)}'; "
                       "python -S -m polspin phase <README pure beam> <that Jones beam>",
            "runs": COLD_RUNS, "metrics": summarize_traced(cold_pairs(trees, argvs))}
        result["in_process_layers"] = {
            "command": "parse_train and list(filters._prefixes) on the long-train train of seed "
                       f"{args.first_seed}, 1000 chains of filters.apply on the README pure "
                       "beam through the README train and through it ten times over (60 "
                       "elements), 1000 each of StokesVector, Spinor2 and AngleSet "
                       "built from fixed floats, 1000 x 4 field reads of each of the three, "
                       "and cli.cmd_trace of that long-train file with its pure beam, warm and "
                       "with cli._last_train emptied before each call, "
                       f"best of {LAYER_REPEATS} calls in each of "
                       f"{LAYER_ROUNDS} alternating rounds per tree",
            "metrics": layer_rounds(trees, args.first_seed)}

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()

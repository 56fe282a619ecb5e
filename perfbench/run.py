"""polspin benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload long-train --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, starts SETUP_RUNS fresh
single-threaded interpreters one after another (each imports polspin.cli
from src/ and makes the workload's first call; the last one then runs the
measured or traced phase), checks every output, prints each metric with
its unit and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads, metrics and layer map.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate  # noqa: E402

SETUP_RUNS = 5  # setup_s and import.* are medians over this many interpreters
RUN_DIR = ROOT / ".perfbench_run"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(run_dir, mode, seconds):
    """Start one worker interpreter; return its JSON and its setup time in s."""
    argv = [sys.executable, str(HERE / "worker.py"), str(run_dir), mode, str(seconds)]
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(argv, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=seconds + 120)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({mode}) timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_s = (result["first_call_done_ns"] - start) / 1e9
    return result, setup_s


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    if not (ROOT / "src" / "polspin" / "__init__.py").is_file():
        raise BenchError(f"no polspin sources under {ROOT / 'src'}")
    declared = declared_metrics(args.trace)
    run_dir = RUN_DIR / f"{args.workload}-seed{args.seed}"
    generate(args.workload, args.seed, run_dir)

    probes = [run_worker(run_dir, "setup", 0) for _ in range(SETUP_RUNS - 1)]
    main, main_setup = run_worker(run_dir, "trace" if args.trace else "measure", args.seconds)
    workers = [r for r, _ in probes] + [main]
    raw_setups = [s for _, s in probes] + [main_setup]
    setups = [s * r["setup_scale"] for s, r in zip(raw_setups, workers)]

    metrics = dict(main["metrics"])
    if args.trace:
        imports = [r["import_ms"] for r in workers]
        metrics["import.polspin_cli_ms"] = (statistics.median(imports), len(imports))
        metrics["import.self_ms"] = (statistics.median(r["import_self_ms"] for r in workers),
                                     len(workers))
        metrics["import.calls"] = (main["polspin_modules"], 1)
        metrics["import.errors"] = (0, 1)
    else:
        metrics["setup_s"] = (statistics.median(setups), len(setups))
    if set(metrics) != set(declared):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}")
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        raise BenchError("non-finite metric")

    probe_failed = sum(p["failure"] is not None for p in main["extinction_probe"])
    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    failures = [f for r in workers for f in r["failures"]]
    correct = failed - probe_failed == 0

    env = {"python": main["python"], "numpy": main["numpy"], "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
           "src_sha256": src_sha256(), "seed": args.seed, "seconds": args.seconds,
           "workload": args.workload, "trace": args.trace}
    outputs_sha256 = hashlib.sha256("".join(main["outputs"]).encode()).hexdigest()
    record = {"env": env, "metrics": {k: {"value": v, "unit": declared[k], "samples": n}
                                      for k, (v, n) in sorted(metrics.items())},
              "correct": correct, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "failures": failures,
              "raw_metrics": main.get("raw_metrics"), "raw_setup_s": raw_setups,
              "extinction_probe": main["extinction_probe"], "setup_samples_s": setups,
              "outputs_sha256": outputs_sha256, "outputs": main["outputs"]}
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for k, (v, n) in sorted(metrics.items()):
        print(f"{k} = {v:.6g} {declared[k]} (n={n})")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.3g}")
    for p in main["extinction_probe"]:
        print(f"extinction probe {p['kind']}: exit {p['exit']}, "
              f"{p['failure'] or 'ok'}, {p['runtime_warnings']} RuntimeWarning(s)")
    for f in failures:
        print(f"FAILED {f}")
    print(f"outputs: {len(set(main['outputs']))} distinct CLI outputs, sha256 {outputs_sha256}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": declared[k]}
                                  for k, (v, _) in sorted(metrics.items())}}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

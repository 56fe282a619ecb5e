"""Seeded input generation for the three workloads (standard library only).

Everything the measured program receives is made here from the seed and
written to the run directory: `.pol` train files and a JSON op stream.
Each op is a dict with a `kind` (one of KINDS) and the data its worker
needs; CLI ops carry an argv list for `polspin.cli.main`.
"""

import json
import math
import random

WORKLOADS = ("long-train", "cli-requests", "beam-sweep")

# Op kinds; the first three have their own end-to-end median metric.
KINDS = ("trace_pure", "trace_mixed", "mueller", "convert", "decompose", "phase")

TWO_PI = 2.0 * math.pi

# The example train from the package README (six elements, one per kind).
README_TRAIN = """\
# a small train
beam angles theta=1.0 phi=0.2 chi=0.0 amp=1.0
shifter d1=0.1 d2=1.2
rotate alpha=deg(45)
gyro d1=0.0 d2=0.3
qwp axis=0.785
hwp axis=0.4
atten e1=0.1 e2=0.8
"""
README_ELEMENTS = README_TRAIN.splitlines()[2:]
README_PURE_BEAM = {"angles": {"theta": 1.0, "phi": 0.2, "chi": 0.0, "amp": 1.0}}
README_MIXED_BEAM = {"stokes": [1.0, 0.0, 0.0, 0.5]}

# The extinction probe repeats the README train this many times; its total
# loss underflows a double, which the CLI must report (exit 3) or survive.
PROBE_REPEATS = 1000

LONG_TRAIN_PER_KIND = 1000  # 6 kinds x 1000 = 6000 elements

# cli-requests mix per 20 requests.  The tail is set so that p90 falls
# inside the pure-trace latency cluster, not on the gap below it.
CLI_MIX = (("convert", 9), ("decompose", 2), ("phase", 2), ("mueller", 2),
           ("trace_mixed", 2), ("trace_pure", 3))
CLI_STREAM_LEN = 1000

# beam-sweep mix per 5 beams: 2 pure, 2 mixed through coherency, 1 mixed
# through the Mueller matrix.  Pure beams are the slower cluster, so a
# 50/50 split would put the median on the gap between the two clusters.
SWEEP_MIX = (("trace_pure", 2), ("trace_mixed", 2), ("mueller", 1))
SWEEP_STREAM_LEN = 2000

CONVERT_TARGETS = ("angles", "stokes", "jones", "spinor", "coherency")


def _element_line(rng, kind):
    u = rng.uniform
    if kind in ("shifter", "gyro"):
        return f"{kind} d1={u(0, TWO_PI)!r} d2={u(0, TWO_PI)!r}"
    if kind == "rotate":
        return f"rotate alpha={u(0, TWO_PI)!r}"
    if kind in ("qwp", "hwp"):
        return f"{kind} axis={u(0, math.pi)!r}"
    # weakly lossy fiber segment: a few nepers over the whole long train
    return f"atten e1={u(0, 0.01)!r} e2={u(0, 0.01)!r}"


def _angles_beam(rng):
    return {"angles": {"theta": rng.uniform(0, math.pi), "phi": rng.uniform(0, TWO_PI),
                       "chi": rng.uniform(0, TWO_PI), "amp": rng.uniform(0.5, 2.0)}}


def _jones_beam(rng):
    return {"jones": {"a1": rng.uniform(0.1, 2.0), "a2": rng.uniform(0.1, 2.0),
                      "phi1": rng.uniform(0, TWO_PI), "phi2": rng.uniform(0, TWO_PI)}}


def _unit_vector(rng):
    z = rng.uniform(-1.0, 1.0)
    p = rng.uniform(0, TWO_PI)
    rho = math.sqrt(1.0 - z * z)
    return rho * math.cos(p), rho * math.sin(p), z


def _stokes_beam(rng, dop):
    s0 = rng.uniform(0.5, 2.0)
    return {"stokes": [s0] + [s0 * dop * x for x in _unit_vector(rng)]}


def _mixed_beam(rng):
    return _stokes_beam(rng, rng.uniform(0.3, 0.9))


def _pure_beam(rng):
    form = rng.choice(("angles", "jones", "stokes"))
    if form == "angles":
        return _angles_beam(rng)
    if form == "jones":
        return _jones_beam(rng)
    return _stokes_beam(rng, 1.0)


def _sphere_point(angles):
    t, p = angles["theta"], angles["phi"]
    return math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)


def _phase_pair(rng):
    # non-orthogonal: |<a|b>|^2 = (1 + r_a.r_b)/2 stays above 0.1
    while True:
        a, b = _angles_beam(rng), _angles_beam(rng)
        ra, rb = _sphere_point(a["angles"]), _sphere_point(b["angles"])
        if sum(x * y for x, y in zip(ra, rb)) > -0.8:
            return a, b


def _shuffled_mix(rng, mix, length):
    per = sum(n for _, n in mix)
    kinds = [k for k, n in mix for _ in range(n * length // per)]
    rng.shuffle(kinds)
    return kinds


def _cli_op(rng, kind, train):
    if kind == "convert":
        if rng.random() < 0.75:
            beam, targets = _pure_beam(rng), CONVERT_TARGETS
        else:  # a mixed beam has only these two representations
            beam, targets = _mixed_beam(rng), ("stokes", "coherency")
        target = rng.choice(targets)
        return {"kind": kind, "beam": beam, "target": target,
                "argv": ["convert", "--to", target, json.dumps(beam)]}
    if kind == "decompose":
        beam = _mixed_beam(rng)
        return {"kind": kind, "beam": beam, "argv": ["decompose", json.dumps(beam)]}
    if kind == "phase":
        a, b = _phase_pair(rng)
        return {"kind": kind, "beams": [a, b],
                "argv": ["phase", json.dumps(a), json.dumps(b)]}
    if kind == "mueller":
        return {"kind": kind, "argv": ["mueller", train]}
    beam = _pure_beam(rng) if kind == "trace_pure" else _mixed_beam(rng)
    return {"kind": kind, "beam": beam, "argv": ["trace", train, json.dumps(beam)]}


def _sweep_op(rng, kind):
    if kind == "trace_pure":
        return {"kind": kind, "beam": _angles_beam(rng)}
    return {"kind": kind, "beam": _mixed_beam(rng)}


def generate(workload, seed, run_dir):
    """Write the workload's inputs under run_dir and return their description."""
    rng = random.Random(f"{workload}:{seed}")
    run_dir.mkdir(parents=True, exist_ok=True)
    readme = run_dir / "readme.pol"
    readme.write_text(README_TRAIN, encoding="utf-8")
    inputs = {"workload": workload, "seed": seed, "readme_train": str(readme)}

    if workload == "long-train":
        kinds = [k for k in ("shifter", "rotate", "gyro", "qwp", "hwp", "atten")
                 for _ in range(LONG_TRAIN_PER_KIND)]
        rng.shuffle(kinds)
        long_pol = run_dir / "long.pol"
        long_pol.write_text("\n".join(_element_line(rng, k) for k in kinds) + "\n",
                            encoding="utf-8")
        pure, mixed = _angles_beam(rng), _mixed_beam(rng)
        train = str(long_pol)
        inputs["stream"] = [
            {"kind": "trace_pure", "beam": pure, "argv": ["trace", train, json.dumps(pure)]},
            {"kind": "trace_mixed", "beam": mixed, "argv": ["trace", train, json.dumps(mixed)]},
            {"kind": "mueller", "argv": ["mueller", train]},
        ]
        inputs["reference_train"] = train
        probe = run_dir / "probe.pol"
        probe.write_text("\n".join(README_ELEMENTS * PROBE_REPEATS) + "\n", encoding="utf-8")
        inputs["probe"] = [
            {"kind": "trace_pure", "beam": README_PURE_BEAM,
             "argv": ["trace", str(probe), json.dumps(README_PURE_BEAM)]},
            {"kind": "trace_mixed", "beam": README_MIXED_BEAM,
             "argv": ["trace", str(probe), json.dumps(README_MIXED_BEAM)]},
            {"kind": "mueller", "argv": ["mueller", str(probe)]},
        ]
    elif workload == "cli-requests":
        kinds = _shuffled_mix(rng, CLI_MIX, CLI_STREAM_LEN)
        inputs["stream"] = [_cli_op(rng, k, str(readme)) for k in kinds]
        inputs["reference_train"] = str(readme)
    elif workload == "beam-sweep":
        kinds = _shuffled_mix(rng, SWEEP_MIX, SWEEP_STREAM_LEN)
        inputs["stream"] = [_sweep_op(rng, k) for k in kinds]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    (run_dir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
    return inputs

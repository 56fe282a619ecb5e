"""Output checks for every benchmark operation (standard library only).

Each check returns None when the output is correct, else a short reason.
Expected values come from closed forms written here, not from polspin:

  angles (theta, phi, chi, amp):  s = amp^2 (1, sin t cos p, sin t sin p, cos t)
  jones (a1, a2, phi1, phi2):     s = ((a1^2 + a2^2)/2, (a1^2 - a2^2)/2,
                                       a1 a2 cos(phi2 - phi1), a1 a2 sin(phi2 - phi1))
  spinor:  o = e^{-i chi/2} (e^{-i phi/2} cos(t/2), e^{i phi/2} sin(t/2))
"""

import cmath
import json
import math

REL_TOL = 1e-9  # outputs against closed forms and against the Mueller matrix
TRACE_HEADER = "step,element,rx,ry,rz,mx,my,mz,s0,s1,s2,s3,phase"


def expected_stokes(beam):
    (form, body), = beam.items()
    if form == "stokes":
        return list(body)
    if form == "angles":
        t, p, a2 = body["theta"], body["phi"], body["amp"] ** 2
        return [a2, a2 * math.sin(t) * math.cos(p), a2 * math.sin(t) * math.sin(p),
                a2 * math.cos(t)]
    a1, a2, d = body["a1"], body["a2"], body["phi2"] - body["phi1"]
    return [0.5 * (a1 * a1 + a2 * a2), 0.5 * (a1 * a1 - a2 * a2),
            a1 * a2 * math.cos(d), a1 * a2 * math.sin(d)]


def spinor_of_angles(angles):
    t, p, c = angles["theta"], angles["phi"], angles["chi"]
    g = cmath.exp(-0.5j * c)
    return (g * cmath.exp(-0.5j * p) * math.cos(0.5 * t),
            g * cmath.exp(0.5j * p) * math.sin(0.5 * t))


def mat_vec(m, v):
    return [sum(m[i][j] * v[j] for j in range(4)) for i in range(4)]


def _norm(v):
    return math.sqrt(sum(x * x for x in v))


def _close(got, want, scale):
    return _norm([g - w for g, w in zip(got, want)]) <= REL_TOL * scale


def stokes_invariants(s):
    """s0 > 0 (finite loss) and s0^2 >= |s|^2 to REL_TOL."""
    if not all(math.isfinite(x) for x in s):
        return "non-finite Stokes parameter"
    if not s[0] > 0.0:
        return f"s0 = {s[0]!r} is not positive"
    if s[0] ** 2 - (s[1] ** 2 + s[2] ** 2 + s[3] ** 2) < -REL_TOL * s[0] ** 2:
        return "over-polarized: s0^2 < |s|^2"
    return None


def parse_mueller(out):
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()]
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("Mueller output is not 4x4")
    return rows


def check_mueller(out, reference_out):
    try:
        m = parse_mueller(out)
    except ValueError as exc:
        return f"unparsable Mueller output: {exc}"
    if not all(math.isfinite(x) for row in m for x in row):
        return "non-finite Mueller entry"
    if not m[0][0] > 0.0:
        return f"M00 = {m[0][0]!r} is not positive"
    if reference_out is not None and out != reference_out:
        return "Mueller output differs from the first one for the same train"
    return None


def check_trace(op, out, mueller):
    lines = out.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        return "trace output has no CSV header"
    pure = op["kind"] == "trace_pure"
    s_in = expected_stokes(op["beam"])
    last = None
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 13:
            return f"trace row has {len(f)} fields"
        try:
            r = [float(x) for x in f[2:5]]
            s = [float(x) for x in f[8:12]]
            if pure:  # frame tangent always; phase is empty only at orthogonality
                [float(x) for x in f[5:8] + [f[12] or "0"]]
        except ValueError:
            return f"unparsable trace row {f[0]}"
        if pure and abs(_norm(r) - 1.0) > REL_TOL:
            return f"|r| = {_norm(r)!r} on pure row {f[0]}"
        bad = stokes_invariants(s)
        if bad:
            return f"row {f[0]}: {bad}"
        if f[0] == "0" and not _close(s, s_in, s_in[0]):
            return "input row differs from the beam's Stokes vector"
        last = s
    want = mat_vec(mueller, s_in)
    if not _close(last, want, _norm(want)):
        return "final trace row differs from Mueller x input Stokes"
    return None


def check_convert(op, out):
    obj = json.loads(out)
    s = expected_stokes(op["beam"])
    target = op["target"]
    if list(obj) != [target]:
        return f"convert output key is not {target!r}"
    body = obj[target]
    if target == "stokes":
        got = body
    elif target == "angles":
        if not (0.0 <= body["theta"] <= math.pi and 0.0 <= body["phi"] < 2 * math.pi
                and 0.0 <= body["chi"] < 2 * math.pi):
            return "angles out of range"
        got = expected_stokes({"angles": body})
    elif target == "jones":
        got = expected_stokes({"jones": body})
    elif target == "spinor":
        (r1, i1), (r2, i2) = body
        c1, c2 = complex(r1, i1), complex(r2, i2)
        if abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) > REL_TOL:
            return "spinor is not unit"
        z = c1.conjugate() * c2
        got = [s[0], s[0] * 2 * z.real, s[0] * 2 * z.imag,
               s[0] * (abs(c1) ** 2 - abs(c2) ** 2)]
    else:
        (a, b), (c, d) = [[complex(*z) for z in row] for row in body["matrix"]]
        if body["basis"] != "circular":
            return "coherency basis is not circular"
        got = [(a + d).real, (b + c).real, (c - b).imag, (a - d).real]
    if not _close(got, s, s[0]):
        return f"convert --to {target} disagrees with the input beam"
    return None


def check_decompose(op, out):
    obj = json.loads(out)
    s = expected_stokes(op["beam"])
    norm = _norm(s[1:])
    lp, lm = obj["eigenvalues"]
    if not _close([lp + lm, lp - lm, obj["dop"] * s[0]], [s[0], norm, norm], s[0]):
        return "eigenvalues or DoP disagree with the input beam"
    point = [x / norm for x in s[1:]]
    if not _close(obj["points"][0], point, 1.0) or obj["degenerate"]:
        return "principal point disagrees with the input beam"
    return None


def check_phase(op, out):
    obj = json.loads(out)
    a, b = (spinor_of_angles(beam["angles"]) for beam in op["beams"])
    want = cmath.phase(a[0].conjugate() * b[0] + a[1].conjugate() * b[1])
    if abs(cmath.exp(1j * obj["phase"]) - cmath.exp(1j * want)) > REL_TOL:
        return "Pancharatnam phase disagrees with the spinor overlap"
    if obj["in_phase"] != (abs(obj["phase"]) < 1e-9):
        return "in_phase flag disagrees with the phase"
    return None


def check_cli(op, code, out, mueller, mueller_out):
    """Check one CLI op that was expected to exit 0."""
    if code != 0:
        return f"exit code {code}, expected 0"
    kind = op["kind"]
    try:
        if kind == "mueller":
            return check_mueller(out, mueller_out)
        if kind in ("trace_pure", "trace_mixed"):
            return check_trace(op, out, mueller)
        return {"convert": check_convert, "decompose": check_decompose,
                "phase": check_phase}[kind](op, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"output does not reparse: {exc!r}"


def check_probe(op, code, out):
    """Extinction probe: pass on exit 3, or exit 0 with all s0 > 0 / M00 > 0."""
    if code == 3:
        return None
    if code != 0:
        return f"exit code {code}"
    try:
        if op["kind"] == "mueller":
            m00 = parse_mueller(out)[0][0]
            return None if m00 > 0.0 else f"exit 0 with M00 = {m00!r}"
        s0 = min(float(line.split(",")[8]) for line in out.splitlines()[1:])
    except (ValueError, IndexError) as exc:
        return f"output does not reparse: {exc!r}"
    return None if s0 > 0.0 else f"exit 0 with s0 = {s0!r}"


def check_sweep(op, out, mueller):
    """beam-sweep outputs against the train's Mueller matrix x input Stokes."""
    s_in = expected_stokes(op["beam"])
    s = out["stokes"]
    bad = stokes_invariants(s)
    if bad:
        return bad
    want = mat_vec(mueller, s_in)
    if not _close(s, want, _norm(want)):
        return "output Stokes differs from Mueller x input Stokes"
    if op["kind"] == "trace_pure":
        if abs(_norm(out["r"]) - 1.0) > REL_TOL:
            return "|r| of the output frame is not 1"
        if not -math.pi <= out["phase"] <= math.pi:
            return "Pancharatnam phase out of range"
    elif op["kind"] == "trace_mixed":
        lp, lm = out["eigenvalues"]
        if not _close([lp + lm, out["dop"] * s[0]], [s[0], _norm(s[1:])], s[0]):
            return "eigenvalues or DoP disagree with the output Stokes vector"
    elif out["mueller"] != mueller:
        return "Mueller matrix differs from the reference"
    return None

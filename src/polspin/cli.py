"""Command-line front end: convert, trace, mueller, decompose, phase.

Exit codes are a stable contract for scripts: 0 success, else the exit_code of the error class
raised: 2 input error, 3 extinction (the flux underflows below the smallest normal float inside
a train), 4 undefined phase (orthogonal states).  All numeric output uses shortest
round-tripping decimals, so every printed value reparses to the identical double.

COMMANDS gives every command's arguments.  A plain command line is read
straight from it; argparse is imported, and its parser built from it, only
for help, usage and errors, so their text is argparse's own.
`trace` and `mueller` keep one train file: the bytes last read, their parse, the train's prefix
products once `mueller` or a mixed `trace` asks, and each element's linear form once a pure
`trace` asks; bytes that differ replace all four.
parse_train reads the bytes as the file's content: UTF-8 with universal newlines.
"""

import cmath
import functools
import json
import sys
import types
from operator import attrgetter

from .beamio import PURITY_TOL, _beam_from_json, _decode_json, parse_beam_json
from .dsl import parse_train
from .errors import PolspinError
from .filters import ELEMENTS, _entries, _prefixes, _step
from .partial import (
    _decomposition,
    _mueller_rows,
    _propagator,
    _rows,
    coherency_from_stokes,
    degree_of_polarization,
)
from .spinor import (
    FLUX_MIN,
    JONES_PREFACTOR_UNIT,
    PHASE_TOL,
    _sphere_point,
    _tangent,
    angles_from_spinor,
    pancharatnam_phase,
)

IN_PHASE_TOL = 1e-9


class CliError(PolspinError):
    """A command line, or a file it names, that no command can use."""


_last_train = None  # (bytes, ParseResult, prefixes call, forms call) of the last train file read


def _load_train(path):
    """The memo entry of a train file: its bytes, their parse and two calls, each returning one
    list built whole at its first call and only read; parsed unless last read."""
    global _last_train
    try:
        with open(path, "rb", buffering=0) as fh:  # one read, no text layer
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read train file: {exc}")
    last = _last_train  # read once: a concurrent call on another file only misses
    if last is None or last[0] != raw:
        last = _last_train = None  # the old parse is freed before the new one is made
        result = parse_train(raw)  # UTF-8 with universal newlines, as text mode reads them
        prefixes = functools.cache(lambda: list(_prefixes(result.document.elements)))
        forms = functools.cache(lambda: [_entries(e, scaled=True)
                                         for e in result.document.elements])
        last = _last_train = raw, result, prefixes, forms
    if not last[1].ok:  # formatted on every call, with this call's path
        raise CliError("\n".join(f"{path}:{d.line}:{d.column}: {d.severity}: {d.message}"
                                 for d in last[1].diagnostics))
    return last


def _require_flux(s0):
    # a zero or subnormal s0 has no direction s_vec / s0 left to propagate
    if not s0 >= FLUX_MIN:
        raise CliError(f"beam flux s0 = {s0!r} is zero or underflows (below {FLUX_MIN:.4g})")


def cmd_convert(beam_json, target, basis="circular", tol=PURITY_TOL):
    beam = parse_beam_json(beam_json, tol)
    s = beam.stokes
    if target == "stokes":
        return json.dumps({"stokes": [s.s0, s.s1, s.s2, s.s3]})
    if target == "coherency":
        (p, q), (qc, r) = _rows(*coherency_from_stokes(s, basis)._entries)  # .matrix's rows
        matrix = [[[p, 0.0], [q.real, q.imag]], [[qc.real, qc.imag], [r, 0.0]]]  # [re, im] pairs
        return json.dumps({"coherency": {"basis": basis, "matrix": matrix}})
    if not beam.pure:
        raise CliError(
            f"mixed beam has no {target!r} representation; "
            "only 'stokes' and 'coherency' targets apply"
        )
    w = beam.wave
    if target == "angles":
        ang = angles_from_spinor(w.spinor)
        body = {"theta": ang.theta, "phi": ang.phi, "chi": ang.chi, "amp": w.amplitude}
        return json.dumps({"angles": body})
    if target == "spinor":
        return json.dumps({"spinor": [[c.real, c.imag] for c in (w.spinor.c1, w.spinor.c2)]})
    if target == "jones":
        prefactor = JONES_PREFACTOR_UNIT * w.amplitude  # plain products: no FMA on any host
        z1, z2 = (prefactor * o for o in w._jones)
        phi1, phi2 = (cmath.phase(z) if abs(z) > 0 else 0.0 for z in (z1, z2))
        return json.dumps({"jones": {"a1": abs(z1), "a2": abs(z2), "phi1": phi1, "phi2": phi2}})
    raise CliError(f"unknown conversion target {target!r}")


TRACE_HEADER = "step,element,rx,ry,rz,mx,my,mz,s0,s1,s2,s3,phase"


def _mixed_row(step, name, s0, s1, s2, s3):
    """One mixed-beam row: direction s_vec / s0 (zeros at s0 = 0), Stokes, no M or phase."""
    d1, d2, d3 = (s1 / s0, s2 / s0, s3 / s0) if s0 > 0 else (0.0, 0.0, 0.0)
    return f"{step},{name},{d1!r},{d2!r},{d3!r},,,,{s0!r},{s1!r},{s2!r},{s3!r},"


def cmd_trace(train_path, beam_json, tol=PURITY_TOL):
    """Propagate in the linear basis, printing circular-basis rows.  The beam was validated
    when parsed; every row checks the extinction rule and the invariants the WaveState and
    CoherencyMatrix constructors would, a pure row on apply's raw step, with no WaveState."""
    _, result, prefixes, forms = _load_train(train_path)
    elements = result.document.elements
    beam = parse_beam_json(beam_json, tol)
    s = beam.stokes.s0, beam.stokes.s1, beam.stokes.s2, beam.stokes.s3
    _require_flux(s[0])
    lines = [TRACE_HEADER]
    if beam.pure:  # a row: sphere point r, Re M of the spinor, Stokes s, phase
        o = beam.wave.spinor  # the input row reads the circular spinor, the steps U o
        (r1, r2, r3), (m1, m2, m3) = _sphere_point(o.c1, o.c2), _tangent(o.c1, o.c2)
        lines.append(f"0,input,{r1!r},{r2!r},{r3!r},{m1.real!r},{m2.real!r},{m3.real!r},"
                     f"{s[0]!r},{s[1]!r},{s[2]!r},{s[3]!r},0.0")
        amp, (c1, c2), last = beam.wave.amplitude, beam.wave._jones, None
        k1, k2 = c1.conjugate(), c2.conjugate()
        for step, (element, entries) in enumerate(zip(elements, forms()), start=1):
            amp, c1, c2 = _step(entries, amp, c1, c2)
            inner = k1 * c1 + k2 * c2  # <input|o>, as pancharatnam_phase, in either basis
            phase = "" if abs(inner) < PHASE_TOL else repr(cmath.phase(inner))
            r2, r3, r1 = _sphere_point(c1, c2)  # linear (x, y, z) is circular (2, 3, 1)
            m2, m3, m1 = _tangent(c1, c2)
            if amp != last:  # a unitary step keeps A bit for bit, and so s0's digits
                last, s0, s0_text = amp, amp**2, repr(amp**2)
            lines.append(f"{step},{ELEMENTS[type(element)][0]},{r1!r},{r2!r},{r3!r},"
                         f"{m1.real!r},{m2.real!r},{m3.real!r},"
                         f"{s0_text},{s0 * r1!r},{s0 * r2!r},{s0 * r3!r},{phase}")
    else:  # F of each kept prefix on the input C: its rounding is squared, not C's carried on
        lines.append(_mixed_row(0, "input", *s))
        propagate = _propagator(beam.stokes)
        # prefixes() raises EmptyTrainError on an empty train, which gives the input row alone
        for step, (element, f) in enumerate(zip(elements, elements and prefixes()), 1):
            lines.append(_mixed_row(step, ELEMENTS[type(element)][0], *propagate(f)))
    return "\n".join(lines) + "\n"


def cmd_mueller(train_path):
    """The Mueller rows of the train's F, as mueller_of_train's, with no ndarray; F is the last
    of the prefixes kept with _load_train's parse, reused while the file's bytes are unchanged."""
    prefixes = _load_train(train_path)[2]
    rows = _mueller_rows(*prefixes()[-1])  # F, the last prefix
    return "\n".join(",".join(map(repr, row)) for row in rows) + "\n"


def cmd_decompose(beam_json, tol=PURITY_TOL):
    obj = _decode_json(beam_json)
    if not isinstance(obj, dict) or set(obj) != {"stokes"}:
        raise CliError("decompose requires the Stokes beam form")
    s = _beam_from_json(obj, tol).stokes
    _require_flux(s.s0)
    plus, minus, lam_plus, lam_minus, degenerate = _decomposition(s)
    return json.dumps(
        {
            "points": [plus, minus],
            "eigenvalues": [lam_plus, lam_minus],
            "dop": degree_of_polarization(s),
            "degenerate": degenerate,
        }
    )


def cmd_phase(beam_a_json, beam_b_json, tol=PURITY_TOL):
    beam_a = parse_beam_json(beam_a_json, tol)
    beam_b = parse_beam_json(beam_b_json, tol)
    if not (beam_a.pure and beam_b.pure):
        raise CliError("relative phase requires two pure beams")
    phase = pancharatnam_phase(beam_a.wave.spinor, beam_b.wave.spinor)
    return json.dumps({"phase": phase, "in_phase": abs(phase) < IN_PHASE_TOL})


_OUTPUT = {"--output": {"dest": "output", "help": "write output to a file instead of stdout"}}
_COMMON = {**_OUTPUT, "--tolerance": {
    "dest": "tolerance", "type": float, "default": PURITY_TOL,
    "help": "purity tolerance for classifying Stokes beams (default %(default)g)"}}
_BEAM, _TRAIN = {"beam": "beam JSON text"}, {"train": "path to a .pol train file"}

# command: (help, {positional: help}, {long flag: add_argument keywords}), in argparse's order
COMMANDS = {
    "convert": ("convert a beam between representations", _BEAM, {
        "--to": {"dest": "target", "required": True,
                 "choices": ["angles", "stokes", "jones", "spinor", "coherency"]},
        "--basis": {"dest": "basis", "choices": ["circular", "linear"], "default": "circular"},
        **_COMMON}),
    "trace": ("Poincare trajectory of a beam through a train", {**_TRAIN, **_BEAM}, _COMMON),
    "mueller": ("4x4 Stokes-space matrix of a train", _TRAIN, _OUTPUT),
    "decompose": ("antipodal eigen-decomposition of a beam",
                  {"beam": "Stokes beam JSON text"}, _COMMON),
    "phase": ("relative phase between two pure beams",
              {"beam_a": "beam JSON text", "beam_b": "beam JSON text"}, _COMMON),
}


# command -> (its namespace before the command line is read, dests of its required options,
# args -> the tuple of the dests cmd_<command> takes: its positionals, then its options but
# --output; one dest is wrapped, as attrgetter of one name returns the bare value)
_DEFAULTS = {
    name: ({"command": name, **dict.fromkeys(positionals),
            **{o["dest"]: o.get("default") for o in options.values()}},
           [o["dest"] for o in options.values() if o.get("required")],
           attrgetter(*dests) if dests[1:] else lambda args, get=attrgetter(*dests): (get(args),))
    for name, (_, positionals, options) in COMMANDS.items()
    for dests in [[*positionals, *(o["dest"] for flag, o in options.items() if flag != "--output")]]
}


@functools.cache  # built on the first call that needs it, then reused
def _build_parser():
    import argparse  # only help, usage and error text pay for it
    parser = argparse.ArgumentParser(
        prog="polspin",
        description="Polarization-optics toolkit: spinor conversions, "
        "optical trains, coherency decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest, help_text in positionals.items():
            p.add_argument(dest, help=help_text)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
    return parser


def _read_argv(argv):
    """argparse's namespace for a plain command line, else None (argparse parses it).

    Plain: a known command, exactly its positionals and every required option;
    exact long flags, each with a value that passes its type and choices; no
    value or positional starting with '-'."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, positionals, options = COMMANDS[argv[0]]
    defaults, required, _ = _DEFAULTS[argv[0]]
    args = dict(defaults)
    given, words = [], iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            given.append(word)
            continue
        option, value = options.get(word), next(words, "-")
        if option is None or value[:1] == "-":
            return None
        try:
            value = option.get("type", str)(value)
        except ValueError:
            return None
        if value not in option.get("choices", (value,)):
            return None
        args[option["dest"]] = value
    if len(given) != len(positionals) or any(args[dest] is None for dest in required):
        return None
    args.update(zip(positionals, given))
    return types.SimpleNamespace(**args)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)  # any iterable, as argparse takes
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    try:
        if not getattr(args, "tolerance", 0.0) < 1.0:  # for every beam form, as for Stokes ones
            raise CliError(f"purity tolerance must be below 1: {args.tolerance!r}")
        # cmd_<command> as the module holds it on this call: a wrapper may have replaced it
        out = globals()["cmd_" + args.command](*_DEFAULTS[args.command][2](args))
        if not out.endswith("\n"):
            out += "\n"
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(out)
            except OSError as exc:
                raise CliError(f"cannot write output file: {exc}")
        else:
            sys.stdout.write(out)
    except PolspinError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code
    return 0


def entry():  # pragma: no cover - console-script shim
    sys.exit(main())

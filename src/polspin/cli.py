"""Command-line front end: convert, trace, mueller, decompose, phase.

Exit codes are a stable contract for scripts: 0 success, 2 input error,
3 extinction (state annihilated inside a train), 4 undefined phase
(orthogonal states).  All numeric output uses shortest round-tripping
decimals, so every printed value reparses to the identical double.
"""

import argparse
import cmath
import json
import sys

from .beamio import parse_beam_json
from .dsl import parse_train
from .errors import (
    EmptyTrainError,
    ExtinctionError,
    OrthogonalStatesError,
    PolspinError,
)
from .filters import ELEMENTS, apply
from .partial import (
    apply_filter_to_coherency,
    coherency_from_stokes,
    degree_of_polarization,
    eig_decompose,
    mueller_of_train,
    stokes_from_coherency,
)
from .spinor import (
    angles_from_spinor,
    jones_from_wave,
    pancharatnam_phase,
    poincare_frame,
    stokes_from_wave,
)

EXIT_INPUT = 2
EXIT_EXTINCTION = 3
EXIT_NO_PHASE = 4

IN_PHASE_TOL = 1e-9


class CliError(Exception):
    def __init__(self, message, code=EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _csv_floats(values):
    """Shortest round-tripping decimals, comma separated."""
    return ",".join(map(repr, map(float, values)))


def _dump_json(obj):
    return json.dumps(obj)


def _complex_pair(z):
    return [z.real, z.imag]


def _load_train(path):
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read train file: {exc}")
    result = parse_train(source)
    if not result.ok:
        lines = [
            f"{path}:{d.line}:{d.column}: {d.severity}: {d.message}"
            for d in result.diagnostics
        ]
        raise CliError("\n".join(lines))
    return result.document


def _load_beam(text, tol):
    try:
        return parse_beam_json(text, tol)
    except PolspinError as exc:
        raise CliError(str(exc))


def cmd_convert(beam_json, target, basis="circular", tol=1e-12):
    beam = _load_beam(beam_json, tol)
    if target == "stokes":
        return _dump_json({"stokes": list(beam.stokes.as_array())})
    if target == "coherency":
        c = coherency_from_stokes(beam.stokes, basis)
        return _dump_json(
            {
                "coherency": {
                    "basis": basis,
                    "matrix": [[_complex_pair(z) for z in row] for row in c.matrix],
                }
            }
        )
    if not beam.pure:
        raise CliError(
            f"mixed beam has no {target!r} representation; "
            "only 'stokes' and 'coherency' targets apply"
        )
    w = beam.wave
    if target == "angles":
        ang = angles_from_spinor(w.spinor)
        return _dump_json(
            {
                "angles": {
                    "theta": ang.theta,
                    "phi": ang.phi,
                    "chi": ang.chi,
                    "amp": w.amplitude,
                }
            }
        )
    if target == "spinor":
        return _dump_json(
            {"spinor": [_complex_pair(w.spinor.c1), _complex_pair(w.spinor.c2)]}
        )
    if target == "jones":
        o_tilde, prefactor = jones_from_wave(w)
        comps = prefactor * o_tilde
        return _dump_json(
            {
                "jones": {
                    "a1": abs(comps[0]),
                    "a2": abs(comps[1]),
                    "phi1": cmath.phase(comps[0]) if abs(comps[0]) > 0 else 0.0,
                    "phi2": cmath.phase(comps[1]) if abs(comps[1]) > 0 else 0.0,
                }
            }
        )
    raise CliError(f"unknown conversion target {target!r}")


TRACE_HEADER = "step,element,rx,ry,rz,mx,my,mz,s0,s1,s2,s3,phase"


def _trace_row(step, name, r, m_re, stokes, phase):
    tangent = _csv_floats(m_re) if m_re is not None else ",,"
    s = _csv_floats((stokes.s0, stokes.s1, stokes.s2, stokes.s3))
    tail = repr(float(phase)) if phase is not None else ""
    return f"{step},{name},{_csv_floats(r)},{tangent},{s},{tail}"


def _direction(s):
    """Sphere direction s_vec / s0 (its length is the DoP), or zeros at s0 = 0."""
    if s.s0 > 0:
        return s.s1 / s.s0, s.s2 / s.s0, s.s3 / s.s0
    return 0.0, 0.0, 0.0


def cmd_trace(train_path, beam_json, tol=1e-12):
    doc = _load_train(train_path)
    beam = _load_beam(beam_json, tol)
    lines = [TRACE_HEADER]
    if beam.pure:
        w = beam.wave
        ref = w.spinor
        frame = poincare_frame(ref)
        lines.append(
            _trace_row(0, "input", frame.r.tolist(), frame.m_re.tolist(), beam.stokes, 0.0)
        )
        for step, element in enumerate(doc.elements, start=1):
            w = apply(element, w)
            frame = poincare_frame(w.spinor)
            try:
                phase = pancharatnam_phase(ref, w.spinor)
            except OrthogonalStatesError:
                phase = None
            lines.append(
                _trace_row(
                    step,
                    ELEMENTS[type(element)][0],
                    frame.r.tolist(),
                    frame.m_re.tolist(),
                    stokes_from_wave(w),
                    phase,
                )
            )
    else:
        c = coherency_from_stokes(beam.stokes, basis="circular")
        s = beam.stokes
        lines.append(_trace_row(0, "input", _direction(s), None, s, None))
        for step, element in enumerate(doc.elements, start=1):
            c = apply_filter_to_coherency(element, c)
            s = stokes_from_coherency(c)
            lines.append(
                _trace_row(step, ELEMENTS[type(element)][0], _direction(s), None, s, None)
            )
    return "\n".join(lines) + "\n"


def cmd_mueller(train_path):
    doc = _load_train(train_path)
    try:
        mm = mueller_of_train(doc.elements)
    except EmptyTrainError as exc:
        raise CliError(str(exc))
    return "\n".join(_csv_floats(row) for row in mm) + "\n"


def cmd_decompose(beam_json, tol=1e-12):
    try:
        obj = json.loads(beam_json)
    except (ValueError, RecursionError) as exc:  # bad JSON, long int, deep nesting
        raise CliError(f"malformed JSON: {exc}")
    if not isinstance(obj, dict) or set(obj) != {"stokes"}:
        raise CliError("decompose requires the Stokes beam form")
    beam = _load_beam(beam_json, tol)
    s = beam.stokes
    if s.s0 <= 0.0:
        raise CliError("decompose requires positive total flux s0")
    dec = eig_decompose(coherency_from_stokes(s))
    return _dump_json(
        {
            "points": [list(dec.point_plus), list(dec.point_minus)],
            "eigenvalues": [dec.lambda_plus, dec.lambda_minus],
            "dop": degree_of_polarization(s),
            "degenerate": dec.degenerate,
        }
    )


def cmd_phase(beam_a_json, beam_b_json, tol=1e-12):
    beam_a = _load_beam(beam_a_json, tol)
    beam_b = _load_beam(beam_b_json, tol)
    if not (beam_a.pure and beam_b.pure):
        raise CliError("relative phase requires two pure beams")
    try:
        phase = pancharatnam_phase(beam_a.wave.spinor, beam_b.wave.spinor)
    except OrthogonalStatesError as exc:
        raise CliError(str(exc), code=EXIT_NO_PHASE)
    return _dump_json({"phase": phase, "in_phase": abs(phase) < IN_PHASE_TOL})


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polspin",
        description="Polarization-optics toolkit: spinor conversions, "
        "optical trains, coherency decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--output", help="write output to a file instead of stdout")

    def common(p):
        output(p)
        p.add_argument(
            "--tolerance",
            type=float,
            default=1e-12,
            help="purity tolerance for classifying Stokes beams (default 1e-12)",
        )

    p = sub.add_parser("convert", help="convert a beam between representations")
    p.add_argument("beam", help="beam JSON text")
    p.add_argument(
        "--to",
        dest="target",
        required=True,
        choices=["angles", "stokes", "jones", "spinor", "coherency"],
    )
    p.add_argument("--basis", choices=["circular", "linear"], default="circular")
    common(p)

    p = sub.add_parser("trace", help="Poincare trajectory of a beam through a train")
    p.add_argument("train", help="path to a .pol train file")
    p.add_argument("beam", help="beam JSON text")
    common(p)

    p = sub.add_parser("mueller", help="4x4 Stokes-space matrix of a train")
    p.add_argument("train", help="path to a .pol train file")
    output(p)

    p = sub.add_parser("decompose", help="antipodal eigen-decomposition of a beam")
    p.add_argument("beam", help="Stokes beam JSON text")
    common(p)

    p = sub.add_parser("phase", help="relative phase between two pure beams")
    p.add_argument("beam_a", help="beam JSON text")
    p.add_argument("beam_b", help="beam JSON text")
    common(p)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "convert":
            out = cmd_convert(args.beam, args.target, args.basis, args.tolerance)
        elif args.command == "trace":
            out = cmd_trace(args.train, args.beam, args.tolerance)
        elif args.command == "mueller":
            out = cmd_mueller(args.train)
        elif args.command == "decompose":
            out = cmd_decompose(args.beam, args.tolerance)
        elif args.command == "phase":
            out = cmd_phase(args.beam_a, args.beam_b, args.tolerance)
        else:  # pragma: no cover - argparse rejects unknown commands
            raise CliError(f"unknown command {args.command!r}")
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ExtinctionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_EXTINCTION
    except PolspinError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT

    if not out.endswith("\n"):
        out += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def entry():  # pragma: no cover - console-script shim
    sys.exit(main())

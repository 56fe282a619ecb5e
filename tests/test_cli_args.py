"""The command table: argparse's text is unchanged, and the plain-line reader agrees with it."""

import argparse
import contextlib
import io
import itertools
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polspin import cli
from polspin.beamio import PURITY_TOL

from .test_cli import LINEAR_X, run_fresh


def reference_parser():
    """The argument parser as it was written out by hand before the command table."""
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
            default=PURITY_TOL,
            help="purity tolerance for classifying Stokes beams (default %(default)g)",
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


CONVERT_USAGE = """\
usage: polspin convert [-h] --to {angles,stokes,jones,spinor,coherency}
                       [--basis {circular,linear}] [--output OUTPUT]
                       [--tolerance TOLERANCE]
                       beam
"""
TOLERANCE_HELP = """\
  --output OUTPUT       write output to a file instead of stdout
  --tolerance TOLERANCE
                        purity tolerance for classifying Stokes beams (default
                        1e-12)
"""
# (exit code, stdout, stderr) of each command line with COLUMNS=80, captured
# from the hand-written parser (reference_parser) on Python 3.11
GOLDEN = {
    ("--help",): (0, """\
usage: polspin [-h] {convert,trace,mueller,decompose,phase} ...

Polarization-optics toolkit: spinor conversions, optical trains, coherency
decomposition.

positional arguments:
  {convert,trace,mueller,decompose,phase}
    convert             convert a beam between representations
    trace               Poincare trajectory of a beam through a train
    mueller             4x4 Stokes-space matrix of a train
    decompose           antipodal eigen-decomposition of a beam
    phase               relative phase between two pure beams

options:
  -h, --help            show this help message and exit
""", ""),
    ("convert", "--help"): (0, CONVERT_USAGE + """
positional arguments:
  beam                  beam JSON text

options:
  -h, --help            show this help message and exit
  --to {angles,stokes,jones,spinor,coherency}
  --basis {circular,linear}
""" + TOLERANCE_HELP, ""),
    ("trace", "--help"): (0, """\
usage: polspin trace [-h] [--output OUTPUT] [--tolerance TOLERANCE] train beam

positional arguments:
  train                 path to a .pol train file
  beam                  beam JSON text

options:
  -h, --help            show this help message and exit
""" + TOLERANCE_HELP, ""),
    ("mueller", "--help"): (0, """\
usage: polspin mueller [-h] [--output OUTPUT] train

positional arguments:
  train            path to a .pol train file

options:
  -h, --help       show this help message and exit
  --output OUTPUT  write output to a file instead of stdout
""", ""),
    ("decompose", "--help"): (0, """\
usage: polspin decompose [-h] [--output OUTPUT] [--tolerance TOLERANCE] beam

positional arguments:
  beam                  Stokes beam JSON text

options:
  -h, --help            show this help message and exit
""" + TOLERANCE_HELP, ""),
    ("phase", "--help"): (0, """\
usage: polspin phase [-h] [--output OUTPUT] [--tolerance TOLERANCE]
                     beam_a beam_b

positional arguments:
  beam_a                beam JSON text
  beam_b                beam JSON text

options:
  -h, --help            show this help message and exit
""" + TOLERANCE_HELP, ""),
    ("convert", "--to", "bogus", LINEAR_X): (2, "", CONVERT_USAGE + (
        "polspin convert: error: argument --to: invalid choice: 'bogus' (choose from "
        "'angles', 'stokes', 'jones', 'spinor', 'coherency')\n")),
    ("convert", LINEAR_X): (2, "", CONVERT_USAGE + (
        "polspin convert: error: the following arguments are required: --to\n")),
    ("mueller", "t.pol", "--tolerance", "1"): (2, "", (
        "usage: polspin [-h] {convert,trace,mueller,decompose,phase} ...\n"
        "polspin: error: unrecognized arguments: --tolerance 1\n")),
}


def exit_out_err(capsys, call, argv):
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_help_and_errors_match_hand_written_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    want = exit_out_err(capsys, reference_parser().parse_args, argv)
    assert exit_out_err(capsys, cli.main, argv) == want
    if sys.version_info[:2] == (3, 11):  # GOLDEN holds Python 3.11's argparse text
        assert want == GOLDEN[argv]


def test_plain_line_does_not_import_argparse():
    imported = re.compile(r"\|\s+argparse$", re.M)  # a line of -X importtime's table
    code, out, err = run_fresh("convert", "--to", "stokes", LINEAR_X, python=["-X", "importtime"])
    assert code == 0 and out.startswith('{"stokes": [')
    assert not imported.search(err)
    code, out, err = run_fresh("convert", "--help", python=["-X", "importtime"])
    assert code == 0 and out.startswith("usage: polspin convert")
    assert imported.search(err)


PLAIN = [
    ["convert", "--to", "stokes", LINEAR_X],
    ["convert", LINEAR_X, "--tolerance", "1e-3", "--to", "coherency", "--basis", "linear"],
    ["trace", "t.pol", "--output", "", LINEAR_X],
    ["mueller", "t.pol", "--output", "m.csv"],
    ["decompose", "--tolerance", "nan", "{}"],
    ["phase", "", "--tolerance", " 1_0 ", LINEAR_X, "--output", "a", "--output", "b"],
]


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_plain_lines_are_read_as_argparse_reads_them(argv):
    got = cli._read_argv(argv)
    assert got is not None
    assert repr(vars(got)) == repr(vars(cli._build_parser().parse_args(argv)))


def test_read_argv_keeps_no_state_between_calls():
    plain = ["convert", "--to", "stokes", LINEAR_X]
    want = repr(vars(cli._build_parser().parse_args(plain)))
    first = cli._read_argv(plain + ["--basis", "linear", "--output", "o"])
    first.tolerance, first.beam = 0.5, None
    assert repr(vars(cli._read_argv(plain))) == want


def test_main_takes_any_iterable(capsys):
    argv = ["convert", "--to", "stokes", LINEAR_X]
    outputs = []
    for args in (argv, tuple(argv), iter(argv)):
        assert cli.main(args) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == outputs[2]


# one rule of a plain line broken in each; argparse accepts the first six
NOT_PLAIN = [
    ["convert", "--to=stokes", LINEAR_X],
    ["convert", "--to", "stokes", "--bas", "linear", LINEAR_X],
    ["mueller", "--output", "-5", "t.pol"],
    ["mueller", "--", "t.pol"],
    ["mueller", "-5"],
    ["decompose", "{}", "--tolerance", "-1"],
    ["mueller", "t.pol", "--output", "--help"],
    ["convert", "--to", "bogus", LINEAR_X],
    ["convert", "--to", "stokes", "--tolerance", "x", LINEAR_X],
    ["convert", LINEAR_X],
    ["phase", LINEAR_X],
    ["phase", LINEAR_X, LINEAR_X, LINEAR_X],
    ["mueller", "t.pol", "--tolerance", "1"],
    ["bogus", "t.pol"],
    [],
]


@pytest.mark.parametrize("argv", NOT_PLAIN, ids=" ".join)
def test_other_lines_are_left_to_argparse(argv):
    assert cli._read_argv(argv) is None


# Words for the oracle test: values that pass or fail each option's type and
# choices, and words that start with '-': every flag exact, abbreviated and
# =-joined, negative numbers, '-', '--' and help.  The commands are words too.
FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag in options})
WORDS = [
    "stokes", "coherency", "circular", "linear", "bogus", "1e-3", "0", "nan", "1_0", " 2 ",
    "x", "", "{}", LINEAR_X, "t.pol", *cli.COMMANDS,
]
DASHED = ["-", "-5", "-inf", "--", "-h", "--help", *FLAGS] + [
    f[:k] for f in FLAGS for k in range(3, len(f))] + [
    f"{f}={v}" for f in FLAGS for v in ("stokes", "linear", "1e-3", "x")]


@st.composite
def command_lines(draw):
    """A plain command line, up to three of its parts dropped, replaced or added, in any order."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS) * 4 + ["bogus", "--help", ""]))
    _, positionals, options = cli.COMMANDS.get(name, ("", {"beam": ""}, {}))
    units = [[draw(st.sampled_from(WORDS))] for _ in positionals]
    for flag, keywords in options.items():
        if keywords.get("required") or draw(st.booleans()):
            good = keywords.get("choices") or (["1e-9", "nan"] if "type" in keywords else WORDS)
            units.append([flag, draw(st.sampled_from([*good, "bogus"]))])
    for _ in range(draw(st.integers(0, 3))):
        i, word = draw(st.integers(0, len(units))), draw(st.sampled_from(WORDS + DASHED))
        change = draw(st.sampled_from(["add", "drop", "replace"]))
        if change == "add" or i == len(units):
            units.insert(i, [word])
        elif change == "drop":
            del units[i]
        else:
            units[i][draw(st.integers(0, len(units[i]) - 1))] = word
    return [name, *itertools.chain(*draw(st.permutations(units)))]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_read_argv_agrees_with_argparse(argv):
    got = cli._read_argv(argv)
    if got is None:
        return
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            want = cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects what _read_argv accepts: {err.getvalue()}")
    assert repr(vars(got)) == repr(vars(want))

"""Byte-exact CLI output for a fixed corpus of commands.

Each command's exit code and the SHA-256 digest of its stdout are stored in
golden_cli.json.  Any change to the numbers, their order or their
formatting shows up here, so engine rewrites can be checked against the
output of the code they replace.

The argument parser's own text -- every `-h` page and the stderr of a set
of usage errors -- is stored verbatim in golden_cli_text.json, at a fixed
terminal width, so that any change to how the parser is built shows as a
byte difference.

Two shapes the corpus cannot hold, since their argv names a file, are
pinned here directly: `oeis-check` against a small mismatching b-file, and
`--out FILE`, whose file holds the bytes stdout would, for one request of
each subcommand in both formats.

Regenerate both files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from adjstats.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
GOLDEN_TEXT = Path(__file__).with_name("golden_cli_text.json")
# argparse wraps help and usage to the terminal width, read from COLUMNS
COLUMNS = "80"


def _corpus():
    cmds = []
    for stat in ("mu", "nu"):
        for k in range(1, 8):
            for s in range(1, 5):
                base = ["dist", "--stat", stat, "--k", str(k), "--s", str(s)]
                cmds.append(base + ["--n", "0..10", "--q=-3/5"])
                cmds.append(base + ["--n", "0..5", "--verify", "--format", "csv"])
    cmds += [
        ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "0..8", "--verify",
         "--cap", "100"],
        ["dist", "--stat", "nu", "--k", "4", "--s", "2", "--n", "0..6", "--verify",
         "--q", "7/3"],
        ["dist", "--stat", "nu", "--k", "5", "--s", "2", "--n", "6", "--verify"],
    ]
    # ranges that do not start at 0, each after a longer request for the same (k, s)
    for stat, k, s, cap in (("mu", 3, 1, "200000"), ("nu", 3, 2, "200000"),
                            ("mu", 6, 2, "5000"), ("nu", 5, 2, "3000")):
        base = ["dist", "--stat", stat, "--k", str(k), "--s", str(s)]
        cmds.append(base + ["--n", "0..12"])
        cmds.append(base + ["--n", "3..9", "--verify", "--cap", cap])
        cmds.append(base + ["--n", "5..11", "--verify", "--cap", cap, "--q", "7/3",
                            "--format", "csv"])
        cmds.append(base + ["--n", "7", "--verify", "--cap", cap])
    # evaluation at an integer, a negative and a unit-numerator rational q
    for stat, k, s in (("mu", 6, 2), ("nu", 5, 2)):
        for q in (["--q", "0"], ["--q", "2"], ["--q=-1"], ["--q", "1/7"]):
            cmds.append(["dist", "--stat", stat, "--k", str(k), "--s", str(s),
                         "--n", "0..40"] + q)
    for k in range(1, 7):
        for s in range(1, 5):
            cmds.append(["avoid", "--k", str(k), "--s", str(s), "--n", "0..60"])
    cmds.append(["avoid", "--k", "4", "--s", "2", "--n", "40..60", "--format", "csv"])
    # past the lengths the 0..60 request for (5, 2) already checked
    cmds.append(["avoid", "--k", "5", "--s", "2", "--n", "70..90"])
    for k in range(2, 5):
        for s in (1, 2):
            for r in (1, 2, 3):
                cmds.append(["gap", "--k", str(k), "--s", str(s), "--r", str(r),
                             "--n", "0..12"])
    for k in range(1, 5):
        for s in (1, 2, 3):
            cmds.append(["partition-dist", "--n", "1..7", "--k", str(k), "--s", str(s),
                         "--q", "7/3"])
    cmds.append(["partition-dist", "--n", "4..7", "--k", "3", "--s", "2", "--format",
                 "csv"])
    cmds.append(["partition-dist", "--n", "1..7", "--k", "3", "--s", "2", "--q=5/2"])
    for k in range(1, 6):
        for s in (1, 2, 3):
            cmds.append(["totals", "--words", "--k", str(k), "--s", str(s), "--n", "0..12"])
    for s in (2, 3, 4):
        cmds.append(["totals", "--partitions", "--s", str(s), "--n", "2..10"])
    cmds.append(["totals", "--partitions", "--k", "3", "--s", "2", "--n", "5..9",
                 "--format", "csv"])
    # every remaining subcommand, in one process after the ones above, with
    # usage errors between them (exit 2, nothing on stdout)
    cmds.append(["dist", "--stat", "xi", "--k", "3", "--s", "1", "--n", "2"])
    maps = [
        ["bijection", "--v-to-w", "113"],
        ["bijection", "--w-to-v", "344"],
        ["bijection", "--word-to-tiling", "232321"],
        ["bijection", "--tiling-to-word", "1,2,1,2"],
        ["bijection", "--composition", "2:2+1:1"],
    ]
    cmds += maps
    cmds.append(["bijection", "--v-to-w", "113", "--w-to-v", "344"])
    cmds.append(["verify", "--suite", "algebra"])
    cmds.append(["totals", "--words", "--k", "3", "--s", "1", "--n", "0..8", "--format",
                 "csv"])
    # CSV of a payload without rows, and of verify's per-check params
    cmds += [argv + ["--format", "csv"] for argv in maps]
    cmds.append(["verify", "--suite", "algebra", "--full-report", "--format", "csv"])
    # long orders: deep polynomial tables, a rational q, integer totals to 400
    cmds += [
        ["dist", "--stat", "mu", "--k", "7", "--s", "3", "--n", "400"],
        ["dist", "--stat", "mu", "--k", "6", "--s", "2", "--n", "0..200", "--q", "7/3"],
        ["dist", "--stat", "nu", "--k", "8", "--s", "2", "--n", "0..120"],
        ["dist", "--stat", "mu", "--k", "5", "--s", "2", "--n", "0..80", "--verify",
         "--cap", "50000"],
        ["avoid", "--k", "4", "--s", "2", "--n", "0..400"],
        ["gap", "--k", "4", "--s", "1", "--r", "3", "--n", "0..60"],
    ]
    # errors raised inside a command (exit 2, nothing on stdout), and a verify
    # run with a lowered bound
    cmds += [
        ["totals", "--words", "--s", "1", "--n", "2"],
        ["bijection", "--composition", "2:3"],
        ["bijection", "--composition", "x:1"],
        ["bijection", "--tiling-to-word", "1,,2"],
        ["bijection", "--tiling-to-word", "1,3"],
        ["bijection", "--w-to-v", "13"],
        ["partition-dist", "--n", "3", "--k", "2", "--s", "0"],
        ["verify", "--suite", "fibwords", "--nmax", "3"],
    ]
    # every wide-band closed-form check of the jump suite, one per line
    cmds += [
        ["verify", "--suite", "absdiff", "--nmax", "4", "--full-report"],
        ["verify", "--suite", "absdiff", "--nmax", "4", "--full-report", "--format", "csv"],
    ]
    # the suites and commands that read brute-force tallies; kary by its
    # summary only, whose per-check params are not pinned
    cmds += [
        ["verify", "--suite", "partitions", "--nmax", "6", "--full-report"],
        ["verify", "--suite", "gap", "--nmax", "5", "--full-report"],
        ["verify", "--suite", "bijections", "--nmax", "5", "--full-report"],
        ["verify", "--suite", "kary", "--nmax", "5"],
        ["partition-dist", "--n", "0..10", "--k", "4", "--s", "2"],
        ["dist", "--stat", "nu", "--k", "6", "--s", "1", "--n", "0..7", "--verify"],
    ]
    # growth-sequence distributions at one block, at a rational q, with more
    # blocks than letters, at zero blocks, past the cap (rows 12 and 13 warn),
    # and every partitions check with its params
    cmds += [
        ["partition-dist", "--n", "0..9", "--k", "1", "--s", "1"],
        ["partition-dist", "--n", "0..9", "--k", "3", "--s", "1", "--q", "1/2"],
        ["partition-dist", "--n", "0..8", "--k", "30", "--s", "2"],
        ["partition-dist", "--n", "0..3", "--k", "0", "--s", "3"],
        ["partition-dist", "--n", "10..13", "--k", "3", "--s", "2", "--cap", "1000000"],
        ["verify", "--suite", "partitions", "--nmax", "8", "--full-report"],
    ]
    # every check of the rise, jump, partitions and bijection suites with its
    # params at the default grids (partitions also to n = 10): the checks that
    # read recurrences off generating functions and counts off the tallies
    cmds += [
        ["verify", "--suite", "kary", "--full-report"],
        ["verify", "--suite", "absdiff", "--full-report"],
        ["verify", "--suite", "partitions", "--full-report"],
        ["verify", "--suite", "partitions", "--nmax", "10", "--full-report"],
        ["verify", "--suite", "bijections", "--nmax", "6", "--full-report"],
    ]
    # avoidance counts at the largest step-up alphabet of the OEIS generators
    # (recurrence windows of 17 and 15 terms) and at a pair with rem != s,
    # where both tail terms of the long form are nonzero; every fibwords
    # check with its params
    cmds += [
        ["avoid", "--k", "14", "--s", "1", "--n", "0..40"],
        ["avoid", "--k", "9", "--s", "4", "--n", "0..60"],
        ["verify", "--suite", "fibwords", "--full-report"],
    ]
    # the bijection suite at the benchmark's order, by summary and with every
    # check, and a composition chain through parts with several colored cells
    cmds += [
        ["verify", "--suite", "bijections", "--nmax", "7"],
        ["verify", "--suite", "bijections", "--nmax", "7", "--full-report"],
        ["bijection", "--composition", "3:1,3+1:1+2:2"],
    ]
    # every suite's report order at a small grid, and every gap check with its
    # params at the default grid
    cmds += [
        ["verify", "--suite", "all", "--nmax", "3", "--full-report"],
        ["verify", "--suite", "gap", "--full-report"],
    ]
    # tables whose letters fall into few classes of equal entries: a wide
    # jump band with seven classes, rise chains of three letters, and a
    # middle-band jump table checked against its closed form
    cmds += [
        ["dist", "--stat", "nu", "--k", "20", "--s", "3", "--n", "0..40"],
        ["dist", "--stat", "mu", "--k", "9", "--s", "4", "--n", "0..60", "--q", "5/2"],
        ["avoid", "--k", "9", "--s", "4", "--n", "0..200"],
        ["dist", "--stat", "nu", "--k", "5", "--s", "3", "--n", "0..30", "--verify",
         "--cap", "100000"],
    ]
    # a length past the cap of --n, once per command that takes it (exit 2,
    # nothing on stdout)
    cmds += [
        ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "1001"],
        ["totals", "--words", "--k", "3", "--s", "1", "--n", "0..1001"],
        ["avoid", "--k", "3", "--s", "1", "--n", "1001"],
        ["partition-dist", "--n", "1001", "--k", "3", "--s", "1"],
        ["gap", "--k", "3", "--s", "1", "--r", "1", "--n", "0..1001"],
    ]
    # the Bell-number grand totals to n = 150, where every s = 3 and s = 4
    # sum has as many terms as the row is long
    cmds += [["totals", "--partitions", "--s", str(s), "--n", "0..150"] for s in (2, 3, 4)]
    cmds.append(["totals", "--partitions", "--s", "3", "--n", "0..150", "--format", "csv"])
    # the Stirling-number block totals far past k, where each row's double
    # sum has n - k - 1 terms per letter
    cmds += [
        ["totals", "--partitions", "--k", "5", "--s", "2", "--n", "0..150"],
        ["totals", "--partitions", "--k", "9", "--s", "4", "--n", "0..150", "--format", "csv"],
        ["totals", "--partitions", "--k", "40", "--s", "2", "--n", "0..120"],
    ]
    return cmds


def _text_corpus():
    """Every help page, and usage errors of each kind the parser reports."""
    cmds = [["-h"]] + [[name, "-h"] for name in (
        "dist", "totals", "avoid", "partition-dist", "gap", "verify", "bijection",
        "oeis-check")]
    cmds += [
        [],
        ["frobnicate"],
        ["--bogus", "dist"],
        # a missing required option, a bad choice, bad types
        ["dist", "--stat", "mu"],
        ["dist", "--stat", "xi", "--k", "3", "--s", "1", "--n", "2"],
        ["avoid", "--k", "x", "--s", "1", "--n", "2"],
        ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "2", "--q", "1/0"],
        ["avoid", "--k", "3", "--s", "1", "--n", "1001"],
        ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "-2"],
        # group conflicts and empty groups
        ["bijection", "--v-to-w", "113", "--w-to-v", "344"],
        ["totals", "--words", "--partitions", "--s", "1", "--n", "2"],
        ["bijection"],
        ["totals", "--s", "1", "--n", "2"],
        # unrecognized tokens, a missing value, an explicit value for a flag,
        # an ambiguous abbreviation and an explicit "--" value
        ["avoid", "--k", "4", "--s", "2", "--n", "3", "extra"],
        ["avoid", "--k", "4", "--s", "2", "--n", "3", "--bogus", "1"],
        ["avoid", "--k"],
        ["verify", "--suite", "gap", "--full-report=1"],
        ["verify", "--suite", "kary", "--s", "1"],
        ["gap", "--k=--", "--s", "1", "--r", "1", "--n", "2"],
    ]
    return cmds


def _run_text(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return {"argv": argv, "exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def recorded():
    return {" ".join(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_corpus_is_the_recorded_one(recorded):
    assert list(recorded) == [" ".join(argv) for argv in _corpus()]


@pytest.mark.parametrize("argv", _corpus(), ids=" ".join)
def test_cli_output_bytes(argv, recorded):
    assert _run(argv) == recorded[" ".join(argv)]


# A007070 at indices 0..3 with index 2 wrong: the term there is 14
OEIS_MISMATCH = "0 1\n1 4\n2 15\n3 48\n"

OEIS_MISMATCH_OUTPUT = {
    "json": """\
{
  "command": "oeis-check",
  "sequence": "A007070",
  "generator": "avoid-step2-alphabet4",
  "shift": 0,
  "checked": 4,
  "passed": false,
  "complete": true,
  "rows": [
    {
      "index": 0,
      "expected": "1",
      "computed": "1",
      "equal": true
    },
    {
      "index": 1,
      "expected": "4",
      "computed": "4",
      "equal": true
    },
    {
      "index": 2,
      "expected": "15",
      "computed": "14",
      "equal": false
    },
    {
      "index": 3,
      "expected": "48",
      "computed": "48",
      "equal": true
    }
  ]
}
""",
    "csv": """\
index,expected,computed,equal
0,1,1,True
1,4,4,True
2,15,14,False
3,48,48,True
""",
}


@pytest.fixture
def mismatch_bfile(tmp_path):
    path = tmp_path / "b007070.txt"
    path.write_text(OEIS_MISMATCH)
    return str(path)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_oeis_check_mismatch_bytes(mismatch_bfile, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["oeis-check", "--id", "A007070", "--bfile", mismatch_bfile,
                     "--length", "4", "--format", fmt])
    assert code == 1
    assert out.getvalue() == OEIS_MISMATCH_OUTPUT[fmt]


# one request of each subcommand; "{bfile}" stands for the mismatch b-file
OUT_CORPUS = [
    ["dist", "--stat", "nu", "--k", "4", "--s", "2", "--n", "0..6", "--verify", "--q", "7/3"],
    ["totals", "--partitions", "--k", "3", "--s", "2", "--n", "5..9"],
    ["avoid", "--k", "4", "--s", "2", "--n", "40..60"],
    ["partition-dist", "--n", "0..8", "--k", "3", "--s", "2", "--q=5/2"],
    ["gap", "--k", "3", "--s", "1", "--r", "2", "--n", "0..12"],
    ["verify", "--suite", "algebra", "--full-report"],
    ["bijection", "--composition", "3:1,3+1:1+2:2"],
    ["oeis-check", "--id", "A007070", "--bfile", "{bfile}", "--length", "4"],
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", OUT_CORPUS, ids=lambda argv: argv[0])
def test_out_file_holds_the_stdout_bytes(argv, fmt, mismatch_bfile, tmp_path):
    argv = [token.format(bfile=mismatch_bfile) for token in argv] + ["--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    target = tmp_path / f"out.{fmt}"
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + ["--out", str(target)]) == code
    assert quiet.getvalue() == ""
    assert out.getvalue() and target.read_bytes() == out.getvalue().encode()


@pytest.mark.parametrize("argv", _text_corpus(), ids=lambda argv: " ".join(argv) or "empty")
def test_parser_text(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    recorded = {" ".join(entry["argv"]): entry
                for entry in json.loads(GOLDEN_TEXT.read_text())}
    assert list(recorded) == [" ".join(argv) for argv in _text_corpus()]
    assert _run_text(argv) == recorded[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(argv) for argv in _corpus()], indent=1) + "\n")
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN_TEXT.write_text(
        json.dumps([_run_text(argv) for argv in _text_corpus()], indent=1) + "\n")

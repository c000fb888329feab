"""Fuzz the command line with argv drawn from its own option grammar.

Every subcommand, flag and mutually exclusive group can be drawn, with junk
values, negative numbers, missing required flags, repeated and abbreviated
flags, `=value` given to flags that take none, and flags of other
subcommands mixed in.
Whatever the input, `main` must exit 0, 1 or 2 and print no traceback, and
its parse must end as a fresh parser's full parse does.
Values are bounded (k <= 6, n <= 8, s <= 4, a small --cap, verify grids
<= 3) so that every example runs well under a second.  The `all` and
`bijections` suites are left out: their grids ignore --nmax.
"""

import contextlib
import io
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adjstats import cli, oeis
from adjstats.cli import main

JUNK = st.sampled_from(["", " ", "x", "abc", "-1", "-7", "1.5", "1e3", "0x10", "1/0", "--",
                        "+", ",", "+,", "5..2", "3..", "..3", "-2..3", "²", "nan"])


def _sometimes(rare, usual, one_in):
    return st.integers(1, one_in).flatmap(lambda i: rare if i == 1 else usual)


def _or_junk(values):
    # junk about one time in eight, so that most commands get past the parser
    return _sometimes(JUNK, values, 8)


def _ints(lo, hi):
    # a negative number now and then, which argparse takes as a separate value
    return _or_junk(_sometimes(st.integers(-9, -1), st.integers(lo, hi), 8).map(str))


def _joined(sep, items, max_size):
    return st.lists(items, max_size=max_size).map(lambda xs: sep.join(map(str, xs)))


K, S, R = _ints(0, 6), _ints(0, 4), _ints(0, 4)
RANGES = _or_junk(st.one_of(
    st.integers(0, 8).map(str),
    st.lists(st.integers(0, 8), min_size=2, max_size=2).map(
        lambda ab: "{}..{}".format(*sorted(ab))),
))
RATIONALS = _or_junk(st.tuples(st.integers(-5, 5), st.integers(1, 5))
                     .map(lambda pq: f"{pq[0]}/{pq[1]}"))
CAPS = _ints(0, 5000)
WORDS = _or_junk(_joined("", st.integers(0, 5), 8))
TILINGS = _or_junk(_joined(",", st.integers(-1, 3), 6))
PARTS = st.tuples(st.integers(-1, 4), _joined(",", st.integers(0, 4), 3)).map(
    lambda part: f"{part[0]}:{part[1]}")
COMPOSITIONS = _or_junk(_joined("+", PARTS, 4))
BFILE = "<b-file>"  # replaced by the fixture's path in each example
OUT = _sometimes(st.sampled_from([os.path.join(os.devnull, "rows.json"), ""]),
                st.just(os.devnull), 4)
FLAG = None  # a flag that takes no value

COMMON = {"--format": _or_junk(st.sampled_from(["json", "csv"])), "--out": OUT}

# subcommand -> (required options, optional options, mutually exclusive group);
# an option maps its flag to the strategy of its value
GRAMMAR = {
    "dist": ({"--stat": _or_junk(st.sampled_from(["mu", "nu"])), "--k": K, "--s": S,
              "--n": RANGES},
             {"--q": RATIONALS, "--verify": FLAG, "--cap": CAPS}, {}),
    "totals": ({"--s": S, "--n": RANGES}, {"--k": K},
               {"--words": FLAG, "--partitions": FLAG}),
    "avoid": ({"--k": K, "--s": S, "--n": RANGES}, {}, {}),
    "partition-dist": ({"--n": RANGES, "--k": K, "--s": S},
                       {"--q": RATIONALS, "--cap": CAPS}, {}),
    "gap": ({"--k": K, "--s": S, "--r": R, "--n": RANGES}, {}, {}),
    "verify": ({"--suite": _or_junk(st.sampled_from(
                    ["kary", "gap", "fibwords", "absdiff", "partitions", "algebra"])),
                "--kmax": _ints(-1, 3), "--nmax": _ints(-1, 3)},
               {"--smax": _ints(-1, 4), "--full-report": FLAG}, {}),
    "bijection": ({}, {}, {"--v-to-w": WORDS, "--w-to-v": WORDS, "--word-to-tiling": WORDS,
                           "--tiling-to-word": TILINGS, "--composition": COMPOSITIONS}),
    "oeis-check": ({"--id": st.sampled_from(sorted(oeis.DEFAULT_CHECKS) + ["A000001"]),
                    "--bfile": st.sampled_from([BFILE, "missing-b-file.txt", os.curdir])},
                   {"--shift": _ints(-3, 3), "--length": _ints(-1, 6),
                    "--generator": _or_junk(st.sampled_from(sorted(oeis.GENERATORS)))}, {}),
}
ALL_FLAGS = sorted({flag for required, optional, group in GRAMMAR.values()
                    for options in (required, optional, group) for flag in options}
                   | {"--bogus", "-h"})


@st.composite
def _option(draw, flag, values):
    if draw(st.integers(1, 10)) == 1:  # a prefix argparse may take for the flag
        flag = flag[:draw(st.integers(3, len(flag)))]
    if values is FLAG:
        if draw(st.integers(1, 10)) == 1:  # a value given to a flag that takes none
            return [f"{flag}={draw(st.sampled_from(['', '1', 'x']))}"]
        return [flag]
    value = draw(values)
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(GRAMMAR) + ["frobnicate", ""]))
    if name not in GRAMMAR:
        return [name] if name else []
    required, optional, group = GRAMMAR[name]
    # a required flag is sometimes missing, an optional one often
    chosen = [flag for flag in required if draw(st.integers(1, 20)) > 1]
    chosen += [flag for flag in {**optional, **COMMON} if draw(st.booleans())]
    if group:
        # usually exactly one member of the group, sometimes none or two
        chosen += draw(st.one_of(st.sampled_from(sorted(group)).map(lambda f: [f]),
                                 st.lists(st.sampled_from(sorted(group)), max_size=2,
                                          unique=True)))
    if "--verify" in chosen and "--cap" not in chosen:
        chosen.append("--cap")  # the default cap would enumerate 6^8 words
    values = {**required, **optional, **group, **COMMON}
    if chosen and draw(st.integers(1, 8)) == 1:  # an option given twice
        chosen.append(draw(st.sampled_from(chosen)))
    groups = [draw(_option(flag, values[flag])) for flag in chosen]
    if draw(st.integers(1, 8)) == 1:  # a flag of another subcommand, or none at all
        flag = draw(st.sampled_from(ALL_FLAGS))
        groups.append([flag] + ([draw(_ints(-1, 4))] if draw(st.booleans()) else []))
    order = draw(st.permutations(range(len(groups))))
    return [name] + [token for i in order for token in groups[i]]


@pytest.fixture(scope="module")
def bfile(tmp_path_factory):
    path = tmp_path_factory.mktemp("oeis") / "b007070.txt"
    path.write_text("# A007070\n0 1\n1 4\n2 14\n3 48\n")
    return str(path)


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_any_argv_exits_0_1_or_2_without_a_traceback(argv, bfile):
    argv = [token.replace(BFILE, bfile) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports usage errors and --help this way
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv


def _outcome(parse, argv):
    """What one parse of argv ends in: its exit code (None when it returns),
    stdout, stderr, and the namespace it returns less `command`, the name
    of the subcommand, which nothing reads."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), None
    namespace = {k: v for k, v in vars(args).items() if k != "command"}
    return None, out.getvalue(), err.getvalue(), namespace


def _full_parse(argv):
    """A fresh parser's full parse, after the one check `main` makes first:
    an option given the value `--` in `=` form is a usage error."""
    parser = cli.build_parser()
    for token in argv:
        flag, sep, value = token.partition("=")
        if flag.startswith("-") and sep and value == "--":
            parser.error(f"argument {flag}: expected one argument")
    return parser.parse_args(argv)


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
@example(argv=[])
@example(argv=["dist", "--bogus"])
@example(argv=["avoid", "--k", "4", "--s", "2", "--n", "3", "--bogus", "1"])
@example(argv=["avoid", "--k", "4", "--s", "2", "--n", "3", "extra"])
@example(argv=["avoid", "--k", "4", "--s", "2", "--n", "3", "--", "x"])
@example(argv=["dist", "--", "x"])
@example(argv=["verify", "-x"])
@example(argv=["verify", "--suite", "kary", "--ver"])
@example(argv=["verify", "--suite", "kary", "--kmax", "2", "--nmax", "2", "--ful"])
@example(argv=["dist", "--he"])
@example(argv=["gap", "-h"])
@example(argv=["-h", "gap"])
@example(argv=["--", "gap"])
@example(argv=["gap", "--k=--"])
@example(argv=["avoid", "--k", "4", "--s", "2", "--n", "3", "--out=--"])
@example(argv=["oeis-check", "--id=--", "--bfile", "b"])
@example(argv=["avoid", "--k", "4", "--k=5", "--s", "2", "--n", "3"])
@example(argv=["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "2", "--verify=1"])
@example(argv=["totals", "--words=", "--k", "3", "--s", "1", "--n", "2"])
@example(argv=["dist", "--st", "mu", "--k", "3", "--s", "1", "--n", "2", "--ca", "5"])
@example(argv=["verify", "--suite", "gap", "--nmax", "2", "--full"])
@example(argv=["avoid", "--k", "4", "--s", "2", "--n", "3", "--out="])
@example(argv=["avoid", "--k", "-3", "--s", "-1", "--n", "3"])
@example(argv=["gap", "--k", "4", "--s", "-2", "--r", "-1", "--n", "3"])
@example(argv=["verify", "--suite", "kary", "--kmax", "-1", "--nmax", "-2", "--smax", "-3"])
@example(argv=["oeis-check", "--id", "A007070", "--bfile", "b", "--shift", "-1",
               "--length", "-2"])
@example(argv=["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "2", "--cap", "-5"])
@example(argv=["partition-dist", "--n", "2", "--k", "-1", "--s", "1"])
@example(argv=["dist", "--stat", "nu", "--k", "3", "--s", "1", "--n", "2", "--q", "-3/5"])
def test_mains_parse_ends_as_the_full_parse_does(argv):
    assert _outcome(cli._parse, argv) == _outcome(_full_parse, argv)

"""A route whose own self-check trips is a failed check, never a traceback.

Each case breaks one self-checking route: the oracle tally (one count
dropped from a prefix or suffix counter of every tally of one length),
the Lucas numbers behind the fibwords totals, the Bell numbers behind the
partition grand totals, or the avoidance recurrences; or one value, a
letter of the per-letter DP rows.  A suite records a failed check at each
point that reads the broken route and passes every other check; `verify` on the
command line reports those failures and exits 1; any other command prints
one `internal check failed: ` line and exits 1.
"""

import json

import pytest

from adjstats import algebra, cli, fibwords, kary, oracle, partitions, transfer, verify
from adjstats.algebra import XPoly

ROUTE = "InternalInvariantViolation: "


@pytest.fixture
def fresh_tallies():
    oracle._tally.cache_clear()
    oracle._marginal.cache_clear()
    yield
    oracle._tally.cache_clear()
    oracle._marginal.cache_clear()


def _drop_a_word_at(monkeypatch, length, half=0):
    """Every oracle tally of sequences of `length` loses one count from the
    first entry of its first state's prefix counter (`half` 0) or suffix
    counter (`half` 1).  That takes out as many sequences as the state's
    other counter holds, one for a prefix entry of a joined tally.  Returns
    {(k, banned, gap, growth): sequences taken out}, filled as tallies are
    counted."""
    count = oracle._count
    lost = {}

    def dropping(k, n, banned, gap, growth):
        tally = count(k, n, banned, gap, growth)
        if n == length:
            tally = [[dict(counts) for counts in state] for state in tally]
            counts = tally[0][half]
            counts[next(iter(counts))] -= 1
            lost[k, banned, gap, growth] = sum(tally[0][1 - half].values())
        return tally

    monkeypatch.setattr(oracle, "_count", dropping)
    return lost


def _break_last_entry(monkeypatch, module, name):
    """`module.name(n)` returns its list with entry n off by one."""
    original = getattr(module, name)

    def broken(n):
        out = original(n)
        out[n] += 1
        return out

    monkeypatch.setattr(module, name, broken)


def _failed_in_suite_and_cli(capsys, suite, **bounds):
    """The failed checks of one suite run; `verify` on the command line
    must report exactly these and exit 1."""
    failed = [(c.name, c.params, c.detail) for c in verify.SUITES[suite](**bounds)
              if not c.passed]
    argv = ["verify", "--suite", suite] + [f"--{key}={value}" for key, value in bounds.items()]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["failed"] == len(failed)
    assert [(row["name"], row["params"], row["detail"]) for row in report["rows"]] == failed
    return failed


def _walk_short(k, n, lost=1):
    return f"{ROUTE}walk visited {k**n - lost} of {k}^{n} words"


def test_a_short_tally_fails_each_kary_check_that_reads_it(monkeypatch, capsys, fresh_tallies):
    _drop_a_word_at(monkeypatch, 3)
    failed = _failed_in_suite_and_cli(capsys, "kary", kmax=4, smax=2, nmax=5)
    pairs = [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2)]
    assert failed == [
        (name, {"k": k, "s": s, "n": 3}, _walk_short(k, 3))
        for k, s in pairs
        for name in ("five-way distribution agreement",
                     "total-count formula equals summed statistic")
    ] + [("avoider count equals enumeration at q = 0", {"k": k, "s": 2, "n": 3},
          _walk_short(k, 3)) for k in (3, 4)]


def test_a_short_tally_fails_each_gap_check_that_reads_it(monkeypatch, capsys, fresh_tallies):
    _drop_a_word_at(monkeypatch, 3)
    failed = _failed_in_suite_and_cli(capsys, "gap", kmax=3, smax=2, nmax=4)
    assert failed == [
        ("gap statistic factors through adjacent case", {"k": k, "s": s, "r": r, "n": 3},
         _walk_short(k, 3))
        for s in (1, 2) for k in (2, 3) for r in (1, 2, 3)
    ]


def test_a_short_tally_fails_each_jump_check_that_reads_it(monkeypatch, capsys,
                                                           fresh_tallies):
    _drop_a_word_at(monkeypatch, 3)
    failed = _failed_in_suite_and_cli(capsys, "absdiff", kmax=3, smax=2, nmax=4)
    assert failed == [
        ("jump DP equals enumeration", {"k": k, "s": s, "n": 3}, _walk_short(k, 3))
        for s in (1, 2) for k in (1, 2, 3)
    ]


@pytest.mark.parametrize("suite,bounds", [
    ("kary", {"kmax": 4, "smax": 2, "nmax": 5}),
    ("gap", {"kmax": 3, "smax": 2, "nmax": 4}),
    ("absdiff", {"kmax": 3, "smax": 2, "nmax": 4}),
])
def test_a_short_suffix_counter_fails_the_checks_a_short_prefix_counter_fails(
        monkeypatch, capsys, fresh_tallies, suite, bounds):
    """A count dropped from a suffix entry takes out every sequence of a
    prefix counter of its state, and fails the same checks."""
    with monkeypatch.context() as patch:
        _drop_a_word_at(patch, 3)
        by_prefix = _failed_in_suite_and_cli(capsys, suite, **bounds)
    oracle._tally.cache_clear()
    oracle._marginal.cache_clear()
    lost = _drop_a_word_at(monkeypatch, 3, half=1)
    by_suffix = _failed_in_suite_and_cli(capsys, suite, **bounds)
    assert by_prefix and [failed[:2] for failed in by_suffix] == [
        failed[:2] for failed in by_prefix]
    assert [detail for _, _, detail in by_suffix] == [
        _walk_short(params["k"], 3, lost[params["k"], frozenset(), params.get("r", 1), False])
        for _, params, _ in by_suffix]


def test_a_wrong_lucas_number_fails_the_totals_that_read_it(monkeypatch, capsys):
    """L_11 is read only by the descent total at n = 5; the Lucas identity
    reads even indices and still passes."""
    original = fibwords.lucas_list

    def off_at_11(n):
        out = original(n)
        if n >= 11:
            out[11] += 1
        return out

    monkeypatch.setattr(fibwords, "lucas_list", off_at_11)
    failed = _failed_in_suite_and_cli(capsys, "fibwords")
    assert [(name, params) for name, params, _ in failed] == [
        ("statistic totals match enumeration", {"n": 5}),
        ("totals sum to (n-1) times the word count", {"n": 5}),
    ]
    assert all(detail.startswith(ROUTE) and detail.endswith("is not divisible by 5")
               for _, _, detail in failed)


def test_a_wrong_bell_number_fails_the_grand_totals_that_read_it(monkeypatch, capsys):
    """With B_n off by one in bell_list(n), the s = 3 and s = 4 grand
    totals come out fractional at every n, the s = 2 total never reads
    B_n, and of the suite's own Bell comparisons only B_12 - B_11 reads a
    last entry."""
    _break_last_entry(monkeypatch, partitions, "bell_list")
    failed = _failed_in_suite_and_cli(capsys, "partitions")
    assert failed == [
        ("Bell-number grand total equals enumeration", {"s": s, "n": n},
         f"{ROUTE}grand total for n={n}, s={s} not integral")
        for s in (3, 4) for n in range(2, 11)
    ] + [("weighted Stirling row sums telescope to Bell differences", {"n": 12},
          failed[-1][2])]
    assert not failed[-1][2].startswith(ROUTE)


def test_one_letter_off_in_the_fresh_rows_fails_the_outer_letter_check(monkeypatch, capsys):
    """The middle-band check reads each letter's own entry: with letter 1
    off by one at length 2, it fails at n = 2 for every pair, and every
    other check of the suite still passes."""
    fill = transfer.fresh_rows

    def letter_one_off(*args, **kwargs):
        rows = fill(*args, **kwargs)
        rows[2] = (rows[2][0] + 1,) + rows[2][1:]
        return rows

    monkeypatch.setattr(transfer, "fresh_rows", letter_one_off)
    failed = _failed_in_suite_and_cli(capsys, "absdiff", kmax=1, smax=1, nmax=3)
    assert [(name, params) for name, params, _ in failed] == [
        ("outer letters share one distribution", {"k": k, "s": s, "n": 2})
        for k, s in [(2, 1), (3, 2), (4, 2), (4, 3), (5, 3), (6, 3)]
    ]


def _one_internal_line(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err == f"internal check failed: {message}\n"


def test_a_tripped_avoidance_check_is_one_stderr_line(monkeypatch, capsys):
    long_form = kary.gf_denominator
    monkeypatch.setattr(kary, "gf_denominator",
                        lambda params, *q: long_form(params, *q) + XPoly.monomial(1, 1))
    monkeypatch.setattr(kary, "_avoid_checked", {})
    monkeypatch.setattr(algebra, "_expansions", {})  # gf_A reads gf_denominator
    _one_internal_line(capsys, ["avoid", "--k", "5", "--s", "2", "--n", "0..10"],
                       "avoidance recurrences disagree for KSParams(k=5, s=2)")


def test_a_short_tally_under_dist_verify_is_one_stderr_line(monkeypatch, capsys,
                                                            fresh_tallies):
    _drop_a_word_at(monkeypatch, 3)
    _one_internal_line(capsys, ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "0..4",
                                "--verify"], "walk visited 26 of 3^3 words")


def test_a_short_growth_tally_under_partition_dist_is_one_stderr_line(monkeypatch, capsys,
                                                                      fresh_tallies):
    _drop_a_word_at(monkeypatch, 3)
    _one_internal_line(capsys, ["partition-dist", "--n", "0..5", "--k", "2", "--s", "1"],
                       "walk visited 3 of S(3, 0..2) sequences")


def test_a_short_growth_suffix_counter_under_partition_dist_is_one_stderr_line(
        monkeypatch, capsys, fresh_tallies):
    lost = _drop_a_word_at(monkeypatch, 3, half=1)
    _one_internal_line(capsys, ["partition-dist", "--n", "0..5", "--k", "2", "--s", "1"],
                       "walk visited 0 of S(3, 0..2) sequences")
    assert lost[2, frozenset(), 1, True] == 4


def test_a_fractional_grand_total_is_one_stderr_line(monkeypatch, capsys):
    """The request reads one Bell list to B_5, so only row 5 reads the
    broken entry."""
    _break_last_entry(monkeypatch, partitions, "bell_list")
    _one_internal_line(capsys, ["totals", "--partitions", "--s", "3", "--n", "2..5"],
                       "grand total for n=5, s=3 not integral")

import sys

import pytest

from adjstats.oeis import (
    BFileParseError,
    CheckSpec,
    DEFAULT_CHECKS,
    GENERATORS,
    parse_bfile,
    reconcile,
    render_bfile,
    step_up_antidiagonals,
    step_up_avoiders,
)


class TestParse:
    def test_basic(self):
        assert parse_bfile("0 1\n1 4\n2 14\n") == ((0, 1), (1, 4), (2, 14))

    def test_comments_and_blanks_skipped(self):
        assert parse_bfile("# comment\n\n5 0\n") == ((5, 0),)

    def test_malformed_token(self):
        with pytest.raises(BFileParseError) as err:
            parse_bfile("0 x\n")
        assert err.value.lineno == 1

    def test_wrong_arity(self):
        with pytest.raises(BFileParseError):
            parse_bfile("0 1 2\n")

    def test_non_increasing_index(self):
        with pytest.raises(BFileParseError) as err:
            parse_bfile("0 1\n0 2\n")
        assert err.value.lineno == 2

    def test_round_trip(self):
        text = "0 1\n1 4\n2 14\n10 99\n"
        assert render_bfile(parse_bfile(text)) == text

    @pytest.mark.parametrize("sign, value", [("", 1), ("+", 1), ("-", -1)],
                             ids=["unsigned", "plus", "minus"])
    def test_a_term_past_the_digit_limit_is_read_exactly(self, sign, value):
        text = f"0 {sign}{'1' * 5000}\n"
        assert len(text) > sys.get_int_max_str_digits()
        assert parse_bfile(text) == ((0, value * (10**5000 - 1) // 9),)
        assert render_bfile(parse_bfile(text)) == text.replace("+", "")

    @pytest.mark.parametrize("token", ["1e5", "12x", "1" * 5000 + "x", "1e" + "1" * 5000,
                                       "+-" + "1" * 5000, "\uff11" * 5000],
                             ids=lambda token: token if len(token) < 10 else token[:3] + "...")
    def test_only_a_run_of_ascii_digits_passes_the_digit_limit(self, token):
        with pytest.raises(BFileParseError) as err:
            parse_bfile(f"0 {token}\n")
        assert str(err.value).startswith("line 1: non-integer token in ")

    def test_an_index_past_the_digit_limit_is_a_non_integer_token(self):
        # no generator reaches such an index, and it could not be printed
        with pytest.raises(BFileParseError) as err:
            parse_bfile(f"{'1' * 5000} 1\n")
        assert str(err.value).startswith("line 1: non-integer token in ")


class TestGenerators:
    def test_avoid_values(self):
        gen = GENERATORS["avoid-step2-alphabet4"]
        assert [gen(n) for n in range(5)] == [1, 4, 14, 48, 164]

    def test_shifted_alphabet5(self):
        gen = GENERATORS["avoid-step2-alphabet5"]
        assert [gen(n) for n in range(4)] == [1, 5, 22, 96]

    def test_step_up_array_conventions(self):
        assert step_up_avoiders(0, 0) == 1
        assert step_up_avoiders(3, 0) == 0
        assert step_up_avoiders(0, 7) == 1
        assert step_up_avoiders(1, 4) == 4
        assert step_up_avoiders(2, 3) == 7  # 9 words minus 12 and 23

    def test_antidiagonal_reader(self):
        # diagonals (n+k = 0, 1, 2, ...) with n ascending inside each
        assert step_up_antidiagonals(6) == [1, 1, 0, 1, 1, 0]

    def test_antidiagonals_follow_a_walk_of_the_diagonals(self):
        walk = [step_up_avoiders(n, diag - n) for diag in range(20) for n in range(diag + 1)]
        assert step_up_antidiagonals(200) == walk[:200]


class TestReconcile:
    def test_pass(self):
        bfile = parse_bfile("0 1\n1 4\n2 14\n3 48\n")
        report = reconcile(CheckSpec("A007070", "avoid-step2-alphabet4", 0, 4), bfile)
        assert list(report) == ["sequence", "generator", "shift", "checked", "passed",
                                "complete", "rows"]
        assert report["passed"] and report["complete"] and report["checked"] == 4
        assert all(r["equal"] for r in report["rows"])

    def test_shift(self):
        # entries below the shift are outside the generator and skipped
        bfile = parse_bfile("0 9\n1 9\n2 9\n3 1\n4 5\n5 22\n")
        report = reconcile(CheckSpec("A200676", "avoid-step2-alphabet5", 3, 3), bfile)
        assert report["passed"] and report["complete"]
        assert [r["index"] for r in report["rows"]] == [3, 4, 5]

    def test_mismatch_reported_with_both_values(self):
        bfile = parse_bfile("0 1\n1 5\n")
        report = reconcile(CheckSpec("A007070", "avoid-step2-alphabet4", 0, 2), bfile)
        assert not report["passed"]
        bad = [r for r in report["rows"] if not r["equal"]]
        assert bad == [{"index": 1, "expected": "5", "computed": "4", "equal": False}]

    def test_a_term_past_the_digit_limit_is_written_in_full(self):
        bfile = parse_bfile("10000 5\n")
        report = reconcile(CheckSpec("A007070", "avoid-step2-alphabet4", 0, 1), bfile)
        [row] = report["rows"]
        assert (row["expected"], row["equal"]) == ("5", False)
        # read back 1,000 digits at a time, below the interpreter's limit
        text, term = row["computed"], GENERATORS["avoid-step2-alphabet4"](10000)
        assert len(text) > sys.get_int_max_str_digits()
        value = 0
        for start in range(0, len(text), 1000):
            chunk = text[start:start + 1000]
            value = value * 10**len(chunk) + int(chunk)
        assert value == term

    def test_incomplete_flagged(self):
        bfile = parse_bfile("0 1\n1 4\n")
        report = reconcile(CheckSpec("A007070", "avoid-step2-alphabet4", 0, 10), bfile)
        assert report["passed"]  # what was checked did match
        assert not report["complete"]

    def test_default_checks_registered(self):
        assert set(DEFAULT_CHECKS) == {"A007070", "A200676", "A277666"}
        for spec in DEFAULT_CHECKS.values():
            assert spec.generator in GENERATORS

import argparse
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats import (
    absdiff, algebra, bijections, cli, kary, oeis, oracle, partitions, transfer,
)
from adjstats.algebra import RatFunc, XPoly
from adjstats.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDist:
    def test_avoidance_series(self, capsys):
        code, out = run(
            capsys, "dist", "--stat", "mu", "--k", "3", "--s", "2", "--n", "0..4", "--q", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["value"] for row in payload["rows"]] == ["1", "3", "8", "21", "55"]

    def test_coefficients(self, capsys):
        code, out = run(capsys, "dist", "--stat", "nu", "--k", "3", "--s", "2", "--n", "2")
        payload = json.loads(out)
        assert payload["rows"][0]["dist"] == {"var": "q", "coeffs": ["7", "2"]}

    def test_impossible_difference(self, capsys):
        code, out = run(capsys, "dist", "--stat", "mu", "--k", "2", "--s", "5", "--n", "3")
        payload = json.loads(out)
        assert payload["rows"][0]["dist"]["coeffs"] == ["8"]

    def test_verify_flag(self, capsys):
        code, out = run(
            capsys, "dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "0..5", "--verify"
        )
        assert code == 0
        payload = json.loads(out)
        assert all(row["oracle_agrees"] for row in payload["rows"])

    def test_cap_exceeded_gives_partial_table_with_warnings(self, capsys):
        code, out = run(
            capsys, "dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "0..8",
            "--verify", "--cap", "100",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all("dist" in row for row in rows)  # DP values always present
        assert any("warning" in row for row in rows)
        assert any(row.get("oracle_agrees") for row in rows)

    def test_closed_form_disagreement_fails_verify(self, capsys, monkeypatch):
        argv = ("dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "0..3", "--verify")
        assert run(capsys, *argv)[0] == 0  # the right closed form is stored first
        monkeypatch.setattr(kary, "gf_A", lambda params: RatFunc(XPoly((2,))))
        code, out = run(capsys, *argv)
        rows = json.loads(out)["rows"]
        assert all(row["oracle_agrees"] for row in rows)
        assert not all(row["closed_form_agrees"] for row in rows)
        assert code == 1

    @pytest.mark.parametrize("stat,k,s,engine", [("mu", 2, 1, kary), ("nu", 3, 2, absdiff)])
    def test_one_table_and_one_series_per_request(self, capsys, monkeypatch, stat, k, s,
                                                  engine):
        orders, built, expanded = [], [], []
        gf_name = "gf_A" if engine is kary else "gf_B_small"
        fill, build, expand = transfer.transfer_dp, getattr(engine, gf_name), RatFunc.series
        monkeypatch.setattr(transfer, "_tables", {})
        monkeypatch.setattr(algebra, "_expansions", {})
        monkeypatch.setattr(engine, "transfer_dp",
                            lambda *a, **kw: orders.append(a[1]) or fill(*a, **kw))
        monkeypatch.setattr(engine, gf_name, lambda *a: built.append(a) or build(*a))
        monkeypatch.setattr(RatFunc, "series",
                            lambda f, order: expanded.append(order) or expand(f, order))

        def request(top):
            code, out = run(capsys, "dist", "--stat", stat, "--k", str(k), "--s", str(s),
                            "--n", f"0..{top}", "--verify", "--cap", "5000")
            assert code == 0
            return json.loads(out)["rows"]

        rows = request(40)
        assert sum("closed_form_agrees" in row for row in rows) > 1
        assert orders == [40] and len(built) == 1 and expanded == [40]
        # within its capacity the store only appends, so 41 stored totals
        # means each length was filled once
        [table] = transfer._tables.values()
        assert table.capacity == 40 and len(table.totals) == 41
        # a repeat builds no closed form and expands no coefficient
        assert request(40) == rows
        assert len(built) == 1 and expanded == [40]
        # a longer one builds and expands its closed form once, to its order
        longer = request(60)
        assert longer[:41] == rows and all(row["closed_form_agrees"] for row in longer)
        assert len(built) == 2 and expanded == [40, 60]
        [coeffs] = algebra._expansions.values()
        assert len(coeffs) == 61

    def test_closed_form_checks_rows_past_the_cap(self, capsys):
        code, out = run(capsys, "dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "5..7",
                        "--verify", "--cap", "300")
        rows = json.loads(out)["rows"]
        assert code == 0
        assert rows[0]["oracle_agrees"] and rows[0]["closed_form_agrees"]
        for row in rows[1:]:  # 3^6 and 3^7 words exceed the cap
            assert "warning" in row and "oracle_agrees" not in row
            assert row["closed_form_agrees"] is True

    def test_wrong_closed_form_fails_a_row_past_the_cap(self, capsys, monkeypatch):
        argv = ("dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "5..7",
                "--verify", "--cap", "300")
        assert run(capsys, *argv)[0] == 0  # the right closed form is stored first
        right = kary.gf_A

        def wrong_from_6(params):
            series = right(params).series(12)
            series[6] = series[6] + 1
            return RatFunc(XPoly(series))

        monkeypatch.setattr(kary, "gf_A", wrong_from_6)
        code, out = run(capsys, *argv)
        rows = json.loads(out)["rows"]
        assert [row.get("oracle_agrees") for row in rows] == [True, None, None]
        assert [row["closed_form_agrees"] for row in rows] == [True, False, True]
        assert code == 1

    @pytest.mark.parametrize("route, wrong", [
        ("table", {"oracle_agrees", "closed_form_agrees"}),
        ("oracle", {"oracle_agrees"}),
        ("closed form", {"closed_form_agrees"}),
    ], ids=["table", "oracle", "closed form"])
    @pytest.mark.parametrize("stat", ["mu", "nu"])
    def test_one_wrong_coefficient_fails_only_its_row(self, capsys, monkeypatch, route,
                                                      wrong, stat):
        # (4, 2) is in the middle band, so `nu` has a closed form too; each
        # route changes the constant coefficient at n = 2 in a copy
        engine, table, oracle_name, gf_name = {
            "mu": (kary, "a_table", "distribution_mu", "gf_A"),
            "nu": (absdiff, "b_table", "distribution_nu", "gf_B_small"),
        }[stat]
        argv = ("dist", "--stat", stat, "--k", "4", "--s", "2", "--n", "0..4", "--verify")
        assert run(capsys, *argv)[0] == 0  # every right route is stored first
        if route == "table":
            right_table = getattr(engine, table)

            def wrong_table(*args):
                rows = list(right_table(*args))
                rows[2] = rows[2] + 1
                return rows

            monkeypatch.setattr(engine, table, wrong_table)
        elif route == "oracle":
            right_oracle = getattr(oracle, oracle_name)
            monkeypatch.setattr(oracle, oracle_name, lambda k, s, n, cap: (
                right_oracle(k, s, n, cap) + (1 if n == 2 else 0)))
        else:
            right_gf = getattr(engine, gf_name)

            def wrong_gf(*args):
                series = right_gf(*args).series(4)
                series[2] = series[2] + 1
                return RatFunc(XPoly(series))

            monkeypatch.setattr(engine, gf_name, wrong_gf)
        code, out = run(capsys, *argv)
        rows = json.loads(out)["rows"]
        assert code == 1
        assert [{key for key in ("oracle_agrees", "closed_form_agrees") if not row[key]}
                for row in rows] == [set(), set(), wrong, set(), set()]


class TestClosedFormStore:
    @pytest.fixture(autouse=True)
    def empty_store(self, monkeypatch):
        monkeypatch.setattr(algebra, "_expansions", {})

    # 66 rise shapes (k, s), 1 <= s < k <= 12, each its own closed form
    SHAPES = [(k, s) for k in range(2, 13) for s in range(1, k)]

    def test_the_store_keeps_at_most_64_entries(self, capsys):
        assert len(self.SHAPES) > 64
        for k, s in self.SHAPES:
            code, out = run(capsys, "dist", "--stat", "mu", "--k", str(k), "--s", str(s),
                            "--n", "0..3", "--verify")
            assert code == 0
            assert all(row["closed_form_agrees"] for row in json.loads(out)["rows"])
            assert len(algebra._expansions) <= 64
        assert len(algebra._expansions) == 64
        # the least recently read go first
        assert (kary.gf_A, (kary.KSParams(2, 1),)) not in algebra._expansions
        assert (kary.gf_A, (kary.KSParams(12, 11),)) in algebra._expansions

    def test_an_evicted_entry_is_built_afresh(self, capsys):
        for k, s in self.SHAPES:
            algebra._expansion(kary.gf_A, (kary.KSParams(k, s),), 3)
        params = kary.KSParams(*self.SHAPES[0])
        assert (kary.gf_A, (params,)) not in algebra._expansions
        got = algebra._expansion(kary.gf_A, (params,), 9)
        assert got == tuple(kary.gf_A(params).series(9))
        code, out = run(capsys, "dist", "--stat", "mu", "--k", str(params.k),
                        "--s", str(params.s), "--n", "0..9", "--verify")
        assert code == 0
        assert all(row["closed_form_agrees"] for row in json.loads(out)["rows"])

    def test_a_read_is_a_tuple_prefix(self):
        args = (4, 2)
        longer = algebra._expansion(absdiff.gf_B_small, args, 12)
        shorter = algebra._expansion(absdiff.gf_B_small, args, 5)
        assert isinstance(longer, tuple) and shorter == longer[:6]
        assert longer == tuple(absdiff.gf_B_small(*args).series(12))

    def test_two_threads_store_what_one_thread_does(self, monkeypatch):
        params = kary.KSParams(5, 2)
        one = algebra._expansion(kary.gf_A, (params,), 150)
        monkeypatch.setattr(algebra, "_expansions", {})
        algebra._expansion(kary.gf_A, (params,), 10)
        with ThreadPoolExecutor(max_workers=2) as pool:
            reads = list(pool.map(lambda order: algebra._expansion(kary.gf_A, (params,), order),
                                  [150, 150]))
        assert reads == [one, one]
        assert algebra._expansions[kary.gf_A, (params,)] == one


class TestFormats:
    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "dist", "--stat", "mu", "--k", "4", "--s", "2", "--n", "0..6")
        _, second = run(capsys, "dist", "--stat", "mu", "--k", "4", "--s", "2", "--n", "0..6")
        assert first == second

    def test_json_and_csv_same_numbers(self, capsys):
        _, as_json = run(capsys, "avoid", "--k", "4", "--s", "2", "--n", "0..5")
        _, as_csv = run(
            capsys, "avoid", "--k", "4", "--s", "2", "--n", "0..5", "--format", "csv"
        )
        json_counts = [row["count"] for row in json.loads(as_json)["rows"]]
        csv_lines = as_csv.strip().splitlines()
        assert csv_lines[0] == "n,count"
        csv_counts = [line.split(",")[1] for line in csv_lines[1:]]
        assert json_counts == csv_counts == ["1", "4", "14", "48", "164", "560"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code, out = run(
            capsys, "avoid", "--k", "3", "--s", "2", "--n", "0..3", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["rows"][-1]["count"] == "21"


    @pytest.mark.parametrize("argv, header, rows", [
        (["dist", "--stat", "nu", "--k", "5", "--s", "2", "--n", "5..11", "--verify",
          "--cap", "5000"], "n,dist,oracle_agrees,warning", 7),
        (["partition-dist", "--n", "3..6", "--k", "2", "--s", "1", "--cap", "60"],
         "n,dist,warning", 4),
    ])
    def test_csv_header_names_every_key(self, capsys, argv, header, rows):
        # the first rows are checked or listed, the later ones skipped by the cap
        code, out = run(capsys, *argv, "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == header and len(lines) == rows + 1
        assert "skipped" not in lines[1] and "skipped" in lines[-1]

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rows.json"
        code = main(["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "2",
                     "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in captured.err


class _Str(str):
    pass


class _Int(int):
    pass


# the types a CLI payload holds: dicts with str keys, lists, str, int, bool
# and None, with no subclass of one
JSON_LEAVES = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "é", "\U0001f600",
                     "a\"b\\c\td"]),
    st.integers(),
    st.integers(-10**300, 10**300),
    st.booleans(),
    st.none(),
)

JSON_VALUES = st.recursive(JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(st.text(), max_size=6),
    st.dictionaries(st.text(max_size=4), children, max_size=4),
), max_leaves=30)


def _is_payload(value) -> bool:
    """Whether `value` holds only the types a CLI payload holds."""
    if type(value) is dict:
        return all(type(key) is str and _is_payload(item) for key, item in value.items())
    if type(value) is list:
        return all(map(_is_payload, value))
    return type(value) in (str, int, bool, type(None))


CSV_CELLS = st.recursive(
    st.one_of(st.text(max_size=6), st.integers(), st.booleans(), st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
        st.fixed_dictionaries({"var": st.just("q"),
                               "coeffs": st.lists(st.integers().map(str), max_size=4)}),
    ), max_leaves=8)

CSV_ROWS = st.lists(st.dictionaries(
    st.sampled_from(["n", "dist", "value", "warning", "a,b", 'say "q"', ""]), CSV_CELLS,
    max_size=4), max_size=5)


def _dict_writer_text(payload):
    """The CSV `csv.DictWriter` writes for a payload: the reference the CLI's
    list-row writer is held to."""
    rows = payload["rows"] if "rows" in payload else [payload]
    buf = io.StringIO()
    if rows:
        fields = list(dict.fromkeys(key for row in rows for key in row))
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: cli._flatten(v) for k, v in row.items()})
    return buf.getvalue()


class TestWriters:
    @settings(max_examples=400, deadline=None)
    @given(value=JSON_VALUES)
    def test_json_is_json_dumps_indent_2(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": []}, [{}], {1: "x", "y": [2]}, {"y": [{"z": "0"}], 1: "x"},
        [[["0"]]], (_Str("s"), "t"),
        {"k": _Int(3)}, [float("nan"), float("inf"), -float("inf"), 1.5], -10**299,
        1.5, _Str("s"), {"a": ["b", ("c",)]}, [1, _Int(2)], {"a": {"b": [None, 0.5]}},
    ], ids=repr)
    def test_json_edge_shapes(self, value):
        # a tuple, a float, a str or int subclass or a key that is not a str
        # is in no payload, and the writer refuses it
        if _is_payload(value):
            assert cli._json_text(value) == json.dumps(value, indent=2)
        else:
            with pytest.raises(TypeError):
                cli._json_text(value)

    @settings(max_examples=300, deadline=None)
    @given(rows=CSV_ROWS, one_row=st.booleans())
    def test_csv_is_dict_writer(self, rows, one_row):
        payload = rows[0] if one_row and rows else {"command": "x", "rows": rows}
        assert cli._csv_text(payload) == _dict_writer_text(payload)

    @pytest.mark.parametrize("argv", [
        "dist --stat mu --k 2 --s 1 --n 0..10 --q=-3/5",
        "dist --stat nu --k 4 --s 2 --n 0..6 --verify --q 7/3",
        "dist --stat mu --k 7 --s 3 --n 400",
        "verify --suite fibwords --full-report",
        "verify --suite partitions --nmax 6 --full-report",
        "verify --suite all --nmax 3 --full-report",
    ])
    def test_json_requests_do_not_reach_json_dumps(self, capsys, monkeypatch, argv):
        recorded = {" ".join(entry["argv"]): entry for entry in json.loads(
            (Path(__file__).parent / "golden_cli.json").read_text())}[argv]

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", refuse)
        code, out = run(capsys, *argv.split())
        assert code == recorded["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == recorded["sha256"]


class TestTotals:
    def test_words(self, capsys):
        code, out = run(capsys, "totals", "--words", "--k", "3", "--s", "1", "--n", "2")
        assert json.loads(out)["rows"] == [{"n": 2, "total": "2"}]

    def test_partitions(self, capsys):
        code, out = run(capsys, "totals", "--partitions", "--s", "2", "--n", "4")
        assert json.loads(out)["rows"] == [{"n": 4, "total": "1"}]

    def test_partitions_fixed_blocks(self, capsys):
        code, out = run(
            capsys, "totals", "--partitions", "--k", "3", "--s", "2", "--n", "5"
        )
        assert json.loads(out)["rows"] == [{"n": 5, "total": "7"}]

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_partitions_from_length_zero(self, capsys, s):
        code, out = run(capsys, "totals", "--partitions", "--s", str(s), "--n", "0..4")
        assert code == 0
        assert [row["total"] for row in json.loads(out)["rows"]] == [
            str(partitions.p_total_all_oracle(n, s)) for n in range(5)]


class TestGapAndPartitionDist:
    def test_gap(self, capsys):
        code, out = run(capsys, "gap", "--k", "2", "--s", "1", "--r", "2", "--n", "3")
        assert json.loads(out)["rows"][0]["dist"]["coeffs"] == ["6", "2"]

    def test_partition_dist(self, capsys):
        code, out = run(capsys, "partition-dist", "--n", "4", "--k", "3", "--s", "2")
        assert json.loads(out)["rows"][0]["dist"]["coeffs"] == ["5", "1"]


class TestBijection:
    def test_v_to_w(self, capsys):
        code, out = run(capsys, "bijection", "--v-to-w", "113")
        assert json.loads(out)["output"] == "344"

    def test_chain(self, capsys):
        code, out = run(capsys, "bijection", "--composition", "2:2+1:1")
        payload = json.loads(out)
        assert payload["maneuvers"] == [4, 1]
        assert payload["v_word"] == "41"

    def test_tiling(self, capsys):
        code, out = run(capsys, "bijection", "--word-to-tiling", "21")
        assert json.loads(out)["output"] == ["domino"]

    def test_invalid_word_is_usage_error(self, capsys):
        code = main(["bijection", "--v-to-w", "24"])
        assert code == 2

    @pytest.mark.parametrize("argv, keys", [
        (["--v-to-w", "113"], ["output"]),
        (["--w-to-v", "344"], ["output"]),
        (["--word-to-tiling", "232321"], ["output"]),
        (["--tiling-to-word", "1,2,1,2"], ["output"]),
        (["--composition", "2:2+1:1"], ["v_word", "w_word"]),
    ])
    def test_csv_is_one_row_of_the_json_fields(self, capsys, argv, keys):
        _, as_json = run(capsys, "bijection", *argv)
        code, as_csv = run(capsys, "bijection", *argv, "--format", "csv")
        payload = json.loads(as_json)
        [row] = csv.DictReader(io.StringIO(as_csv))
        assert code == 0 and list(row) == list(payload)
        for key in keys:
            value = payload[key]
            assert row[key] == (";".join(value) if isinstance(value, list) else value)
        if "composition" in row:
            assert json.loads(row["composition"]) == payload["composition"]

    @pytest.mark.parametrize("text, total", [
        ("1000000000:1", 10**9),
        ("999999:1+2:1,2", 10**6 + 1),
    ])
    def test_composition_past_the_cell_limit_builds_no_move(self, capsys, monkeypatch,
                                                            text, total):
        def never(comp):
            raise AssertionError("a move was built past the limit")

        monkeypatch.setattr(bijections, "composition_to_maneuvers", never)
        code = main(["bijection", "--composition", text])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: a composition may total at most 1000000 cells, "
                                f"got {total}\n")

    def test_part_checks_come_before_the_cell_limit(self, capsys):
        code = main(["bijection", "--composition", "1000000000:0"])
        assert code == 2
        assert capsys.readouterr().err == "error: colors {0} outside [1, 1000000000]\n"

    def test_composition_of_exactly_the_limit_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_COMPOSITION_CELLS", 5)
        code, out = run(capsys, "bijection", "--composition", "3:1,3+2:2")
        assert code == 0 and json.loads(out)["maneuvers"] == [3, 2, 1, 4]
        code = main(["bijection", "--composition", "3:1,3+3:2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a composition may total at most 5 cells, got 6\n")


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "algebra")
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0

    def test_bounded_suite(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "gap", "--kmax", "3", "--nmax", "5"
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_bound_a_suite_does_not_take_is_noted(self, capsys):
        code = main(["verify", "--suite", "fibwords", "--nmax", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["checks"] == 105
        assert captured.err == (
            "note: suite fibwords takes no --nmax; running it without that bound\n"
        )

    def test_csv_reports_totals_on_stderr(self, capsys):
        code = main(["verify", "--suite", "algebra", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0 and captured.out == ""
        assert captured.err == "checks: 102, failed: 0\n"

    def test_csv_params_are_json(self, capsys):
        code, out = run(capsys, "verify", "--suite", "algebra", "--full-report",
                        "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 102
        assert all(isinstance(json.loads(row["params"]), dict) for row in rows)
        assert rows[0]["params"] == '{"m":1,"s":1}'


class TestOeisCheck:
    def test_pass_and_fail(self, capsys, tmp_path):
        bfile = tmp_path / "b007070.txt"
        bfile.write_text("# data\n0 1\n1 4\n2 14\n3 48\n")
        code, out = run(
            capsys, "oeis-check", "--id", "A007070", "--bfile", str(bfile), "--length", "4"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 999\n")
        code = main(
            ["oeis-check", "--id", "A007070", "--bfile", str(bad), "--length", "2"]
        )
        capsys.readouterr()
        assert code == 1

    def test_missing_file_is_usage_error(self, capsys):
        code = main(["oeis-check", "--id", "A007070", "--bfile", "/nonexistent"])
        assert code == 2

    def test_unknown_sequence_needs_generator(self, capsys, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("0 1\n")
        code = main(["oeis-check", "--id", "A000001", "--bfile", str(bfile)])
        assert code == 2

    def test_a_term_past_the_digit_limit_is_written_in_full(self, capsys, tmp_path):
        bfile = tmp_path / "b007070.txt"
        bfile.write_text("10000 5\n")
        limit = sys.get_int_max_str_digits()
        code, out = run(capsys, "oeis-check", "--id", "A007070", "--bfile", str(bfile))
        [row] = json.loads(out)["rows"]
        assert code == 1 and sys.get_int_max_str_digits() == limit
        assert (row["expected"], row["equal"]) == ("5", False)
        assert row["computed"] == _digits(oeis.GENERATORS["avoid-step2-alphabet4"](10000))
        assert len(row["computed"]) > limit

    def test_a_b_file_term_past_the_digit_limit_is_read_in_full(self, capsys, tmp_path):
        term = "7" * 5000
        bfile = tmp_path / "b007070.txt"
        bfile.write_text(f"1 {term}\n")
        code, out = run(capsys, "oeis-check", "--id", "A007070", "--bfile", str(bfile))
        [row] = json.loads(out)["rows"]
        assert code == 1
        assert row == {"index": 1, "expected": term, "computed": "4", "equal": False}

    @pytest.fixture
    def avoiders5(self, tmp_path):
        # words on 5 letters with no rise by 2, at indices 0..6
        bfile = tmp_path / "b.txt"
        bfile.write_text("".join(f"{i} {v}\n" for i, v in
                                 enumerate([1, 5, 22, 96, 419, 1829, 7984])))
        return str(bfile)

    @pytest.mark.parametrize("length", ["0", "-3"])
    @pytest.mark.parametrize("generator", [[], ["--generator", "avoid-step2-alphabet5"]],
                             ids=["registered", "generator"])
    def test_length_below_one_is_usage_error(self, capsys, avoiders5, length, generator):
        code = main(["oeis-check", "--id", "A200676", "--bfile", avoiders5,
                     "--length", length, *generator])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: compare length must be >= 1\n"

    @pytest.mark.parametrize("argv, shift, indices, passed, complete", [
        # the registered shift of A200676 is 3 and its registered length 20
        ([], 3, [3, 4, 5, 6], False, False),
        (["--length", "2"], 3, [3, 4], False, True),
        (["--shift", "0"], 0, [0, 1, 2, 3, 4, 5, 6], True, False),
        (["--shift", "0", "--length", "3"], 0, [0, 1, 2], True, True),
        (["--shift", "-2", "--length", "3"], -2, [0, 1, 2], False, True),
        # a given generator starts from shift 0 and length 20
        (["--generator", "avoid-step2-alphabet5"], 0, [0, 1, 2, 3, 4, 5, 6], True, False),
        (["--generator", "avoid-step2-alphabet5", "--shift", "3", "--length", "3"], 3,
         [3, 4, 5], False, True),
    ])
    def test_shift_and_length_overrides(self, capsys, avoiders5, argv, shift, indices,
                                        passed, complete):
        code, out = run(capsys, "oeis-check", "--id", "A200676", "--bfile", avoiders5,
                        *argv)
        report = json.loads(out)
        assert code == (0 if passed else 1)
        assert (report["shift"], report["passed"], report["complete"]) == (
            shift, passed, complete)
        assert [row["index"] for row in report["rows"]] == indices


COMMAND_ERRORS = [
    (["totals", "--words", "--s", "1", "--n", "2"], "totals --words needs --k"),
    (["bijection", "--composition", "2:3"], "colors {3} outside [1, 2]"),
    (["bijection", "--composition", "0:1"], "part size 0 < 1"),
    (["bijection", "--tiling-to-word", "1,3"], "pieces must have length 1 or 2"),
    (["bijection", "--w-to-v", "13"], "(1, 3) contains 1-3 or 2-4"),
    (["bijection", "--v-to-w", "0"], "(0,) has letter 0 outside 1..4"),
    (["bijection", "--w-to-v", "5"], "(5,) has letter 5 outside 1..4"),
    (["partition-dist", "--n", "3", "--k", "2", "--s", "0"], "need s >= 1"),
    (["oeis-check", "--id", "A000001", "--bfile", "b.txt"], "no registered generator"),
    (["oeis-check", "--id", "A007070", "--bfile", "/nonexistent/b007070.txt"],
     "cannot read b-file"),
]


@pytest.mark.parametrize("argv, message", COMMAND_ERRORS,
                         ids=[" ".join(argv) for argv, _ in COMMAND_ERRORS])
def test_error_raised_by_a_command_is_one_stderr_line(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert captured.err.endswith("\n")


def test_malformed_tiling_is_a_parser_error_with_the_reason(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "--tiling-to-word", "1,,2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        "argument --tiling-to-word: piece lengths are comma-separated integers, "
        "got '1,,2'")


@pytest.mark.parametrize("text", ["x:1", "1:1+", "2:1,a", ""])
def test_malformed_composition_is_a_parser_error_with_the_form(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "--composition", text])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "invalid literal" not in captured.err
    assert captured.err.splitlines()[-1].endswith(
        "argument --composition: colored compositions are written "
        f"size:c1,c2+size:c1, got {text!r}")


def test_enumeration_cap_is_one_stderr_line(capsys, monkeypatch):
    def too_large(params, n):
        raise oracle.EnumerationTooLarge("4^400 words exceed cap 100")

    monkeypatch.setattr(kary, "avoid_count", too_large)
    code = main(["avoid", "--k", "4", "--s", "2", "--n", "400"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "enumeration too large: 4^400 words exceed cap 100\n"


LONG_REQUESTS = [
    ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "0..5000"],
    ["dist", "--stat", "nu", "--k", "3", "--s", "1", "--n", "1001"],
    ["totals", "--words", "--k", "3", "--s", "1", "--n", "2..1001"],
    ["totals", "--partitions", "--s", "2", "--n", "3000"],
    ["avoid", "--k", "7", "--s", "1", "--n", "20000"],
    ["partition-dist", "--n", "999..1001", "--k", "3", "--s", "1"],
    ["gap", "--k", "3", "--s", "1", "--r", "2", "--n", "0..1001"],
]


@pytest.mark.parametrize("argv", LONG_REQUESTS, ids=" ".join)
def test_a_length_past_the_cap_is_a_usage_error(capsys, monkeypatch, argv):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(transfer, "_Table", no_table)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"argument --n: lengths must be <= 1000: {argv[argv.index('--n') + 1]!r}")


def test_lengths_up_to_the_cap_parse():
    assert cli._parse_range("1000") == range(1000, 1001)
    assert cli._parse_range("0..1000") == range(1001)


def _digits(value) -> str:
    """An integer, or a Fraction as numerator/denominator, in decimal, 1000
    digits at a time, so that no conversion meets the interpreter's limit."""
    if value.denominator != 1:
        return f"{_digits(value.numerator)}/{_digits(value.denominator)}"
    value, chunks = value.numerator, []
    while value >= 10**1000:
        value, low = divmod(value, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(value) + "".join(reversed(chunks))


BIG = kary.KSParams(100000, 99999)

# requests whose answers pass the digit limit: argv, the row key, the answer
PAST_THE_DIGIT_LIMIT = [
    (["avoid", "--k", "100000", "--s", "99999", "--n", "1000"], "count",
     lambda: _digits(kary.avoid_count(BIG, 1000)[1000])),
    (["totals", "--words", "--k", "1000000000", "--s", "1", "--n", "1000"], "total",
     lambda: _digits(kary.total_occurrences(kary.KSParams(10**9, 1), 1000))),
    (["dist", "--stat", "mu", "--k", "100000", "--s", "99999", "--n", "900"], "dist",
     lambda: {"var": "q", "coeffs": list(map(_digits, kary.a_table(BIG, 900)[900].coeffs))}),
    (["dist", "--stat", "mu", "--k", "100000", "--s", "99999", "--n", "900", "--q",
      "1/100000"], "value",
     lambda: _digits(kary.a_table(BIG, 900)[900](Fraction(1, 100000)))),
]


@pytest.mark.parametrize("argv, key, expected", PAST_THE_DIGIT_LIMIT,
                         ids=[" ".join(argv) for argv, _, _ in PAST_THE_DIGIT_LIMIT])
def test_answers_past_the_digit_limit_are_exact(capsys, argv, key, expected):
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, *argv)
    assert code == 0 and sys.get_int_max_str_digits() == limit
    [row] = json.loads(out)["rows"]
    assert row[key] == expected()
    assert max(map(len, re.findall(r"\d+", out))) > limit


EXPONENT_Q = [
    ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "2", "--q=1e1000000"],
    ["dist", "--stat", "nu", "--k", "3", "--s", "1", "--n", "2", "--q", "1E5"],
    ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "2", "--q", "2.5e-3"],
    ["partition-dist", "--n", "3", "--k", "2", "--s", "1", "--q", "3e2"],
]


@pytest.mark.parametrize("argv", EXPONENT_Q, ids=" ".join)
def test_exponent_notation_in_q_is_a_usage_error(capsys, argv):
    # neither the option table nor argparse may hand it to Fraction
    text = argv[-1].removeprefix("--q=")
    assert cli._read(argv) is None
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(argv)
    assert err.value.code == 2
    assert f"not an exact rational: {text!r}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert f"not an exact rational: {text!r}" in captured.err


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("-3/5", Fraction(-3, 5)), ("+2", Fraction(2)),
    ("0.25", Fraction(1, 4)), ("-.5", Fraction(-1, 2)), ("7/3", Fraction(7, 3)),
])
def test_rational_forms_without_an_exponent_parse(text, value):
    assert cli._parse_rational(text) == value


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["dist", "--stat", "mu"])  # missing required arguments
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "-2"],
        ["avoid", "--k", "3", "--s", "1", "--n", "-1"],
        ["gap", "--k", "3", "--s", "1", "--r", "2", "--n", "-1"],
        ["totals", "--words", "--k", "3", "--s", "1", "--n", "-1"],
        ["partition-dist", "--n", "3", "--k", "2", "--s", "0"],
        ["partition-dist", "--n", "2", "--k", "-1", "--s", "1"],
        ["verify", "--suite", "partitions", "--nmax", "-1"],
        ["verify", "--suite", "gap", "--nmax", "-1"],
        ["verify", "--suite", "kary", "--kmax", "-1"],
        ["verify", "--suite", "kary", "--smax", "-1"],
        ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "2", "--verify", "--cap", "-1"],
        ["partition-dist", "--n", "2", "--k", "2", "--s", "1", "--cap", "-5"],
        # an explicit "--" value, which argparse would store as [] unconverted
        ["dist", "--stat", "mu", "--k=--", "--s", "1", "--n", "2"],
        ["bijection", "--tiling-to-word=--"],
        ["verify", "--suite=--"],
        # letters outside the alphabet 1..4 of the two word maps
        ["bijection", "--v-to-w", "0"],
        ["bijection", "--w-to-v", "5"],
    ],
    ids=" ".join,
)
def test_invalid_input_is_usage_error(capsys, argv):
    try:
        code = main(argv)  # any other exception escapes as a traceback
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.fixture
def parses(monkeypatch):
    """The parsers, in order, whose `parse_known_args` runs; `parse_args`
    and a subcommand action both go through it."""
    seen = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        seen.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return seen


class TestSharedParser:
    """`main` builds one argparse parser per process, on the first request
    that the option table hands on (help or a usage error), and reuses it."""

    @pytest.fixture
    def cleared(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_built_once_across_many_calls(self, capsys, monkeypatch, tmp_path, cleared,
                                          parses):
        bfile = tmp_path / "b007070.txt"
        bfile.write_text("0 1\n1 4\n2 14\n")
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        argvs = [
            (["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "0..4", "--q", "7/3",
              "--verify"], 0),
            (["dist", "--stat", "nu", "--k", "4", "--s", "2", "--n", "3", "--format", "csv"],
             0),
            (["dist", "--stat", "mu"], 2),
            (["totals", "--words", "--k", "3", "--s", "1", "--n", "2"], 0),
            (["totals", "--partitions", "--s", "2", "--n", "4"], 0),
            (["totals", "--words", "--s", "1", "--n", "2"], 2),
            (["avoid", "--k", "4", "--s", "2", "--n", "0..5"], 0),
            (["avoid", "--help"], 0),
            (["partition-dist", "--n", "4", "--k", "3", "--s", "2"], 0),
            (["gap", "--k", "2", "--s", "1", "--r", "2", "--n", "3"], 0),
            (["verify", "--suite", "algebra"], 0),
            (["bijection", "--v-to-w", "113"], 0),
            (["bijection", "--v-to-w", "113", "--w-to-v", "344"], 2),
            (["bijection", "--v-to-w", "24"], 2),
            (["oeis-check", "--id", "A007070", "--bfile", str(bfile)], 0),
            (["frobnicate"], 2),
        ]
        codes = []

        def run_all(argvs):
            for argv, _expected in argvs:
                try:
                    codes.append(main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)

        # help and the usage errors, in the order of `argvs`
        handed_on = [["dist", "--stat", "mu"], ["avoid", "--help"],
                     ["bijection", "--v-to-w", "113", "--w-to-v", "344"], ["frobnicate"]]
        # the well-formed requests alone, errors raised by a command included,
        # build and run no parser
        read = [(argv, code) for argv, code in argvs if argv not in handed_on]
        run_all(read)
        assert codes == [expected for argv, expected in read]
        assert calls == [] and parses == []
        del codes[:]
        for _ in range(4):
            run_all(argvs)
        capsys.readouterr()
        assert len(codes) >= 50
        assert codes == [expected for argv, expected in argvs] * 4
        assert len(calls) == 1
        # one top-level parse per request that the table hands on, which
        # hands the tokens after a subcommand's name to that subcommand
        shared = cli._parser()
        assert parses.count(shared) == len(handed_on) * 4 and parses[0] is shared

    def test_cache_clear_builds_a_new_parser(self, cleared, parses):
        argv = ["avoid", "--k", "-4", "--s", "2", "--n", "3"]  # a negative number
        cli._parse(argv)
        first = cli._parser()
        cli._parser.cache_clear()
        cli._parse(argv)
        second = cli._parser()
        assert first is not second
        assert [p for p in parses if p in (first, second)] == [first, second]

    def test_import_builds_no_parser(self):
        src = Path(cli.__file__).resolve().parents[1]
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import adjstats.cli as cli; "
                  "before = cli._parser.cache_info().currsize; cli._parser(); "
                  "print(cli.__file__, before, cli._parser.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-I", "-c", script, str(src)],
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout == f"{src / 'adjstats' / 'cli.py'} 0 1\n"

    def test_no_state_carries_to_the_next_subcommand(self):
        shared = cli._parser()
        first = shared.parse_args(["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n",
                                   "0..4", "--q", "7/3", "--verify"])
        assert first.verify and first.q == Fraction(7, 3)
        argv = ["totals", "--words", "--k", "3", "--s", "1", "--n", "2"]
        after = vars(shared.parse_args(argv))
        assert not {"stat", "q", "verify"} & after.keys()
        assert after == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("bad, good", [
        (["dist", "--stat", "mu", "--k", "3"],
         ["dist", "--stat", "nu", "--k", "4", "--s", "2", "--n", "3"]),
        (["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "5..2", "--verify"],
         ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "2"]),
        (["bijection", "--v-to-w", "113", "--w-to-v", "344"],
         ["bijection", "--w-to-v", "344"]),
        (["totals", "--words", "--partitions", "--s", "1", "--n", "2"],
         ["totals", "--partitions", "--s", "2", "--n", "4"]),
        (["gap", "--k", "2", "--s", "1", "--r", "2", "--n", "3", "--q", "1"],
         ["gap", "--k", "2", "--s", "1", "--r", "2", "--n", "3"]),
        (["verify", "--suite", "nope"], ["verify", "--suite", "gap", "--nmax", "3"]),
    ], ids=lambda argv: " ".join(argv))
    def test_usage_error_leaves_no_state(self, capsys, bad, good):
        shared, fresh = cli._parser(), cli.build_parser()
        messages = []
        for parser in (shared, fresh):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(bad)
            assert exc.value.code == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert vars(shared.parse_args(good)) == vars(fresh.parse_args(good))

    def test_threads_parse_as_a_fresh_parser_does(self):
        argvs = [
            ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "0..4", "--q", "7/3",
             "--verify", "--cap", "50"],
            ["dist", "--stat", "nu", "--k", "5", "--s", "2", "--n", "6", "--format", "csv"],
            ["totals", "--words", "--k", "3", "--s", "1", "--n", "2..8"],
            ["totals", "--partitions", "--k", "3", "--s", "2", "--n", "5"],
            ["avoid", "--k", "4", "--s", "2", "--n", "0..5", "--out", "rows.json"],
            ["partition-dist", "--n", "4..7", "--k", "3", "--s", "2", "--q=-3/5"],
            ["gap", "--k", "2", "--s", "1", "--r", "2", "--n", "3"],
            ["verify", "--suite", "kary", "--kmax", "3", "--nmax", "4", "--full-report"],
            ["bijection", "--composition", "2:2+1:1"],
            ["bijection", "--word-to-tiling", "232321"],
            ["oeis-check", "--id", "A007070", "--bfile", "b.txt", "--length", "4"],
            # parsed by argparse: an abbreviated flag and a negative number
            ["verify", "--suite", "gap", "--nm", "3", "--full"],
            ["avoid", "--k", "-4", "--s", "2", "--n", "0..5"],
        ]
        fresh = cli.build_parser()
        expected = [vars(fresh.parse_args(argv)) for argv in argvs] * 20
        # a namespace read off the option table lacks only the command name
        unnamed = [{k: v for k, v in args.items() if k != "command"} for args in expected]
        shared = cli._parser()

        def parse_all(worker):
            # parses on the shared parser interleaved with `_parse`
            return [(vars(shared.parse_args(argv)),
                     {k: v for k, v in vars(cli._parse(argv)).items() if k != "command"})
                    for _ in range(20) for argv in argvs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = [f.result(timeout=60)
                           for f in [pool.submit(parse_all, i) for i in range(4)]]
        finally:
            sys.setswitchinterval(interval)
        assert results == [list(zip(expected, unnamed))] * 4


class TestOneParse:
    """A well-formed request is parsed once, off the option table, without
    argparse.  Any other argv is parsed once, by the top-level parser."""

    @pytest.mark.parametrize("argv", [
        ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "0..4", "--q", "1/3"],
        ["totals", "--partitions", "--s", "2", "--n", "4"],
        ["verify", "--suite", "algebra", "--nmax", "2"],
        ["bijection", "--v-to-w", "113"],
        pytest.param(["dist", "--q=-3/5", "--n=0..4", "--verify", "--stat", "nu", "--k", "3",
                      "--s=1", "--cap", "40", "--format", "csv", "--out", ""],
                     id="dist, every option"),
        pytest.param(["totals", "--words", "--k", "3", "--s", "1", "--n", "2..8"],
                     id="totals --words"),
        ["avoid", "--k", "4", "--s", "2", "--n", "0..5", "--out=rows.json"],
        ["partition-dist", "--n", "4..7", "--k", "3", "--s", "2", "--q", "7/3",
         "--cap", "100"],
        ["gap", "--r", "2", "--k", "2", "--s", "1", "--n", "3"],
        pytest.param(["verify", "--suite", "kary", "--kmax", "3", "--nmax", "4", "--smax",
                      "2", "--full-report"], id="verify, every option"),
        pytest.param(["bijection", "--composition", "2:2+1:1", "--format", "csv"],
                     id="bijection --composition"),
        ["oeis-check", "--id", "A007070", "--bfile", "b.txt", "--shift", "1", "--length",
         "4", "--generator", "avoid-step2-alphabet4"],
    ], ids=lambda argv: argv[0])
    def test_a_known_subcommand_is_parsed_once(self, monkeypatch, parses, argv):
        full = cli.build_parser().parse_args(argv)
        del parses[:]

        def no_parser():
            raise AssertionError("a parser was built")

        monkeypatch.setattr(cli, "build_parser", no_parser)
        cli._parser.cache_clear()
        try:
            args = cli._parse(argv)
        finally:
            cli._parser.cache_clear()
        assert parses == []
        assert vars(args) == {k: v for k, v in vars(full).items() if k != "command"}

    @pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"], ["--", "dist"],
                                      ["--bogus"]],
                             ids=lambda argv: " ".join(argv) or "empty")
    def test_any_other_argv_reaches_the_top_level_parser(self, capsys, parses, argv):
        with pytest.raises(SystemExit) as exc:
            cli._parse(argv)
        assert exc.value.code == (0 if argv == ["-h"] else 2)
        assert parses == [cli._parser()]
        captured = capsys.readouterr()
        assert (captured.out + captured.err).startswith(cli._parser().format_usage())

    @pytest.mark.parametrize("tail, left", [
        (["extra"], "extra"),
        (["--", "x"], "-- x"),
        (["x", "--", "-y"], "x -- -y"),
    ])
    def test_leftover_tokens_are_a_top_level_usage_error(self, capsys, parses, tail, left):
        argv = ["avoid", "--k", "4", "--s", "2", "--n", "3", *tail]
        with pytest.raises(SystemExit) as exc:
            cli._parse(argv)
        assert exc.value.code == 2 and parses.count(cli._parser()) == 1
        err = capsys.readouterr().err
        assert err.startswith(cli._parser().format_usage())
        assert err.endswith(f"\nadjstats: error: unrecognized arguments: {left}\n")

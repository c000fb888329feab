"""Batch command-line front end.

Subcommands: dist, totals, avoid, partition-dist, gap, verify, bijection,
oeis-check.  Output is JSON (default) or CSV with identical numeric
content; polynomials serialize as ascending coefficient arrays with an
explicit variable label, and every big integer is a decimal string so no
consumer can overflow.  Exit codes: 0 pass, 1 check failure, 2 usage
error.

Each `_cmd_*` returns (payload, failed).  `main` writes the payload and
exits 1 when a check failed; a command reports bad input by raising
ValueError, which `main` writes as one `error: ` line and exits 2.  A
library self-check that trips is one `internal check failed: ` line and
exit 1, with nothing on stdout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from . import absdiff, bijections, kary, oeis, oracle, partitions, verify
from .algebra import InternalInvariantViolation, QPoly, _decimal, _expansion

# the most cells a `bijection --composition` may total: its move list and
# JSON grow with the total, which an argv of a few bytes can make huge
_MAX_COMPOSITION_CELLS = 10**6

# the longest length `--n` may ask for: a table is filled up to its longest
# length, and its memory and time grow faster than the square of it
_MAX_LENGTH = 1000


def _parse_rational(text: str) -> Fraction:
    # `Fraction` builds 10**e for an exponent before any check, so a few
    # bytes of "1e999999999" would ask for an integer of hundreds of MB
    if "e" not in text and "E" not in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        out = range(int(lo), int(hi) + 1)
    else:
        out = range(int(text), int(text) + 1)
    if not out:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    if out[0] < 0:
        raise argparse.ArgumentTypeError(f"lengths must be >= 0: {text!r}")
    if out[-1] > _MAX_LENGTH:
        raise argparse.ArgumentTypeError(f"lengths must be <= {_MAX_LENGTH}: {text!r}")
    return out


def _nonnegative(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return int(text)


def _parse_word(text: str) -> tuple[int, ...]:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"words are digit strings, got {text!r}")
    return tuple(int(c) for c in text)


def _parse_pieces(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"piece lengths are comma-separated integers, got {text!r}") from None


def _parse_composition(text: str) -> tuple:
    """Parse 'size:c1,c2+size:c1' into parts for ColoredComposition to check."""
    parts = []
    try:
        for chunk in text.split("+"):
            size_text, _, colors_text = chunk.partition(":")
            colors = frozenset(int(c) for c in colors_text.split(",") if c)
            parts.append((int(size_text), colors))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"colored compositions are written size:c1,c2+size:c1, got {text!r}") from None
    return tuple(parts)


def _word_text(word) -> str:
    return "".join(map(str, word))


def _poly_json(poly: QPoly) -> dict:
    return {"var": "q", "coeffs": _decimal(poly.coeffs) or ["0"]}


def _flatten(value):
    # a polynomial is its coefficients and a flat list its items, joined by
    # ";"; any other dict or nested list is compact JSON
    if isinstance(value, dict) and set(value) == {"var", "coeffs"}:
        return ";".join(value["coeffs"])
    if isinstance(value, (list, tuple)) and not any(
            isinstance(v, (dict, list, tuple)) for v in value):
        return ";".join(str(v) for v in value)
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value


_encode = json.encoder.encode_basestring_ascii


def _json_text(payload) -> str:
    """`json.dumps(payload, indent=2)`, byte for byte.

    With an indent, `json` encodes in pure Python one item at a time; here
    the text is built in one list of chunks, joined once, and a list of
    strings -- every coefficient array -- is encoded by one join."""
    chunks = []
    _json_chunks(payload, "\n", chunks)
    return "".join(chunks)


def _json_chunks(value, newline: str, chunks: list) -> None:
    """Append `value`'s JSON to `chunks`, where `newline` is a line break
    and the indent of the line `value` starts on.  A payload holds only
    dicts with str keys, lists, str, int, bool and None; any other type
    raises TypeError.  Types are matched exactly, except that a str
    subclass passes as a key or as an item of a list of strings."""
    kind = type(value)
    if kind is str:
        chunks.append(_encode(value))
    elif kind is int:
        chunks.append(int.__repr__(value))
    elif kind is bool:
        chunks.append("true" if value else "false")
    elif value is None:
        chunks.append("null")
    elif kind is dict:
        inner = newline + "  "
        lead = "{" + inner
        for key, item in value.items():  # `_encode` refuses a key that is not a str
            chunks.append(lead + _encode(key) + ": ")
            _json_chunks(item, inner, chunks)
            lead = "," + inner
        chunks.append(newline + "}" if value else "{}")
    elif kind is list:
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        try:  # a TypeError names an item that is not a str
            chunks.append("[" + inner + ("," + inner).join(map(_encode, value))
                          + newline + "]")
        except TypeError:
            lead = "[" + inner
            for item in value:
                chunks.append(lead)
                _json_chunks(item, inner, chunks)
                lead = "," + inner
            chunks.append(newline + "]")
    else:
        raise TypeError(f"no JSON form for {kind.__name__}")


def _csv_text(payload: dict) -> str:
    """The payload's rows as CSV, one column per key in the order keys
    first appear; a row without a key leaves its cell empty."""
    # a payload without rows is one row of its top-level fields
    rows = payload["rows"] if "rows" in payload else [payload]
    if not rows:
        return ""
    buf = io.StringIO()
    # a row whose check the cap skipped has other keys: take every key
    fields = list(dict.fromkeys(key for row in rows for key in row))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([_flatten(row.get(key, "")) for key in fields] for row in rows)
    return buf.getvalue()


def _emit(payload: dict, fmt: str, out_path) -> None:
    text = _json_text(payload) + "\n" if fmt == "json" else _csv_text(payload)
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _cmd_dist(args):
    # one table, and at most one stored closed-form expansion, at the longest
    # length; the closed form checks every row, the oracle those within --cap
    top = args.n[-1]
    closed = None
    if args.stat == "mu":
        params = kary.KSParams(args.k, args.s)
        dists = kary.a_table(params, top)
        oracle_dist = oracle.distribution_mu
        if args.verify:
            closed = _expansion(kary.gf_A, (params,), top)
    else:
        dists = absdiff.b_table(args.k, args.s, top)
        oracle_dist = oracle.distribution_nu
        if args.verify and absdiff.regime(args.k, args.s) == "small":
            closed = _expansion(absdiff.gf_B_small, (args.k, args.s), top)
    rows = []
    for n in args.n:
        dist = dists[n]
        row = {"n": n, "dist": _poly_json(dist)}
        if args.q is not None:
            [row["value"]] = _decimal([dist(args.q)])
        if args.verify:
            try:
                reference = oracle_dist(args.k, args.s, n, args.cap)
            except oracle.EnumerationTooLarge as exc:
                row["warning"] = f"oracle skipped: {exc}"
            else:
                row["oracle_agrees"] = dist == reference
            if closed is not None:
                row["closed_form_agrees"] = dist == closed[n]
        rows.append(row)
    failed = not all(r.get(key, True) for r in rows
                     for key in ("oracle_agrees", "closed_form_agrees"))
    return {"command": "dist", "stat": args.stat, "k": args.k, "s": args.s,
            "rows": rows}, failed


def _cmd_totals(args):
    if args.family == "partitions" and args.k is None:
        values = partitions._grand_totals(args.n, args.s)
    elif args.family == "partitions":
        values = partitions._block_totals(args.n, args.k, args.s)
    elif args.k is None:
        raise ValueError("totals --words needs --k")
    else:
        params = kary.KSParams(args.k, args.s)
        values = [kary.total_occurrences(params, n) for n in args.n]
    rows = [{"n": n, "total": text} for n, text in zip(args.n, _decimal(values))]
    return {"command": "totals", "family": args.family, "k": args.k, "s": args.s,
            "rows": rows}, False


def _cmd_avoid(args):
    values = kary.avoid_count(kary.KSParams(args.k, args.s), args.n[-1])
    counts = _decimal([values[n] for n in args.n])
    rows = [{"n": n, "count": text} for n, text in zip(args.n, counts)]
    return {"command": "avoid", "k": args.k, "s": args.s, "rows": rows}, False


def _cmd_partition_dist(args):
    if args.s < 1:
        raise ValueError("need s >= 1")
    rows = []
    for n in args.n:
        try:
            dist = partitions.p_dist_oracle(n, args.k, args.s, args.cap)
        except oracle.EnumerationTooLarge as exc:
            rows.append({"n": n, "warning": f"skipped: {exc}"})
            continue
        row = {"n": n, "dist": _poly_json(dist)}
        if args.q is not None:
            [row["value"]] = _decimal([dist(args.q)])
        rows.append(row)
    return {"command": "partition-dist", "k": args.k, "s": args.s, "rows": rows}, False


def _cmd_gap(args):
    params = kary.KSParams(args.k, args.s)
    rows = [{"n": n, "dist": _poly_json(kary.gap_distribution(params, args.r, n))}
            for n in args.n]
    return {"command": "gap", "k": args.k, "s": args.s, "r": args.r, "rows": rows}, False


def _cmd_verify(args):
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    checks = verify.run_suites(names, kmax=args.kmax, nmax=args.nmax, smax=args.smax)
    failed = [c for c in checks if not c.passed]
    if args.format == "csv":  # the rows carry no totals
        print(f"checks: {len(checks)}, failed: {len(failed)}", file=sys.stderr)
    return {
        "command": "verify",
        "suites": names,
        "checks": len(checks),
        "failed": len(failed),
        "rows": [c.to_dict() for c in (checks if args.full_report else failed)],
    }, bool(failed)


def _cmd_bijection(args):
    # (option, map name, function, input shown, output shown), built per call
    # so that a function rebound on `bijections` is the one called
    maps = (
        ("v_to_w", "v-to-w", bijections.v_to_w, _word_text, _word_text),
        ("w_to_v", "w-to-v", bijections.w_to_v, _word_text, _word_text),
        ("word_to_tiling", "word-to-tiling", bijections.jpp_to_tiling, _word_text,
         lambda tiling: ["square" if p == 1 else "domino" for p in tiling]),
        ("tiling_to_word", "tiling-to-word", bijections.tiling_to_jpp, list, _word_text),
    )
    for option, name, fn, shown_in, shown_out in maps:
        value = getattr(args, option)
        if value is not None:
            return {"command": "bijection", "map": name, "input": shown_in(value),
                    "output": shown_out(fn(value))}, False
    comp = bijections.ColoredComposition(args.composition)
    if comp.total > _MAX_COMPOSITION_CELLS:
        raise ValueError(f"a composition may total at most {_MAX_COMPOSITION_CELLS} "
                         f"cells, got {comp.total}")
    moves = bijections.composition_to_maneuvers(comp)
    v_word = bijections.maneuvers_to_v_word(moves)
    return {
        "command": "bijection",
        "map": "composition-chain",
        "composition": [
            {"size": size, "colored": sorted(colored)} for size, colored in comp.parts
        ],
        "maneuvers": list(moves),
        "v_word": _word_text(v_word),
        "w_word": _word_text(bijections.v_to_w(v_word)),
    }, False


def _cmd_oeis_check(args):
    if args.generator is not None:
        base = oeis.CheckSpec(args.id, args.generator)
    elif args.id in oeis.DEFAULT_CHECKS:
        base = oeis.DEFAULT_CHECKS[args.id]
    else:
        raise ValueError(f"no registered generator for {args.id}; pass --generator")
    spec = oeis.CheckSpec(base.sequence_id, base.generator,
                          base.shift if args.shift is None else args.shift,
                          base.length if args.length is None else args.length)
    try:
        with open(args.bfile) as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read b-file: {exc}") from None
    report = oeis.reconcile(spec, oeis.parse_bfile(text))
    return {"command": "oeis-check", **report}, not report["passed"]


class _Option:
    """One option of a subcommand.  An option with a `const` is a flag that
    takes no value and stores the const; any other takes one value, which
    `type` converts and `choices` then limits.  Members of a `group` are
    mutually exclusive, and exactly one of them must be given."""

    __slots__ = ("flag", "dest", "type", "choices", "default", "required", "help",
                 "group", "const")

    def __init__(self, flag, type=None, *, choices=None, default=None, required=False,
                 help=None, group=None, dest=None, const=None):
        self.flag, self.dest = flag, dest or flag[2:].replace("-", "_")
        self.type, self.choices, self.default = type, choices, default
        self.required, self.help, self.group, self.const = required, help, group, const


class _Command:
    """One subcommand: its help line, its `_cmd_*` function and its options,
    in the order its help lists them."""

    __slots__ = ("help", "fn", "options", "required", "groups", "defaults")

    def __init__(self, help, fn, *options):
        options += (
            _Option("--format", choices=("json", "csv"), default="json"),
            _Option("--out", help="write output to a file"),
        )
        self.help, self.fn = help, fn
        self.options = {option.flag: option for option in options}
        self.required = frozenset(o.flag for o in options if o.required)
        self.groups = [frozenset(o.flag for o in options if o.group == group)
                       for group in dict.fromkeys(o.group for o in options if o.group)]
        # the namespace of a request that gives no option; the first option
        # of a shared dest sets its default, as in argparse
        self.defaults = {}
        for option in options:
            self.defaults.setdefault(option.dest, option.default)
        self.defaults["fn"] = fn


# the grammar of the command line, which both `build_parser` and `_read` use
_COMMANDS = {
    "dist": _Command(
        "distribution of the rise/jump count", _cmd_dist,
        _Option("--stat", choices=("mu", "nu"), required=True,
                help="mu: signed rise by s; nu: jump of absolute size s"),
        _Option("--k", int, required=True),
        _Option("--s", int, required=True),
        _Option("--n", _parse_range, required=True, help="length or a..b"),
        _Option("--q", _parse_rational,
                help="also evaluate at this exact rational, e.g. 7/3; "
                "write a negative one as --q=-3/5"),
        _Option("--verify", const=True, default=False,
                help="cross-check against enumeration and closed forms"),
        _Option("--cap", _nonnegative, default=oracle.DEFAULT_CAP),
    ),
    "totals": _Command(
        "summed statistic over a whole family", _cmd_totals,
        _Option("--words", group="family", dest="family", const="words"),
        _Option("--partitions", group="family", dest="family", const="partitions"),
        _Option("--k", int, help="alphabet size (words) or block count (partitions)"),
        _Option("--s", int, required=True),
        _Option("--n", _parse_range, required=True),
    ),
    "avoid": _Command(
        "words with no rise by s", _cmd_avoid,
        _Option("--k", int, required=True),
        _Option("--s", int, required=True),
        _Option("--n", _parse_range, required=True),
    ),
    "partition-dist": _Command(
        "distribution of (a, a+s) on k-block partitions", _cmd_partition_dist,
        _Option("--n", _parse_range, required=True),
        _Option("--k", _nonnegative, required=True),
        _Option("--s", int, required=True),
        _Option("--q", _parse_rational),
        _Option("--cap", _nonnegative, default=oracle.DEFAULT_CAP),
    ),
    "gap": _Command(
        "distribution of w[i+r] - w[i] = s counts", _cmd_gap,
        _Option("--k", int, required=True),
        _Option("--s", int, required=True),
        _Option("--r", int, required=True),
        _Option("--n", _parse_range, required=True),
    ),
    "verify": _Command(
        "run a cross-validation suite", _cmd_verify,
        _Option("--suite", choices=sorted(verify.SUITES) + ["all"], required=True),
        _Option("--kmax", _nonnegative),
        _Option("--nmax", _nonnegative),
        _Option("--smax", _nonnegative),
        _Option("--full-report", const=True, default=False,
                help="list every check, not only failures"),
    ),
    "bijection": _Command(
        "apply one of the explicit bijections", _cmd_bijection,
        _Option("--v-to-w", _parse_word, group="map",
                help="rewrite a word avoiding 2-4/3-4, e.g. 113"),
        _Option("--w-to-v", _parse_word, group="map"),
        _Option("--word-to-tiling", _parse_word, group="map"),
        _Option("--tiling-to-word", _parse_pieces, group="map",
                help="comma-separated piece lengths, e.g. 1,2,1"),
        _Option("--composition", _parse_composition, group="map",
                help="colored composition 'size:c1,c2+size:c1'; prints "
                "the full chain down to the 1-3/2-4 avoider"),
    ),
    "oeis-check": _Command(
        "reconcile a computed sequence against a local OEIS b-file", _cmd_oeis_check,
        _Option("--id", required=True),
        _Option("--bfile", required=True),
        _Option("--shift", int),
        _Option("--length", int),
        _Option("--generator", choices=sorted(oeis.GENERATORS)),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjstats",
        description="Exact adjacency-difference statistics on k-ary words "
        "and set partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        groups = {}
        for option in command.options.values():
            target = p
            if option.group is not None:
                if option.group not in groups:
                    groups[option.group] = p.add_mutually_exclusive_group(required=True)
                target = groups[option.group]
            if option.const is None:
                kind = {"type": option.type, "choices": option.choices}
            else:
                kind = {"action": "store_const", "const": option.const}
            target.add_argument(option.flag, dest=option.dest, default=option.default,
                                required=option.required, help=option.help, **kind)
        p.set_defaults(fn=command.fn)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: built on the first request that
    `_read` hands on, not at import, and shared by every later one.
    Parsing leaves no state on it or on its subcommand parsers."""
    return build_parser()


def _read(argv: list):
    """The namespace of a well-formed request, read straight off its
    subcommand's option table, or None for any argv that argparse must see.

    Well-formed means: a subcommand's name, then options each given once by
    its exact flag, a flag alone, `--flag value` or `--flag=value`, where a
    separate value does not start with "-" and no `=` value is "--"; every
    value passes its type and choices, every required option is given and
    each group has exactly one member.  Help, an abbreviated flag, a
    negative number and every usage error fall outside it."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options, args, given = command.options, dict(command.defaults), set()
    tokens = iter(argv[1:])
    for token in tokens:
        flag, sep, text = token.partition("=")
        option = options.get(flag)
        if option is None or flag in given:
            return None
        given.add(flag)
        if option.const is not None:
            if sep:
                return None
            args[option.dest] = option.const
            continue
        if not sep:
            text = next(tokens, "-")  # a missing value reads as one starting "-"
            if text.startswith("-"):
                return None
        elif text == "--":
            return None
        value = text
        if option.type is not None:
            try:
                value = option.type(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if option.choices is not None and value not in option.choices:
            return None
        args[option.dest] = value
    if not command.required <= given:
        return None
    for group in command.groups:
        if len(group & given) != 1:
            return None
    namespace = argparse.Namespace()
    vars(namespace).update(args)  # Namespace(**args) without a setattr per name
    return namespace


def _parse(argv: list) -> argparse.Namespace:
    """Parse argv as the top-level parser would: a well-formed request off
    the option table, and any other argv by that parser."""
    args = _read(argv)
    if args is not None:
        return args
    parser = _parser()
    for token in argv:
        flag, sep, value = token.partition("=")
        if flag.startswith("-") and sep and value == "--":
            # Python 3.11's argparse drops an explicit "--" value and stores []
            # without calling the option's type or checking its choices
            parser.error(f"argument {flag}: expected one argument")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        payload, failed = args.fn(args)
        _emit(payload, args.format, args.out)
    except oracle.EnumerationTooLarge as exc:
        print(f"enumeration too large: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantViolation as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

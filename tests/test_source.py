"""Checks on the package source itself."""

import ast
import copy
import inspect
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "adjstats").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _names_read(tree):
    """Every identifier a tree mentions outside a definition's own name:
    plain names, attribute names and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def _exported(tree):
    """The strings listed in a module-level `__all__`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_invariant_rests_on_assert():
    """`python -O` strips `assert`, so an invariant must raise instead."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/adjstats: {', '.join(found)}"


def test_no_unused_import():
    """Every name a module imports is read there or listed in its `__all__`."""
    found = []
    for path in SOURCES:
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(a.asname or a.name, node.lineno) for a in node.names]
            else:
                continue
            found += [f"{path.name}:{line} {name}" for name, line in bound if name not in used]
    assert not found, f"unused imports in src/adjstats: {', '.join(found)}"


def test_every_definition_is_referenced():
    """Every module-level function and class in src/adjstats is named
    somewhere in src/ or tests/ besides its own definition."""
    mentions = Counter()
    for path in SOURCES + TESTS:
        mentions.update(_names_read(_parse(path)))
    found = []
    for path in SOURCES:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = sum(1 for name in _names_read(node) if name == node.name)
                if mentions[node.name] <= own:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, f"definitions named nowhere else: {', '.join(found)}"


def test_verify_records_a_failing_route_one_way():
    """verify.py handles exceptions in two places only: the recorder's
    route, which fails a check when a route's own check trips, and the LU
    sample, which draws a new point when the one it drew is degenerate."""
    tree = _parse(ROOT / "src" / "adjstats" / "verify.py")
    handlers = sorted((fn.name, ast.unparse(handler.type) if handler.type else "")
                      for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      for handler in ast.walk(fn) if isinstance(handler, ast.ExceptHandler))
    assert handlers == [
        ("route", "(InternalInvariantViolation, bijections.InvalidComposition, "
                  "bijections.InvalidSequence, bijections.InvalidWord)"),
        ("suite_absdiff", "absdiff.DegeneratePoint"),
    ]
    assert sum(isinstance(node, ast.Try) for node in ast.walk(tree)) == 2


def test_only_the_oracle_names_its_tally():
    """A tally's format belongs to `oracle`: no other module imports or
    reads its `_tally`, `_count` or `_read`, so every read of a tally,
    a family's size included, goes through `_marginal` and its check."""
    private = {"_tally", "_count", "_read"}
    found = []
    for path in SOURCES:
        if path.name == "oracle.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.module == "oracle":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "oracle":
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in private]
    assert not found, f"tally internals named outside oracle.py: {', '.join(found)}"


def test_cli_uses_public_argparse_api_only():
    """`build_parser` builds the parser and `_parse` runs it through
    argparse's public methods alone: cli.py names no private argparse
    member, and every attribute it assigns is one of its own classes'
    fields, so it sets none on a parser or a namespace."""
    tree = _parse(ROOT / "src" / "adjstats" / "cli.py")
    private = {"_actions", "_SubParsersAction", "_subparsers", "_option_string_actions"}
    found = sorted(private & set(_names_read(tree)))
    assert not found, f"src/adjstats/cli.py names private argparse members: {found}"
    stores = [node for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
    assert stores and all(ast.unparse(node.value) == "self" for node in stores), (
        [ast.unparse(node) for node in stores])
    assert "setattr" not in set(_names_read(tree))


def test_cli_json_writer_calls_no_json_dumps():
    """The JSON writer writes every payload itself; `json.dumps` writes
    only the compact JSON of a nested CSV cell."""
    tree = _parse(ROOT / "src" / "adjstats" / "cli.py")
    callers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Attribute)
               and node.attr == "dumps"}
    assert callers == {"_flatten"}


def test_cli_public_functions_are_main_and_build_parser():
    """The benchmark's tracer wraps or lists each public function of a
    traced module by name, so a new one in `adjstats.cli` fails the
    benchmark's own tests; helpers there stay private."""
    from adjstats import cli

    public = {name for name, obj in vars(cli).items()
              if not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
              and getattr(obj, "__module__", None) == cli.__name__}
    assert public == {"main", "build_parser"}


# Unbounded stores that bounding the store (ROADMAP item 7) is to replace
UNBOUNDED_CACHES = {"oracle._tally", "oracle._marginal"}


def _bound(node):
    """For a node that names or calls `lru_cache` or `cache`: its literal
    maxsize, or None if it has no finite literal one.  False for any other
    node."""
    called = isinstance(node, ast.Call)
    name = ast.unparse(node.func if called else node).split(".")[-1]
    if name not in ("lru_cache", "cache"):
        return False
    if name == "cache" or not called:
        return None
    sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
    size = sizes[0] if sizes else None
    finite = (isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0)
    return size.value if finite else None


def test_every_cache_has_a_finite_literal_bound():
    """A memoised function in src/adjstats names its `lru_cache` maxsize
    as a positive int literal, and so does a cache made outside a
    decorator; only the stores listed above are open."""
    assert _bound(ast.parse("@lru_cache(maxsize=8)\ndef f(): pass").body[0].decorator_list[0]) == 8
    found = set()
    for path in SOURCES:
        tree = _parse(path)
        decorators, callees = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators.update((id(d), f"{path.stem}.{node.name}") for d in node.decorator_list)
            elif isinstance(node, ast.Call):
                callees.add(id(node.func))
        for node in ast.walk(tree):
            # a name that is called is judged with its call's arguments
            if (isinstance(node, ast.Call) or isinstance(node, (ast.Name, ast.Attribute))
                    and id(node) not in callees) and _bound(node) is None:
                found.add(decorators.get(id(node), f"{path.name}:{node.lineno}"))
    assert found <= UNBOUNDED_CACHES, f"unbounded caches: {sorted(found - UNBOUNDED_CACHES)}"


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Each console-script call is one process, so `import adjstats.cli`
    is paid per call; no request needs `dataclasses` or `inspect`, which
    together took most of that import."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import adjstats.cli; "
             "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-I", "-c", probe, str(ROOT / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n", f"import adjstats.cli loaded {out.strip()}"


def test_record_classes_are_values():
    """The package's record classes compare, hash and show their fields in
    order; the frozen ones refuse assignment, and the constructors keep
    their checks."""
    from adjstats import bijections, kary, oeis, verify

    comp = bijections.ColoredComposition
    frozen = [
        (kary.KSParams(3, 1), kary.KSParams(k=3, s=1), kary.KSParams(3, 2), "k"),
        (comp(((1, frozenset({1})),)), comp(((1, frozenset({1})),)),
         comp(((2, frozenset({2})),)), "parts"),
        (oeis.CheckSpec("A1", "g"), oeis.CheckSpec("A1", "g", 0, length=20),
         oeis.CheckSpec("A1", "g", shift=1), "shift"),
    ]
    for one, same, other, field in frozen:
        assert one == same and hash(one) == hash(same) and one != other
        with pytest.raises(AttributeError):
            setattr(one, field, getattr(other, field))
        assert one == same
        assert copy.deepcopy(one) == pickle.loads(pickle.dumps(one)) == one
    assert kary.KSParams(3, 1) != (3, 1) and kary.KSParams(3, 1).rem == 1
    assert len({kary.KSParams(3, 1), kary.KSParams(3, 1), kary.KSParams(1, 3)}) == 2
    assert repr(kary.KSParams(5, 2)) == "KSParams(k=5, s=2)"
    assert repr(oeis.CheckSpec("A1", "g")) == (
        "CheckSpec(sequence_id='A1', generator='g', shift=0, length=20)")
    assert repr(comp(((1, frozenset({1})),))) == "ColoredComposition(parts=((1, frozenset({1})),))"
    for make, message in [(lambda: kary.KSParams(0, 1), "need k >= 1 and s >= 1"),
                          (lambda: kary.KSParams(2, 0), "need k >= 1 and s >= 1"),
                          (lambda: oeis.CheckSpec("A1", "g", length=0),
                           "compare length must be >= 1")]:
        with pytest.raises(ValueError) as caught:
            make()
        assert str(caught.value) == message

    check = verify.Check("kary", "a check", {"k": 3}, True)
    assert check == verify.Check("kary", "a check", {"k": 3}, True, "")
    assert check != verify.Check("kary", "a check", {"k": 3}, False)
    assert repr(check) == ("Check(suite='kary', name='a check', params={'k': 3}, "
                           "passed=True, detail='')")
    row = check.to_dict()
    assert list(row) == ["suite", "name", "params", "passed", "detail"]
    row["params"]["k"] = 4
    assert check.params == {"k": 3}
    check.detail = "changed"
    assert check.to_dict()["detail"] == "changed"

    with pytest.raises(TypeError):
        hash(check)

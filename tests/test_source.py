"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

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


def test_cli_uses_public_argparse_api_only():
    """`main` hands a request to its subcommand's parser through what
    `add_subparsers` returns, not through argparse's private members."""
    private = {"_actions", "_SubParsersAction", "_subparsers", "_option_string_actions"}
    found = sorted(private & set(_names_read(_parse(ROOT / "src" / "adjstats" / "cli.py"))))
    assert not found, f"src/adjstats/cli.py names private argparse members: {found}"


# Unbounded stores that bounding the store (ROADMAP item 6) is to replace
UNBOUNDED_CACHES = {"oracle._tally", "oracle._marginal", "cli._parser"}


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

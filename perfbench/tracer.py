"""Outside-in tracing of adjstats: wrappers around each module's public
functions and the ring operations of its polynomial classes, installed
from the benchmark's own files.  adjstats itself is not edited.

Every wrapped call records a span (name, start, end, self time, parent
span, request id).  Self time is a span's duration minus the time spent
in wrapped calls made inside it.  Spans stay in memory until
`write_spans`; counters are kept as the calls happen.

Rules the wrappers keep (tests/test_tracer.py checks each):

  * arguments are forwarded exactly as received, so `lru_cache` keys --
    and the duplicate enumeration a positional `cap` causes -- are
    unchanged;
  * a wrapper replaces its function under every name it is bound to in
    any adjstats module, in the `oeis.GENERATORS` and `verify.SUITES`
    registries, and on the polynomial classes, so lookups that happen at
    call time find it;
  * a generator is timed across every `next`, not at the call that
    creates it.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

# module -> group -> public function names.  A group's metrics are named
# "<module>.<group>.*"; a group equal to the module name is the whole module.
# Spans are named "<module>.<group>.<function>", so every metric of a
# group is a sum over the span names it prefixes.
FUNCTIONS = {
    "algebra": {
        "det": ["det_exact"],
        # series_expand only calls RatFunc.series, which is counted there
        "other": ["series_expand", "specialize_q", "chebyshev_u", "chebyshev_u_list",
                  "alt_cheb_sum", "alt_cheb_sum_closed", "mat_mul"],
    },
    "kary": {
        "table": ["a_table"],
        "avoid": ["avoid_count"],
        "closed": ["gf_A", "gf_A_reduced", "gf_denominator", "a_rec_alt", "total_occurrences"],
        "other": ["gap_distribution", "unit_column_det", "unit_column_matrix",
                  "shift_band_matrix"],
    },
    "absdiff": {
        "table": ["b_table"],
        "closed": ["regime", "gf_B_small", "b_closed_chebyshev", "chebyshev_closed_at_square",
                   "h_sum_squared", "h_sum_triple", "gf_B_large", "band_matrix", "lu_factors",
                   "lu_verify"],
    },
    "fibwords": {
        "fibwords": ["fib_list", "lucas_list", "j_dist_dp", "gf_f", "gf_descent",
                     "gf_descent_substituted", "totals", "lucas_identity_holds"],
    },
    "oracle": {
        "oracle": ["distribution_mu", "distribution_nu", "distribution_gap", "joint_lev_asc",
                   "joint_lev_des", "count_avoiders", "total_mu_oracle"],
    },
    "partitions": {
        "rgf": ["enumerate_rgf"],
        "closed": ["bell_list", "stirling_table", "gf_P", "total_pnk", "q_total", "gf_P_s1",
                   "gf_P_s1_reference"],
        "scan": ["p_dist_oracle", "p_total_all_oracle"],
    },
    "bijections": {
        "family": ["colored_compositions", "v_words", "w_words", "jpp_words", "tilings"],
        "map": ["composition_to_maneuvers", "maneuvers_to_composition", "maneuvers_to_v_word",
                "v_to_w", "w_to_v", "jpp_to_tiling", "tiling_to_jpp"],
    },
    "oeis": {
        "other": ["step_up_avoiders", "step_up_antidiagonals", "parse_bfile", "render_bfile",
                  "reconcile"],
    },
    "verify": {
        "other": ["run_suites"],
    },
    "cli": {
        "cli": ["main"],
    },
}

# Public functions deliberately left unwrapped: per-word helpers whose
# time belongs to the scan that calls them, the word stream that the
# oracle and the bijection families build on, and the parser, which is
# part of the cli layer's own time.
UNWRAPPED = {
    "oracle": ["words", "stat_bundle", "ternary_no_13_words"],
    "bijections": ["is_v_word", "is_w_word", "is_level_free_no13_start2"],
    "cli": ["build_parser"],
}

# Ring operations on the polynomial classes: method name -> group.
METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__mul__": "mul", "__rmul__": "mul",
    "__pow__": "other", "__truediv__": "other", "__rtruediv__": "other",
    "series": "series", "scale_x": "other",
}
CLASSES = ("QPoly", "PQPoly", "XPoly", "RatFunc")

GENERATOR_GROUPS = {"partitions.rgf", "bijections.family"}

# Alphabet size of the words each filtering family generator scans.
FAMILY_ALPHABET = {"v_words": 4, "w_words": 4, "jpp_words": 3}


class Tracer:
    """Spans and counters for one traced process.  `install` wraps the
    adjstats modules in place; `uninstall` puts every original back."""

    def __init__(self):
        self.request = -1
        self.counts: dict[str, float] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # frames: [child time, span id, parent span id(, generator name id)]
        self._stack: list[list] = []
        self._next_id = 0
        # one entry per finished span, in order of finishing
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self._undo: list = []
        self._oracle_seen: set = set()

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self):
        span = self._next_id
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else -1
        frame = [0.0, span, parent]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, name_id, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][0] += dur
        self._record(frame[1], frame[2], name_id, self.request, t0, t1, dur - frame[0])
        return dur, dur - frame[0]

    def _record(self, span, parent, name_id, request, t0, t1, self_time):
        self.span_id.append(span)
        self.span_parent.append(parent)
        self.span_name.append(name_id)
        self.span_request.append(request)
        self.span_start.append(t0)
        self.span_end.append(t1)
        self.span_self.append(self_time)

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers ------------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        """A function that calls `fn` with the same arguments and records
        a span called `name`.  `hook(args, kwargs, result, error, self_s,
        total_s)` sees every call and updates counters."""
        name_id = self._name_id(name)
        enter, leave, clock = self._enter, self._leave, time.perf_counter

        if hook is None:
            def wrapper(*args, **kwargs):
                frame = enter()
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame, name_id, t0, clock())
        else:
            def wrapper(*args, **kwargs):
                frame = enter()
                t0 = clock()
                result = error = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    total, own = leave(frame, name_id, t0, clock())
                    hook(args, kwargs, result, error, own, total)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def wrap_generator(self, fn, name: str, hook):
        """Like `wrap` for a function returning an iterator: the call is
        made at once, with the same arguments, and each `next` is timed
        into one span that lasts from the first `next` to the last.
        `hook(args, kwargs, items, outermost)` runs when the iterator is
        exhausted; `outermost` is false when the same function is
        iterating it (a recursive generator)."""
        name_id = self._name_id(name)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            creator = tracer._stack[-1][1] if tracer._stack else -1
            return tracer._timed(inner, name_id, creator, lambda items, outer:
                                 hook(args, kwargs, items, outer), clock)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _timed(self, inner, name_id, parent, on_done, clock):
        stack = self._stack
        span = self._next_id
        self._next_id += 1
        request = self.request
        start = end = None
        own = 0.0
        items = 0
        outermost = True
        try:
            while True:
                frame = [0.0, span, parent, name_id]
                if start is None and stack and stack[-1][3:] == [name_id]:
                    outermost = False
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    if stack:
                        stack[-1][0] += dur
                    own += dur - frame[0]
                    start = t0 if start is None else start
                    end = t1
                items += 1
                yield item
        finally:
            if start is not None:
                self._record(span, parent, name_id, request, start, end, own)
            on_done(items, outermost)

    # -- installing ----------------------------------------------------

    def _rebind(self, modules, original, replacement) -> None:
        """Bind `replacement` wherever a module binds `original`."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((setattr, module, attr, original))

    def install(self, package) -> list[str]:
        """Wrap the adjstats modules in place; return the names listed in
        FUNCTIONS that the package no longer has."""
        import importlib

        mods = {name: importlib.import_module(f"{package.__name__}.{name}") for name in FUNCTIONS}
        everywhere = [m for key, m in sorted(sys.modules.items())
                      if (key == package.__name__ or key.startswith(package.__name__ + "."))
                      and m is not None]
        missing = []
        for mod_name, groups in FUNCTIONS.items():
            module = mods[mod_name]
            for group, names in groups.items():
                metric = mod_name if group == mod_name else f"{mod_name}.{group}"
                for fn_name in names:
                    original = getattr(module, fn_name, None)
                    if original is None:
                        missing.append(f"{mod_name}.{fn_name}")
                        continue
                    wrapped = self._wrapper_for(metric, fn_name, original)
                    self._rebind(everywhere, original, wrapped)

        verify = mods["verify"]
        for suite, original in list(verify.SUITES.items()):
            wrapped = self.wrap(original, f"verify.{suite}.{original.__name__}",
                                self._suite_hook(suite))
            self._rebind(everywhere, original, wrapped)
            verify.SUITES[suite] = wrapped
            self._undo.append((dict.__setitem__, verify.SUITES, suite, original))

        oeis = mods["oeis"]
        for key, original in list(oeis.GENERATORS.items()):
            wrapped = self.wrap(original, f"oeis.term.{key}", self._term_hook)
            oeis.GENERATORS[key] = wrapped
            self._undo.append((dict.__setitem__, oeis.GENERATORS, key, original))

        algebra = mods["algebra"]
        for cls_name in CLASSES:
            cls = getattr(algebra, cls_name, None)
            if cls is None:
                missing.append(f"algebra.{cls_name}")
                continue
            for method, group in METHODS.items():
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                hook = self._series_hook if group == "series" else None
                name = f"algebra.{group}.{cls_name}.{method}"
                setattr(cls, method, self.wrap(original, name, hook))
                self._undo.append((setattr, cls, method, original))
        return missing

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    def _wrapper_for(self, metric, fn_name, original):
        if metric in GENERATOR_GROUPS:
            return self.wrap_generator(original, f"{metric}.{fn_name}",
                                       self._family_hook(metric, fn_name))
        hook = {
            "kary.table": self._rows_hook("kary.table", 1),
            "absdiff.table": self._rows_hook("absdiff.table", 2),
            "oracle": self._oracle_hook(original),
        }.get(metric)
        return self.wrap(original, f"{metric}.{fn_name}", hook)

    # -- counters ------------------------------------------------------

    def _rows_hook(self, metric, position):
        def hook(args, kwargs, result, error, own, total):
            order = args[position] if len(args) > position else kwargs["order"]
            self.count(f"{metric}.rows_req", order)
        return hook

    def _series_hook(self, args, kwargs, result, error, own, total):
        order = args[1] if len(args) > 1 else kwargs["order"]
        self.count("algebra.series.terms", order + 1)

    def _oracle_hook(self, original):
        """Counts words over calls whose arguments other than `cap` are new
        in the process, and self time of calls whose key was seen before."""
        signature = inspect.signature(original)
        fn_name = getattr(original, "__name__", "oracle")

        def hook(args, kwargs, result, error, own, total):
            bound = signature.bind(*args, **kwargs).arguments
            if error is not None:
                if type(error).__name__ == "EnumerationTooLarge":
                    self.count("oracle.skipped")
                return
            if fn_name == "total_mu_oracle":
                return  # reads distribution_mu, which is counted itself
            key = (fn_name,) + tuple(v for k, v in bound.items() if k != "cap")
            if key in self._oracle_seen:
                self.count("oracle.dup_s", own)
                self.count("oracle.dup_calls")
                return
            self._oracle_seen.add(key)
            self.count("oracle.words", bound.get("k", 3) ** bound["n"])
            self.count("oracle.new_s", own)
        return hook

    def _family_hook(self, metric, fn_name):
        def hook(args, kwargs, items, outermost):
            if not outermost:
                return
            self.count(f"{metric}.items", items)
            if metric == "bijections.family":
                n = args[0] if args else next(iter(kwargs.values()))
                alphabet = FAMILY_ALPHABET.get(fn_name)
                self.count("bijections.family.scanned", alphabet ** n if alphabet else items)
        return hook

    def _suite_hook(self, suite):
        def hook(args, kwargs, result, error, own, total):
            self.count(f"verify.{suite}.s", total)
            if result is not None:
                self.count(f"verify.{suite}.checks", len(result))
        return hook

    def _term_hook(self, args, kwargs, result, error, own, total):
        self.count("oeis.term.s", total)

    # -- output --------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name call counts and self time, plus the counters."""
        calls: dict[str, int] = {}
        own: dict[str, float] = {}
        for name_id, self_time in zip(self.span_name, self.span_self):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + self_time
        return {"calls": calls, "self_s": own, "counts": dict(self.counts),
                "spans": len(self.span_id)}

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent, request, name,
        start, end, self (seconds on the perf_counter clock)."""
        with open(path, "w") as handle:
            handle.write("id\tparent\trequest\tname\tstart\tend\tself\n")
            for row in zip(self.span_id, self.span_parent, self.span_request, self.span_name,
                           self.span_start, self.span_end, self.span_self):
                span, parent, request, name_id, start, end, self_time = row
                handle.write(f"{span}\t{parent}\t{request}\t{self.names[name_id]}\t"
                             f"{start:.9f}\t{end:.9f}\t{self_time:.9f}\n")

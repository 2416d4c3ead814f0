"""Per-layer tracing of chorcheck from outside its source.

`Tracer.install()` wraps the public functions of each chorcheck module and
rebinds every module attribute that refers to one of them, so calls that
went through `from .x import y` names are traced as well.  Each wrapped
call adds to the current request's statistics: `calls`, `self_s` (its
duration minus that of the wrapped calls it made) and, for some functions,
a size read from the returned object.  Calls of the functions in `SPANS`
are also kept as span records.  Statistics of a request are merged into
the totals only when the request finishes, so a request stopped at its
time budget leaves no partial counts behind.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter

MODULES = ("automata", "cli", "complement", "formats", "gtype", "oracle",
           "realisability", "semantics", "trace")

# In `cli`, only the entry point is a layer boundary: its self time covers
# argument parsing, the command functions and JSON output.
CLI_FUNCTIONS = ("main",)

# Leaf functions called millions of times are not wrapped: a wrapper would
# cost more than their body.  Their time counts in their callers' self time.
UNWRAPPED = {"trace.commute", "semantics.send_action", "semantics.recv_action"}

# Hot functions that call no wrapped function: their self time is their
# duration, so their wrapper keeps no call stack frame.
LEAVES = {"semantics.is_msc_prefix", "semantics.is_rsc_schedulable", "trace.msc_of",
          "trace.is_normal_form", "trace.minimal_arrows"}

# Functions whose calls are kept as spans (name, start, end, parent, request).
SPANS = {"cli.main", "formats.parse_gt", "formats.render_gt",
         "gtype.classify", "gtype.is_commutation_closed", "gtype.project",
         "gtype.sync_product", "gtype.member_existential", "gtype.member_universal",
         "automata.includes", "complement.complement_auto",
         "complement.verify_complement", "oracle.xor_check",
         "oracle.enumerate_canonical", "oracle.bounded_existential",
         "realisability.check_p2p_realisable", "realisability.check_sync_realisable",
         "semantics.p2p_mscs", "semantics.p2p_explore", "semantics.sync_explore"}

# Sizes read from returned objects: name -> result -> {stat: increment}.
SIZES = {
    "automata.determinise": lambda r: {"states_built": r.n_states},
    "automata.product": lambda r: {"states_built": r.n_states},
    "gtype.sync_product": lambda r: {"states": r.automaton.n_states},
    "oracle.enumerate_canonical": lambda r: {"universe": len(r)},
    "oracle.bounded_existential": lambda r: {"mscs": len(r)},
    "complement.complement_renunciation": lambda r: {"states": r.automaton.n_states},
    "semantics.p2p_mscs": lambda r: {"mscs": len(r[0]), "bound_hits": int(r[1])},
    "semantics.p2p_explore": lambda r: {"configurations": len(r.configurations)},
    "semantics.is_msc_prefix": lambda r: {"hits": int(r)},
    "semantics.sync_explore": lambda r: {"configurations": len(r.configurations)},
}

# Calls of `inner` made while `outer` is running: inner -> (outer, stat of outer).
NESTED_CALLS = {"automata.includes": ("gtype.is_commutation_closed", "includes_calls")}
# Items yielded by the generator `inner` while `outer` is running.
NESTED_YIELDS = {"automata.words": ("oracle.bounded_existential", "words")}
_OUTERS = {outer for outer, _ in (*NESTED_CALLS.values(), *NESTED_YIELDS.values())}


def public_functions(module_name: str, module) -> dict:
    names = CLI_FUNCTIONS if module_name == "cli" else [
        n for n in vars(module) if not n.startswith("_")]
    out = {}
    for n in names:
        fn = getattr(module, n)
        if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
            out[f"{module_name}.{n}"] = fn
    return out


class Tracer:
    def __init__(self):
        self.totals: dict[str, Counter] = {}
        self.spans: list = []
        self.request = 0
        self._span_mark = 0
        self._reset()

    def _reset(self):
        self.current: dict[str, Counter] = {}
        self.active: Counter = Counter()
        self.stack = [[0.0, None]]  # per open call: [child seconds, span id]

    def begin_request(self, request: int):
        self.request = request
        self._reset()
        self._span_mark = len(self.spans)

    def end_request(self, finished: bool):
        if finished:
            for name, stats in self.current.items():
                self.totals.setdefault(name, Counter()).update(stats)
        else:
            del self.spans[self._span_mark:]
        self._reset()

    def _stats(self, name: str) -> Counter:
        stats = self.current.get(name)
        if stats is None:
            stats = self.current[name] = Counter()
        return stats

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        size = SIZES.get(name)
        if name in LEAVES:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    took = time.perf_counter() - start
                    stats = self._stats(name)
                    stats["calls"] += 1
                    stats["self_s"] += took
                    self.stack[-1][0] += took
                if size:
                    for stat, n in size(result).items():
                        stats[stat] += n
                return result
            return leaf

        nested = NESTED_CALLS.get(name)
        record = name in SPANS
        outer = name in _OUTERS

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stats = self._stats(name)
            stats["calls"] += 1
            if nested and self.active[nested[0]]:
                self._stats(nested[0])[nested[1]] += 1
            parent = self.stack[-1]
            frame = [0.0, len(self.spans) if record else parent[1]]
            if record:
                self.spans.append(None)
            self.stack.append(frame)
            if outer:
                self.active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if outer:
                    self.active[name] -= 1
                self.stack.pop()
                stats["self_s"] += end - start - frame[0]
                parent[0] += end - start
                if record:
                    self.spans[frame[1]] = (self.request, name, parent[1], start, end)
            if size:
                for stat, n in size(result).items():
                    stats[stat] += n
            return result

        return timed

    def _wrap_generator(self, name: str, fn):
        nested = NESTED_YIELDS.get(name)

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            stats = self._stats(name)
            stats["calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                parent = self.stack[-1]
                frame = [0.0, parent[1]]
                self.stack.append(frame)
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter()
                    self.stack.pop()
                    stats["self_s"] += end - start - frame[0]
                    parent[0] += end - start
                stats["yielded"] += 1
                if nested and self.active[nested[0]]:
                    self._stats(nested[0])[nested[1]] += 1
                yield item

        return generator

    def install(self) -> dict[str, int]:
        """Wrap every public function.

        Returns, per wrapped name, how many module attributes now point at
        the wrapper.
        """
        import importlib

        wrappers = {}
        for module_name in MODULES:
            module = importlib.import_module(f"chorcheck.{module_name}")
            for name, fn in public_functions(module_name, module).items():
                if name not in UNWRAPPED:
                    wrappers[id(fn)] = (name, fn, self._wrap(name, fn))
        bound = Counter()
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "chorcheck" and not mod_name.startswith("chorcheck."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(module, attr, hit[2])
                    bound[hit[0]] += 1
        return dict(bound)


# ---------------------------------------------------------------------------
# per-layer metrics from the totals of a traced run

_PLAIN = [
    ("cli.main", ("self_s",)),
    ("formats.parse_gt", ("self_s",)),
    ("formats.render_gt", ("self_s",)),
    ("gtype.is_commutation_closed", ("calls", "self_s", "includes_calls")),
    ("gtype.project", ("self_s",)),
    ("gtype.sync_product", ("states",)),
    ("gtype.member_existential", ("calls", "self_s")),
    ("automata.determinise", ("calls", "self_s", "states_built")),
    ("automata.product", ("calls", "self_s", "states_built")),
    ("automata.is_empty", ("self_s",)),
    ("automata.dual", ("self_s",)),
    ("automata.words", ("yielded", "self_s")),
    ("trace.msc_of", ("calls", "self_s")),
    ("trace.is_normal_form", ("calls", "self_s")),
    ("trace.minimal_arrows", ("calls",)),
    ("oracle.enumerate_canonical", ("self_s", "universe")),
    ("oracle.xor_check", ("self_s",)),
    ("oracle.bounded_existential", ("self_s", "words", "mscs")),
    ("complement.complement_auto", ("self_s",)),
    ("complement.verify_complement", ("self_s",)),
    ("complement.complement_renunciation", ("states",)),
    ("semantics.p2p_mscs", ("calls", "self_s", "mscs", "bound_hits")),
    ("semantics.p2p_explore", ("self_s", "configurations")),
    ("semantics.is_rsc_schedulable", ("calls", "self_s")),
    ("semantics.is_msc_prefix", ("calls", "self_s", "hits")),
    ("semantics.sync_explore", ("self_s", "configurations")),
    ("realisability.check_p2p_realisable", ("self_s",)),
    ("realisability.check_sync_realisable", ("self_s",)),
]

# (metric, function, numerator stat, denominator stat)
_RATIOS = [
    ("gtype.includes_per_closure", "gtype.is_commutation_closed", "includes_calls", "calls"),
    ("oracle.bounded_existential.words_per_msc", "oracle.bounded_existential", "words", "mscs"),
    ("semantics.p2p_mscs.bound_hit_share", "semantics.p2p_mscs", "bound_hits", "calls"),
    ("semantics.is_msc_prefix.hit_ratio", "semantics.is_msc_prefix", "hits", "calls"),
]


def layer_metrics(totals: dict) -> dict:
    """{metric: (value, unit)} for every per-layer metric of the totals."""
    out = {}
    for fn, stats in _PLAIN:
        for stat in stats:
            value = totals.get(fn, {}).get(stat, 0)
            out[f"{fn}.{stat}"] = (value, "s" if stat == "self_s" else "count")
    for metric, fn, num, den in _RATIOS:
        got = totals.get(fn, {})
        out[metric] = (got.get(num, 0) / got[den] if got.get(den) else 0.0, "ratio")
    return out

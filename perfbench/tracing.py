"""Span tracing around votelab's public functions, installed from outside.

The tracer rebinds each traced function under every name through which
votelab code looks it up (its home module and every module that imported
it), records one span per call while an op is open, and puts the original
bindings back on ``uninstall``.  Nothing under ``src/votelab`` changes.

A span is ``[name, start, end, parent, op, counters]``: ``parent`` is the
index of the enclosing span (``None`` for an op's root span), ``op`` the
op id (``"setup"`` or the op index) and ``counters`` a dict of the counts
taken from the call's arguments and result.  A direct recursive call of a
traced function is folded into the outer span, so ``expected_wmg`` of a
parameter profile is one span rather than one per entry.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: traced functions, by layer (= votelab module) and function name
LAYERS = {
    "core": ("avg_kt", "kt_matrix", "pairwise_tally", "kemeny_score"),
    "models": ("sample_profile", "expected_wmg"),
    "graph_algebra": ("edge_gadget_wmg_sum", "eulerian_cycle_decomposition"),
    "solvers": ("kemeny_dp", "kemeny_brute", "slater_brute", "solve_with_budget"),
    "gadgets": ("build_instance_profile", "round_to_integral", "run_reduction",
                "check_gadget_identities"),
    "harness": ("avg_kt_concentration_check", "dp_smoothed_check"),
}

ROOT = "bench.op"


def _kt_matrix_bytes(args, kwargs, res):
    # computed, not measured: the (k, k, pairs) boolean array kt_matrix builds
    k = int(res.shape[0])
    m = args[0].m
    return {"bytes": k * k * m * (m - 1) // 2}


def _solve(res):
    return {"op_count": int(res.op_count)}


def _kemeny_dp(args, kwargs, res):
    diag = res.diagnostics
    return {
        "op_count": int(res.op_count),
        "states": int(diag.max_states) if diag else 0,
        "d_max": int(diag.d) if diag else 0,
        "fallbacks": int(res.solver == "dp-fallback-brute"),
    }


#: counters taken per call, from (args, kwargs, result)
COUNTERS = {
    "core.kt_matrix": _kt_matrix_bytes,
    "models.sample_profile": lambda a, kw, res: {"votes": int(res.n), "distinct": len(res)},
    "solvers.kemeny_dp": _kemeny_dp,
    "solvers.kemeny_brute": lambda a, kw, res: _solve(res),
    "solvers.slater_brute": lambda a, kw, res: _solve(res),
    "solvers.solve_with_budget": lambda a, kw, res: {"timeouts": int(not hasattr(res, "ranking"))},
    "gadgets.build_instance_profile": lambda a, kw, res: {"types": res.type_count},
    "gadgets.round_to_integral": lambda a, kw, res: {"n": int(res.total_weight)},
    "gadgets.run_reduction": lambda a, kw, res: {"yes_rate": int(res.answer == "YES")},
    "gadgets.check_gadget_identities": lambda a, kw, res: {
        "checks_failed": sum(not c.passed for c in res)
    },
}


#: how a counter folds over calls; the others are averaged per call
FOLD = {"d_max": max, "fallbacks": sum, "timeouts": sum, "checks_failed": sum}


class Tracer:
    """Records spans of traced votelab calls made while an op is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple[object, str, object]] = []
        self._wrapper_of: dict[object, object] = {}

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded votelab module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "votelab" or name.startswith("votelab.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"votelab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                self._wrapper_of[original] = wrapper
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._rebind(mod, fname, wrapper)
        # get_solver hands out functions from a registry; hand out the wrappers
        solvers = sys.modules["votelab.solvers"]
        original_get = solvers.get_solver

        @functools.wraps(original_get)
        def get_solver(name):
            fn = original_get(name)
            return self._wrapper_of.get(fn, fn)

        for mod in modules:
            if getattr(mod, "get_solver", None) is original_get:
                self._rebind(mod, "get_solver", get_solver)

    def uninstall(self) -> None:
        """Put back every binding ``install`` replaced."""
        while self._saved:
            mod, fname, original = self._saved.pop()
            setattr(mod, fname, original)
        self._wrapper_of.clear()

    def _rebind(self, mod, fname: str, value) -> None:
        self._saved.append((mod, fname, getattr(mod, fname)))
        setattr(mod, fname, value)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1], self._op, None])
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if count is not None:
                spans[idx][5] = count(args, kwargs, res)
            return res

        return wrapper

    # -- ops ----------------------------------------------------------------

    def begin(self, op) -> None:
        """Open the root span of one op (or of set-up)."""
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), None, None, op, None])

    def end(self) -> None:
        idx = self._stack.pop()
        self.spans[idx][2] = time.perf_counter()
        self._op = None


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(spans: list[list], first_op=0) -> dict[str, float]:
    """Per-layer metrics from one run's spans.

    Calls made in op ``first_op`` count only in ``first_s``.  Per-call
    figures (``.s`` and the counters) cover set-up and the ops after the
    first; ``.calls`` is calls per op after the first, and
    ``<layer>.share`` the layer's self time as a share of those ops' time.
    """
    own = self_times(spans)
    warm = {s[4] for s in spans if s[0] == ROOT and s[4] not in ("setup", first_op)}
    op_time = sum(s[2] - s[1] for s in spans if s[0] == ROOT and s[4] in warm)
    calls: dict[str, int] = defaultdict(int)
    warm_calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_s: dict[str, float] = defaultdict(float)
    counts: dict[str, list] = defaultdict(list)
    first: dict[str, float] = {}
    for s, t in zip(spans, own):
        name = s[0]
        first.setdefault(name, s[2] - s[1])
        if s[4] == first_op:
            continue
        if s[4] in warm:
            layer_s[name.split(".")[0]] += t
            warm_calls[name] += 1
        calls[name] += 1
        self_s[name] += t
        for key, value in (s[5] or {}).items():
            counts[f"{name}.{key}"].append(value)

    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            out[f"{name}.s"] = self_s[name] / calls[name] if calls[name] else 0.0
            out[f"{name}.calls"] = warm_calls[name] / len(warm) if warm else 0.0
        out[f"{layer}.share"] = layer_s[layer] / op_time if op_time else 0.0
    out["bench.share"] = layer_s["bench"] / op_time if op_time else 0.0
    out["models.sample_profile.first_s"] = first.get("models.sample_profile", 0.0)
    for key, values in counts.items():
        fold = FOLD.get(key.rsplit(".", 1)[1])
        out[key] = fold(values) if fold else sum(values) / len(values)
    return out

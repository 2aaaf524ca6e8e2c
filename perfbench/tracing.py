"""Span tracing for the benchmark's traced pass.

The tracer wraps the package's public functions from outside the package:
each wrapper is installed at every module attribute through which callers
resolve the function (``characters.additive_spectrum`` and
``sums.additive_spectrum`` alike), on ``MultChar.table``, and on each entry
of ``verify.CHECKS``. Spans are kept in memory and written when the pass
ends; self time is derived afterwards from the span tree.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "boxsums"

# Workload entry points: their spans are the pass roots, not layers.
ENTRY_SPANS = ("harness.run_sweep", "harness.run_prime_sweep", "verify.run_verify")

# (module, attribute, how): "span" records a span per call, "count" only
# counts calls, for functions called too often to time one by one.
TARGETS = (
    ("modular", "build_context", "span"),
    ("modular", "is_prime", "span"),
    ("modular", "pow_mod", "count"),
    ("sums", "monomial_value_distribution", "span"),
    ("sums", "monomial_sum_bilinear", "span"),
    ("sums", "character_sum_split", "span"),
    ("sums", "monomial_sum_naive", "span"),
    ("sums", "character_sum_naive", "span"),
    ("sums", "cauchy_majorant", "span"),
    ("sums", "holder_majorant", "span"),
    ("sums", "kloosterman_sum", "span"),
    ("characters", "additive_spectrum", "span"),
    ("characters", "MultChar.table", "span"),
    ("characters", "char_moment", "span"),
    ("characters", "char_interval_sum", "span"),
    ("counts", "count_product_pairs_brute", "span"),
    ("counts", "count_product_pairs_spectral", "span"),
    ("counts", "count_monomial_pairs_brute", "span"),
    ("counts", "product_inequality_report", "span"),
    ("bounds", "bound_value", "span"),
    ("sampling", "draw_spec", "span"),
    ("harness", "run_sweep", "span"),
    ("harness", "run_prime_sweep", "span"),
    ("verify", "run_verify", "span"),
)


def _nonzero_coordinates(k_j: int, h: int, p: int) -> int:
    """Points of [k_j+1, k_j+h] that are nonzero mod p."""
    return h - ((k_j + h) // p - k_j // p)


def _work_distribution(work, args, kwargs, result) -> None:
    spec = args[0]
    lo = args[1] if len(args) > 1 else kwargs.get("lo", 0)
    hi = args[2] if len(args) > 2 else kwargs.get("hi")
    hi = spec.n if hi is None else hi
    p = spec.ctx.p
    tuples = 1
    for j in range(lo, hi):
        tuples *= _nonzero_coordinates(spec.box.k[j], spec.box.h, p)
    work["sums.monomial_value_distribution.tuples"] += tuples
    work["sums.monomial_value_distribution.nonzero"] += int(np.count_nonzero(result.values))
    work["sums.monomial_value_distribution.allocated"] += p


def _work_spectrum(work, args, kwargs, result) -> None:
    work["characters.additive_spectrum.points"] += args[0].ctx.p


def _work_context(work, args, kwargs, result) -> None:
    work["modular.build_context.table_bytes"] += 8 * result.p


# Work counters recorded after a call returns, outside its span.
_WORK = {
    "modular.build_context": _work_context,
    "sums.monomial_value_distribution": _work_distribution,
    "characters.additive_spectrum": _work_spectrum,
}


class Tracer:
    """Records spans [name, start_ns, end_ns, parent, pass_id] for one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.work: defaultdict = defaultdict(int)
        self.names: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _span(self, name: str, fn):
        spans, stack, calls, work = self.spans, self._stack, self.calls, self.work
        pass_id = self.pass_id
        clock = time.perf_counter_ns
        after = _WORK.get(name)
        reuse_key = name + ".reused" if name == "characters.MultChar.table" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if reuse_key is not None and args[0]._table is not None:
                work[reuse_key] += 1
            span = [name, clock(), 0, stack[-1] if stack else -1, pass_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(work, args, kwargs, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever the package binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module, attr, how in TARGETS:
            name = f"{module}.{attr}"
            self.names.append(name)
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._span(name, original))
                continue
            original = getattr(owner, attr)
            make = self._span if how == "span" else self._count
            wrapper = make(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)
        checks = sys.modules[f"{PACKAGE}.verify"].CHECKS
        for check, fn in list(checks.items()):
            name = f"verify.{check}"
            self.names.append(name)
            checks[check] = self._span(name, fn)
            self._patches.append((checks, check, fn, True))

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original, False))

    def restore(self) -> None:
        """Put every original back, in reverse order of patching."""
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def dump(self) -> dict:
        """The pass's trace as JSON, written once the pass has ended."""
        return {
            "pass_id": self.pass_id,
            "names": list(self.names),
            "spans": self.spans,
            "calls": dict(self.calls),
            "work": dict(self.work),
        }


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_times(spans: list) -> tuple[dict, dict]:
    """Per-name inclusive and self time in ns from a span tree.

    Inclusive (busy) time counts only spans with no ancestor of the same
    name, so a recursive call is not counted twice. Self time is a span's
    duration minus the part of it that its child spans cover.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    busy: defaultdict = defaultdict(int)
    own: defaultdict = defaultdict(int)
    for i, (name, start, end, parent, *_) in enumerate(spans):
        kids = [(spans[c][1], spans[c][2]) for c in children[i]]
        own[name] += (end - start) - _covered(kids, start, end)
        a = parent
        while a >= 0 and spans[a][0] != name:
            a = spans[a][3]
        if a < 0:
            busy[name] += end - start
    return dict(busy), dict(own)


def unattributed_ns(spans: list, wall_start: int, wall_end: int) -> int:
    """Wall time covered by no layer span (entry-point spans excluded)."""
    layer = [(s[1], s[2]) for s in spans if s[0] not in ENTRY_SPANS]
    return (wall_end - wall_start) - _covered(layer, wall_start, wall_end)


def layer_stats(trace: dict, wall_start: int, wall_end: int) -> dict:
    """Every per-layer statistic of one traced pass, keyed by metric name."""
    spans = trace["spans"]
    calls, work = trace["calls"], trace["work"]
    busy, own = span_times(spans)
    stats = {}
    for name in trace["names"]:
        stats[f"{name}.calls"] = calls.get(name, 0)
        stats[f"{name}.busy_s"] = busy.get(name, 0) / 1e9
        stats[f"{name}.self_s"] = own.get(name, 0) / 1e9
    stats["modular.build_context.table_mb"] = work.get("modular.build_context.table_bytes", 0) / 1e6
    stats["sums.monomial_value_distribution.tuples"] = work.get(
        "sums.monomial_value_distribution.tuples", 0
    )
    allocated = work.get("sums.monomial_value_distribution.allocated", 0)
    stats["sums.monomial_value_distribution.support_ratio"] = (
        work.get("sums.monomial_value_distribution.nonzero", 0) / allocated if allocated else 0.0
    )
    points = work.get("characters.additive_spectrum.points", 0)
    stats["characters.additive_spectrum.points"] = points
    table_calls = calls.get("characters.MultChar.table", 0)
    stats["characters.MultChar.table.reuse_ratio"] = (
        work.get("characters.MultChar.table.reused", 0) / table_calls if table_calls else 0.0
    )
    wall = wall_end - wall_start
    stats["trace.unattributed_share"] = unattributed_ns(spans, wall_start, wall_end) / wall
    return stats

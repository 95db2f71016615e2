"""Outside-in tracing of the centmax package.

The tracer wraps public functions of the package from the benchmark's own
files; the package itself carries no instrumentation.  Coarse calls (one per
pipeline phase) become span records of (name, start, end, parent).  Calls
made once per sample or per BFS source would be 10^6 records, so they are
aggregated instead: a call count, busy time, and a log-bucket latency
histogram.  Every wrapped call adds its duration to the enclosing span, so
self time is a span's duration minus the time of the calls made inside it.

A hook whose target no longer exists (renamed or deleted by a later change)
is recorded as absent; the metrics that depend on it are reported as absent
rather than crashing the run.
"""
from __future__ import annotations

import functools
import importlib
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

SPAN = "span"
AGG = "agg"
# Suffix of the pseudo-hook name under which an observer's counters are
# reported absent.
OBSERVED = ".observed"

# Latency histogram: 32 log2 buckets per octave (about 2% wide).  Call
# durations are buffered and folded into the histogram in batches, which
# costs far less per call than bucketing each one.
_SUB = 32
_BATCH = 1 << 16


@dataclass(frozen=True)
class Hook:
    """One wrapped target.  `observe(tracer, args, kwargs, result)` runs
    after the call's end time is taken, to update counters; the metrics
    that read those counters depend on `name + OBSERVED`."""
    name: str
    module: str
    attr: str             # "func" or "Class.method"
    kind: str = SPAN
    observe: object = None


class CallStats:
    """Aggregate of many short calls of one target."""

    def __init__(self):
        self.buffer = array("d")
        self.count = 0
        self.total_s = 0.0
        self.hist = {}

    def flush(self):
        if not self.buffer:
            return
        dts = np.frombuffer(self.buffer, dtype=np.float64)
        self.count += dts.size
        self.total_s += float(dts.sum())
        keys = np.floor(np.log2(np.maximum(dts, 1e-9)) * _SUB).astype(np.int64)
        for key, n in zip(*np.unique(keys, return_counts=True)):
            self.hist[int(key)] = self.hist.get(int(key), 0) + int(n)
        self.buffer = array("d")

    def quantile(self, q):
        """Geometric midpoint of the bucket holding the q-quantile of the
        flushed calls."""
        seen = 0
        for key in sorted(self.hist):
            seen += self.hist[key]
            if seen >= q * self.count:
                return 2.0 ** ((key + 0.5) / _SUB)
        return 0.0


class Tracer:
    """Installs hooks, records spans and aggregates, and restores the
    original functions on `uninstall`."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, child_s]
        self.calls = {}        # hook name -> CallStats
        self.counters = {}     # free-form counts set by observers
        self.distinct = {}     # name -> set of keys seen by observers
        self.absent = []       # hook names whose target is gone
        self._stack = []       # open spans: [span index, child_s]
        self._agg_depth = [0]  # aggregated calls currently open
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self, hooks):
        for hook in hooks:
            owner, name, original = _resolve(hook)
            if original is None:
                self.absent.append(hook.name)
                if hook.observe is not None:
                    self.absent.append(hook.name + OBSERVED)
                continue
            if hook.kind == AGG:
                wrapper = self._agg_wrapper(hook, original)
            else:
                wrapper = self._span_wrapper(hook, original)
            if isinstance(owner, type):
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                setattr(owner, name, wrapper)
                self._undo.append((owner, name, raw))
                continue
            # Replace every binding of the function in the package, so
            # `from .graph import bfs_dag` call sites are traced as well.
            for mod in list(sys.modules.values()):
                modname = getattr(mod, "__name__", "")
                if modname != "centmax" and not modname.startswith("centmax."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, hook, fn):
        spans, stack = self.spans, self._stack
        observe = hook.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [hook.name, 0.0, 0.0, stack[-1][0] if stack else -1, 0.0]
            spans.append(record)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                record[1], record[2], record[4] = t0, t1, frame[1]
            if observe is not None:
                self._observe(hook, args, kwargs, result)
            return result
        return wrapper

    def _agg_wrapper(self, hook, fn):
        stack, depth = self._stack, self._agg_depth
        stats = self.calls.setdefault(hook.name, CallStats())
        observe = hook.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[0] -= 1
            # Only the outermost aggregated call counts as child time of
            # the enclosing span; nested ones are already inside it.
            if stack and not depth[0]:
                stack[-1][1] += dt
            buffer = stats.buffer
            buffer.append(dt)
            if len(buffer) >= _BATCH:
                stats.flush()
            if observe is not None:
                self._observe(hook, args, kwargs, result)
            return result
        return wrapper

    def _observe(self, hook, args, kwargs, result):
        """Run the hook's observer; a result whose shape changed (say, a
        pool without `.edges`) marks the observer's counters absent."""
        if hook.name + OBSERVED in self.absent:
            return
        try:
            hook.observe(self, args, kwargs, result)
        except (AttributeError, TypeError, IndexError):
            self.absent.append(hook.name + OBSERVED)

    # -- results ----------------------------------------------------------

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        if value > self.counters.get(name, value - 1):
            self.counters[name] = value

    def summary(self):
        """JSON-ready aggregate: per-span-name count, total and self time;
        per-aggregate count, busy time and p50/p99; counters; absent hooks."""
        spans = {}
        for name, start, end, _parent, child_s in self.spans:
            agg = spans.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_s
        for st in self.calls.values():
            st.flush()
        calls = {name: {"count": st.count, "total_s": st.total_s,
                        "p50_s": st.quantile(0.5), "p99_s": st.quantile(0.99)}
                 for name, st in self.calls.items()}
        counters = dict(self.counters)
        for name, keys in self.distinct.items():
            counters[name] = len(keys)
        return {"spans": spans, "calls": calls, "counters": counters,
                "absent": list(self.absent),
                "records": [[n, s, e, p] for n, s, e, p, _c in self.spans]}


def _resolve(hook):
    """(owner, attribute name, original function) or (None, None, None)."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None, None, None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    original = getattr(owner, name, None)
    if not callable(original):
        return None, None, None
    if isinstance(owner, type) and isinstance(owner.__dict__.get(name),
                                              classmethod):
        original = owner.__dict__[name].__func__
    return owner, name, original

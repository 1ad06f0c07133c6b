"""Wall-clock spans around the library's public calls, from outside.

The traced repeat patches each public call in ``TARGETS`` where its
caller looks it up (``repro.cluster.cluster.apriori``, not
``repro.mining.apriori.apriori``), records one span per call -- name,
parent span, start, end -- and keeps every span in memory until the
repeat writes them out.  Garbage-collector pauses become ``gc.pause``
spans under whatever span was running.  Nothing under ``src/`` knows
it is being traced; :meth:`Tracer.restore` puts every attribute back.

A span's *self time* is its duration minus its children's; every
per-layer ``*_s`` metric is a sum of self times, so the layers add up
to the traced wall time without double counting.
"""

from __future__ import annotations

import collections
import functools
import gc
import importlib
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class or "" for a module global, attribute, span name)
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.flash.driver", "OnlineStreamSession", "feed", "flash.feed"),
    ("repro.flash.driver", "OnlineStreamSession", "advance",
     "flash.advance"),
    ("repro.flash.driver", "OnlineStreamSession", "drain", "flash.drain"),
    ("repro.flash.driver", "OnlineTracePlayer", "play", "flash.play"),
    ("repro.flash.metrics", "IntervalSeries", "merge",
     "flash.series_merge"),
    *(("repro.core.qos", "QoSReport", prop, "core.report")
      for prop in ("overall", "n_failed", "n_faulted", "n_violations",
                   "violation_rate", "guarantee_met")),
    ("repro.core.qos", "QoSFlashArray", "probabilities", "core.sampler"),
    ("repro.cluster.cluster", "", "transactions_from_trace",
     "mining.transactions"),
    ("repro.cluster.cluster", "", "apriori", "mining.apriori"),
    ("repro.mining.matching", "FIMBlockMatcher", "match", "mining.match"),
    ("repro.mining.matching", "MatchResult", "map_blocks",
     "mining.map_blocks"),
    ("repro.mining.streaming", "StreamingTransactions", "observe",
     "mining.fold"),
    ("repro.mining.streaming", "StreamingFPGrowth", "mine",
     "mining.stream_mine"),
    ("repro.controller.strategy", "FIMReplan", "propose",
     "controller.propose"),
    ("repro.controller.planner", "ReplicationPlanner", "plan",
     "controller.plan"),
    ("repro.controller.controller", "ReplicationController", "run",
     "controller.run"),
    ("repro.cluster.sharding", "Sharding", "array_of_many",
     "cluster.shard_lookup"),
    ("repro.cluster.replicator", "CrossArrayReplicator", "update",
     "cluster.replicate"),
    ("repro.cluster.cluster", "ShardedCluster", "play", "cluster.play"),
    *(("repro.cluster.cluster", "ClusterReport", prop, "cluster.report")
      for prop in ("series", "overall", "n_requests", "n_failed",
                   "n_faulted", "n_violations", "violation_rate",
                   "pct_delayed", "guarantee_met")),
    ("repro.cluster.cluster", "", "module_interval_series",
     "obs.module_series"),
)

#: spans that happen before the timed region (set-up and generation);
#: every other span counts only inside it
OUTSIDE_TIMED = ("core.sampler", "traces.generate")

#: span names that yield a ``<name>_s`` self-time metric
LAYERS = tuple(dict.fromkeys(
    [name for *_, name in TARGETS] + ["gc.pause", "traces.generate"]))


def owner_of(module: str, owner_name: str):
    """The object whose attribute a ``TARGETS`` entry patches."""
    owner = importlib.import_module(module)
    return getattr(owner, owner_name) if owner_name else owner


def _count_scalar(args, result) -> Dict[str, int]:
    return {"flash.scalar_sessions":
            int(args[0].admission_kernel == "scalar")}


def _count_itemsets(args, result) -> Dict[str, int]:
    return {"mining.itemsets": len(result)}


#: per-call counters, keyed by span name: ``hook(args, result)``
HOOKS: Dict[str, Callable] = {
    "flash.drain": _count_scalar,
    "mining.apriori": _count_itemsets,
    "mining.stream_mine": _count_itemsets,
}


class Tracer:
    """Patch ``TARGETS``, record spans, restore on exit."""

    def __init__(self):
        #: ``[name, parent index or -1, start, end]`` per span
        self.spans: List[list] = []
        self.counts: collections.Counter = collections.Counter()
        #: start times of generation-2 collections
        self.gen2_starts: List[float] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- patching -----------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for module, owner_name, attr, name in TARGETS:
            owner = owner_of(module, owner_name)
            original = owner.__dict__[attr]
            hook = HOOKS.get(name)
            if isinstance(original, property):
                patched = property(self.wrap(original.fget, name, hook),
                                   doc=original.__doc__)
            else:
                patched = self.wrap(original, name, hook)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, patched)
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             hook: Optional[Callable] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            # nothing between len() and append() allocates, so a GC
            # pause cannot slip its own span in at this index
            sid = len(spans)
            spans.append(record)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                record[2] = start
                stack.pop()
            if hook is not None:
                counts.update(hook(args, result))
            return result

        return traced

    def _on_gc(self, phase: str, info: Dict) -> None:
        now = perf_counter()
        if phase == "start":
            self._gc_start = now
            if info["generation"] == 2:
                self.gen2_starts.append(now)
            return
        stack = self._stack
        self.spans.append(["gc.pause", stack[-1] if stack else -1,
                           self._gc_start, now])

    # -- results ------------------------------------------------------
    def self_times(self) -> List[float]:
        spans = self.spans
        out = [end - start for _, _, start, end in spans]
        for _, parent, start, end in spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self, t0: float, t1: float) -> Dict[str, float]:
        """Span-derived per-layer metrics for the timed region
        ``[t0, t1]`` (set-up spans in ``OUTSIDE_TIMED`` count too)."""
        selfs = self.self_times()
        layer_s = dict.fromkeys(LAYERS, 0.0)
        n_calls: collections.Counter = collections.Counter()
        covered = 0.0
        timed = []
        for (name, _, start, end), own in zip(self.spans, selfs):
            inside = start >= t0 and end <= t1
            if inside:
                covered += own
                timed.append((start, end, name))
            if inside or name in OUTSIDE_TIMED:
                layer_s[name] += own
                n_calls[name] += 1
        timed.sort()
        out = {f"{name}_s": s for name, s in layer_s.items()}
        out.update(_boundaries(timed, "controller",
                               ("mining.stream_mine",
                                "controller.propose"),
                               "controller.plan"))
        out.update(_boundaries(timed, "cluster",
                               ("obs.module_series",
                                "mining.transactions", "mining.apriori",
                                "mining.match"),
                               "cluster.replicate"))
        out["flash.feed_calls"] = n_calls["flash.feed"]
        out["flash.scalar_sessions"] = self.counts["flash.scalar_sessions"]
        out["mining.itemsets"] = self.counts["mining.itemsets"]
        out["gc.gen2_collections"] = sum(
            1 for s in self.gen2_starts if t0 <= s <= t1)
        out["trace.coverage"] = covered / (t1 - t0)
        return out

    def to_json(self) -> List[Dict]:
        return [{"id": i, "name": name, "parent": parent, "start": start,
                 "end": end}
                for i, (name, parent, start, end) in enumerate(self.spans)]


def _boundaries(timed, prefix: str, parts: Tuple[str, ...],
                closer: str) -> Dict[str, float]:
    """Per-boundary wall time: each ``closer`` span plus the ``parts``
    spans since the previous one (inclusive durations, in ms).  A
    ``closer`` with no ``parts`` before it belongs to another caller
    (the cluster's replicator also plans) and is skipped."""
    boundary_ms: List[float] = []
    pending: Optional[float] = None
    for start, end, name in timed:
        if name in parts:
            pending = (pending or 0.0) + end - start
        elif name == closer and pending is not None:
            boundary_ms.append(1e3 * (pending + end - start))
            pending = None
    return {f"{prefix}.boundary_p50_ms":
            statistics.median(boundary_ms) if boundary_ms else 0.0,
            f"{prefix}.boundary_max_ms": max(boundary_ms, default=0.0)}

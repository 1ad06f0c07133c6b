"""Fault models: scripted schedules and seeded stochastic processes.

A *fault schedule* is an immutable, fully-materialised list of fault
events against the modules of one array -- what will go wrong, where,
and when, decided **before** the simulation starts.  Materialising up
front is what keeps faulty runs deterministic: the DES consumes the
schedule read-only, every stochastic choice (including per-operation
read-error draws) is a pure function of ``(seed, module, index)``, and
replaying the same seed and fault config is byte-identical -- enforced
by the ``faults`` determinism probe (``python -m repro.check --probe
faults``).

Four fault kinds cover the NAND failure behaviours the reproduction
models (cf. Copycat's characterisation of real flash: transient
latency variance, per-operation read errors, and outright failures):

``crash``
    The module is permanently dead from ``start`` on.  Queued and
    newly routed requests fail; failure-aware retrieval masks the
    module out of every candidate set.
``down``
    Transient unavailability over ``[start, end)``: the module stops
    serving and resumes afterwards; the driver masks it while down.
``slow``
    Latency degradation over ``[start, end)``: service times are
    multiplied by ``factor`` (heavy-tail spikes are scripted as many
    short ``slow`` windows, e.g. by :class:`FaultModel`).
``read_error``
    Each read served inside ``[start, end)`` fails with probability
    ``prob``; the module retries after a backoff per
    :class:`RetryPolicy`, and exhausted retries fail the request over
    to a surviving replica.

Two front doors:

* :class:`FaultSchedule` -- explicit scripted events (tests,
  reproduction of a specific incident);
* :class:`FaultModel` -- seeded stochastic processes (Poisson fault
  arrivals, exponential durations) that :meth:`~FaultModel.materialize`
  into a schedule.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["FaultEvent", "FaultSchedule", "FaultModel", "RetryPolicy",
           "FAULT_KINDS", "FAULT_SCOPES"]

#: the recognised fault kinds, in canonical order
FAULT_KINDS = ("crash", "down", "slow", "read_error")

#: the recognised fault scopes -- ``module`` targets one module of an
#: array, ``array`` targets a whole array inside a cluster
FAULT_SCOPES = ("module", "array")

_INF = float("inf")

#: one module's change-point table: ``(boundaries, slowdown, error_prob,
#: available_from)``, the last three with one entry per segment (see
#: :meth:`FaultSchedule._build_module_table`)
_ModuleTable = Tuple[List[float], List[float], List[float],
                     List[Optional[float]]]


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault against one module.

    ``end`` is exclusive (an event over ``[start, end)``); crashes
    ignore it and last forever.  ``factor`` only applies to ``slow``
    events, ``prob`` only to ``read_error`` events.

    ``scope`` selects the fault domain: ``"module"`` (the default)
    targets module ``module`` of one array, ``"array"`` targets the
    whole array with index ``module`` inside a cluster.  Array-scoped
    events affect *routing only* (``masked_arrays_at``): a request
    dispatched to an array before the fault instant completes
    normally, so killing fewer replicas than a pattern holds never
    fails a read (see ``docs/cluster.md``).
    """

    kind: str
    module: int
    start: float
    end: float = _INF
    factor: float = 1.0
    prob: float = 0.0
    scope: str = "module"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if self.scope not in FAULT_SCOPES:
            raise ValueError(f"unknown fault scope {self.scope!r}; "
                             f"choose from {FAULT_SCOPES}")
        if self.module < 0:
            raise ValueError("module must be >= 0")
        # NaN slips through every ordered comparison below, so
        # finiteness is checked first, one field at a time.
        if not math.isfinite(self.start):
            raise ValueError(f"start must be finite, got {self.start!r}")
        if not (math.isfinite(self.end) or self.end == _INF):
            raise ValueError(f"end must be finite or inf, got "
                             f"{self.end!r}")
        if not math.isfinite(self.factor):
            raise ValueError(f"factor must be finite, got {self.factor!r}")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.kind != "crash" and self.end <= self.start:
            raise ValueError(f"{self.kind} window must have end > start")
        if self.kind == "slow" and self.factor <= 0:
            raise ValueError("slow factor must be > 0")
        if self.kind == "read_error" and not 0.0 <= self.prob <= 1.0:
            raise ValueError("read-error prob must be in [0, 1]")

    def active_at(self, t: float) -> bool:
        """True while the event is in force at time ``t``."""
        if self.kind == "crash":
            return t >= self.start
        return self.start <= t < self.end

    def to_list(self) -> List[object]:
        # The scope column is emitted only for array-scoped events so
        # module-only schedules keep their historical serialisation
        # (and therefore byte-identical ``cache_token``s).
        row: List[object] = [self.kind, self.module, self.start,
                             "inf" if self.end == _INF else self.end,
                             self.factor, self.prob]
        if self.scope != "module":
            row.append(self.scope)
        return row

    @classmethod
    def from_list(cls, row: Sequence[object]) -> "FaultEvent":
        kind, module, start, end, factor, prob = row[:6]
        scope = str(row[6]) if len(row) > 6 else "module"
        return cls(kind=str(kind), module=int(module),
                   start=float(start),
                   end=_INF if end == "inf" else float(end),
                   factor=float(factor), prob=float(prob),
                   scope=scope)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-timeout-and-backoff for transient errors.

    A failed read is retried up to ``max_retries`` times; attempt
    ``i`` (0-based) waits ``backoff_ms * growth**i`` before retrying.
    The driver uses the same policy when failing a request over to
    another replica after a module-level failure.
    """

    max_retries: int = 3
    backoff_ms: float = 0.05
    growth: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        for name in ("backoff_ms", "growth"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)!r}")
        if self.backoff_ms < 0:
            raise ValueError("backoff_ms must be >= 0")
        if self.growth < 1.0:
            raise ValueError("growth must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return self.backoff_ms * self.growth ** attempt

    def to_dict(self) -> Dict[str, float]:
        return {"max_retries": self.max_retries,
                "backoff_ms": self.backoff_ms, "growth": self.growth}


def _uniform_hash(seed: int, module: int, index: int) -> float:
    """Deterministic uniform in [0, 1) from ``(seed, module, index)``.

    Counter-based (no RNG state), so draws do not depend on the order
    in which the simulation asks for them -- the property that makes
    read-error injection replay-identical across engines and runs.
    """
    digest = hashlib.sha256(
        f"{seed}:{module}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class FaultSchedule:
    """An immutable set of scripted fault events.

    Parameters
    ----------
    events:
        The fault events; stored sorted by ``(start, module, kind)``
        so identical event sets compare and serialise identically.
    n_modules:
        Optional module-count bound for validation.
    seed:
        Seed for the per-operation read-error draws (see
        :meth:`read_error_draw`).
    retry:
        The :class:`RetryPolicy` for read errors and driver failover.
    """

    def __init__(self, events: Iterable[FaultEvent],
                 n_modules: Optional[int] = None, seed: int = 0,
                 retry: Optional[RetryPolicy] = None):
        evs = sorted(events, key=lambda e: (e.start, e.module,
                                            FAULT_KINDS.index(e.kind),
                                            e.end, e.scope))
        if n_modules is not None:
            for e in evs:
                if e.scope == "module" and e.module >= n_modules:
                    raise ValueError(
                        f"event targets module {e.module} but the "
                        f"array has {n_modules} modules")
        self.events: Tuple[FaultEvent, ...] = tuple(evs)
        self.n_modules = n_modules
        self.seed = int(seed)
        self.retry = retry or RetryPolicy()
        # Query structures are keyed per scope: an array-scoped event
        # on id 2 must never leak into module-2 lookups (or vice
        # versa), and each scope gets its own masked-set cache.
        self._by_module: Dict[int, List[FaultEvent]] = {}
        self._by_array: Dict[int, List[FaultEvent]] = {}
        for e in self.events:
            table = (self._by_module if e.scope == "module"
                     else self._by_array)
            table.setdefault(e.module, []).append(e)
        #: earliest crash per module / per array (is_dead in O(1))
        self._crash_at: Dict[int, float] = {}
        self._array_crash_at: Dict[int, float] = {}
        for e in self.events:
            if e.kind == "crash":
                table = (self._crash_at if e.scope == "module"
                         else self._array_crash_at)
                prev = table.get(e.module, _INF)
                if e.start < prev:
                    table[e.module] = e.start
        #: lazily built masked-set change points, one per scope
        #: (see masked_at / masked_arrays_at)
        self._mask_cache: Optional[Tuple[List[float],
                                         List[frozenset]]] = None
        self._array_mask_cache: Optional[Tuple[List[float],
                                               List[frozenset]]] = None
        #: lazily built per-module service-time change points (see
        #: available_from / slowdown / error_prob)
        self._tables: Dict[int, _ModuleTable] = {}

    # -- constructors -----------------------------------------------------
    @classmethod
    def crashes(cls, modules: Iterable[int], at: float = 0.0,
                **kwargs) -> "FaultSchedule":
        """Crash every module in ``modules`` at time ``at``."""
        return cls([FaultEvent("crash", m, at) for m in modules],
                   **kwargs)

    @classmethod
    def none(cls, **kwargs) -> "FaultSchedule":
        """The empty schedule (healthy array)."""
        return cls([], **kwargs)

    # -- basic queries ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def affected_modules(self) -> Tuple[int, ...]:
        """Modules named by at least one module-scoped event, ascending."""
        return tuple(sorted(self._by_module))

    @property
    def affected_arrays(self) -> Tuple[int, ...]:
        """Arrays named by at least one array-scoped event, ascending."""
        return tuple(sorted(self._by_array))

    def events_for(self, module: int) -> Tuple[FaultEvent, ...]:
        return tuple(self._by_module.get(module, ()))

    def events_for_array(self, array: int) -> Tuple[FaultEvent, ...]:
        return tuple(self._by_array.get(array, ()))

    def is_dead(self, module: int, t: float) -> bool:
        """True once a crash of ``module`` has taken effect."""
        return t >= self._crash_at.get(module, _INF)

    def is_down(self, module: int, t: float) -> bool:
        """True while ``module`` is unavailable (down window or dead)."""
        for e in self._by_module.get(module, ()):
            if e.kind == "crash" and t >= e.start:
                return True
            if e.kind == "down" and e.active_at(t):
                return True
        return False

    # The three service-time queries below run once per served request
    # (and per read attempt), so each answers from the module's
    # change-point table with one bisection; see _build_module_table
    # for why that is exact.
    def available_from(self, module: int, t: float) -> float:
        """Earliest time ``>= t`` at which ``module`` can serve.

        ``inf`` if the module is (or goes) dead before it ever clears
        its down windows.
        """
        tab = self._tables.get(module) or self._module_table(module)
        value = tab[3][bisect_right(tab[0], t)]
        return t if value is None else value

    def slowdown(self, module: int, t: float) -> float:
        """Multiplicative service-time factor in force at ``t`` (the
        product of the active ``slow`` factors, in event order)."""
        tab = self._tables.get(module) or self._module_table(module)
        return tab[1][bisect_right(tab[0], t)]

    def error_prob(self, module: int, t: float) -> float:
        """Per-read failure probability in force at ``t`` (max rule)."""
        tab = self._tables.get(module) or self._module_table(module)
        return tab[2][bisect_right(tab[0], t)]

    def loud_windows(self, module: int) -> Tuple[List[float], List[float]]:
        """``(starts, ends)``: the disjoint ``[start, end)`` windows in
        which ``module``'s change-point table is not quiet.

        Quiet means the module serves at once at normal speed with no
        read-error draw: ``slowdown == 1``, ``error_prob == 0`` and
        ``available_from(t) == t``.  Outside these windows a service
        attempt behaves exactly as on a healthy module; a crash opens
        a window that never ends.
        """
        pts, slow, err, avail = (self._tables.get(module)
                                 or self._module_table(module))
        starts: List[float] = []
        ends: List[float] = []
        for j in range(1, len(pts) + 1):
            if slow[j] != 1.0 or err[j] != 0.0 or avail[j] is not None:
                end = pts[j] if j < len(pts) else _INF
                if ends and ends[-1] == pts[j - 1]:
                    ends[-1] = end
                else:
                    starts.append(pts[j - 1])
                    ends.append(end)
        return starts, ends

    def _module_table(self, module: int) -> _ModuleTable:
        tab = self._tables[module] = self._build_module_table(
            self._by_module.get(module, ()),
            self._crash_at.get(module, _INF))
        return tab

    @staticmethod
    def _build_module_table(events: Sequence[FaultEvent],
                            crash_at: float) -> _ModuleTable:
        """Change-point table for one module's service-time queries.

        Every event is active on a right-continuous set (``[start,
        end)``, or ``[start, inf)`` for a crash), so all three answers
        are constant between consecutive event boundaries: segment
        ``j`` of ``(boundaries, slow, err, avail)`` covers
        ``[boundaries[j-1], boundaries[j])`` and is looked up with
        ``bisect_right(boundaries, t)``; segment 0 precedes every
        event and is neutral.  Per segment:

        * ``slow`` multiplies the active factors in event order, the
          same floats through the same operations as a scan;
        * ``err`` is the maximum active read-error probability;
        * ``avail`` is ``None`` when the module serves at once
          (``available_from(t) == t``), else the constant answer --
          ``inf`` once dead, otherwise the end of the latest active
          down window followed through whatever down windows or crash
          it runs into.  Those answers resolve right to left: the
          chain continues at a later boundary, whose segment is
          already done.
        """
        pts = sorted({e.start for e in events} |
                     {e.end for e in events if e.kind != "crash"})
        slow: List[float] = [1.0]
        err: List[float] = [0.0]
        active: Dict[int, FaultEvent] = {}
        starts: Dict[float, List[int]] = {}
        ends: Dict[float, List[int]] = {}
        for i, e in enumerate(events):
            starts.setdefault(e.start, []).append(i)
            if e.kind != "crash":
                ends.setdefault(e.end, []).append(i)
        down_ends: List[float] = []
        for p in pts:
            for i in ends.get(p, ()):
                del active[i]
            for i in starts.get(p, ()):
                active[i] = events[i]
            factor = 1.0
            prob = 0.0
            blocked = -_INF
            for i in sorted(active):
                e = active[i]
                if e.kind == "slow":
                    factor *= e.factor
                elif e.kind == "read_error":
                    prob = max(prob, e.prob)
                elif e.kind == "down" and e.end > blocked:
                    blocked = e.end
            slow.append(factor)
            err.append(prob)
            down_ends.append(blocked)
        avail: List[Optional[float]] = [None] * (len(pts) + 1)
        for j in range(len(pts), 0, -1):
            if pts[j - 1] >= crash_at:
                avail[j] = _INF
            elif down_ends[j - 1] != -_INF:
                u = down_ends[j - 1]
                later = avail[bisect_right(pts, u)]
                avail[j] = u if later is None else later
        return (pts, slow, err, avail)

    def masked_at(self, t: float) -> frozenset:
        """Modules failure-aware retrieval must avoid at time ``t``
        (dead or inside a down window).

        The masked set only changes at event boundaries (``active_at``
        is right-continuous on ``[start, end)``), so it is precomputed
        per boundary segment once and looked up by bisection -- this
        is the driver's per-dispatch hot path.  Only module-scoped
        events contribute; array-scoped faults have their own cache
        behind :meth:`masked_arrays_at`.
        """
        if self._mask_cache is None:
            self._mask_cache = self._build_mask_cache(
                self._by_module, self.is_down)
        pts, masks = self._mask_cache
        return masks[bisect_right(pts, t)]

    @staticmethod
    def _build_mask_cache(by_id: Dict[int, List[FaultEvent]],
                          is_down) -> Tuple[List[float],
                                            List[frozenset]]:
        """Change-point table for one scope's crash/down events."""
        events = [e for evs in by_id.values() for e in evs]
        pts = sorted({e.start for e in events
                      if e.kind in ("crash", "down")} |
                     {e.end for e in events
                      if e.kind == "down" and e.end != _INF})
        masks = [frozenset()] + [
            frozenset(m for m in by_id if is_down(m, p)) for p in pts]
        return (pts, masks)

    def mask_segments(self) -> Tuple[List[float], List[frozenset]]:
        """``(boundaries, masks)`` backing :meth:`masked_at`.

        ``masked_at(t) == masks[bisect_right(boundaries, t)]`` for every
        ``t``; batch drivers use this to look up the masked set for a
        whole sorted time column with one ``searchsorted`` instead of a
        bisection per request.
        """
        if self._mask_cache is None:
            self.masked_at(0.0)
        return self._mask_cache

    # -- array-scope queries ----------------------------------------------
    def is_array_dead(self, array: int, t: float) -> bool:
        """True once an array-scoped crash of ``array`` took effect."""
        return t >= self._array_crash_at.get(array, _INF)

    def is_array_down(self, array: int, t: float) -> bool:
        """True while array ``array`` is unavailable (down or dead)."""
        for e in self._by_array.get(array, ()):
            if e.kind == "crash" and t >= e.start:
                return True
            if e.kind == "down" and e.active_at(t):
                return True
        return False

    def masked_arrays_at(self, t: float) -> frozenset:
        """Arrays the cluster router must avoid at time ``t``.

        The array-scope analogue of :meth:`masked_at`, backed by its
        own change-point cache so module and array fault IDs can never
        collide (module 2 down does not mask array 2, and vice versa).
        """
        if self._array_mask_cache is None:
            self._array_mask_cache = self._build_mask_cache(
                self._by_array, self.is_array_down)
        pts, masks = self._array_mask_cache
        return masks[bisect_right(pts, t)]

    def array_mask_segments(self) -> Tuple[List[float], List[frozenset]]:
        """``(boundaries, masks)`` backing :meth:`masked_arrays_at`."""
        if self._array_mask_cache is None:
            self.masked_arrays_at(0.0)
        return self._array_mask_cache

    def for_array(self, array: int, offset: int,
                  n_modules: int) -> "FaultSchedule":
        """Restrict to one array of a cluster, rebasing module IDs.

        Module-scoped events with global IDs in ``[offset, offset +
        n_modules)`` are kept and rebased to local IDs; array-scoped
        events are dropped (they act on routing, not playback -- see
        the dispatch-atomic contract in ``docs/cluster.md``).  The
        read-error seed is offset by ``array`` so per-array draws stay
        decorrelated but deterministic.
        """
        local = [FaultEvent(e.kind, e.module - offset, e.start, e.end,
                            e.factor, e.prob)
                 for e in self.events
                 if e.scope == "module"
                 and offset <= e.module < offset + n_modules]
        return FaultSchedule(local, n_modules=n_modules,
                             seed=self.seed + array, retry=self.retry)

    def read_error_draw(self, module: int, index: int) -> float:
        """The deterministic uniform for read attempt ``index`` on
        ``module`` -- compare against :meth:`error_prob`."""
        return _uniform_hash(self.seed, module, index)

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "events": [e.to_list() for e in self.events],
            "n_modules": self.n_modules,
            "seed": self.seed,
            "retry": self.retry.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSchedule":
        retry = data.get("retry") or {}
        return cls(
            [FaultEvent.from_list(row)
             for row in data.get("events", ())],  # type: ignore[union-attr]
            n_modules=data.get("n_modules"),  # type: ignore[arg-type]
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
            retry=RetryPolicy(**retry))  # type: ignore[arg-type]

    def cache_token(self) -> str:
        """Canonical JSON identity, for experiment-cell cache keys."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultSchedule) and \
            self.cache_token() == other.cache_token()

    def __hash__(self) -> int:
        return hash(self.cache_token())

    def __repr__(self) -> str:
        return (f"FaultSchedule({len(self.events)} events, "
                f"modules={list(self.affected_modules)}, "
                f"seed={self.seed})")


@dataclass(frozen=True)
class FaultModel:
    """Seeded stochastic fault process, materialised before the run.

    Every rate is per module per millisecond of simulated horizon;
    event counts are Poisson, window durations exponential, event
    times uniform over the horizon.  :meth:`materialize` derives one
    independent substream per ``(seed, module)`` via
    ``numpy.random.SeedSequence``, so the resulting
    :class:`FaultSchedule` is a pure function of ``(self, n_modules,
    horizon_ms, seed)`` -- the determinism probe replays it twice and
    demands identity.
    """

    crash_prob: float = 0.0          #: P(module crashes inside horizon)
    down_rate: float = 0.0           #: down windows / module / ms
    down_mean_ms: float = 1.0        #: mean down-window length
    slow_rate: float = 0.0           #: slow windows / module / ms
    slow_mean_ms: float = 1.0        #: mean slow-window length
    slow_factor: float = 4.0         #: service-time multiplier
    error_rate: float = 0.0          #: read-error windows / module / ms
    error_mean_ms: float = 1.0       #: mean error-window length
    error_prob: float = 0.5          #: per-read failure prob in window
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self):
        if not 0.0 <= self.crash_prob <= 1.0:
            raise ValueError("crash_prob must be in [0, 1]")
        for name in ("down_rate", "slow_rate", "error_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("down_mean_ms", "slow_mean_ms", "error_mean_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    def materialize(self, n_modules: int, horizon_ms: float,
                    seed: int = 0) -> FaultSchedule:
        """Draw one concrete :class:`FaultSchedule`."""
        import numpy as np

        if n_modules < 1:
            raise ValueError("need at least one module")
        if horizon_ms <= 0:
            raise ValueError("horizon_ms must be > 0")
        events: List[FaultEvent] = []
        streams = np.random.SeedSequence(seed).spawn(n_modules)
        for m in range(n_modules):
            rng = np.random.default_rng(streams[m])
            # Fixed draw order per module: crash, down, slow, error.
            if rng.random() < self.crash_prob:
                events.append(FaultEvent(
                    "crash", m, float(rng.uniform(0, horizon_ms))))
            for kind, rate, mean in (
                    ("down", self.down_rate, self.down_mean_ms),
                    ("slow", self.slow_rate, self.slow_mean_ms),
                    ("read_error", self.error_rate,
                     self.error_mean_ms)):
                count = int(rng.poisson(rate * horizon_ms))
                starts = np.sort(rng.uniform(0, horizon_ms, size=count))
                lengths = rng.exponential(mean, size=count)
                for start, length in zip(starts, lengths):
                    end = float(start) + max(float(length), 1e-6)
                    if kind == "slow":
                        events.append(FaultEvent(
                            kind, m, float(start), end,
                            factor=self.slow_factor))
                    elif kind == "read_error":
                        events.append(FaultEvent(
                            kind, m, float(start), end,
                            prob=self.error_prob))
                    else:
                        events.append(FaultEvent(
                            kind, m, float(start), end))
        return FaultSchedule(events, n_modules=n_modules, seed=seed,
                             retry=self.retry)

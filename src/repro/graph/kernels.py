"""High-performance retrieval kernels: bitsets and Hall checks.

The framework stands on one primitive asked millions of times: *can
this batch of replicated requests be served in ``M`` accesses?*  The
generic answer is a bipartite matching per query
(:mod:`repro.graph.kuhn`); this module exploits the problem's
structure -- tiny device counts and many batches at once -- to answer
it in bulk instead:

* **bitset encoding** -- for ``N <= 64`` devices a request's candidate
  set is one machine int (:func:`mask_of`), so batches become small
  integer arrays;
* **vectorized Hall feasibility** -- by the capacitated Hall condition
  a batch is servable in ``M`` accesses iff every device subset ``T``
  holds at most ``M * |T|`` of the requests confined to it.
  :func:`hall_feasible_many` evaluates that for *thousands of batches
  at once* with a subset-sum (zeta) transform over the ``2^N`` device
  subsets (``N <= 16``), and :func:`batch_feasible` screens with a
  vectorized least-loaded greedy first so the transform only sees the
  few undecided batches.  Wider arrays fall through to Kuhn.  Exact --
  cross-checked against Kuhn and Dinic by the property tests;
* **warm-started matching** -- :class:`WarmStartMatcher` keeps a
  maximum matching alive across request arrivals/departures and
  repairs it with augmenting paths instead of re-solving, the right
  shape for sliding-window retrieval;
* **sampler memo** -- :data:`SAMPLER_CACHE` keeps sampled ``P_k``
  values, because the statistical-QoS experiments rebuild the same
  table many times per run.

Everything here is **exact**.  The ``kernels`` determinism probe
(``python -m repro.check --probe kernels``) checks the sampler table
against the per-trial Kuhn loop and :func:`minimum_accesses_many`
against per-batch max-flow.  Cache hit/miss statistics are always
counted (:func:`cache_stats`) and additionally exported as
``repro.obs`` counters while observability is active.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence

import numpy as np

from repro import obs
from repro.graph.kuhn import capacitated_feasible

__all__ = [
    "mask_of", "masks_of", "block_mask_array", "batch_mask_array",
    "exclusion_mask", "apply_exclusion",
    "hall_feasible_many", "batch_feasible", "feasible",
    "minimum_accesses_many", "WarmStartMatcher",
    "LruCache", "SAMPLER_CACHE", "MISS", "cache_stats", "clear_caches",
]

#: Device-count ceiling for the bitset encoding (one uint64 per set).
BITSET_MAX_DEVICES = 64

#: Device-count ceiling for the dense 2^N Hall transform.
HALL_MAX_DEVICES = 16


def _check_capacity(capacity: int) -> None:
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")


# ---------------------------------------------------------------------------
# bitset encoding
# ---------------------------------------------------------------------------

def mask_of(candidates: Sequence[int], n_devices: int) -> int:
    """Candidate device set as one machine int (bit ``d`` = device d)."""
    mask = 0
    try:
        for d in candidates:
            mask |= 1 << d
    except ValueError:  # negative shift count: a device below 0
        mask = -1
    if mask < 0 or mask >> n_devices:
        bad = next(d for d in candidates if not 0 <= d < n_devices)
        raise ValueError(f"candidate device {bad} out of range "
                         f"[0, {n_devices})")
    return mask


def masks_of(candidates: Sequence[Sequence[int]],
             n_devices: int) -> List[int]:
    """Bitset encodings of one batch's candidate lists."""
    return [mask_of(c, n_devices) for c in candidates]


def block_mask_array(blocks: Sequence[Sequence[int]],
                     n_devices: int) -> np.ndarray:
    """Per-block candidate masks as a uint64 lookup array.

    The sampler indexes this with its pick matrix to turn Monte-Carlo
    trials into mask matrices without touching Python per trial.
    """
    return np.array([mask_of(b, n_devices) for b in blocks],
                    dtype=np.uint64)


def batch_mask_array(batches: Sequence[Sequence[Sequence[int]]],
                     n_devices: int) -> np.ndarray:
    """Mask matrix (one row per batch) for equal-length batches."""
    return np.array([masks_of(b, n_devices) for b in batches],
                    dtype=np.uint64)


def exclusion_mask(excluded: Sequence[int], n_devices: int) -> int:
    """Bitset of devices to mask *out* of candidate sets.

    Failure-aware retrieval encodes the dead/degraded device set once
    (:mod:`repro.faults`) and strips it from every candidate mask with
    one AND-NOT (:func:`apply_exclusion`) instead of filtering Python
    lists per request.
    """
    return mask_of(excluded, n_devices)


def apply_exclusion(masks, excluded_mask: int):
    """Candidate masks with the excluded devices removed.

    Accepts a single int mask or a uint64 array of masks; returns the
    same shape.  A result of 0 means the request lost every replica
    (data unavailable at this failure level).
    """
    if isinstance(masks, (int, np.integer)):
        return int(masks) & ~int(excluded_mask)
    arr = np.asarray(masks, dtype=np.uint64)
    return arr & np.uint64(~int(excluded_mask) & (2**64 - 1))


def _popcounts(n_devices: int) -> np.ndarray:
    """``popcount(S)`` for every subset ``S`` of ``n_devices`` bits."""
    table = _POPCOUNT_TABLES.get(n_devices)
    if table is None:
        table = np.zeros(1, dtype=np.int64)
        for _ in range(n_devices):
            table = np.concatenate([table, table + 1])
        _POPCOUNT_TABLES[n_devices] = table
    return table


_POPCOUNT_TABLES: Dict[int, np.ndarray] = {}


# ---------------------------------------------------------------------------
# vectorized Hall feasibility
# ---------------------------------------------------------------------------

def hall_feasible_many(masks: np.ndarray, n_devices: int,
                       capacity: int) -> np.ndarray:
    """Exact feasibility of many batches via the capacitated Hall test.

    ``masks`` is ``(T, k)`` -- row ``t`` holds batch ``t``'s candidate
    masks.  A batch fits in ``capacity`` accesses iff for every device
    subset ``S``, the number of its requests whose candidates are
    confined to ``S`` is at most ``capacity * |S|`` (Hall's condition
    on the capacity-expanded bipartite graph; necessity is counting,
    sufficiency is Hall's theorem).  ``counts[S] = #{i : mask_i
    subseteq S}`` for all ``S`` at once is one subset-sum (zeta)
    transform of the mask histogram -- ``O(T * 2^N * N)`` total, no
    per-batch Python.

    Requires ``n_devices <= HALL_MAX_DEVICES``; empty candidate sets
    (mask 0) and ``capacity == 0`` fall out of the inequality
    naturally (``S`` = empty set / full set).  A negative capacity
    raises :class:`ValueError`.
    """
    _check_capacity(capacity)
    if n_devices > HALL_MAX_DEVICES:
        raise ValueError(
            f"dense Hall transform needs n_devices <= "
            f"{HALL_MAX_DEVICES}, got {n_devices}")
    masks = np.asarray(masks)
    n_trials, k = masks.shape
    if k == 0:
        return np.ones(n_trials, dtype=bool)
    size = 1 << n_devices
    limit = (capacity * _popcounts(n_devices)).astype(np.float32)
    vocab, inverse = np.unique(masks, return_inverse=True)
    n_vocab = int(vocab.size)
    if n_vocab <= 4 * max(k, n_devices):
        # Batches draw from a small mask vocabulary (design blocks
        # under Zipf popularity), so express the subset counting as a
        # matrix product: per-batch vocabulary histograms times the
        # subset-containment matrix.  BLAS does the 2^N work; float32
        # is exact here (counts never approach 2^24).
        complement = np.arange(size, dtype=np.uint64) ^ np.uint64(size - 1)
        contain = (vocab[None, :] & complement[:, None]) == 0
        flat = inverse.reshape(n_trials, k) \
            + (np.arange(n_trials, dtype=np.int64)[:, None] * n_vocab)
        hist = np.bincount(
            flat.ravel(), minlength=n_trials * n_vocab
        ).reshape(n_trials, n_vocab).astype(np.float32)
        counts = hist @ contain.astype(np.float32).T
        return (counts <= limit).all(axis=1)
    # Wide vocabulary: subset-sum (zeta) transform per batch, chunked
    # so the counts plane stays cache/memory friendly.
    out = np.empty(n_trials, dtype=bool)
    chunk = max(1, 4_000_000 // size)
    flat_masks = masks.astype(np.int64)
    limit = limit.astype(np.int64)
    for lo in range(0, n_trials, chunk):
        hi = min(n_trials, lo + chunk)
        rows = hi - lo
        offsets = np.arange(rows, dtype=np.int64)[:, None] * size
        counts = np.bincount(
            (flat_masks[lo:hi] + offsets).ravel(),
            minlength=rows * size).reshape(rows, size)
        # Zeta transform: counts[S] <- sum over subsets of S.
        for bit in range(n_devices):
            width = 1 << bit
            view = counts.reshape(rows, size >> (bit + 1), 2, width)
            view[:, :, 1, :] += view[:, :, 0, :]
        out[lo:hi] = (counts <= limit).all(axis=1)
    return out


def batch_feasible(masks: np.ndarray, n_devices: int,
                   capacity: int) -> np.ndarray:
    """Exact per-row feasibility for a ``(T, k)`` mask matrix.

    Two vectorized phases: a least-loaded greedy pass whose success is
    a feasibility *certificate* (any valid assignment proves the
    batch), then the exact Hall transform on the rows the greedy could
    not place (greedy failure proves nothing).  For
    ``n_devices > HALL_MAX_DEVICES`` the undecided leftovers fall back
    to the reference matcher row by row -- still exact, and rare.
    A negative capacity raises :class:`ValueError`.
    """
    _check_capacity(capacity)
    masks = np.asarray(masks, dtype=np.uint64)
    if masks.ndim != 2:
        raise ValueError("masks must be 2-D (trials x batch)")
    n_trials, k = masks.shape
    if n_devices > BITSET_MAX_DEVICES:
        raise ValueError(
            f"bitset kernels need n_devices <= {BITSET_MAX_DEVICES}")
    if k == 0:
        return np.ones(n_trials, dtype=bool)
    if capacity == 0:
        return np.zeros(n_trials, dtype=bool)
    bits = ((masks[:, :, None]
             >> np.arange(n_devices, dtype=np.uint64)[None, None, :])
            & np.uint64(1)).astype(bool)            # (T, k, N)
    hard_fail = ~bits.any(axis=2).all(axis=1)       # any empty mask
    loads = np.zeros((n_trials, n_devices), dtype=np.int32)
    rows = np.arange(n_trials)
    big = np.int32(np.iinfo(np.int32).max)
    for j in range(k):
        cand_loads = np.where(bits[:, j, :], loads, big)
        choice = cand_loads.argmin(axis=1)
        loads[rows, choice] += 1
    feasible = (loads.max(axis=1) <= capacity) & ~hard_fail
    undecided = ~feasible & ~hard_fail
    idx = np.nonzero(undecided)[0]
    if idx.size:
        if n_devices <= HALL_MAX_DEVICES:
            feasible[idx] = hall_feasible_many(masks[idx], n_devices,
                                               capacity)
        else:
            for t in idx:
                cands = [_bits_list(int(m)) for m in masks[t]]
                feasible[t] = capacitated_feasible(cands, n_devices,
                                                   capacity)
    return feasible


def _bits_list(mask: int) -> List[int]:
    """Set bits of ``mask`` in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _greedy_certificate(masks: Sequence[int], n_devices: int,
                        capacity: int) -> bool:
    """Scalar least-loaded greedy; True is a proof of feasibility."""
    loads = [0] * n_devices
    for mask in masks:
        best, best_load = -1, capacity
        mm = mask
        while mm:
            low = mm & -mm
            d = low.bit_length() - 1
            if loads[d] < best_load:
                best, best_load = d, loads[d]
            mm ^= low
        if best < 0:
            return False
        loads[best] += 1
    return True


def feasible(candidates: Sequence[Sequence[int]], n_devices: int,
             capacity: int) -> bool:
    """Exact single-batch feasibility.

    For ``N <= 64`` a greedy bitset certificate comes first and its
    failures escalate to the dense Hall test (``N <= 16``); every other
    case is one run of the reference matcher (:mod:`repro.graph.kuhn`).
    A negative capacity raises :class:`ValueError`.
    """
    _check_capacity(capacity)
    if not candidates:
        return True
    if capacity == 0:
        return False
    if n_devices <= BITSET_MAX_DEVICES:
        masks = masks_of(candidates, n_devices)
        if any(m == 0 for m in masks):
            return False
        if _greedy_certificate(masks, n_devices, capacity):
            return True
        if n_devices <= HALL_MAX_DEVICES:
            arr = np.array(masks, dtype=np.uint64)[None, :]
            return bool(hall_feasible_many(arr, n_devices, capacity)[0])
    return capacitated_feasible(candidates, n_devices, capacity)


def minimum_accesses_many(masks: np.ndarray,
                          n_devices: int) -> np.ndarray:
    """Optimal access count per batch for a ``(T, k)`` mask matrix.

    Escalates the access level from ``ceil(k / N)`` upward, testing
    all still-unresolved batches in one vectorized
    :func:`batch_feasible` call per level -- the bulk twin of
    :func:`repro.retrieval.maxflow.maxflow_retrieval`'s search.
    """
    from repro.retrieval.schedule import optimal_accesses

    masks = np.asarray(masks, dtype=np.uint64)
    n_trials, k = masks.shape
    result = np.zeros(n_trials, dtype=np.int64)
    if k == 0:
        return result
    unresolved = np.ones(n_trials, dtype=bool)
    level = optimal_accesses(k, n_devices)
    while unresolved.any():
        if level > k:
            raise RuntimeError(
                "retrieval search failed to terminate "
                "(empty candidate set in a batch?)")
        idx = np.nonzero(unresolved)[0]
        ok = batch_feasible(masks[idx], n_devices, level)
        done = idx[ok]
        result[done] = level
        unresolved[done] = False
        level += 1
    return result


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------

#: Sentinel distinguishing "not cached" from cached falsy values.
MISS = object()


class LruCache:
    """A small LRU with hit/miss counters and an ``repro.obs`` feed.

    Statistics are always counted (the bench tooling reads them); when
    observability is active every lookup also lands on a counter pair
    ``kernels.<name>.{hit,miss}`` in the session's kernel section.
    """

    def __init__(self, name: str, maxsize: int):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[object, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: object) -> object:
        """Cached value or :data:`MISS`; counts the lookup either way."""
        data = self._data
        value = data.get(key, MISS)
        if value is MISS:
            self.misses += 1
            if obs.ACTIVE:
                obs.SESSION.on_kernel_cache(self.name, False)
            return MISS
        data.move_to_end(key)
        self.hits += 1
        if obs.ACTIVE:
            obs.SESSION.on_kernel_cache(self.name, True)
        return value

    def put(self, key: object, value: object) -> None:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def clear(self) -> None:
        """Drop entries *and* counters (cold-start determinism)."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {"size": len(self._data), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses}


#: Sampled P_k probabilities, keyed on (blocks, trials, seed, k); the
#: adaptive-epsilon controller and the epsilon sweeps rebuild the same
#: table many times per run.
SAMPLER_CACHE = LruCache("sampler", maxsize=1 << 12)

_ALL_CACHES = (SAMPLER_CACHE,)


def clear_caches() -> None:
    """Reset every kernel cache (entries and counters).

    ``repro.obs.enable`` calls this so instrumented sessions always
    start cold -- otherwise cache warmth from earlier work would make
    per-session counter payloads depend on history and break the
    double-run determinism probes.
    """
    for cache in _ALL_CACHES:
        cache.clear()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss snapshot of every kernel cache (bench tooling)."""
    return {cache.name: cache.stats() for cache in _ALL_CACHES}


# ---------------------------------------------------------------------------
# warm-started incremental matching
# ---------------------------------------------------------------------------

class WarmStartMatcher:
    """A maximum matching maintained across arrivals and departures.

    Requests join (:meth:`add`) and leave (:meth:`remove`) one at a
    time; the matcher keeps a *maximum* capacitated matching alive by
    repairing it with single augmenting-path searches instead of
    re-solving the window from scratch.  Standard incremental-matching
    facts make this exact:

    * adding a request can extend the maximum matching by at most one,
      and one augmenting search from the new request finds that
      extension iff it exists (requests left unmatched earlier stay
      unmatchable -- arrivals add demand, not capacity);
    * removing a request frees at most one unit of capacity, so one
      successful augmenting search over the currently unmatched
      requests restores maximality.

    Therefore :attr:`feasible` (all requests matched) is always the
    exact feasibility answer for the current window at the configured
    access budget -- the property tests replay random add/remove
    traces against from-scratch Kuhn solves.  Device sets are bitsets
    (plain Python ints, so ``N > 64`` works too).
    """

    def __init__(self, n_devices: int, capacity: int):
        if n_devices < 1:
            raise ValueError("need at least one device")
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.n_devices = n_devices
        self.capacity = capacity
        self._loads = [0] * n_devices
        #: device -> {request id: None} (insertion-ordered set)
        self._residents: List[Dict[int, None]] = \
            [dict() for _ in range(n_devices)]
        self._mask: Dict[int, int] = {}
        self._device: Dict[int, int] = {}
        self._pending: Dict[int, None] = {}
        self._next_id = 0
        #: augmenting searches that had to move already-placed requests
        self.repairs = 0
        #: requests placed without disturbing the existing assignment
        self.fast_placements = 0

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._mask)

    @property
    def feasible(self) -> bool:
        """True iff every request in the window is matched."""
        return not self._pending

    @property
    def unmatched(self) -> int:
        return len(self._pending)

    def accesses(self) -> int:
        """Access rounds the current assignment uses (max device load)."""
        return max(self._loads) if self._mask else 0

    def assignment_of(self, request_id: int) -> int:
        """Device of a matched request, ``-1`` while unmatched."""
        return self._device[request_id]

    def stats(self) -> Dict[str, int]:
        return {"requests": len(self._mask),
                "unmatched": len(self._pending),
                "repairs": self.repairs,
                "fast_placements": self.fast_placements}

    # -- updates ----------------------------------------------------------
    def add(self, candidates: Sequence[int]) -> int:
        """Admit one request; returns its id for later :meth:`remove`."""
        mask = mask_of(candidates, self.n_devices)
        rid = self._next_id
        self._next_id += 1
        self._mask[rid] = mask
        self._device[rid] = -1
        if not (mask and self.capacity > 0 and self._augment(rid)):
            self._pending[rid] = None
        if obs.ACTIVE:
            obs.SESSION.on_warm_start(len(self._pending) == 0)
        return rid

    def remove(self, request_id: int) -> None:
        """Retire one request and repair the matching if that helps."""
        del self._mask[request_id]
        device = self._device.pop(request_id)
        if device < 0:
            del self._pending[request_id]
            return
        self._loads[device] -= 1
        del self._residents[device][request_id]
        # The freed unit can admit at most one waiting request.
        for rid in list(self._pending):
            if self._augment(rid):
                del self._pending[rid]
                break

    # -- internals --------------------------------------------------------
    def _augment(self, rid: int) -> bool:
        """One Kuhn-style augmenting search rooted at ``rid``."""
        return self._try_place(rid, set(), moving=False)

    def _try_place(self, rid: int, visited: set, moving: bool) -> bool:
        mask = self._mask[rid]
        current = self._device[rid] if moving else -1
        mm = mask
        while mm:
            low = mm & -mm
            mm ^= low
            d = low.bit_length() - 1
            if d == current or d in visited:
                continue
            visited.add(d)
            if self._loads[d] < self.capacity:
                self._settle(rid, d, moving)
                return True
            for resident in list(self._residents[d]):
                if self._try_place(resident, visited, moving=True):
                    self.repairs += 1
                    self._settle(rid, d, moving)
                    return True
        return False

    def _settle(self, rid: int, device: int, moving: bool) -> None:
        if moving:
            old = self._device[rid]
            del self._residents[old][rid]
            self._loads[old] -= 1
        else:
            self.fast_placements += 1
        self._device[rid] = device
        self._loads[device] += 1
        self._residents[device][rid] = None

    # -- window-level answers ---------------------------------------------
    def min_accesses(self) -> int:
        """Exact optimal access count for the current window.

        Warm level search: seed each level's matching from the current
        assignment (truncated to the level), then augment the
        leftovers -- augmenting from any valid partial matching
        reaches the maximum, so each level's answer is exact.
        """
        from repro.retrieval.schedule import optimal_accesses

        count = len(self._mask)
        if count == 0:
            return 0
        if any(m == 0 for m in self._mask.values()):
            raise ValueError("a request with no candidate devices "
                             "can never be retrieved")
        level = optimal_accesses(count, self.n_devices)
        while True:
            probe = WarmStartMatcher(self.n_devices, level)
            probe._next_id = self._next_id
            probe._mask = dict(self._mask)
            pending: List[int] = []
            for rid, device in self._device.items():
                if 0 <= device < self.n_devices \
                        and probe._loads[device] < level:
                    probe._device[rid] = device
                    probe._loads[device] += 1
                    probe._residents[device][rid] = None
                else:
                    probe._device[rid] = -1
                    pending.append(rid)
            if all(probe._augment(rid) for rid in pending):
                return level
            level += 1
            if level > count:  # pragma: no cover - masks are non-empty
                raise RuntimeError("level search failed to terminate")

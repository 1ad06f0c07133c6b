"""Admission control (paper §III-A1 deterministic, §III-B2 statistical).

Both controllers work at interval granularity: applications present
block requests and the controller answers, per request, *admit now* or
*delay/reject*.

Deterministic control admits at most ``S`` requests per interval: with
``S = (c-1)M^2 + cM`` the design guarantees retrieval within ``M``
accesses, so every admitted request finishes inside the interval.

Statistical control keeps the empirical interval-size distribution
``R_k = N_k / N_t`` (``k+1`` counters, exactly as in the paper) and the
sampled optimal-retrieval probabilities ``P_k``; it admits an interval
of size ``k > S`` as long as the violation mass

    ``Q = sum_k (1 - P_k) * R_k``

stays below the user's threshold ``epsilon``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.guarantees import guarantee_capacity

__all__ = [
    "AdmissionDecision",
    "DeterministicAdmission",
    "StatisticalAdmission",
]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission query."""

    admitted: bool
    #: Request count in the interval after this decision.
    interval_size: int
    #: The violation-probability estimate at decision time (statistical
    #: control only; 0.0 for deterministic).
    q: float = 0.0

    def __bool__(self) -> bool:
        return self.admitted


class DeterministicAdmission:
    """Hard cap of ``S`` admitted requests per interval (ε = 0).

    Parameters
    ----------
    replication:
        Copy count ``c`` of the design in use.
    accesses:
        Access budget ``M`` per interval.
    """

    def __init__(self, replication: int, accesses: int = 1):
        self.replication = replication
        self.accesses = accesses
        self.limit = guarantee_capacity(accesses, replication)
        self._count = 0

    @property
    def interval_count(self) -> int:
        """Requests admitted in the current interval."""
        return self._count

    def start_interval(self) -> None:
        """Reset at an interval boundary."""
        self._count = 0

    def resume(self, count: int) -> None:
        """Adopt a mid-interval count computed elsewhere.

        The vectorized admission kernel
        (:mod:`repro.flash.admitpath`) tracks the per-interval count
        itself; when a streaming session demotes to the scalar loop
        mid-interval, the controller resumes from the kernel's count
        so subsequent offers see exactly the state the scalar loop
        would have reached.
        """
        if count < 0 or count > self.limit:
            raise ValueError(
                f"count must be in [0, {self.limit}], got {count}")
        self._count = count

    def offer(self, n_requests: int = 1) -> AdmissionDecision:
        """Offer ``n_requests`` more requests for the current interval."""
        if n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        if self._count + n_requests <= self.limit:
            self._count += n_requests
            return AdmissionDecision(True, self._count)
        return AdmissionDecision(False, self._count)


class _QCache:
    """What ``Q`` reuses while a histogram stays as it is: the sampled
    mass per hypothetical size, and the histogram's own terms
    ``(1 - P_k) N_k / N_t`` with their running sums."""

    __slots__ = ("mass", "terms", "sums", "tail")

    def __init__(self):
        self.mass: Dict[int, float] = {}
        self.terms: Optional[np.ndarray] = None
        self.sums: Optional[np.ndarray] = None
        #: ``terms`` as floats, for summing the ones after a slot
        self.tail: Optional[list] = None


class StatisticalAdmission:
    """ε-bounded admission using sampled ``P_k`` (paper §III-B2).

    Parameters
    ----------
    probabilities:
        ``{k: P_k}`` from :class:`repro.core.sampling.OptimalRetrievalSampler`
        (missing sizes fall back to ``fallback(k)``).
    epsilon:
        Violation-probability budget; ``0`` reduces to deterministic
        behaviour.
    replication, accesses:
        Determine the deterministic limit ``S`` below which requests
        are always admitted.
    fallback:
        ``P_k`` for sizes absent from the table; defaults to the
        conservative 0 below 1 interval of headroom, i.e. ``0.0``.
    """

    def __init__(self, probabilities: Dict[int, float], epsilon: float,
                 replication: int, accesses: int = 1,
                 fallback: Callable[[int], float] | None = None):
        if epsilon < 0 or epsilon > 1:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.probabilities = dict(probabilities)
        self.epsilon = epsilon
        self.replication = replication
        self.accesses = accesses
        self.limit = guarantee_capacity(accesses, replication)
        self._fallback = fallback or (lambda k: 0.0)
        # Empirical interval-size histogram: N_k and N_t, as
        # insertion-ordered parallel arrays (running R_k histogram
        # with the 1 - P_k factors precomputed per size) so Q is one
        # elementwise product and a prefix-dot -- the same floats,
        # in the same order, as the reference dict loop.
        self._slot: Dict[int, int] = {}
        self._hist_counts = np.zeros(8, dtype=np.int64)
        self._hist_omp = np.zeros(8, dtype=np.float64)
        self._n_slots = 0
        self._hist_total = 0
        self._total_intervals = 0
        #: what ``Q`` reuses while the histogram stays as it is (see
        #: :class:`_QCache`): replaced, never cleared, whenever the
        #: histogram changes, so copies taken at the same histogram
        #: share it
        self._q = _QCache()
        self._count = 0
        # Guarantee violations knowingly admitted (conflicting requests
        # allowed to queue); they enter Q alongside the sampled
        # (1 - P_k) mass so that admissions self-limit at epsilon.
        self._violations = 0

    # -- interval bookkeeping -------------------------------------------
    @property
    def interval_count(self) -> int:
        return self._count

    def start_interval(self) -> None:
        """Close the previous interval into the histogram and reset."""
        if self._total_intervals > 0 or self._count > 0:
            self._record_size(self._count)
        self._total_intervals += 1
        self._count = 0

    def _record_size(self, size: int) -> None:
        """Fold one closed interval's request count into ``R_k``."""
        slot = self._slot.get(size)
        if slot is None:
            slot = self._new_slot(size)
        self._hist_counts[slot] += 1
        self._hist_total += 1
        self._q = _QCache()

    def _new_slot(self, size: int) -> int:
        """Open the histogram slot of a size not seen before."""
        slot = self._n_slots
        if slot == self._hist_counts.size:
            self._hist_counts = np.concatenate(
                (self._hist_counts, np.zeros(slot, dtype=np.int64)))
            self._hist_omp = np.concatenate(
                (self._hist_omp, np.zeros(slot, dtype=np.float64)))
        self._slot[size] = slot
        self._hist_omp[slot] = 1.0 - self.p_k(size)
        self._n_slots += 1
        return slot

    def close_intervals(self, sizes: Sequence[int],
                        reps: Sequence[int]) -> None:
        """Close intervals in bulk: ``reps[i]`` intervals of
        ``sizes[i]`` requests each, in order, then start a fresh one.

        The histogram (slot order, counts, totals) is the one that many
        :meth:`start_interval` calls leave when each finds the interval
        it closes at its size -- the first call's rule included: the
        very first interval is recorded only if it holds requests.  A
        run of empty intervals is one group, however long, which is how
        the vectorized admission kernel (:mod:`repro.flash.admitpath`)
        folds the intervals it passed without a scalar roll each.
        """
        first = self._total_intervals == 0
        slot_of = self._slot
        added: Dict[int, int] = {}
        closed = 0
        for size, rep in zip(sizes, reps):
            if not rep:
                continue
            closed += rep
            if first:
                first = False
                if not size:
                    rep -= 1
                    if not rep:
                        continue
            slot = slot_of.get(size)
            if slot is None:
                slot = self._new_slot(size)
            added[slot] = added.get(slot, 0) + rep
        counts = self._hist_counts
        for slot, rep in added.items():
            counts[slot] += rep
            self._hist_total += rep
        self._total_intervals += closed
        self._q = _QCache()
        self._count = 0

    def resume(self, count: int) -> None:
        """Adopt a mid-interval count computed elsewhere.

        The statistical counterpart of
        :meth:`DeterministicAdmission.resume`: the vectorized admission
        kernel folds closed intervals in with :meth:`close_intervals`
        and hands over the live interval's count here, so a session
        demoting to the scalar loop continues from exactly the state
        the loop would have reached.  Counts above ``S`` are the
        statistical controller's own, so only a negative one is
        refused.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._count = count

    def copy(self) -> "StatisticalAdmission":
        """An independent copy: folding or offering on it leaves this
        controller as it is (the ``P_k`` table is shared, read-only)."""
        twin = object.__new__(StatisticalAdmission)
        twin.__dict__.update(self.__dict__)
        twin._slot = dict(self._slot)
        twin._hist_counts = self._hist_counts.copy()
        twin._hist_omp = self._hist_omp.copy()
        return twin

    def adopt(self, other: "StatisticalAdmission") -> None:
        """Take ``other``'s histogram as this controller's own (its
        arrays, not a copy: ``other`` must not be folded again), keeping
        this one's count, ``V`` and ``epsilon``."""
        self._slot = other._slot
        self._hist_counts = other._hist_counts
        self._hist_omp = other._hist_omp
        self._n_slots = other._n_slots
        self._hist_total = other._hist_total
        self._total_intervals = other._total_intervals
        self._q = other._q

    @property
    def violations(self) -> int:
        """Guarantee violations knowingly admitted so far (``V``); set
        when replaying offers on the ``V`` an earlier batch saw."""
        return self._violations

    @violations.setter
    def violations(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"violations must be >= 0, got {value}")
        self._violations = value

    @property
    def size_counts(self) -> Dict[int, int]:
        """The empirical histogram ``{interval size: N_k}``."""
        return {size: int(self._hist_counts[slot])
                for size, slot in self._slot.items()}

    def p_k(self, k: int) -> float:
        """Optimal-retrieval probability for request size ``k``."""
        if k <= self.limit:
            return 1.0
        return self.probabilities.get(k, self._fallback(k))

    def violation_probability(self, hypothetical_size: int,
                              extra_violations: int = 0) -> float:
        """``Q`` if the current interval were to reach ``hypothetical_size``.

        Computed over the empirical distribution with the current
        interval counted at the hypothetical size.  Realized violations
        (knowingly admitted conflicts) add their own mass:

            Q = [sum_k (1 - P_k) N_k + V] / N_t

        Evaluated as a prefix-dot of the running ``R_k`` histogram
        against the precomputed ``1 - P_k`` factors (strict
        left-to-right addition order), bit-identical to the reference
        insertion-ordered dict loop.  The sampled part is kept per size
        until the histogram changes; ``V`` is added to it each call.
        """
        total = self._hist_total + 1
        mass = self._q.mass
        q = mass.get(hypothetical_size)
        if q is None:
            q = mass[hypothetical_size] = self._sampled_mass(
                hypothetical_size, total)
        q += (self._violations + extra_violations) / total
        return min(1.0, q)

    def _sampled_mass(self, size: int, total: int) -> float:
        """``sum_k (1 - P_k) N_k / N_t`` with the current interval
        counted at ``size``.

        The histogram's terms ``(1 - P_k) N_k / N_t`` and their running
        sums are computed once per histogram.  A new size adds its own
        term after the sum.  A size already in it changes one term, so
        the sum is the running sum before that term, plus the changed
        term, plus the terms after it in order -- the same additions;
        where ``1 - P_k`` is 0 (every size up to ``S``) the changed term
        is the same 0 and the sum is the histogram's own.
        """
        cache = self._q
        if cache.terms is None:
            n = self._n_slots
            cache.terms = self._hist_omp[:n] * (self._hist_counts[:n]
                                                / total)
            cache.sums = np.add.accumulate(cache.terms)
        terms, sums = cache.terms, cache.sums
        slot = self._slot.get(size)
        if slot is None:
            base = float(sums[-1]) if sums.size else 0.0
            return base + (1.0 - self.p_k(size)) * (1 / total)
        omp = self._hist_omp[slot]
        if omp == 0.0:
            return float(sums[-1])
        term = float(omp * ((self._hist_counts[slot] + 1) / total))
        if slot:
            term = float(sums[slot - 1]) + term
        if cache.tail is None:
            cache.tail = terms.tolist()
        for later in cache.tail[slot + 1:]:
            term += later
        return term

    def offer(self, n_requests: int = 1) -> AdmissionDecision:
        """Offer ``n_requests`` more requests for the current interval."""
        if n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        new_size = self._count + n_requests
        if new_size <= self.limit:
            self._count = new_size
            return AdmissionDecision(True, self._count)
        q = self.violation_probability(new_size)
        if q < self.epsilon:
            self._count = new_size
            return AdmissionDecision(True, self._count, q=q)
        return AdmissionDecision(False, self._count, q=q)

    def offer_conflict(self) -> AdmissionDecision:
        """Ask to admit a request whose replica devices are all busy.

        Admitting it knowingly violates the response-time guarantee for
        this request (it must queue), so the decision charges one
        violation against the epsilon budget: admit iff the resulting
        ``Q`` stays below epsilon.  With epsilon = 0 nothing is ever
        admitted -- exactly the deterministic behaviour.
        """
        q = self.violation_probability(self._count, extra_violations=1)
        if q < self.epsilon:
            self._violations += 1
            return AdmissionDecision(True, self._count, q=q)
        return AdmissionDecision(False, self._count, q=q)

"""Ablation studies on the framework's design choices.

Not paper artefacts, but the studies DESIGN.md calls out:

* **Copy count** -- guarantee capacity vs ``c``.
* **Device count** -- how capacity scales with ``N`` at fixed ``c``.
* **Allocation zoo** -- the §II-B2 scheme survey under arbitrary
  batches, and **query types** -- the same schemes under range /
  arbitrary queries (the paper's qualitative ranking, measured).
* **Retrieval cost** -- DTR vs max-flow wall time per batch size.
* **FIM support threshold** -- match rate vs mining cost.
* **Write interference** -- QoS erosion under replica-consistent
  writes.
* **Failure degradation** and **rebuild trade-off** -- the fault
  tolerance replication buys.
* **Heterogeneous retrieval** -- speed-aware scheduling on mixed
  arrays.
* **Intra-module parallelism** -- packages behind a channel bus.
* **Rule prefetching** -- predictive power of mined pairs.
* **Flash vs HDD** -- the paper's §II-A motivation, measured.
* **Adaptive epsilon** -- closed-loop tuning of statistical QoS.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner import ParallelRunner

import numpy as np

from repro.allocation import (
    AllocationScheme,
    DependentPeriodicAllocation,
    DesignTheoreticAllocation,
    OrthogonalAllocation,
    PartitionedAllocation,
    Raid1Chained,
    Raid1Mirrored,
    RandomDuplicateAllocation,
)
from repro.core.guarantees import guarantee_capacity
from repro.experiments.common import ExperimentResult
from repro.flash.params import MSR_SSD_PARAMS
from repro.graph import kernels
from repro.mining.apriori import apriori
from repro.mining.matching import FIMBlockMatcher
from repro.mining.transactions import transactions_from_trace
from repro.retrieval.design_theoretic import design_theoretic_retrieval
from repro.retrieval.maxflow import maxflow_retrieval
from repro.traces.exchange import exchange_like_trace

__all__ = ["copy_count", "device_count", "allocation_zoo",
           "query_types", "retrieval_cost", "fim_support", "fim_history",
           "write_interference", "failure_degradation",
           "heterogeneous_retrieval", "intra_module_parallelism",
           "rule_prefetching", "rebuild_tradeoff", "flash_vs_hdd",
           "adaptive_epsilon", "run"]


def copy_count(n_devices: int = 9, max_m: int = 3) -> ExperimentResult:
    """Guarantee capacity S(M) for c = 2 vs c = 3 on one array size."""
    rows: List[List[object]] = []
    for c in (2, 3):
        for m in range(1, max_m + 1):
            rows.append([c, m, guarantee_capacity(m, c)])
    return ExperimentResult(
        name="Ablation -- copy count vs guarantee capacity",
        headers=["copies c", "accesses M", "S(M)"],
        rows=rows,
        notes="S grows linearly in c at fixed M: more copies buy "
              "admission capacity at storage cost.",
    )


def device_count(replication: int = 3,
                 device_counts=(7, 9, 13, 15, 19, 21)) -> ExperimentResult:
    """Buckets supported and capacity for growing arrays."""
    rows: List[List[object]] = []
    for n in device_counts:
        alloc = DesignTheoreticAllocation.from_parameters(n, replication)
        rows.append([n, alloc.n_buckets,
                     guarantee_capacity(1, replication),
                     guarantee_capacity(2, replication)])
    return ExperimentResult(
        name="Ablation -- device count",
        headers=["devices N", "buckets", "S(1)", "S(2)"],
        rows=rows,
        notes="Bucket support grows as N(N-1)/(c-1); the per-interval "
              "guarantee S depends only on c and M.",
    )


def _batch_accesses(batches: List[List], n_devices: int) -> List[int]:
    """Optimal access count per batch, in bulk.

    Equal-length batches on a bitset-sized array are solved in one
    vectorized :func:`repro.graph.kernels.minimum_accesses_many` call;
    anything else takes one exact max-flow per batch.  Identical values
    either way: a schedule found at the first feasible level has
    maximum load exactly that level, so
    ``maxflow_retrieval(...).accesses`` *is* the minimum feasible
    access count (the ``kernels`` probe checks it).
    """
    if (batches and n_devices <= kernels.BITSET_MAX_DEVICES
            and len({len(b) for b in batches}) == 1):
        masks = kernels.batch_mask_array(batches, n_devices)
        return [int(a) for a in
                kernels.minimum_accesses_many(masks, n_devices)]
    return [maxflow_retrieval(b, n_devices).accesses for b in batches]


def _zoo_schemes(n: int, seed: int) -> Dict[str, AllocationScheme]:
    """The allocation schemes :func:`allocation_zoo` compares."""
    return {
        "design-theoretic": DesignTheoreticAllocation.from_parameters(n, 3),
        "raid1-mirrored": Raid1Mirrored(n, 3),
        "raid1-chained": Raid1Chained(n, 3),
        "rda": RandomDuplicateAllocation(n, 3, n_buckets=36, seed=seed),
        "partitioned": PartitionedAllocation(n, 3),
        "periodic": DependentPeriodicAllocation(n, 3),
        "orthogonal(c=2)": OrthogonalAllocation(n),
    }


def _zoo_batches(alloc: AllocationScheme, batch_size: int, trials: int,
                 rng: np.random.Generator) -> List[List]:
    """``trials`` random batches of distinct buckets, as the zoo draws."""
    batches = []
    for _ in range(trials):
        picks = rng.choice(alloc.n_buckets,
                           size=min(batch_size, alloc.n_buckets),
                           replace=False)
        batches.append([alloc.devices_for(int(b)) for b in picks])
    return batches


def allocation_zoo(batch_size: int = 9, trials: int = 400,
                   seed: int = 0) -> ExperimentResult:
    """Worst/mean optimal access count per allocation scheme.

    Random batches of ``batch_size`` distinct buckets, scheduled
    optimally (max-flow); the spread across schemes shows why the
    paper picks design-theoretic allocation.
    """
    n = 9
    rng = np.random.default_rng(seed)
    rows: List[List[object]] = []
    for name, alloc in _zoo_schemes(n, seed).items():
        # Draw every trial first (RNG stream unchanged), then solve
        # the whole set in one vectorized kernel call.
        batches = _zoo_batches(alloc, batch_size, trials, rng)
        accs = _batch_accesses(batches, n)
        rows.append([name, alloc.replication, max(accs),
                     round(sum(accs) / trials, 3)])
    return ExperimentResult(
        name=f"Ablation -- allocation zoo (batch={batch_size}, N={n})",
        headers=["scheme", "copies", "worst accesses", "mean accesses"],
        rows=rows,
        notes="Optimal (max-flow) retrieval for every scheme; the "
              "difference is purely the placement.",
    )


def query_types(batch_size: int = 9, trials: int = 400,
                seed: int = 0) -> ExperimentResult:
    """Scheme performance per query type (paper §II-B2's ranking).

    *Arbitrary* queries draw random buckets; *range* queries draw
    consecutive bucket runs.  The paper's qualitative claims under
    test: partitioned and dependent-periodic allocation "perform well"
    for range queries but degrade on arbitrary ones, while the
    design-theoretic scheme's guarantee is query-type independent.
    """
    n = 9
    schemes: Dict[str, object] = {
        "design-theoretic": DesignTheoreticAllocation.from_parameters(
            n, 3),
        "partitioned": PartitionedAllocation(n, 3),
        "periodic": DependentPeriodicAllocation(n, 3),
        "raid1-mirrored": Raid1Mirrored(n, 3),
        "rda": RandomDuplicateAllocation(n, 3, n_buckets=36, seed=seed),
    }
    rng = np.random.default_rng(seed)
    rows: List[List[object]] = []
    for name, alloc in schemes.items():
        batches: Dict[str, List[List]] = {"arbitrary": [], "range": []}
        for _ in range(trials):
            arb = rng.choice(alloc.n_buckets, size=batch_size,
                             replace=False)
            start = int(rng.integers(0, alloc.n_buckets))
            rng_query = [(start + j) % alloc.n_buckets
                         for j in range(batch_size)]
            for kind, picks in (("arbitrary", arb),
                                ("range", rng_query)):
                batches[kind].append(
                    [alloc.devices_for(int(b)) for b in picks])
        stats = {kind: _batch_accesses(batches[kind], n)
                 for kind in ("arbitrary", "range")}
        rows.append([
            name,
            round(float(np.mean(stats["range"])), 3),
            int(np.max(stats["range"])),
            round(float(np.mean(stats["arbitrary"])), 3),
            int(np.max(stats["arbitrary"])),
        ])
    return ExperimentResult(
        name=f"Ablation -- query types (batch={batch_size}, N={n})",
        headers=["scheme", "range mean", "range worst",
                 "arbitrary mean", "arbitrary worst"],
        rows=rows,
        notes="§II-B2 ranking: periodic/partitioned strong on range "
              "queries but weaker on arbitrary ones; design-theoretic "
              "holds its guarantee for both.",
    )


def retrieval_cost(sizes=(5, 14, 27, 50, 100), trials: int = 50,
                   seed: int = 0) -> ExperimentResult:
    """Wall time of DTR vs max-flow per batch size (§III-C trade-off)."""
    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    blocks = [alloc.devices_for(b) for b in range(alloc.n_buckets)]
    rng = np.random.default_rng(seed)
    rows: List[List[object]] = []
    for b in sizes:
        batches = [[blocks[i] for i in rng.integers(0, 36, size=b)]
                   for _ in range(trials)]
        t0 = time.perf_counter()
        for batch in batches:
            design_theoretic_retrieval(batch, 9)
        t_dtr = (time.perf_counter() - t0) / trials
        t0 = time.perf_counter()
        for batch in batches:
            maxflow_retrieval(batch, 9)
        t_flow = (time.perf_counter() - t0) / trials
        rows.append([b, round(1e6 * t_dtr, 1), round(1e6 * t_flow, 1),
                     round(t_flow / t_dtr, 2) if t_dtr else ""])
    return ExperimentResult(
        name="Ablation -- retrieval cost (DTR vs max-flow)",
        headers=["batch size", "DTR (us)", "max-flow (us)", "ratio"],
        rows=rows,
        notes="The §III-C policy runs DTR first and pays max-flow "
              "only on suboptimal outcomes.  With the specialised "
              "capacitated matcher (docs/performance.md) the exact "
              "solver runs at DTR-like cost at these batch sizes, so "
              "the paper's O(b) vs O(b^3) gap is no longer the "
              "binding concern in this implementation.",
    )


def fim_support(supports=(1, 2, 3, 5), scale: float = 0.5,
                seed: int = 0) -> ExperimentResult:
    """Match rate and mining time vs minimum support (Exchange-like)."""
    parts = exchange_like_trace(scale=scale, seed=seed, n_intervals=8)
    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    matcher = FIMBlockMatcher(alloc)
    rows: List[List[object]] = []
    for sup in supports:
        rates, secs = [], 0.0
        prev = None
        for part in parts:
            if prev is not None:
                txns = transactions_from_trace(prev, 0.133)
                t0 = time.perf_counter()
                res = matcher.match(apriori(txns, sup, max_size=2))
                secs += time.perf_counter() - t0
                rates.append(res.match_rate(part.block))
            prev = part
        rows.append([sup, round(100 * float(np.mean(rates)), 2),
                     round(secs, 4)])
    return ExperimentResult(
        name="Ablation -- FIM minimum support",
        headers=["min support", "mean % matched", "total mining (s)"],
        rows=rows,
        notes="Higher support prunes rare pairs: cheaper mining, "
              "lower match coverage (paper §IV-A / Table IV).",
    )


def write_interference(write_fractions=(0.0, 0.05, 0.1, 0.2),
                       rate_per_ms: float = 12.0,
                       duration_ms: float = 100.0,
                       seed: int = 0) -> ExperimentResult:
    """Deterministic QoS erosion under replica-consistent writes.

    Writes occupy all ``c`` replicas (and pay program latency), so the
    same arrival rate produces more conflicts as the write fraction
    grows -- the cost of replication the paper's read-only evaluation
    leaves implicit.
    """
    from repro.flash.driver import OnlineTracePlayer

    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    rng = np.random.default_rng(seed)
    n = int(rate_per_ms * duration_ms)
    arrivals = np.sort(rng.uniform(0, duration_ms, size=n))
    buckets = rng.integers(0, 36, size=n)
    rows: List[List[object]] = []
    for wf in write_fractions:
        reads = rng.random(n) >= wf
        player = OnlineTracePlayer(alloc, 0.133)
        series, _ = player.play(list(arrivals), list(buckets),
                                reads=list(reads))
        st = series.overall()
        rows.append([wf, round(st.pct_delayed, 2),
                     round(st.avg_delay, 4), round(st.avg, 5),
                     round(st.max, 5)])
    return ExperimentResult(
        name="Ablation -- write interference (deterministic QoS)",
        headers=["write fraction", "% delayed", "avg delay (ms)",
                 "avg response", "max response"],
        rows=rows,
        notes="Writes hit every replica: conflicts and delays grow "
              "with the write share at a fixed arrival rate.",
    )


def failure_degradation(max_failures: int = 2, batch_size: int = 5,
                        trials: int = 400,
                        seed: int = 0) -> ExperimentResult:
    """Guarantee and measured retrieval cost under device failures."""
    from repro.allocation.degraded import (
        DegradedAllocation,
        degraded_capacity,
    )

    base = DesignTheoreticAllocation.from_parameters(9, 3)
    rng = np.random.default_rng(seed)
    rows: List[List[object]] = []
    for f in range(max_failures + 1):
        alloc = (DegradedAllocation(base, range(f)) if f else base)
        batches = []
        for _ in range(trials):
            picks = rng.choice(base.n_buckets, size=batch_size,
                               replace=False)
            batches.append([alloc.devices_for(int(b)) for b in picks])
        accs = _batch_accesses(batches, base.n_devices)
        rows.append([f, degraded_capacity(1, 3, f),
                     degraded_capacity(2, 3, f), max(accs),
                     round(sum(accs) / trials, 3)])
    return ExperimentResult(
        name="Ablation -- failure degradation ((9,3,1), batch=5)",
        headers=["failed devices", "S(1)", "S(2)", "worst accesses",
                 "mean accesses"],
        rows=rows,
        notes="The design's pairwise balance survives restriction: "
              "capacity degrades to the (c-f)-copy guarantee instead "
              "of collapsing.",
    )


def heterogeneous_retrieval(slow_factor: float = 3.0,
                            n_slow: int = 3, batch_size: int = 9,
                            trials: int = 300,
                            seed: int = 0) -> ExperimentResult:
    """Speed-aware vs speed-oblivious scheduling on a mixed array.

    A mixed array (e.g. replacement modules of a different grade) has
    ``n_slow`` devices ``slow_factor``x slower.  The classic max-flow
    scheduler balances *counts*; the generalized scheduler
    (Altiparmak & Tosun [14]) balances *time* and wins on makespan.
    """
    from repro.retrieval.generalized import generalized_retrieval

    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    blocks = [alloc.devices_for(b) for b in range(36)]
    base = MSR_SSD_PARAMS.read_ms
    service = [base * slow_factor if d < n_slow else base
               for d in range(9)]
    rng = np.random.default_rng(seed)
    naive_total = general_total = 0.0
    naive_worst = general_worst = 0.0
    for _ in range(trials):
        picks = rng.choice(36, size=batch_size, replace=False)
        cands = [blocks[int(b)] for b in picks]
        naive = maxflow_retrieval(cands, 9)
        loads = [0.0] * 9
        for d in naive.assignment:
            loads[d] += service[d]
        naive_ms = max(loads)
        general = generalized_retrieval(cands, 9, service)
        naive_total += naive_ms
        general_total += general.makespan
        naive_worst = max(naive_worst, naive_ms)
        general_worst = max(general_worst, general.makespan)
    rows = [
        ["count-balanced max-flow", round(naive_total / trials, 4),
         round(naive_worst, 4)],
        ["generalized (speed-aware)", round(general_total / trials, 4),
         round(general_worst, 4)],
    ]
    return ExperimentResult(
        name=f"Ablation -- heterogeneous retrieval "
             f"({n_slow} devices {slow_factor}x slower)",
        headers=["scheduler", "mean makespan (ms)",
                 "worst makespan (ms)"],
        rows=rows,
        notes="Speed-oblivious balancing parks work on slow modules; "
              "the generalized scheduler minimises completion time.",
    )


def intra_module_parallelism(package_counts=(1, 2, 4, 8),
                             n_requests: int = 32) -> ExperimentResult:
    """Channel-level flash geometry: packages per module vs throughput.

    Array reads overlap across packages while transfers serialise on
    the channel bus, so module throughput climbs from ``1/read_ms``
    toward ``1/transfer_ms`` as packages are added (paper Fig 1's
    module internals).
    """
    from repro.flash.array import IORequest
    from repro.flash.geometry import ChannelFlashModule
    from repro.sim import Environment

    rows: List[List[object]] = []
    for packages in package_counts:
        env = Environment()
        module = ChannelFlashModule(env, 0, n_packages=packages)
        ios = []
        for i in range(n_requests):
            io = IORequest(arrival=0.0, bucket=i)
            io.done = env.event()
            module.submit(io)
            ios.append(io)
        env.run()
        makespan = max(io.completed_at for io in ios)
        rows.append([packages, round(makespan, 4),
                     round(n_requests / makespan, 2)])
    return ExperimentResult(
        name="Ablation -- intra-module parallelism",
        headers=["packages", "makespan (ms)", "throughput (req/ms)"],
        rows=rows,
        notes="Throughput saturates at the channel-transfer bound "
              "1/transfer_ms once array reads fully overlap.",
    )


def rule_prefetching(scale: float = 0.3,
                     min_confidence: float = 0.6,
                     seed: int = 0) -> ExperimentResult:
    """Association-rule prefetching on both workload models.

    Rules mined from interval ``i-1`` prefetch blocks during interval
    ``i``; the hit rate measures how much *predictive* power the
    frequent pairs carry -- high for the TPC-E-like hot set, near zero
    for the Exchange-like mail traffic (the Figure 11 gap, seen from a
    different angle).
    """
    from repro.mining.prefetch import simulate_prefetching
    from repro.traces.tpce import tpce_like_trace

    rows: List[List[object]] = []
    workloads = [
        ("exchange", exchange_like_trace(scale=scale, seed=seed,
                                         n_intervals=8)),
        ("tpce", tpce_like_trace(scale=scale, seed=seed)),
    ]
    for label, parts in workloads:
        st = simulate_prefetching(parts, min_confidence=min_confidence)
        rows.append([label, st.total, st.prefetches,
                     round(100 * st.hit_rate, 2),
                     round(100 * st.accuracy, 2)])
    return ExperimentResult(
        name="Ablation -- association-rule prefetching",
        headers=["workload", "requests", "prefetches", "hit rate %",
                 "prefetch accuracy %"],
        rows=rows,
        notes="Mined-rule prefetching pays off only where patterns "
              "persist across intervals (TPC-E), echoing Fig 11.",
    )


def rebuild_tradeoff(parallelisms=(1, 2, 4, 8),
                     blocks_per_bucket: int = 20,
                     rate_per_ms: float = 40.0,
                     duration_ms: float = 50.0,
                     seed: int = 0) -> ExperimentResult:
    """Rebuild speed vs foreground interference after a module failure.

    Replication enables online rebuild of a failed module from the
    surviving replicas; more parallel rebuild streams shorten the
    reduced-redundancy window but steal more service slots from
    foreground reads -- until the replacement module's program
    throughput floors the rebuild time.
    """
    from repro.flash.rebuild import RebuildSimulator

    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    rng = np.random.default_rng(seed)
    n = int(rate_per_ms * duration_ms)
    arrivals = np.sort(rng.uniform(0, duration_ms, n))
    buckets = rng.integers(0, 36, n)
    rows: List[List[object]] = []
    for par in parallelisms:
        sim = RebuildSimulator(alloc, failed_device=0,
                               blocks_per_bucket=blocks_per_bucket,
                               parallelism=par)
        rep = sim.run(list(arrivals), list(buckets))
        rows.append([par, round(rep.rebuild_time_ms, 1), rep.n_rebuilt,
                     round(rep.foreground_slowdown, 4),
                     round(rep.foreground.max, 4)])
    return ExperimentResult(
        name="Ablation -- rebuild speed vs foreground impact",
        headers=["rebuild streams", "rebuild time (ms)",
                 "blocks rebuilt", "fg slowdown", "fg max (ms)"],
        rows=rows,
        notes="Faster rebuild shortens the reduced-redundancy window "
              "at the cost of foreground latency; the floor is the "
              "replacement module's program throughput.",
    )


def flash_vs_hdd(requests_per_interval: int = 5,
                 interval_ms: float = 10.0,
                 total_requests: int = 3000,
                 seed: int = 0) -> ExperimentResult:
    """The paper's motivation claim (§II-A), measured.

    The *same* design-theoretic allocation and batch scheduler on a
    flash array vs a 15K-RPM HDD array: flash responses are flat at the
    service time (deterministic guarantees possible); HDD responses
    scatter over seek + rotational latency (only best effort possible).
    """
    from repro.flash.driver import BatchTracePlayer
    from repro.flash.hdd import ENTERPRISE_15K, HDDModule
    from repro.traces.synthetic import synthetic_trace

    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    trace = synthetic_trace(requests_per_interval, interval_ms,
                            total_requests=total_requests, seed=seed)
    rows: List[List[object]] = []
    players = {
        "flash array": BatchTracePlayer(alloc, interval_ms),
        "15K-RPM HDD array": BatchTracePlayer(
            alloc, interval_ms,
            module_factory=lambda env, i: HDDModule(
                env, i, ENTERPRISE_15K, seed=seed)),
    }
    for label, player in players.items():
        series, _ = player.play(trace.arrival_ms, trace.block)
        st = series.overall()
        cov = st.std / st.avg if st.avg else 0.0
        rows.append([label, round(st.avg, 5), round(st.std, 5),
                     round(st.max, 5), round(cov, 4)])
    return ExperimentResult(
        name="Ablation -- flash vs HDD (paper §II-A motivation)",
        headers=["array", "avg (ms)", "std (ms)", "max (ms)",
                 "coeff. of variation"],
        rows=rows,
        notes="Identical allocation and scheduling; only the medium "
              "differs.  Flash: zero variance (guarantees possible); "
              "HDD: seek+rotation scatter (best effort only).",
    )


def adaptive_epsilon(target_pct: float = 2.0, scale: float = 0.4,
                     n_intervals: int = 16,
                     seed: int = 1) -> ExperimentResult:
    """Closed-loop epsilon tuning toward a delayed-%% target.

    The paper leaves choosing epsilon to the operator (§V-E); an AIMD
    controller holds the delayed fraction near a target across the
    Exchange-like workload's varying intervals.
    """
    from repro.core.adaptive import AdaptiveEpsilonController

    parts = exchange_like_trace(scale=scale, seed=seed,
                                n_intervals=n_intervals)
    ctrl = AdaptiveEpsilonController(target_pct, epsilon0=1e-4,
                                     gain=0.6)
    res = ctrl.drive(parts, n_devices=9)
    rows: List[List[object]] = [
        [i, f"{e:.6f}", round(d, 2), round(r, 6)]
        for i, (e, d, r) in enumerate(zip(res.epsilons,
                                          res.delayed_pct,
                                          res.avg_response))]
    mean_tail = float(np.mean(res.delayed_pct[2:]))
    rows.append(["mean(>2)", "", round(mean_tail, 2), ""])
    return ExperimentResult(
        name=f"Ablation -- adaptive epsilon (target "
             f"{target_pct}%% delayed)",
        headers=["interval", "epsilon", "% delayed", "avg response"],
        rows=rows,
        notes="AIMD feedback keeps the delayed fraction near the "
              "target despite interval-to-interval workload swings.",
    )


def fim_history(history_lengths=(1, 2, 4, 8), scale: float = 0.5,
                decay: float = 0.6, seed: int = 0) -> ExperimentResult:
    """Mining-history depth vs FIM match rate (paper §V-D).

    "Longer history can be used for better matching of the design
    blocks to the data blocks": mine the last ``H`` intervals with
    exponential decay instead of only the previous one, and measure
    the Figure-11 match rate on the Exchange-like workload.
    """
    parts = exchange_like_trace(scale=scale, seed=seed, n_intervals=12)
    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    matcher = FIMBlockMatcher(alloc)
    mined = [apriori(transactions_from_trace(p, 0.133), 1, max_size=2)
             for p in parts]
    rows: List[List[object]] = []
    for h in history_lengths:
        rates = []
        for i in range(1, len(parts)):
            history = mined[max(0, i - h):i]
            res = matcher.match_history(history, decay=decay)
            rates.append(res.match_rate(parts[i].block))
        rows.append([h, round(100 * float(np.mean(rates)), 2)])
    return ExperimentResult(
        name="Ablation -- FIM history depth",
        headers=["history intervals", "mean % matched"],
        rows=rows,
        notes="Deeper history recognises more recurring blocks "
              "(diminishing returns as old patterns expire).",
    )


def _cell_ablation(name: str,
                   kwargs: Dict[str, int]) -> ExperimentResult:
    """Run one ablation by name (module-level, so cells pickle)."""
    return globals()[name](**kwargs)


def run(seed: int = 0,
        runner: "Optional[ParallelRunner]" = None,
        ) -> List[ExperimentResult]:
    """All ablations with default parameters, seeded from one root.

    ``copy_count``, ``device_count`` and ``intra_module_parallelism``
    are exhaustive (no sampling), so they take no seed.
    """
    from repro.runner import Cell, ParallelRunner

    runner = runner or ParallelRunner()
    specs = [("copy_count", {}), ("device_count", {}),
             ("allocation_zoo", {"seed": seed}),
             ("query_types", {"seed": seed}),
             ("retrieval_cost", {"seed": seed}),
             ("fim_support", {"seed": seed}),
             ("fim_history", {"seed": seed}),
             ("write_interference", {"seed": seed}),
             ("failure_degradation", {"seed": seed}),
             ("heterogeneous_retrieval", {"seed": seed}),
             ("intra_module_parallelism", {}),
             ("rule_prefetching", {"seed": seed}),
             ("rebuild_tradeoff", {"seed": seed}),
             ("flash_vs_hdd", {"seed": seed}),
             ("adaptive_epsilon", {"seed": seed + 1})]
    # retrieval_cost and fim_support time wall clock in-cell, so they
    # are measurements of this host, not cacheable pure functions.
    timed = {"retrieval_cost", "fim_support"}
    return runner.run([
        Cell("ablations", name, _cell_ablation, (name, kwargs),
             cacheable=name not in timed)
        for name, kwargs in specs])

#!/usr/bin/env python3
"""Operations scenario: surviving a module failure.

Walks the operational lifecycle the replication buys beyond QoS:

1. a healthy array serving deterministic-QoS traffic,
2. a module fails -- the guarantee degrades gracefully from the
   3-copy capacity S=5 to the 2-copy capacity S=3 and traffic keeps
   flowing off the surviving replicas,
3. the module is rebuilt online at different aggressiveness levels,
   showing the rebuild-speed vs foreground-latency trade-off,
4. repair restores the full guarantee.

Run: ``python examples/failure_operations.py``
"""

import numpy as np

from repro import QoSFlashArray
from repro.flash.rebuild import RebuildSimulator
from repro.traces.synthetic import synthetic_trace


def main() -> None:
    qos = QoSFlashArray(n_devices=9, replication=3, interval_ms=0.133)
    print(f"Healthy array: S = {qos.capacity_per_interval} requests "
          f"per interval, guarantee {qos.guarantee_ms:.6f} ms\n")

    trace = synthetic_trace(3, 0.133, total_requests=900, seed=21)

    print("1. Healthy operation:")
    report = qos.run_online(trace.arrival_ms, trace.block)
    print(f"   max response {report.max_response_ms:.6f} ms, "
          f"guarantee met: {report.guarantee_met}\n")

    print("2. Device 0 fails:")
    qos.fail_device(0)
    print(f"   degraded capacity S = {qos.capacity_per_interval} "
          f"(2-copy guarantee), effective replication "
          f"{qos.replication}")
    report = qos.run_online(trace.arrival_ms, trace.block)
    used = set(np.unique(report.requests.device).tolist())
    print(f"   traffic keeps flowing: max response "
          f"{report.max_response_ms:.6f} ms, guarantee met: "
          f"{report.guarantee_met}; device 0 used: {0 in used}\n")
    assert report.guarantee_met
    assert 0 not in used

    print("3. Online rebuild (240 blocks) under foreground load:")
    rng = np.random.default_rng(22)
    n = 1500
    arrivals = list(np.sort(rng.uniform(0, 40.0, n)))
    buckets = [int(b) for b in rng.integers(0, 36, n)]
    print(f"   {'streams':>7} | {'priority':>8} | {'rebuild ms':>10} | "
          f"{'fg slowdown':>11}")
    for parallelism, polite in ((1, False), (8, False), (8, True)):
        sim = RebuildSimulator(qos.allocation.base
                               if hasattr(qos.allocation, 'base')
                               else qos.allocation,
                               failed_device=0,
                               blocks_per_bucket=20,
                               parallelism=parallelism,
                               low_priority=polite)
        rep = sim.run(arrivals, buckets)
        print(f"   {parallelism:>7} | {'low' if polite else 'normal':>8} "
              f"| {rep.rebuild_time_ms:>10.1f} | "
              f"{rep.foreground_slowdown:>11.4f}")
    print()

    print("4. Repair:")
    qos.repair_device(0)
    print(f"   capacity restored to S = {qos.capacity_per_interval}")
    report = qos.run_online(trace.arrival_ms, trace.block)
    assert report.guarantee_met
    print(f"   guarantee met again: {report.guarantee_met}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Video-on-demand scenario: periodic streams with hard deadlines.

The paper's introduction motivates the framework with multimedia
streaming and video on demand.  Here a flash array serves several
constant-bitrate video streams; each stream is an application in the
§III-A sense (a declared request size per period), admission control
bounds the admitted set, and the deterministic guarantee translates
directly into zero missed frame deadlines.

Run: ``python examples/video_streaming.py``
"""

import numpy as np

from repro import QoSFlashArray
from repro.core.applications import Application, ApplicationAdmission
from repro.traces.streaming import StreamSpec, deadline_misses, \
    streaming_trace


def main() -> None:
    qos = QoSFlashArray(n_devices=9, replication=3, interval_ms=0.133)
    print(f"Array: (9,3,1) design, guarantee "
          f"{qos.guarantee_ms:.6f} ms, S = {qos.capacity_per_interval} "
          f"requests per {qos.interval_ms} ms interval\n")

    # Five streams; each reads one 8 KB block per period.  Within any
    # 0.133 ms admission interval at most one block per stream arrives,
    # so each stream declares request size 1.
    specs = [
        StreamSpec("movie-4k", period_ms=0.40, start_block=0,
                   length_blocks=10_000),
        StreamSpec("movie-hd", period_ms=0.80, start_block=20_000,
                   length_blocks=10_000, offset_ms=0.05),
        StreamSpec("sports-hd", period_ms=0.70, start_block=40_000,
                   length_blocks=10_000, offset_ms=0.11,
                   jitter_ms=0.02),
        StreamSpec("news-sd", period_ms=1.50, start_block=60_000,
                   length_blocks=10_000, offset_ms=0.03),
        StreamSpec("cartoon-sd", period_ms=1.30, start_block=80_000,
                   length_blocks=10_000, offset_ms=0.07,
                   jitter_ms=0.01),
    ]

    print("Admitting streams (declared size = 1 request/interval):")
    admission = ApplicationAdmission(replication=3, accesses=1)
    admitted = []
    for spec in specs:
        ok = admission.admit(Application(spec.name, 1))
        print(f"  {spec.name:<11} period {spec.period_ms:.2f} ms -> "
              f"{'admitted' if ok else 'REJECTED'}")
        if ok:
            admitted.append(spec)
    print()

    duration = 60.0
    trace, owners = streaming_trace(admitted, duration_ms=duration,
                                    seed=1)
    print(f"Simulating {len(trace)} block reads over {duration} ms...")
    report = qos.run_online(trace.arrival_ms, trace.block)

    # report.requests is a PlayedTable: per-request columns in play
    # order; scatter the completions back into trace order
    played = report.requests
    completions = np.zeros(len(trace))
    completions[played.index] = played.completed
    score = deadline_misses(admitted, owners, completions,
                            list(trace.arrival_ms))

    print(f"\n{'stream':<11} | {'requests':>8} | {'missed deadlines':>16}")
    print("-" * 42)
    total_missed = 0
    for name, row in score.items():
        print(f"{name:<11} | {row['total']:>8} | {row['missed']:>16}")
        total_missed += row["missed"]
    print(f"\nmax response: {report.max_response_ms:.6f} ms "
          f"(guarantee {report.guarantee_ms:.6f})")
    assert report.guarantee_met
    assert total_missed == 0, "admitted streams must never miss"
    print("Zero missed deadlines across all admitted streams.")


if __name__ == "__main__":
    main()

"""One repeat of one workload, in a fresh process.

    python -m bench.repeat setup|time|check|trace WORKLOAD SEED SCALE

``setup`` only imports the library and builds the system objects, for
one more ``setup_s`` sample.  The other modes run the workload once.
``check`` then also replays a prefix on the fast path and on the DES,
after the measurements are taken; ``trace`` runs under
:class:`bench.tracer.Tracer` and writes its spans to
``bench/out/<workload>.trace.json``.  The result is one JSON line on
stdout.
:mod:`bench.__main__` starts this module and sets the environment
(``PYTHONPATH``, ``PYTHONHASHSEED=0``, single-threaded BLAS).
"""

import contextlib
import gc
import json
import os
import resource
import sys
import time

from bench import OUT_DIR
from bench.tracer import Tracer


def _run(mode: str, name: str, seed: int, scale: str) -> dict:
    i0 = time.perf_counter()
    # imports numpy and the library: the first part of ``setup_s``
    from bench import workloads

    import_s = time.perf_counter() - i0
    wl = workloads.WORKLOADS[name]
    size = wl.sizes[scale]
    if mode == "setup":
        inputs = wl.generate(seed, size)
        b0 = time.perf_counter()
        wl.build(inputs, size)
        return {"setup_s": import_s + (time.perf_counter() - b0)}
    tracer = Tracer() if mode == "trace" else None
    with tracer or contextlib.nullcontext():
        generate = wl.generate if tracer is None \
            else tracer.wrap(wl.generate, "traces.generate")
        inputs = generate(seed, size)
        b0 = time.perf_counter()
        system = wl.build(inputs, size)
        b1 = time.perf_counter()
        # start the timed region with no garbage left from generation
        gc.collect()
        t0 = time.perf_counter()
        played = wl.play(system, inputs)
        t1 = time.perf_counter()
    out = {
        "setup_s": import_s + (b1 - b0),
        "timed_s": t1 - t0,
        "n_requests": played.n_requests,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "summary": played.summary,
        "chunk_s": played.chunk_s,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(t0, t1)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with open(OUT_DIR / f"{name}.trace.json", "w") as fh:
            json.dump({"workload": name, "seed": seed, "scale": scale,
                       "timed": [t0, t1], "spans": tracer.to_json()}, fh)
    out["fingerprint"], out["n_reported"] = wl.identity(played)
    out["census"] = wl.census(system, inputs, played)
    if mode == "check" and hasattr(wl, "prefix_check"):
        out["prefix_equal"] = wl.prefix_check(inputs, size)
    return out


def main(argv) -> None:
    mode, name, seed, scale = argv
    out = _run(mode, name, int(seed), scale)
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    # skip interpreter teardown: freeing a million request objects one
    # by one takes seconds and measures nothing
    os._exit(0)


if __name__ == "__main__":
    main(sys.argv[1:])

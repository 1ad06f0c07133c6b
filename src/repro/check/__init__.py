"""Determinism and invariant checking for the reproduction.

The QoS guarantees of the paper are statements about *exact* system
behaviour: a deterministic event-driven simulation, flow networks whose
solutions respect conservation and capacity, and allocations whose
pairwise balance underwrites the retrieval theorem.  ``repro.check``
turns those obligations into tooling:

``repro.check.lint``
    An AST-based linter with repo-specific rules (no unseeded RNG or
    wall-clock reads in simulation code, no unordered-set iteration, no
    inline latency constants, ...).  Each rule can be waived on a line
    with a ``# repro: allow[rule-id]`` pragma.

``repro.check.flow``
    A whole-program static analysis: taint from determinism sinks,
    seed provenance, parallel-cell pickle-safety and fault-contract
    forwarding, run via ``python -m repro.check --all``.  It reads the
    same per-file facts as the linter
    (:mod:`repro.check.flow.summary`), and the same pragmas waive its
    findings.

``repro.check.sanitizers``
    Runtime invariant assertions -- flow conservation, event-ordering
    monotonicity, FCFS service order, replica-placement validity --
    compiled in behind the ``REPRO_SANITIZERS`` environment variable so
    the hot paths stay free when disabled.

``repro.check.determinism``
    A double-execution probe: run a seeded experiment twice and demand
    bit-identical serialized results.

``python -m repro.check`` runs the lot and emits a JSON report; see
``docs/checking.md``.  The package itself imports nothing, so the hot
paths' ``from repro.check import sanitizers`` does not load the
analysis tooling.
"""

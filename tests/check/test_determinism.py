"""Determinism double-run probes."""

import pytest

from repro.check.determinism import (
    PROBE_WORKLOADS,
    determinism_probe,
)


def test_fig8_double_run_is_bit_identical():
    probe = determinism_probe("fig8", seed=0)
    assert probe.identical
    assert probe.runs == 2
    assert len(set(probe.digests)) == 1
    assert "bit-identical" in probe.detail


def test_selfcheck_probe_is_bit_identical():
    probe = determinism_probe("selfcheck", seed=3)
    assert probe.identical


def test_probe_detects_nondeterminism():
    # a runner that consumes fresh entropy every call must be caught
    import numpy as np

    counter = iter(range(1000))

    def noisy_runner(seed):
        return f"{seed}:{next(counter)}:{np.random.default_rng(next(counter)).random()}"

    probe = determinism_probe("fig8", seed=0, runner=noisy_runner)
    assert not probe.identical
    assert "diverge" in probe.detail


def test_probe_requires_two_runs():
    with pytest.raises(ValueError):
        determinism_probe("fig8", runs=1)


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown probe workload"):
        determinism_probe("no-such-workload")


def test_probe_registry_names():
    assert {"fig8", "table3", "selfcheck"} <= set(PROBE_WORKLOADS)


def test_probe_seed_changes_digest():
    a = determinism_probe("fig8", seed=0)
    b = determinism_probe("fig8", seed=1)
    assert a.digests[0] != b.digests[0]


def test_probe_to_dict_round_trip():
    probe = determinism_probe("fig8", seed=0)
    d = probe.to_dict()
    assert d["workload"] == "fig8"
    assert d["identical"] is True
    assert len(d["digests"]) == 2


def _flip_first_row(fn):
    def flipped(*args, **kwargs):
        out = fn(*args, **kwargs).copy()
        out[0] = not out[0]
        return out
    return flipped


def _bump_first_answer(fn):
    def bumped(*args, **kwargs):
        out = fn(*args, **kwargs).copy()
        out[0] += 1
        return out
    return bumped


@pytest.mark.parametrize("name, corrupt, message", [
    ("batch_feasible", _flip_first_row, "sampler kernel diverged"),
    ("minimum_accesses_many", _bump_first_answer,
     "minimum_accesses_many diverged"),
])
def test_kernels_probe_raises_on_a_wrong_kernel_answer(
        monkeypatch, name, corrupt, message):
    from repro.graph import kernels

    monkeypatch.setattr(kernels, name, corrupt(getattr(kernels, name)))
    try:
        with pytest.raises(ValueError, match=message):
            PROBE_WORKLOADS["kernels"](0)
    finally:
        kernels.clear_caches()  # drop the corrupted sampler entries


def test_admission_probe_raises_on_one_flipped_admission(monkeypatch):
    # The probe's reference is a session demoted before its first
    # feed; a kernel that denies a single request the scalar loop
    # admits must be caught by the kernel-vs-reference comparison.
    from repro.flash.admitpath import VectorAdmissionWindow

    take = VectorAdmissionWindow.take
    flipped = []

    def take_flipping_one(self, until_ms):
        plan = take(self, until_ms)
        if plan is not None and plan.n_admitted and not flipped:
            first = int(plan.admitted.argmax())
            plan.admitted = plan.admitted.copy()
            plan.admitted[first] = False
            flipped.append(first)
        return plan

    monkeypatch.setattr(VectorAdmissionWindow, "take", take_flipping_one)
    with pytest.raises(ValueError, match="diverged from the scalar loop"):
        PROBE_WORKLOADS["admission"](0)
    assert flipped

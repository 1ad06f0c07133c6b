"""Unit tests for schedules and the three retrieval algorithms."""

import numpy as np
import pytest

from repro.allocation.design_theoretic import DesignTheoreticAllocation
from repro.graph import kernels
from repro.retrieval import (
    RetrievalSchedule,
    combined_retrieval,
    design_theoretic_retrieval,
    maxflow_retrieval,
    optimal_accesses,
)
from repro.retrieval.maxflow import (
    is_retrievable_in,
    maxflow_retrieval_with_carry,
)
from repro.retrieval.online import OnlineRetriever, online_access_count
from repro.retrieval.schedule import device_loads


@pytest.fixture(scope="module")
def alloc():
    return DesignTheoreticAllocation.from_parameters(9, 3)


@pytest.fixture(scope="module")
def blocks(alloc):
    return [alloc.devices_for(b) for b in range(alloc.n_buckets)]


class TestSchedule:
    def test_optimal_accesses(self):
        assert optimal_accesses(0, 9) == 0
        assert optimal_accesses(9, 9) == 1
        assert optimal_accesses(10, 9) == 2
        with pytest.raises(ValueError):
            optimal_accesses(-1, 9)
        with pytest.raises(ValueError):
            optimal_accesses(1, 0)

    def test_device_loads(self):
        assert device_loads([0, 0, 2], 3) == [2, 0, 1]

    def test_accesses_is_max_load(self):
        s = RetrievalSchedule((0, 0, 1), 3)
        assert s.accesses == 2
        assert not s.is_optimal

    def test_empty_schedule(self):
        s = RetrievalSchedule((), 9)
        assert s.accesses == 0
        assert s.is_optimal

    def test_rounds_no_device_repeats(self):
        s = RetrievalSchedule((0, 1, 0, 1, 2), 3)
        rounds = s.rounds()
        for members in rounds.values():
            devs = [d for _, d in members]
            assert len(devs) == len(set(devs))
        placed = sorted(i for ms in rounds.values() for i, _ in ms)
        assert placed == [0, 1, 2, 3, 4]


class TestDesignTheoreticRetrieval:
    def test_empty(self):
        assert design_theoretic_retrieval([], 9).n_requests == 0

    def test_no_conflict_uses_primaries(self):
        cands = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        s = design_theoretic_retrieval(cands, 9)
        assert s.assignment == (0, 3, 6)

    def test_remaps_conflicting_primary(self):
        cands = [(0, 1, 2), (0, 3, 6)]
        s = design_theoretic_retrieval(cands, 9)
        assert s.accesses == 1
        assert len(set(s.assignment)) == 2

    def test_figure5_t3_remapping(self):
        # T3 of Table I: 4 requests; (0,1,2) remaps to d2, (1,3,8) to d3
        cands = [(1, 4, 7), (1, 3, 8), (0, 5, 7), (0, 1, 2)]
        s = design_theoretic_retrieval(cands, 9)
        assert s.accesses == 1

    def test_chain_remapping_needed(self):
        # single-step moves insufficient: needs a relocation chain
        cands = [(0, 1, 2), (0, 1, 2), (1, 2, 0), (2, 0, 1)]
        s = design_theoretic_retrieval(cands, 9)
        assert s.accesses == 2  # 4 requests over 3 devices

    def test_guarantee_small_batches(self, blocks):
        rng = np.random.default_rng(0)
        for _ in range(3000):
            k = int(rng.integers(1, 6))
            picks = rng.choice(36, size=k, replace=False)
            s = design_theoretic_retrieval([blocks[p] for p in picks], 9)
            assert s.accesses == 1, picks

    def test_guarantee_medium_batches(self, blocks):
        rng = np.random.default_rng(1)
        for _ in range(1500):
            k = int(rng.integers(6, 15))
            picks = rng.choice(36, size=k, replace=False)
            s = design_theoretic_retrieval([blocks[p] for p in picks], 9)
            assert s.accesses <= 2, picks

    def test_guarantee_level_mode(self, blocks):
        cands = [blocks[i] for i in (0, 3, 6, 9, 20, 30)]
        s = design_theoretic_retrieval(cands, 9, guarantee_level=True,
                                       replication=3)
        assert s.accesses <= 2

    def test_explicit_start_level(self, blocks):
        cands = [blocks[i] for i in range(5)]
        s = design_theoretic_retrieval(cands, 9, start_level=2)
        assert s.accesses <= 2


class TestMaxflowRetrieval:
    def test_empty(self):
        assert maxflow_retrieval([], 9).n_requests == 0

    def test_always_optimal_vs_bruteforce(self, blocks):
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(1, 12))
            picks = rng.integers(0, 36, size=k)
            cands = [blocks[p] for p in picks]
            s = maxflow_retrieval(cands, 9)
            # verify optimality: no schedule with fewer accesses exists
            assert not is_retrievable_in(cands, 9, s.accesses - 1)
            assert is_retrievable_in(cands, 9, s.accesses)

    def test_duplicates_force_extra_access(self):
        cands = [(0, 1, 2)] * 4
        s = maxflow_retrieval(cands, 9)
        assert s.accesses == 2

    def test_fig3_nine_nonconflicting(self):
        # §III-B: 9 requests retrievable in 1 access
        cands = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (3, 8, 1), (4, 8, 0),
                 (5, 7, 0), (6, 0, 3), (7, 0, 5), (8, 1, 3)]
        s = maxflow_retrieval(cands, 9)
        assert s.accesses == 1

    def test_with_carry_zero_equals_plain(self, blocks):
        cands = [blocks[i] for i in range(7)]
        plain = maxflow_retrieval(cands, 9)
        carried = maxflow_retrieval_with_carry(cands, 9, [0.0] * 9)
        assert carried.accesses == plain.accesses

    def test_with_carry_avoids_busy_devices(self):
        cands = [(0, 1, 2)]
        carry = [5.0, 0.0, 5.0] + [0.0] * 6
        s = maxflow_retrieval_with_carry(cands, 9, carry)
        assert s.assignment == (1,)

    def test_with_carry_negative_rejected(self):
        with pytest.raises(ValueError):
            maxflow_retrieval_with_carry([(0, 1, 2)], 9, [-1.0] * 9)


class TestCombinedPolicy:
    def test_always_optimal(self, blocks):
        rng = np.random.default_rng(3)
        for _ in range(400):
            k = int(rng.integers(1, 15))
            picks = rng.integers(0, 36, size=k)
            cands = [blocks[p] for p in picks]
            s = combined_retrieval(cands, 9)
            assert not is_retrievable_in(cands, 9, s.accesses - 1)


class TestOnlineRetrieval:
    def test_access_count_empty(self):
        assert online_access_count([], 9) == 0

    def test_greedy_can_be_suboptimal(self):
        # arrival order traps the greedy; optimal is 1 access
        cands = [(0, 1, 2), (1, 3, 8), (2, 5, 8), (0, 1, 2)]
        assert online_access_count(cands, 9) == 2
        assert maxflow_retrieval(cands, 9).accesses == 1

    def test_three_requests_always_one_access(self, blocks):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            picks = rng.integers(0, 36, size=3)
            assert online_access_count([blocks[p] for p in picks], 9) == 1

    def test_retriever_validation(self):
        with pytest.raises(ValueError):
            OnlineRetriever(0, 1.0)
        with pytest.raises(ValueError):
            OnlineRetriever(9, 0.0)

    def test_idle_device_preferred(self):
        r = OnlineRetriever(9, 1.0)
        d1 = r.serve(0.0, (0, 1, 2))
        assert d1.device == 0
        d2 = r.serve(0.0, (0, 1, 2))
        assert d2.device == 1  # 0 busy, first idle copy

    def test_earliest_finish_when_all_busy(self):
        r = OnlineRetriever(3, 1.0)
        r.serve(0.0, (0,))
        r.serve(0.0, (1,))
        r.serve(0.0, (1,))   # device 1 busy until 2.0
        r.serve(0.0, (2,))
        d = r.serve(0.5, (0, 1, 2))
        assert d.device in (0, 2)  # earliest finish (1.0), not 1 (2.0)
        assert d.start == 1.0
        assert d.response_time == pytest.approx(1.5)

    def test_fcfs_ordering_enforced(self):
        r = OnlineRetriever(9, 1.0)
        r.serve(5.0, (0,))
        with pytest.raises(ValueError):
            r.serve(4.0, (1,))

    def test_batch_uses_optimal_schedule(self):
        r = OnlineRetriever(9, 1.0)
        cands = [(0, 1, 2), (1, 3, 8), (2, 5, 8), (0, 1, 2)]
        decisions = r.serve_batch(0.0, cands)
        finishes = [d.finish for d in decisions]
        assert max(finishes) == 1.0  # one access round

    def test_wait_and_response_accounting(self):
        r = OnlineRetriever(1, 2.0)
        a = r.serve(0.0, (0,))
        b = r.serve(1.0, (0,))
        assert a.wait == 0.0
        assert b.wait == 1.0
        assert b.response_time == 3.0

    def test_idle_devices_snapshot(self):
        r = OnlineRetriever(3, 1.0)
        r.serve(0.0, (1,))
        assert r.idle_devices(0.5) == (0, 2)
        assert r.earliest_idle((0, 1)) == 0.0


class TestTimelineRendering:
    def test_single_round_layout(self):
        s = RetrievalSchedule((0, 3, 6), 9)
        text = s.render_timeline()
        lines = text.splitlines()
        assert lines[0].startswith("device")
        assert len(lines) == 2 + 9
        assert "d0" in lines[2]
        # devices 0, 3, 6 serve; others idle
        assert lines[2].endswith("0")
        assert lines[4].strip().endswith(".")

    def test_multi_round_columns(self):
        s = RetrievalSchedule((0, 0, 1), 3)
        text = s.render_timeline()
        assert "r0" in text and "r1" in text

    def test_labels(self):
        s = RetrievalSchedule((0, 1), 2)
        text = s.render_timeline(labels=["abc", "xyz"])
        assert "abc" in text and "xyz" in text
        with pytest.raises(ValueError):
            s.render_timeline(labels=["only-one"])

    def test_every_request_appears_once(self):
        s = RetrievalSchedule((0, 1, 0, 2, 1), 3)
        text = s.render_timeline()
        for i in range(5):
            assert str(i) in text


class TestValidateSchedule:
    def test_valid_passes(self, blocks):
        from repro.retrieval.schedule import validate_schedule

        cands = [blocks[i] for i in range(5)]
        validate_schedule(combined_retrieval(cands, 9), cands)

    def test_cardinality_mismatch(self):
        from repro.retrieval.schedule import validate_schedule

        s = RetrievalSchedule((0,), 9)
        with pytest.raises(ValueError, match="covers"):
            validate_schedule(s, [(0, 1), (1, 2)])

    def test_non_replica_rejected(self):
        from repro.retrieval.schedule import validate_schedule

        s = RetrievalSchedule((5,), 9)
        with pytest.raises(ValueError, match="not a replica"):
            validate_schedule(s, [(0, 1, 2)])

    def test_out_of_range_rejected(self):
        from repro.retrieval.schedule import validate_schedule

        s = RetrievalSchedule((12,), 9)
        with pytest.raises(ValueError, match="out of range"):
            validate_schedule(s, [(12,)])


_BAD_INPUTS = {
    # out-of-range candidate devices name the request
    "device-below-0": (lambda: maxflow_retrieval([[-1], [2]], 3),
                       "request 0: candidate device -1"),
    "device-past-N": (lambda: maxflow_retrieval([[0], [3]], 3),
                      "request 1: candidate device 3"),
    "mask-below-0": (lambda: kernels.mask_of([-1], 9),
                     "candidate device -1 out of range"),
    # a negative access budget raises on every solver path
    "retrievable-negative": (lambda: is_retrievable_in([[0]], 9, -1),
                             "capacity must be >= 0"),
    "feasible-negative": (lambda: kernels.feasible([[0]], 9, -1),
                          "capacity must be >= 0"),
    "batch-negative": (lambda: kernels.batch_feasible(
        np.array([[1]], dtype=np.uint64), 9, -1),
        "capacity must be >= 0"),
    # carry is checked before rounding, at its full length
    "carry-negative-fraction": (lambda: maxflow_retrieval_with_carry(
        [[0, 1]], 3, [-0.5, 1.0, 0.0]), "carry must be finite"),
    "carry-infinite": (lambda: maxflow_retrieval_with_carry(
        [[0, 1]], 2, [float("inf"), 0.0]), "carry must be finite"),
    "carry-short": (lambda: maxflow_retrieval_with_carry(
        [[0, 2]], 3, [1.0, 0.0]), "carry has 2 entries"),
    "carry-long": (lambda: maxflow_retrieval_with_carry(
        [[0, 1]], 2, [1.0, 0.0, 5.0]), "carry has 3 entries"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_invalid_retrieval_input_rejected(case):
    call, message = _BAD_INPUTS[case]
    with pytest.raises(ValueError, match=message):
        call()

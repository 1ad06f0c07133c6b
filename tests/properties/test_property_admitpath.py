"""Property-based byte-identity of the segmented admission kernel.

:mod:`repro.flash.admitpath` claims the vectorized admission/dispatch
path is bit-for-bit the scalar reference loop under *any* counting-
admission workload the kernel accepts -- random interval boundaries,
delayed-request pileups that chain across intervals, reject-mode
drops, fault schedules that shift placement mid-trace, mixed
read/write traffic (a write costs ``c`` budget units, so a denied
write can be followed by admitted reads), and arbitrary chunked
feeding.  These properties sweep all of it and compare the full
per-request record against the scalar reference loop -- a session
demoted before its first feed, or at a random ``advance`` cut --
plus chunked sessions against one-shot plays.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultModel, FaultSchedule
from repro.flash.driver import OnlineTracePlayer
from repro.flash.params import MSR_SSD_PARAMS
from tests.support.builders import design_alloc, reference_session

ALLOC = design_alloc()

#: arrivals quantized to 10 us so simultaneous batches and boundary
#: coincidences actually happen; pileups come from tight quanta
traces = st.lists(
    st.tuples(st.integers(0, 2000),
              st.integers(0, ALLOC.n_buckets - 1)),
    min_size=1, max_size=80,
).map(lambda rows: sorted((t * 0.01, b) for t, b in rows))

#: the same, packed into 2 ms so intervals congest and spills chain
dense_traces = st.lists(
    st.tuples(st.integers(0, 200),
              st.integers(0, ALLOC.n_buckets - 1)),
    min_size=10, max_size=80,
).map(lambda rows: sorted((t * 0.01, b) for t, b in rows))

intervals = st.sampled_from([0.1, 0.133, 0.4, 1.0])
overflows = st.sampled_from(["delay", "reject"])
#: admission budget scales with M (limit = (c-1)M^2 + cM)
accesses_st = st.integers(1, 3)


@st.composite
def schedules(draw):
    events = draw(st.lists(
        st.tuples(st.integers(0, 8), st.floats(0, 20, allow_nan=False),
                  st.floats(0.05, 8, allow_nan=False),
                  st.booleans()),
        min_size=0, max_size=12))
    evs = [FaultEvent("crash", m, start) if crash else
           FaultEvent("down", m, start, start + dur)
           for m, start, dur, crash in events]
    return FaultSchedule(evs, n_modules=9, seed=3) if evs else None


@st.composite
def mixed_schedules(draw):
    """Scripted crash/down windows, or a stochastic schedule with slow
    and read-error windows as well."""
    if draw(st.booleans()):
        return draw(schedules())
    model = FaultModel(crash_prob=0.2, down_rate=0.2, down_mean_ms=1.0,
                       slow_rate=0.3, slow_mean_ms=1.0, slow_factor=3.0,
                       error_rate=0.3, error_mean_ms=1.0, error_prob=0.5)
    return model.materialize(9, horizon_ms=20.0,
                             seed=draw(st.integers(0, 1000)))


def played_key(played):
    return [(p.index, p.interval, p.delayed, p.rejected, p.io.is_read,
             p.io.device, p.io.issued_at, p.io.started_at,
             p.io.completed_at, p.io.failed, p.io.fail_reason,
             p.io.faulted, p.io.retries)
            for p in played]


def play(trace, interval_ms, overflow, accesses, faults,
         chunks=None, reads=None, advance=False, reference=False):
    """Play ``trace``; with ``chunks``, feed a session chunk by chunk
    (and, with ``advance``, advance to each next chunk's first
    arrival in between); with ``reference``, on the scalar loop."""
    arrivals = [t for t, _ in trace]
    buckets = [b for _, b in trace]
    player = OnlineTracePlayer(ALLOC, interval_ms=interval_ms,
                               overflow=overflow, accesses=accesses,
                               params=MSR_SSD_PARAMS, faults=faults)
    if reference:
        session = reference_session(player)
    elif chunks is None:
        _, played = player.play(arrivals, buckets, reads=reads)
        return played
    else:
        session = player.session()
    chunks = chunks or [(0, len(arrivals))]
    for lo, hi in chunks:
        session.feed(arrivals[lo:hi], buckets[lo:hi],
                     reads=None if reads is None else reads[lo:hi])
        if advance and hi < len(arrivals):
            session.advance(arrivals[hi])
    _, played = session.drain()
    return played


def chunking(n, n_chunks):
    size = max(1, n // n_chunks)
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


@settings(max_examples=60, deadline=None)
@given(traces, intervals, overflows, accesses_st, schedules())
def test_vector_matches_scalar(trace, interval_ms, overflow, accesses,
                               faults):
    vec = play(trace, interval_ms, overflow, accesses, faults)
    ref = play(trace, interval_ms, overflow, accesses, faults,
               reference=True)
    assert played_key(vec) == played_key(ref)


@settings(max_examples=40, deadline=None)
@given(traces, intervals, overflows, accesses_st, schedules(),
       st.integers(1, 6))
def test_chunked_session_matches_one_shot(trace, interval_ms,
                                          overflow, accesses, faults,
                                          n_chunks):
    chunks = chunking(len(trace), n_chunks)
    chunked = play(trace, interval_ms, overflow, accesses, faults,
                   chunks=chunks)
    one_shot = play(trace, interval_ms, overflow, accesses, faults)
    assert played_key(chunked) == played_key(one_shot)


#: a write mask per trace row: writes are common enough that congested
#: intervals hold several of them
write_masks = st.lists(st.integers(0, 3).map(lambda v: v != 0),
                       min_size=80, max_size=80)


@settings(max_examples=80, deadline=None)
@given(dense_traces, intervals, overflows, accesses_st,
       mixed_schedules(), write_masks, st.integers(1, 6), st.booleans())
def test_writes_vector_matches_scalar(trace, interval_ms, overflow,
                                      accesses, faults, mask, n_chunks,
                                      advance):
    # writes cost c units and fan out to every live replica; the
    # session stays on the kernel and must still equal the scalar
    # loop, fed in one chunk or many (advancing between chunks or not)
    reads = mask[:len(trace)]
    chunks = chunking(len(trace), n_chunks)
    vec = play(trace, interval_ms, overflow, accesses, faults,
               chunks=chunks, reads=reads, advance=advance)
    ref = play(trace, interval_ms, overflow, accesses, faults,
               reads=reads, reference=True)
    assert played_key(vec) == played_key(ref)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 35),
                          st.booleans()),
                min_size=1, max_size=60),
       overflows, mixed_schedules())
def test_writes_at_interval_boundaries(rows, overflow, faults):
    # arrivals on a 0.1 ms grid against a 0.4 ms interval: every
    # fourth grid point is a boundary, where arrivals, spilled writes
    # and spilled reads meet in one simultaneous batch
    rows = sorted(rows)
    trace = [(q * 0.1, b) for q, b, _ in rows]
    reads = [r for _, _, r in rows]
    chunks = chunking(len(trace), 3)
    vec = play(trace, 0.4, overflow, 1, faults, chunks=chunks,
               reads=reads, advance=True)
    ref = play(trace, 0.4, overflow, 1, faults, reads=reads,
               reference=True)
    assert played_key(vec) == played_key(ref)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(1, 2), overflows)
def test_pileup_chains_match_scalar(per_interval, accesses, overflow):
    # every interval oversubscribed: delay mode chains spills across
    # consecutive boundaries, reject mode drops the overflow
    trace = sorted((k * 0.4 + j * 0.004, (k * per_interval + j) % 36)
                   for k in range(8) for j in range(per_interval))
    vec = play(trace, 0.4, overflow, accesses, None)
    ref = play(trace, 0.4, overflow, accesses, None, reference=True)
    assert played_key(vec) == played_key(ref)


@settings(max_examples=40, deadline=None)
@given(dense_traces, overflows, write_masks, st.data())
def test_time_resolution_demotion_with_writes_matches_scalar(
        trace, overflow, mask, data):
    # cut the stream mid-interval after some reads and writes, then
    # feed a chunk holding two arrivals 5e-13 apart: the session
    # demotes and resume() must adopt the units (writes count c),
    # not the request count
    reads = mask[:len(trace)]
    cut = data.draw(st.integers(1, len(trace) - 1))
    t_near = trace[cut][0]
    trace = trace[:cut] + [(t_near, 0), (t_near + 5e-13, 1)] + trace[cut:]
    reads = reads[:cut] + [True, False] + reads[cut:]
    arrivals = [t for t, _ in trace]
    buckets = [b for _, b in trace]

    def run(reference=False):
        player = OnlineTracePlayer(ALLOC, interval_ms=0.4,
                                   overflow=overflow,
                                   params=MSR_SSD_PARAMS)
        session = reference_session(player) if reference \
            else player.session()
        session.feed(arrivals[:cut], buckets[:cut], reads=reads[:cut])
        session.advance(t_near)
        session.feed(arrivals[cut:], buckets[cut:], reads=reads[cut:])
        return session, session.drain()[1]

    session, vec = run()
    assert session.admission_fallback_reason == "time_resolution"
    _, ref = run(reference=True)
    assert played_key(vec) == played_key(ref)


@settings(max_examples=60, deadline=None)
@given(dense_traces, intervals, overflows, accesses_st,
       mixed_schedules(), write_masks, st.data())
def test_demotion_at_an_advance_cut_matches(trace, interval_ms,
                                            overflow, accesses, faults,
                                            mask, data):
    # the scalar reference needs no switch: a session demoted at any
    # advance cut hands its pending state over exactly, so it equals
    # both the kernel play and the session demoted before its first
    # feed, on reads and writes, faults, delay and reject alike
    reads = mask[:len(trace)]
    arrivals = [t for t, _ in trace]
    buckets = [b for _, b in trace]
    cut = data.draw(st.integers(0, len(trace)))
    vec = play(trace, interval_ms, overflow, accesses, faults,
               reads=reads)
    ref = play(trace, interval_ms, overflow, accesses, faults,
               reads=reads, reference=True)
    player = OnlineTracePlayer(ALLOC, interval_ms=interval_ms,
                               overflow=overflow, accesses=accesses,
                               params=MSR_SSD_PARAMS, faults=faults)
    session = player.session()
    session.feed(arrivals[:cut], buckets[:cut], reads=reads[:cut])
    if cut < len(trace):
        session.advance(arrivals[cut])
    if session.admission_kernel == "vector":
        session._demote("reference")
    session.feed(arrivals[cut:], buckets[cut:], reads=reads[cut:])
    _, demoted = session.drain()
    assert session.admission_kernel == "scalar"
    assert played_key(demoted) == played_key(vec) == played_key(ref)

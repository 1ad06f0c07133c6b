"""Stacked FCFS evaluation: many constant-rate queues in one numpy pass.

The paper's default array is the degenerate queueing regime: every
module is a deterministic constant-rate FCFS server (one 8 KB read =
0.132507 ms, no positional delays).  In that regime stepping the event
loop request-by-request computes nothing the Lindley recurrence does
not give in closed form:

.. math::

    c_i = \\max(u_i, c_{i-1}) + s_i

where ``u_i`` is the issue time of the *i*-th request on a module,
``s_i`` its service time and ``c_i`` its completion time.  Sweeps and
the faulted replay evaluate hundreds of such queues -- trials x
intervals x modules -- so this module stacks them: all independent
FCFS streams are concatenated into one ragged array (`issue`,
`offsets` in CSR style) and the recurrence runs over the whole stack
at once -- one busy-period location pass, one verification pass, one
accumulate loop over busy periods.  A single queue is the one-stream
stack ``offsets = [0, n]``.

Exactness contract
------------------
Per-stream results are **bit-identical** to the scalar recurrence
(:func:`_sequential_var`, and therefore to the DES).  The textbook
vectorization re-associates the floating-point additions (``k * s``
instead of ``s`` added ``k`` times), so it is used only to *locate*
busy periods; each busy period is then replayed with
``np.add.accumulate`` -- strict left-to-right addition, the event
loop's exact operation sequence -- and the located boundaries are
verified against the exact completions, falling back to the
per-stream sequential recurrence wherever a boundary moved.  The
locator may be sloppy (it shifts streams by large constants to run one
global cumulative maximum); the verifier is not.

:func:`played_metrics` is the other half of sweep cost: per-cell
request metrics folded with numpy instead of per-request Python
loops, reproducing the reference loop's float additions exactly
(:func:`repro.obs.metrics.sequential_sum` -- not ``np.sum``, whose
pairwise reassociation could drift a rounded golden digit).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.obs.metrics import sequential_sum

__all__ = [
    "stacked_fcfs_completion_times",
    "stream_offsets",
    "played_metrics",
]


def stream_offsets(stream_ids, n_streams: int):
    """Group items into concatenated streams (CSR layout).

    Parameters
    ----------
    stream_ids:
        Per-item stream index (e.g. the device a request was issued
        to), in issue order.
    n_streams:
        Total stream count.

    Returns
    -------
    (order, offsets):
        ``order`` stably sorts items by stream (preserving per-stream
        FIFO order); ``offsets`` has length ``n_streams + 1`` with
        stream ``s`` occupying ``order[offsets[s]:offsets[s+1]]``.
    """
    ids = np.ascontiguousarray(stream_ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    counts = np.bincount(ids, minlength=n_streams)
    offsets = np.zeros(n_streams + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return order, offsets


def _locate_starts(u: np.ndarray, svc: np.ndarray,
                   offsets: np.ndarray) -> np.ndarray:
    """Candidate busy-period start flags for every stacked stream.

    Uses the closed-form locator ``c_i = S_i + max_{j<=i}(u_j -
    S_{j-1})`` (``S`` the running service sum) evaluated with one
    global cumulative maximum: each stream is shifted by a constant
    large enough to dominate the previous streams' keys, which makes
    the global ``np.maximum.accumulate`` segment-local.  The shifts
    cost precision -- acceptable because every boundary is verified
    against the exact completions afterwards.
    """
    n = u.size
    lengths = np.diff(offsets)
    starts = np.zeros(n, dtype=bool)
    starts[offsets[:-1][lengths > 0]] = True
    if n == 1 or np.all(lengths <= 1):
        return starts  # single item or all-singleton streams
    cs = np.cumsum(svc)
    base = np.repeat(cs[offsets[:-1][lengths > 0]] -
                     svc[offsets[:-1][lengths > 0]], lengths[lengths > 0])
    run = cs - base                      # within-stream inclusive cumsum
    key = u - (run - svc)                # u_j - S_{j-1}
    span = float(np.max(key) - np.min(key)) + 1.0
    if not np.isfinite(span):
        span = 1.0
    stream_of = np.repeat(np.arange(offsets.size - 1,
                                    dtype=np.float64)[lengths > 0],
                          lengths[lengths > 0])
    shifted = np.maximum.accumulate(key + stream_of * span)
    approx = (shifted - stream_of * span) + run
    starts[1:] |= u[1:] > approx[:-1]
    starts[offsets[:-1][lengths > 0]] = True
    return starts


def _accumulate(u: np.ndarray, svc: np.ndarray,
                starts: np.ndarray) -> np.ndarray:
    """Exact completions given busy-period starts (variable service).

    Within a busy period the recurrence degenerates to
    ``c_a = u_a + s_a; c_i = c_{i-1} + s_i`` -- reproduced exactly by
    ``np.add.accumulate``'s strict left-to-right accumulation.  Busy
    periods are laid out as the rows of one zero-padded matrix per
    power-of-two length class, so a stack of thousands of short
    periods costs a few accumulations along ``axis=1`` rather than one
    call each.
    """
    n = u.size
    bounds = np.flatnonzero(starts)
    lengths = np.diff(np.append(bounds, n))
    out = svc.copy()
    out[bounds] = u[bounds] + svc[bounds]
    multi = lengths > 1
    bounds, lengths = bounds[multi], lengths[multi]
    widths = 1 << np.ceil(np.log2(lengths)).astype(np.int64)
    for width in np.unique(widths).tolist():
        cls = widths == width
        cols = np.arange(width)
        idx = bounds[cls][:, None] + cols
        live = cols < lengths[cls][:, None]
        rows = np.where(live, out[np.minimum(idx, n - 1)], 0.0)
        np.add.accumulate(rows, axis=1, out=rows)
        out[idx[live]] = rows[live]
    return out


def _sequential_var(u: np.ndarray, svc: np.ndarray) -> np.ndarray:
    """Reference scalar recurrence with per-item service (exact)."""
    out = np.empty_like(u)
    prev = -np.inf
    for i in range(u.size):
        t = u[i]
        prev = (t if t > prev else prev) + svc[i]
        out[i] = prev
    return out


def stacked_fcfs_completion_times(issue_ms, offsets,
                                  service_ms) -> np.ndarray:
    """Completion times for a whole stack of independent FCFS streams.

    Parameters
    ----------
    issue_ms:
        Concatenated nondecreasing-within-stream issue times.
    offsets:
        ``n_streams + 1`` stream boundaries (CSR style), e.g. from
        :func:`stream_offsets`.
    service_ms:
        Scalar (homogeneous) or per-item service times.

    Returns
    -------
    numpy.ndarray
        Stacked completions, each stream bit-identical to the scalar
        recurrence (:func:`_sequential_var`) on that stream alone.
    """
    u = np.ascontiguousarray(issue_ms, dtype=np.float64)
    offs = np.ascontiguousarray(offsets, dtype=np.intp)
    n = u.size
    if offs.size < 2 or offs[0] != 0 or offs[-1] != n or \
            np.any(np.diff(offs) < 0):
        raise ValueError("offsets must be a CSR boundary array")
    if n == 0:
        return np.empty(0, dtype=np.float64)
    svc = np.asarray(service_ms, dtype=np.float64)
    if svc.ndim == 0:
        svc = np.full(n, float(svc))
    elif svc.shape != u.shape:
        raise ValueError("per-item service must align with issue times")
    if np.any(svc < 0):
        raise ValueError("service times must be >= 0")
    interior = np.ones(n, dtype=bool)
    interior[offs[:-1][np.diff(offs) > 0]] = False
    if np.any(u[interior] < u[np.flatnonzero(interior) - 1]):
        raise ValueError("issue times must be nondecreasing per stream")
    starts = _locate_starts(u, svc, offs)
    out = _accumulate(u, svc, starts)
    # Verify every located boundary against the exact completions;
    # re-run streams where ulp drift (or the locator's shifts) moved
    # one.  At an interior item a start is exact when u[i] >= out[i-1]
    # and a continuation when u[i] <= out[i-1]: at a tie both give
    # the recurrence's one float.
    idx = np.flatnonzero(interior)
    prev = out[idx - 1]
    bad = idx[np.where(starts[idx], u[idx] < prev, u[idx] > prev)]
    if bad.size:
        for s in np.unique(np.searchsorted(offs, bad, side="right") - 1):
            a, b = offs[s], offs[s + 1]
            out[a:b] = _sequential_var(u[a:b], svc[a:b])
    return out


def played_metrics(played, guarantee_ms: float,
                   ) -> Tuple[float, float, float, float]:
    """Degraded-mode cell metrics over one play-through, in bulk.

    ``played`` is a :class:`~repro.flash.played.PlayedTable`.  Returns
    ``(avg_ms, pct_delayed, failed, violation_rate)`` exactly as the
    reference per-request loops compute them (the faults experiment's
    row shape): served = not rejected and not failed; violations =
    failures + guarantee misses among served; percentages over served
    + failed.
    """
    if len(played) == 0:
        return 0.0, 0.0, 0.0, 0.0
    failed = played.failed
    served = played.served
    response = played.response_ms[served]
    n_served = int(np.count_nonzero(served))
    n_failed = int(np.count_nonzero(failed))
    considered = n_served + n_failed
    violations = n_failed + int(np.count_nonzero(
        response > guarantee_ms + 1e-9))
    avg_ms = (sequential_sum(response) / n_served
              if n_served else 0.0)
    pct_delayed = (100.0 * int(np.count_nonzero(played.delayed & served))
                   / considered if considered else 0.0)
    rate = violations / considered if considered else 0.0
    return avg_ms, pct_delayed, float(n_failed), rate

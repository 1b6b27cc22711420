"""Fleet shards: fault-isolation slices, each a plain session list.

A :class:`Shard` holds its :class:`~repro.stream.session.StreamSession` s
directly, next to a :class:`~repro.resilience.retry.HealthState`.  The
gateway places sessions by :func:`shard_slot`, a *stable* hash of
``(core id, model version)`` — sha256, not Python's salted ``hash`` —
so the same fleet always routes the same way.

Each tick a live shard runs the plain tick-based unit: :meth:`Shard.gather`
pumps every session and stages its pending blocks, grouped by meter; the
gateway runs the GEMVs; :meth:`Shard.apply` scatters the results back.

Failure model (deterministic, test-injectable via :meth:`Shard.kill`):

* a **failed** shard is skipped by the tick loop (it stops pumping and
  draining) and **drains** for placement — new sessions probe the next
  shards in ring order;
* a shard killed between gather and apply requeues every in-flight
  block, so the replay re-emits bit-identical readings with zero
  sequence gaps (loss-free failover);
* at the start of the next tick the gateway **respawns** it, which is a
  health reset: all session state (queues, open OPM windows, rings)
  lives in the session objects, so nothing needs rebuilding and nothing
  is lost beyond what drop-oldest backpressure discards while the shard
  was down (zero for pull sources, bounded by the push buffer depth for
  push sessions).

Inference reuse of :mod:`repro.parallel`: the batched GEMV is a pure
function of ``(int weights, intercept, stacked toggles)``, so a
:class:`~repro.parallel.pool.WorkerPool` can run each group in a
separate process with bit-identical results; :func:`serve_gemv_task` is
the module-level (picklable) worker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.parallel.shm import ShmRef, WeightRef, attach_view, resident_weights
from repro.resilience.retry import HealthState
from repro.stream.session import (
    DrainGroup,
    StreamSession,
    gather_pending,
    scatter,
)

__all__ = [
    "Shard",
    "ShmGemvTask",
    "serve_gemv_task",
    "shard_slot",
]


#: Rows per GEMV block: 256 rows of a few-thousand-column uint8 stack fit
#: comfortably in L2 once widened, where a whole-stack ``astype`` would
#: stream an 8x-size intermediate through RAM.
_GEMV_BLOCK = 256


def _gemv(stacked: np.ndarray, int_weights, int_intercept) -> np.ndarray:
    """The OPM integer GEMV, cache-blocked, bit-identical to int64 math.

    Widening a ``(rows, q)`` uint8 stack to int64 before the matmul
    materialises an 8x-size intermediate; blocking the widen+dot over
    row tiles keeps the wide copy resident in cache.  For uint8 stacks
    whose worst-case dot product fits in float64's exact-integer range
    (``q * 255 * max|w| + |intercept| < 2**53`` — every partial sum is
    then an exactly-representable integer, so BLAS reassociation cannot
    round), the tile runs as a float64 dgemv; otherwise it runs in
    int64.  Both paths equal :meth:`OpmMeter.per_cycle`'s arithmetic to
    the bit, so every dispatch flavor matches inline inference.
    """
    if stacked.ndim != 2:
        stacked = np.atleast_2d(stacked)
    rows, q = (int(n) for n in stacked.shape)
    w64 = np.asarray(int_weights).astype(np.int64, copy=False)
    out = np.empty(rows, dtype=np.int64)
    if stacked.dtype == np.uint8 and w64.size:
        bound = q * 255 * int(np.abs(w64).max()) + abs(int(int_intercept))
        if bound < (1 << 53):
            wf = w64.astype(np.float64)
            buf = np.empty((min(_GEMV_BLOCK, rows), q), dtype=np.float64)
            acc = np.empty(rows, dtype=np.float64)
            for j in range(0, rows, _GEMV_BLOCK):
                blk = stacked[j : j + _GEMV_BLOCK]
                n = len(blk)
                if n == len(buf):
                    np.copyto(buf, blk)
                    np.dot(buf, wf, out=acc[j : j + n])
                else:
                    np.dot(blk.astype(np.float64), wf, out=acc[j : j + n])
            np.add(acc, float(int_intercept), out=acc)
            return acc.astype(np.int64)
    for j in range(0, rows, _GEMV_BLOCK):
        blk = stacked[j : j + _GEMV_BLOCK]
        np.dot(
            blk.astype(np.int64, copy=False), w64, out=out[j : j + len(blk)]
        )
    out += np.int64(int_intercept)
    return out


@dataclass(frozen=True)
class ShmGemvTask:
    """Descriptor-only GEMV envelope for the shm transport (~300 B).

    ``stacked`` names the request-arena region holding the fused toggle
    matrix, ``weights`` the digest-addressed resident weights, and
    ``out`` a parent-preallocated result-arena region the worker writes
    the per-cycle integers into — so the pipe carries descriptors both
    ways and the arrays never leave shared memory.
    """

    stacked: ShmRef
    weights: WeightRef
    out: ShmRef


def serve_gemv_task(payload):
    """Pool task for serve-tick inference on either transport.

    A ``(int_weights, int_intercept, stacked_toggles)`` tuple is the
    pickle envelope, arrays and all; a :class:`ShmGemvTask` maps its
    descriptors to shared-memory views, runs the same GEMV, and writes
    the result through the ``out`` view.
    Returns the result array for tuples, and a ``(rows, weight_hit)``
    receipt for shm tasks (the numbers come back through the arena).
    Runs identically in a worker or in the parent (serial fallback).
    """
    if isinstance(payload, ShmGemvTask):
        stacked = attach_view(payload.stacked)
        weights, intercept, hit = resident_weights(payload.weights)
        out = attach_view(payload.out)
        out[:] = _gemv(stacked, weights, intercept)
        return len(out), hit
    int_weights, int_intercept, stacked = payload
    return _gemv(stacked, int_weights, int_intercept)


def shard_slot(core_id: str, version: str, n: int) -> int:
    """Home shard of ``(core id, version)`` among ``n`` — stable across
    processes and runs."""
    digest = hashlib.sha256(f"{core_id}|{version}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % n


class Shard:
    """One slice of the fleet: a session list with health."""

    def __init__(
        self, index: int, metrics: MetricsRegistry, tracer=None
    ) -> None:
        self.index = index
        self.metrics = metrics
        self.tracer = tracer or NULL_TRACER
        self.lane = f"shard-{index}"
        self.tracer.register_lane(self.lane)
        self.sessions: list[StreamSession] = []
        self.health = HealthState()
        self.respawns = 0
        #: Context of the most recent gather span, so the gateway can
        #: parent pooled GEMV worker spans under this shard's gather.
        self.last_gather_ctx = None

    @property
    def accepting(self) -> bool:
        """Whether the gateway may place new sessions here."""
        return not self.health.failed

    def kill(self, reason: str = "injected shard death") -> None:
        """Mark the shard dead; the next tick skips it, then respawns."""
        self.health.fail(reason)

    def respawn(self) -> None:
        """Bring a failed shard back; its sessions resume where they
        stopped.  The same :class:`HealthState` is reset in place, so
        watchers attached to it stay attached."""
        self.health.reset(f"respawned after: {self.health.reason}")
        self.respawns += 1

    # -------------------------------------------------------------- #
    # Tick phases (driven by the gateway): gather returns this shard's
    # pending inference groups; apply scatters results back.  A failed
    # shard gathers nothing.
    # -------------------------------------------------------------- #
    def gather(self) -> list[DrainGroup]:
        if self.health.failed:
            return []
        with self.tracer.span(
            "serve.shard.gather", lane=self.lane, shard=self.index
        ) as sp:
            self.last_gather_ctx = sp.ctx if sp else None
            for sess in self.sessions:
                sess.pump()
            groups = gather_pending(self.sessions)
            if sp:
                sp.set(groups=len(groups))
        return groups

    def apply(
        self, groups: list[DrainGroup], results: list[np.ndarray]
    ) -> bool:
        """Scatter one tick's results; True while any session is live."""
        if self.health.failed:
            # Killed between gather and apply: the inferred results are
            # discarded, but the gathered blocks must not be — requeue
            # every session's in-flight blocks so the respawned shard
            # re-infers them.  Inference is a pure function of the
            # blocks, so the replay re-emits bit-identical readings
            # with zero sequence gaps (loss-free failover).
            requeued = sum(
                sess.requeue_inflight()
                for group in groups
                for sess, _blocks in group.picks
            )
            if requeued:
                self.metrics.counter("serve.shard.requeued_blocks").inc(
                    requeued
                )
        else:
            with self.tracer.span(
                "serve.shard.apply", lane=self.lane, shard=self.index
            ):
                for group, per_cycle in zip(groups, results):
                    scatter(group.picks, per_cycle)
                for sess in self.sessions:
                    sess.notify_done()
        return any(not s.done for s in self.sessions)

    def stats(self) -> dict:
        return {
            "index": self.index,
            "health": self.health.as_dict(),
            "respawns": self.respawns,
            "n_sessions": len(self.sessions),
            "n_live": sum(1 for s in self.sessions if not s.done),
        }

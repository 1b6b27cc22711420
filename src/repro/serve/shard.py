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
function of ``(int weights, intercept, packed toggles)``, so a
:class:`~repro.parallel.pool.WorkerPool` can run each group in a
separate process with bit-identical results; :func:`serve_gemv_task` is
the module-level (picklable) worker.  On every path (pickle envelope,
shm request slab, inline) toggles travel as :func:`pack_toggles` bits,
and the GEMV is the byte-LUT kernel :func:`repro.power.kernels.lut_gemv`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.parallel.shm import ShmRef, WeightRef, attach_view, resident_weights
from repro.power.kernels import lut_gemv
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
    "pack_toggles",
    "serve_gemv_task",
    "shard_slot",
]


def pack_toggles(mats: list) -> np.ndarray:
    """One inference unit's toggle blocks as the GEMV input: stacked
    along the cycle axis, ``np.packbits`` along the proxy axis (MSB
    first, ``ceil(Q/8)`` bytes per cycle)."""
    return np.concatenate([np.packbits(m, axis=1) for m in mats])


@dataclass(frozen=True)
class ShmGemvTask:
    """Descriptor-only GEMV envelope for the shm transport (~300 B).

    ``stacked`` names the request-arena region holding the fused packed
    toggle matrix, ``weights`` the digest-addressed resident weights, and
    ``out`` a parent-preallocated result-arena region the worker writes
    the per-cycle integers into — so the pipe carries descriptors both
    ways and the arrays never leave shared memory.
    """

    stacked: ShmRef
    weights: WeightRef
    out: ShmRef


def serve_gemv_task(payload):
    """Pool task for serve-tick inference on either transport.

    A ``(int_weights, int_intercept, stacked)`` tuple is the pickle
    envelope, arrays and all, with ``stacked`` the
    :func:`pack_toggles` matrix (the unpacked width is
    ``len(int_weights)``); a :class:`ShmGemvTask` maps its descriptors
    to shared-memory views, runs the same GEMV, and writes the result
    through the ``out`` view.
    Returns the result array for tuples, and a ``(rows, weight_hit)``
    receipt for shm tasks (the numbers come back through the arena).
    Runs identically in a worker or in the parent (serial fallback).
    """
    if isinstance(payload, ShmGemvTask):
        stacked = attach_view(payload.stacked)
        weights, intercept, hit = resident_weights(payload.weights)
        out = attach_view(payload.out)
        out[:] = lut_gemv(stacked, weights, intercept)
        return len(out), hit
    int_weights, int_intercept, stacked = payload
    return lut_gemv(stacked, int_weights, int_intercept)


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

"""Fleet-serving workloads: ``serve-many`` and ``serve-wide``.

A *step* is what one telemetry client loop does: push one chunk per live
session through :class:`~repro.serve.InprocClient` (framed protocol),
tick the gateway once, pop every session's windows.  Inputs are drawn
chunk by chunk from the workload seed, and every popped window is
compared bit for bit with an offline :class:`~repro.opm.OpmMeter` fed the
same chunks through :class:`~repro.opm.OpmStream`, so no full stimulus
is ever held in memory.  Input generation, session opens and checking
happen outside the timed regions.
"""

from __future__ import annotations

import gc
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from repro.errors import AdmissionError
from repro.obs import Tracer
from repro.opm import OpmMeter, QuantizedModel
from repro.parallel import WorkerPool, leaked_segments
from repro.serve import AdmissionConfig, Gateway, InprocClient, ModelRegistry
from repro.stream import BudgetWatcher, DroopWatcher

from layers import LayerProbe, span_times
from stats import FAILED_STEP_MS, tail


#: Probability that a proxy toggles in a cycle.
DENSITY = 0.3
#: Set-ups per round; ``setup_s`` is the median over every set-up of a run.
SETUPS = 10


@dataclass(frozen=True)
class ServeSpec:
    sessions: int
    q: int
    t: int
    chunk: int  # cycles per pushed chunk
    shards: int
    pool_workers: int | None
    admission: bool
    watcher_every: int | None  # every n-th session carries droop+budget
    pass_chunks: int  # chunks per session in one closed-loop pass
    rated_rate: float  # open-loop steps per second
    segment_s: float  # open-loop seconds per measurement round
    ladder: tuple  # open-loop rates tried for rate_ok_steps_per_s
    limit_ms: float  # tail-latency limit on the ladder


SPECS = {
    # Per-session Python bookkeeping dominates; the GEMV is a few % of a
    # tick.  The rated rate keeps the host under half busy with the
    # client's own generation and checking included.
    "serve-many": ServeSpec(
        sessions=128, q=24, t=8, chunk=128, shards=2, pool_workers=None,
        admission=True, watcher_every=4, pass_chunks=32, rated_rate=10.0,
        segment_s=2.0,
        ladder=(10.0, 15.0, 20.0, 25.0, 30.0, 40.0), limit_ms=80.0,
    ),
    # GEMV and pool dispatch/IPC dominate; bookkeeping is small.  Admission
    # and watchers are on so that those layers are measured on a gated
    # workload too.
    "serve-wide": ServeSpec(
        sessions=16, q=512, t=32, chunk=2048, shards=4, pool_workers=2,
        admission=True, watcher_every=8, pass_chunks=8, rated_rate=3.0,
        segment_s=3.0,
        ladder=(2.0, 3.0, 4.0, 5.0, 6.0), limit_ms=400.0,
    ),
}


def synthetic_model(rng: np.random.Generator, q: int) -> QuantizedModel:
    """A 10-bit meter with non-negative per-proxy weights (toggles add
    power), standing in for a trained model of any proxy count."""
    return QuantizedModel(
        proxies=np.arange(q, dtype=np.int64),
        int_weights=rng.integers(0, 512, size=q).astype(np.int64),
        int_intercept=int(rng.integers(100, 1000)),
        step=0.01,
        bits=10,
    )


class Fleet:
    """One gateway's push sessions plus their offline reference meters."""

    def __init__(self, gw: Gateway, spec: ServeSpec, model: QuantizedModel,
                 rng: np.random.Generator, stats: dict, prefix: str) -> None:
        self.gw = gw
        self.spec = spec
        self.rng = rng
        self.stats = stats
        self.client = InprocClient(gw)
        meter = OpmMeter(model, t=spec.t)
        mean_mw = (
            DENSITY * float(model.int_weights.sum())
            + model.int_intercept
        ) * model.step
        self.names = []
        t0 = time.perf_counter()
        for i in range(spec.sessions):
            if spec.watcher_every and i % spec.watcher_every == 0:
                h = gw.open_session(
                    f"{prefix}{i}", droop=DroopWatcher(),
                    budget=BudgetWatcher(budget_mw=1.05 * mean_mw),
                )
                self.names.append(h.name)
            else:
                self.names.append(self.client.open(f"{prefix}{i}"))
        self.open_s = time.perf_counter() - t0
        self.ref = [meter.stream() for _ in self.names]
        self.expect = [np.empty(0) for _ in self.names]
        self._thresh = np.uint8(round(256 * DENSITY))

    def draw(self) -> list[np.ndarray]:
        """Next chunk per session from the seeded generator."""
        s = self.spec
        return [
            np.less(
                self.rng.integers(0, 256, size=(s.chunk, s.q), dtype=np.uint8),
                self._thresh,
            ).view(np.uint8)
            for _ in self.names
        ]

    def reference(self, chunks) -> None:
        """Queue each session's offline meter windows for its chunk."""
        t0 = time.perf_counter()
        for i, c in enumerate(chunks):
            ref = self.ref[i]
            w = ref.read_windows(ref.push(c))
            self.expect[i] = np.concatenate([self.expect[i], w])
        self.stats["meter_s"] += time.perf_counter() - t0

    def chunks(self) -> list[np.ndarray]:
        """Next chunk per session, with its reference windows queued."""
        out = self.draw()
        self.reference(out)
        return out

    def precompute(self, n_steps: int) -> None:
        """Queue the reference windows of the next ``n_steps`` steps, then
        rewind the generator so :meth:`draw` yields the same chunks.  An
        open loop then pays only for drawing between steps."""
        state = self.rng.bit_generator.state
        for _ in range(n_steps):
            self.reference(self.draw())
        self.rng.bit_generator.state = state

    def step(self, chunks, last: bool):
        """The timed unit: push, tick, pop.  Returns (alive, windows, shed)."""
        client = self.client
        shed = 0
        if chunks is not None:
            for name, c in zip(self.names, chunks):
                try:
                    client.push(name, c, last=last)
                except AdmissionError:
                    shed += 1
        alive = self.gw.tick()
        got = [client.windows(n) for n in self.names]
        return alive, got, shed

    def check(self, got) -> int:
        """Compare popped windows with the reference; returns mismatches."""
        bad = 0
        for i, w in enumerate(got):
            want = self.expect[i]
            n = w.size
            if n > want.size or w.tobytes() != want[:n].tobytes():
                bad += 1
            self.expect[i] = want[n:]
        return bad

    def finish(self) -> int:
        """Mismatches left at the end: reference windows never served."""
        return sum(1 for e in self.expect if e.size)

    def dropped(self) -> int:
        handles = [self.gw.handles[n] for n in self.names]
        return sum(
            h.session.dropped_blocks
            + (h.push.dropped_blocks if h.push is not None else 0)
            for h in handles
        )


class ServeBench:
    def __init__(self, name: str, seed: int, seconds: float, out: Path,
                 trace: bool) -> None:
        self.spec = SPECS[name]
        self.name = name
        self.seconds = float(seconds)
        self.trace = trace
        self.out = out
        self.rng = np.random.default_rng(seed)
        self.model = synthetic_model(self.rng, self.spec.q)
        # The served model is an artifact on disk: set-up loads it the way
        # a restarted gateway would.
        self.reg_root = out / f"registry-{name}"
        shutil.rmtree(self.reg_root, ignore_errors=True)
        ModelRegistry(self.reg_root).publish("v1", self.model, activate=True)
        self.attempted = 0
        self.failed = 0
        self.shm_fallbacks = 0
        self.stats = {"meter_s": 0.0}
        self.report: dict = {}

    # ------------------------------------------------------------ #
    def setup_once(self, tracer: Tracer | None = None
                   ) -> tuple[Gateway, float]:
        """The timed set-up: load the registry from its artifact, build
        the worker pool (its workers start on first use) and the gateway."""
        s = self.spec
        t0 = time.perf_counter()
        registry = ModelRegistry.open(self.reg_root)
        pool = None
        if s.pool_workers:
            pool = WorkerPool(workers=s.pool_workers)
        admission = None
        if s.admission:
            admission = AdmissionConfig(
                open_rate=4.0, open_burst=8, push_rate=4.0, push_burst=16,
                max_live_sessions=4 * s.sessions, max_pending_blocks=64,
                latency_watermark_s=1.0,
            )
        gw = Gateway(registry, n_shards=s.shards, t=s.t, pool=pool,
                     admission=admission, tracer=tracer)
        return gw, time.perf_counter() - t0

    def setup(self) -> tuple[Gateway, list]:
        """``SETUPS`` set-ups in a row; all but the last are torn down."""
        times = []
        for i in range(SETUPS):
            gw, dt = self.setup_once()
            times.append(dt)
            if i + 1 < SETUPS:
                gw.close(close_pool=True)  # unused: its pool never started
        return gw, times

    def end(self, gw: Gateway) -> None:
        """Close a gateway and its pool, counting the pool's shm
        fallbacks (payloads that had to go over pickle), then collect the
        torn-down gateways' reference cycles so every round starts from
        the same heap (and the peak RSS does not depend on when the
        interpreter last ran a full collection)."""
        if gw.pool is not None:
            plane = gw.pool.active_plane
            self.shm_fallbacks += plane.fallbacks if plane else 0
        gw.close(close_pool=True)
        gc.collect()

    def _account(self, fleet: Fleet, chunks, got, shed: int) -> bool:
        """Count one step's operations (pushes and window pops); True
        when any was shed or popped windows that differ from the meter."""
        bad = fleet.check(got) + shed
        self.attempted += len(got) + (len(chunks) if chunks is not None else 0)
        self.failed += bad
        return bad > 0

    def _finish(self, fleet: Fleet) -> None:
        self.failed += fleet.finish() + fleet.dropped()

    def _warm_up(self, fleet: Fleet) -> None:
        """One untimed step: pool fork, weight-vault publish and first
        dispatch happen here, not in a measured step."""
        chunks = fleet.chunks()
        _alive, got, shed = fleet.step(chunks, False)
        self._account(fleet, chunks, got, shed)

    @staticmethod
    def _timed_step(fleet: Fleet, chunks, last: bool, probe, k: int):
        """One fleet step and its seconds, under a ``bench.step`` span
        when traced."""
        span = nullcontext()
        if probe is not None:
            probe.step = k
            span = probe.tracer.span("bench.step", step=k)
        t0 = time.perf_counter()
        with span:
            out = fleet.step(chunks, last)
        return time.perf_counter() - t0, out

    def _drain(self, fleet: Fleet) -> None:
        """Tick until every session is done, checking the windows."""
        alive = True
        while alive:
            alive, got, _shed = fleet.step(None, False)
            self._account(fleet, None, got, 0)

    # ------------------------------------------------------------ #
    def closed_pass(self, gw: Gateway, probe: LayerProbe | None = None,
                    tracer: Tracer | None = None) -> dict:
        """One closed-loop fleet pass on ``gw``: open the sessions and
        take the warm-up step (untimed), then stream the remaining chunks
        and drain (timed; traced when ``probe`` is given)."""
        s = self.spec
        fleet = Fleet(gw, s, self.model, self.rng, self.stats, "p")
        self._warm_up(fleet)
        meter0 = self.stats["meter_s"]
        ticks0 = gw.ticks
        ipc = gw.metrics.counter("serve.ipc.bytes.total")
        dropped = gw.metrics.counter("serve.push.dropped")
        ipc0, dropped0 = ipc.value, dropped.value
        if probe is not None:
            probe.install(tracer)
        try:
            busy = 0.0
            for k in range(1, s.pass_chunks):
                chunks = fleet.chunks()
                dt, (alive, got, shed) = self._timed_step(
                    fleet, chunks, k == s.pass_chunks - 1, probe, k
                )
                busy += dt
                self._account(fleet, chunks, got, shed)
            k = s.pass_chunks
            while alive:
                dt, (alive, got, _) = self._timed_step(
                    fleet, None, False, probe, k
                )
                busy += dt
                self._account(fleet, None, got, 0)
                k += 1
        finally:
            if probe is not None:
                probe.uninstall()
        self._finish(fleet)
        return {
            "busy_s": busy,
            "cycles": s.sessions * (s.pass_chunks - 1) * s.chunk,
            "open_s": fleet.open_s,
            "meter_s": self.stats["meter_s"] - meter0,
            "ticks": gw.ticks - ticks0,
            "ipc_bytes": ipc.value - ipc0,
            "pushed_dropped": dropped.value - dropped0,
        }

    def open_loop(self, gw: Gateway, rate: float, n_steps: int) -> dict:
        """A warm-up step, then ``n_steps`` steps due every ``1/rate`` s,
        each timed from when it was due; a failed step counts as missing
        every limit."""
        fleet = Fleet(gw, self.spec, self.model, self.rng, self.stats, "o")
        self._warm_up(fleet)
        fleet.precompute(n_steps)
        lat, lag = [], []
        chunks = fleet.draw()
        start = time.perf_counter() + 0.02
        for k in range(n_steps):
            due = start + k / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            t0 = time.perf_counter()
            alive, got, shed = fleet.step(chunks, k == n_steps - 1)
            t1 = time.perf_counter()
            failed = self._account(fleet, chunks, got, shed)
            lag.append((t0 - due) * 1e3)
            lat.append(FAILED_STEP_MS if failed else (t1 - due) * 1e3)
            if k + 1 < n_steps:
                chunks = fleet.draw()
        if alive:
            self._drain(fleet)
        self._finish(fleet)
        return {"lat_ms": lat, "lag_ms": lag}

    def ladder(self, budget_s: float) -> tuple[float, list]:
        """Highest ladder rate whose tail meets the limit with no growing
        backlog (the last step starts no later than the limit)."""
        s = self.spec
        best = 0.0
        rungs = []
        per_rung = budget_s / len(s.ladder)
        for rate in s.ladder:
            n = max(5, round(rate * per_rung))
            gw, _ = self.setup_once()
            r = self.open_loop(gw, rate, n)
            self.end(gw)
            value, pct, count = tail(r["lat_ms"])
            ok = value <= s.limit_ms and r["lag_ms"][-1] <= s.limit_ms
            rungs.append({"rate": rate, "tail_ms": value, "pct": pct,
                          "n": count, "ok": ok})
            if not ok:
                break
            best = rate
        return best, rungs

    # ------------------------------------------------------------ #
    def run(self) -> dict:
        """Measurement rounds until 85% of the budget is spent, then the
        ladder.  Each round sets up afresh, serves one closed-loop pass and
        one open-loop segment at the rated rate on that gateway, so every
        metric samples the whole run rather than one stretch of it."""
        if self.trace:
            return self.run_traced()
        s = self.spec
        setups, passes, lat, lag = [], [], [], []
        t_end = time.perf_counter() + 0.85 * self.seconds
        while len(passes) < 3 or time.perf_counter() < t_end:
            gw, times = self.setup()
            setups += times
            passes.append(self.closed_pass(gw))
            seg = self.open_loop(gw, s.rated_rate,
                                 round(s.rated_rate * s.segment_s))
            self.end(gw)
            lat += seg["lat_ms"]
            lag += seg["lag_ms"]
        rate_ok, rungs = self.ladder(0.15 * self.seconds)
        p_tail, pct, n = tail(lat)
        rates = [p["cycles"] / p["busy_s"] for p in passes]
        self.report.update({
            "setup_s_samples": setups,
            "rounds": len(passes),
            "cycles_per_s_samples": rates,
            "session_open_ms": median(
                [1e3 * p["open_s"] / s.sessions for p in passes]
            ),
            "step_tail_percentile": pct,
            "step_samples": n,
            "rated_rate_steps_per_s": s.rated_rate,
            "rate_ok_steps_per_s": rate_ok,
            "ladder_limit_ms": s.limit_ms,
            "ladder": rungs,
            "loadgen_lag_p50_ms": median(lag),
        })
        self.teardown()
        return {
            "setup_s": median(setups),
            "cycles_per_s": median(rates),
            "step_p50_ms": median(lat),
            "step_tail_ms": p_tail,
            "job_s": median([p["busy_s"] for p in passes]),
        }

    def teardown(self) -> None:
        self.report["shm_fallbacks"] = self.shm_fallbacks
        leaked = leaked_segments()
        self.failed += len(leaked)
        self.report["leaked_segments"] = leaked

    # ------------------------------------------------------------ #
    def probe(self) -> LayerProbe:
        """Wrap targets for the serve layers."""
        import repro.serve.gateway as gateway_mod
        from repro.parallel import WorkerPool as Pool
        from repro.serve import AdmissionController, Shard
        from repro.serve.gateway import SessionHandle
        from repro.stream import StreamSession
        from repro.stream.aggregate import EmaTracker, RingBuffer

        p = LayerProbe()

        def frame_bytes(probe, args, kwargs, out):
            probe.counts["serve.protocol.bytes"] += len(out)

        def gemv_inline(probe, args, kwargs, out):
            w, _b, stacked = args[0]
            probe.counts["serve.gemv.rows"] += stacked.shape[0]
            probe.counts["serve.gemv.bytes_moved"] += (
                stacked.nbytes + w.nbytes + 8 * stacked.shape[0]
            )

        def pool_map(probe, args, kwargs, out):
            if getattr(args[1], "__name__", "") != "serve_gemv_task":
                return
            for task in args[2]:
                if isinstance(task, tuple):
                    gemv_inline(probe, (task,), {}, None)
                else:  # shm descriptors: sizes from the refs
                    rows = task.stacked.shape[0]
                    probe.counts["serve.gemv.rows"] += rows
                    probe.counts["serve.gemv.bytes_moved"] += (
                        task.stacked.nbytes + 8 * task.weights.shape[0]
                        + 8 * rows
                    )
            for _pid, _t0, dur in kwargs.get("timings") or ():
                probe.counts["serve.gemv.remote_s"] += dur

        p.add(gateway_mod, "encode_frame", None, hook=frame_bytes)
        p.add(InprocClient, "push", "serve.protocol")
        p.add(Gateway, "push", "serve.push")
        p.add(AdmissionController, "admit_push", "serve.admission")
        p.add(Gateway, "tick", "serve.tick")
        p.add(Shard, "gather", "serve.gather")
        p.add(Shard, "apply", "serve.apply")
        p.add(gateway_mod, "serve_gemv_task", "serve.gemv", hook=gemv_inline)
        p.add(Pool, "map", "parallel.pool", hook=pool_map, unwrap_args=True)
        p.add(StreamSession, "ingest", "stream.ingest")
        for cls, attr in ((RingBuffer, "push"), (EmaTracker, "update"),
                          (DroopWatcher, "observe"),
                          (BudgetWatcher, "observe")):
            p.add(cls, attr, "stream.aggregate")
        p.add(SessionHandle, "pop_windows", "serve.pop")
        return p

    def run_traced(self) -> dict:
        """Alternate untraced and traced closed-loop passes, each on a
        fresh set-up, then an untraced open loop for the generator lag."""
        s = self.spec
        probe = self.probe()
        plain, traced, times = [], [], []
        t_end = time.perf_counter() + 0.7 * self.seconds
        tracer = None
        while len(traced) < 2 or time.perf_counter() < t_end:
            gw, _ = self.setup_once()
            plain.append(self.closed_pass(gw))
            self.end(gw)
            # With a tracer of its own, the gateway has the pool time each
            # task in its worker, which serve.gemv.busy_s needs.
            gw, _ = self.setup_once(tracer=Tracer())
            tracer = Tracer()
            traced.append(self.closed_pass(gw, probe, tracer))
            self.end(gw)
            times.append(span_times(tracer))
        gw, _ = self.setup_once()
        rated = self.open_loop(
            gw, s.rated_rate, max(12, round(s.rated_rate * 0.3 * self.seconds))
        )
        self.end(gw)
        self.teardown()
        tracer.to_jsonl(self.out / f"{self.name}.spans.jsonl")
        return self.layer_metrics(probe, plain, traced, times, rated)

    def layer_metrics(self, probe, plain, traced, times, rated) -> dict:
        n = len(traced)

        def per_pass(name, col):
            return sum(t[name][col] for t in times if name in t) / n

        step_wall = per_pass("bench.step", 1)
        layers = {
            "serve.protocol.busy_s": "serve.protocol",
            "serve.push.busy_s": "serve.push",
            "serve.admission.busy_s": "serve.admission",
            "serve.tick.self_s": "serve.tick",
            "serve.gather.busy_s": "serve.gather",
            "serve.apply.busy_s": "serve.apply",
            "stream.ingest.busy_s": "stream.ingest",
            "stream.aggregate.busy_s": "stream.aggregate",
            "serve.pop.busy_s": "serve.pop",
            "parallel.pool.busy_s": "parallel.pool",
        }
        m = {k: per_pass(v, 2) for k, v in layers.items()}
        inline_gemv = per_pass("serve.gemv", 2)
        attributed = sum(m.values()) + inline_gemv
        c = probe.counts
        m["serve.gemv.busy_s"] = inline_gemv + c["serve.gemv.remote_s"] / n
        m["serve.gemv.rows"] = c["serve.gemv.rows"] / n
        m["serve.gemv.bytes_moved"] = c["serve.gemv.bytes_moved"] / n
        m["serve.protocol.bytes"] = c["serve.protocol.bytes"] / n
        m["serve.admission.shed"] = c["serve.admission.errors"] / n
        m["serve.push.dropped"] = sum(p["pushed_dropped"] for p in traced) / n
        ticks = sum(p["ticks"] for p in traced)
        m["parallel.pool.ipc_bytes_per_tick"] = (
            sum(p["ipc_bytes"] for p in traced) / ticks
        )
        from repro.obs import default_registry

        reg = default_registry()
        m["parallel.pool.respawns"] = reg.counter(
            "parallel.pool.respawns"
        ).value
        m["parallel.shm.fallbacks"] = self.shm_fallbacks
        meter = median([p["meter_s"] for p in plain])
        gateway = median([p["busy_s"] for p in plain])
        m["opm.meter.busy_s"] = meter
        m["serve.over_meter"] = gateway / meter
        m["loadgen.lag_ms"] = median(rated["lag_ms"])
        m["serve.attributed_frac"] = attributed / step_wall
        m["trace.overhead_frac"] = (
            median([p["busy_s"] for p in traced]) / gateway - 1.0
        )
        # The bar the per-layer split must meet: layer self times cover
        # all but 5% of the measured step wall time.
        if m["serve.attributed_frac"] < 0.95:
            self.failed += 1
        self.report["traced_passes"] = n
        return m

"""Train-to-trace workload: ``train``.

One repetition is the design-time product end to end on the n1 core at a
named scale preset: GA -> training and testing datasets -> screen -> MCP
select with gamma tuning -> ridge relax -> 10-bit quantize (the *job*),
then :meth:`DesignTimeFlow.estimate` with the signoff reference over each
held-out handcrafted benchmark (the trace *steps*).  Every repetition
gets a fresh artifacts directory, so no dataset cache hit skips work.

Checks: the quantized-model digest repeats across repetitions, the
testing-set NRMSE recomputed from the quantized model repeats, and every
traced power and reference trace equals, bit for bit, the meter reading
and label of the same benchmark in the testing dataset.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import numpy as np

from repro.config import GLOBAL_SEED
from repro.core import nrmse
from repro.experiments import ExperimentContext
from repro.flow import DesignTimeFlow
from repro.genbench.handcrafted import testing_suite
from repro.obs import Tracer
import repro.opm as opm_mod
from repro.opm import OpmMeter
from repro.rtl import Simulator

from layers import LayerProbe, span_times
from stats import tail

SCALE = "tiny"
DESIGN = "n1"
#: The training inputs (GA programs, dataset sampling, validation split)
#: are pinned to the repository's root seed: the training job's amount of
#: work depends strongly on them (5.3 s to 10.4 s over five seeds), so a
#: seed-varied job would measure the seed rather than the program.
#: ``--seed`` orders the held-out trace steps.
TRAIN_SEED = GLOBAL_SEED
TRACE_PASSES = 3  # passes over the held-out benchmarks per repetition


def qmodel_digest(qm) -> str:
    """Identity of a quantized model: proxies, integer weights, intercept,
    step and width (the weights-only digest of ``repro.parallel`` would
    miss a change of proxies or step)."""
    h = hashlib.sha256()
    for arr in (qm.proxies, qm.int_weights):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    h.update(f"{qm.int_intercept}|{qm.step!r}|{qm.bits}".encode())
    return h.hexdigest()


class TrainBench:
    def __init__(self, name: str, seed: int, seconds: float, out: Path,
                 trace: bool) -> None:
        self.seed = seed
        self.seconds = float(seconds)
        self.trace = trace
        self.out = out
        self.tmp = out / "train-tmp"
        self.suite = {b.name: b for b in testing_suite()}
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.nrmses: set[float] = set()
        self.report: dict = {"scale": SCALE, "design": DESIGN}

    def rep(self, probe: LayerProbe | None = None) -> dict:
        """One repetition: set-up, the timed job, the timed trace steps."""
        self.tmp.mkdir(parents=True, exist_ok=True)
        cache = Path(tempfile.mkdtemp(dir=self.tmp))
        try:
            return self._rep(cache, probe)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def _rep(self, cache: Path, probe) -> dict:
        def span(name):
            return nullcontext() if probe is None else probe.tracer.span(name)

        # Set-up: the core the job trains on, and the flow's simulator and
        # power analyzer (built once the model exists, timed apart).
        ctx = ExperimentContext(
            design=DESIGN, scale=SCALE, seed=TRAIN_SEED, cache_dir=cache
        )
        t0 = time.perf_counter()
        ctx.core
        setup_s = time.perf_counter() - t0
        with span("bench.job"):
            qm = self._job(ctx)
        job_s = time.perf_counter() - t0 - setup_s
        t1 = time.perf_counter()
        flow = DesignTimeFlow(ctx.core, qm)
        setup_s += time.perf_counter() - t1

        # Untimed checks: the model and its accuracy repeat exactly.
        self.digests.add(qmodel_digest(qm))
        test = ctx.test
        ref = OpmMeter(qm, t=1).read(test.features(qm.proxies))
        self.nrmses.add(float(nrmse(test.labels, ref)))
        self.attempted += 1
        if len(self.digests) > 1 or len(self.nrmses) > 1:
            self.failed += 1

        # Trace steps of one fixed length over the held-out benchmarks
        # longer than the median (an odd count at every preset, so the
        # median step sits inside one benchmark's cluster of samples, not
        # between two); the length is the shortest of them.  The traced
        # prefix of a benchmark equals the start of its testing segment.
        mid = np.median([e - s for _n, s, e in test.segments])
        chosen = [(n, s, e - s) for n, s, e in test.segments if e - s > mid]
        length = min(n for _b, _s, n in chosen)
        rng = np.random.default_rng(self.seed)
        steps, cycles, stages = [], 0, {}
        for _ in range(TRACE_PASSES):
            for i in rng.permutation(len(chosen)):
                name, start, _n = chosen[i]
                bench = self.suite[name]
                t1 = time.perf_counter()
                with span("bench.trace_step"):
                    est = flow.estimate(bench.program, cycles=length,
                                        with_reference=True,
                                        throttle=bench.throttle)
                steps.append((time.perf_counter() - t1) * 1e3)
                cycles += length
                for k, v in est.stage_seconds.items():
                    stages[k] = stages.get(k, 0.0) + v
                end = start + length
                self.attempted += 1
                if (est.power.tobytes() != ref[start:end].tobytes()
                        or est.label.tobytes()
                        != test.labels[start:end].tobytes()):
                    self.failed += 1
        return {"setup_s": setup_s, "job_s": job_s, "steps_ms": steps,
                "cycles": cycles,
                "trace_s": sum(steps) / 1e3, "stages": stages,
                "wall_s": time.perf_counter() - t0}

    @staticmethod
    def _job(ctx: ExperimentContext):
        """GA start to quantized model, at the scale preset's defaults."""
        ctx.ga
        ctx.train
        ctx.test
        model = ctx.apollo(ctx.default_q())
        return opm_mod.quantize_model(model, bits=10)

    def run(self) -> dict:
        """Repetitions, each with its own set-up, at least three, while
        the next is expected to end within the budget."""
        if self.trace:
            return self.run_traced()
        reps = []
        t_end = time.perf_counter() + self.seconds
        while len(reps) < 3 or (
            time.perf_counter() + reps[-1]["wall_s"] <= t_end
        ):
            reps.append(self.rep())
        setups = [r["setup_s"] for r in reps]
        steps = [s for r in reps for s in r["steps_ms"]]
        p_tail, pct, n = tail(steps)
        self.report.update({
            "setup_s_samples": setups,
            "reps": len(reps),
            "job_s_samples": [r["job_s"] for r in reps],
            "train_s": median([r["job_s"] for r in reps]),
            "trace_cycles_per_s": median(
                [r["cycles"] / r["trace_s"] for r in reps]
            ),
            "test_nrmse": sorted(self.nrmses),
            "qmodel_digest": sorted(self.digests),
            "step_tail_percentile": pct,
            "step_samples": n,
        })
        shutil.rmtree(self.tmp, ignore_errors=True)
        return {
            "setup_s": median(setups),
            "cycles_per_s": self.report["trace_cycles_per_s"],
            "step_p50_ms": median(steps),
            "step_tail_ms": p_tail,
            "job_s": self.report["train_s"],
        }

    # ------------------------------------------------------------ #
    def probe(self) -> LayerProbe:
        import repro.core.selection as selection_mod
        import repro.experiments.context as context_mod
        from repro.core import ProxySelector
        from repro.genbench import BenchmarkEvolver
        from repro.uarch import Pipeline

        p = LayerProbe()

        def lanes(probe, args, kwargs, out):
            stim = args[1] if len(args) > 1 else kwargs["stimulus"]
            shape = np.shape(stim)  # ([lanes,] cycles, inputs)
            probe.counts["rtl.sim.lane_cycles"] += int(np.prod(shape[:-1]))

        def cd(probe, args, kwargs, out):
            probe.counts["core.cd.iters"] += out.n_iter

        p.add(BenchmarkEvolver, "run", "genbench.ga")
        for fn in ("build_training_dataset", "build_testing_dataset"):
            p.add(context_mod, fn, "genbench.dataset")
        p.add(Pipeline, "run", "uarch.pipeline")
        p.add(Simulator, "run", "rtl.sim", hook=lanes)
        p.add(ProxySelector, "select_many", "core.select")
        p.add(selection_mod, "coordinate_descent", "core.cd", hook=cd)
        p.add(context_mod, "ridge_fit", "core.relax")
        p.add(opm_mod, "quantize_model", "opm.quantize")
        p.add(DesignTimeFlow, "estimate", "flow.estimate")
        return p

    def run_traced(self) -> dict:
        """An untraced and a traced repetition, alternating."""
        probe = self.probe()
        plain, traced, times = [], [], []
        t_end = time.perf_counter() + self.seconds
        tracer = None
        while len(traced) < 1 or (
            time.perf_counter() + 2 * plain[-1]["wall_s"] <= t_end
        ):
            plain.append(self.rep())
            tracer = Tracer()
            probe.install(tracer)
            try:
                traced.append(self.rep(probe))
            finally:
                probe.uninstall()
            times.append(span_times(tracer))
        shutil.rmtree(self.tmp, ignore_errors=True)
        tracer.to_jsonl(self.out / "train.spans.jsonl")
        n = len(traced)

        def per_rep(name, col):
            return sum(t[name][col] for t in times if name in t) / n

        m = {
            "genbench.ga.busy_s": per_rep("genbench.ga", 2),
            "genbench.dataset.busy_s": per_rep("genbench.dataset", 2),
            "uarch.pipeline.busy_s": per_rep("uarch.pipeline", 2),
            "rtl.sim.busy_s": per_rep("rtl.sim", 2),
            "rtl.sim.lane_cycles": probe.counts["rtl.sim.lane_cycles"] / n,
            "core.select.busy_s": per_rep("core.select", 2),
            "core.cd.busy_s": per_rep("core.cd", 2),
            "core.cd.calls": per_rep("core.cd", 0),
            "core.cd.iters": probe.counts["core.cd.iters"] / n,
            "core.relax.busy_s": per_rep("core.relax", 2),
            "opm.quantize.busy_s": per_rep("opm.quantize", 2),
        }
        stages = plain[-1]["stages"]
        m["flow.uarch_s"] = stages.get("uarch", 0.0)
        m["flow.rtl_s"] = stages.get("rtl", 0.0)
        m["flow.inference_s"] = stages.get("inference", 0.0)
        m["trace.overhead_frac"] = (
            median([r["wall_s"] for r in traced])
            / median([r["wall_s"] for r in plain]) - 1.0
        )
        self.report["traced_reps"] = n
        return m

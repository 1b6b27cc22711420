"""Tiny end-to-end traced pipeline run (the ``make trace-demo`` target).

Runs every paper stage — GA micro-benchmark evolution, MCP proxy
selection + ridge relaxation, the design-time flow (uarch / RTL /
inference), OPM quantization and a short streaming session — at a
deliberately small scale, all under one :class:`~repro.obs.trace.Tracer`
and one :class:`~repro.obs.provenance.RunManifest`, then exports:

* ``trace.json``   — Chrome trace-event JSON (chrome://tracing, Perfetto)
* ``trace.jsonl``  — one span per line, grep-friendly
* ``manifest.json``— the provenance sidecar

and self-checks that the exports parse, round-trip nesting, and cover
every expected pipeline stage.  ``apollo-repro trace``/``manifest``
render the same files afterwards.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from repro.config import GLOBAL_SEED
from repro.core import ProxySelector, train_apollo
from repro.core.model import MODEL_SCHEMA_VERSION
from repro.design import build_core
from repro.genbench import BenchmarkEvolver, GaConfig, build_training_dataset
from repro.obs.provenance import RunManifest
from repro.obs.trace import Tracer, load_trace, render_tree
from repro.rtl.simulator import DEFAULT_ENGINE, ENGINES
from repro.uarch import CoreParams

__all__ = ["run_demo", "main"]

#: Span names the demo's trace must contain — the acceptance contract
#: that the observability layer covers every paper pipeline stage.
REQUIRED_SPANS = frozenset({
    "ga.run",
    "ga.generation",
    "select.path",
    "solver.cd",
    "train.apollo",
    "train.relax",
    "flow.estimate",
    "flow.uarch",
    "flow.rtl",
    "flow.inference",
    "rtl.sim.run",
    "stream.run",
    "stream.drain",
})

_DEMO_PARAMS = CoreParams(
    name="trace-demo",
    fetch_width=2,
    issue_width=2,
    retire_width=2,
    n_alu=2,
    n_mul=1,
    n_vec=1,
    vec_lanes=2,
    lsu_ports=1,
    iq_size=8,
    rob_size=16,
    bp_entries=16,
)

_DEMO_GA = dict(
    population=6, generations=3, eval_cycles=120, program_length=24,
    elite=1, seed=GLOBAL_SEED,
)


def run_demo(out_dir: str | Path, engine: str = DEFAULT_ENGINE, q: int = 8):
    """Run the traced tiny pipeline; returns ``(tracer, manifest, paths)``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tracer = Tracer()
    cfg = GaConfig(**_DEMO_GA)
    manifest = RunManifest(
        run="trace-demo",
        design=_DEMO_PARAMS.name,
        scale="tiny",
        seed=cfg.seed,
        engine=engine,
        q=q,
        config={"ga": asdict(cfg), "core": asdict(_DEMO_PARAMS)},
        model_schema_version=MODEL_SCHEMA_VERSION,
    )

    with manifest.stage("ga"):
        core = build_core(_DEMO_PARAMS)
        ga = BenchmarkEvolver(
            core, cfg, engine=engine, tracer=tracer
        ).run()
    with manifest.stage("dataset"):
        train = build_training_dataset(
            core, ga, target_cycles=720, replay_cycles=120, engine=engine
        )
    with manifest.stage("train"):
        model = train_apollo(
            train.features(),
            train.labels,
            q=q,
            candidate_ids=train.candidate_ids,
            selector=ProxySelector(screen_width=300, tracer=tracer),
            tracer=tracer,
        )
    with manifest.stage("flow"):
        from repro.flow.design_time import DesignTimeFlow
        from repro.genbench.workloads import mcf_like

        flow = DesignTimeFlow(core, model, engine=engine, tracer=tracer)
        est = flow.estimate(mcf_like(), cycles=400)
    with manifest.stage("stream"):
        from repro.opm import OpmMeter, quantize_model
        from repro.stream import (
            SimulatorSource,
            StreamService,
            StreamSession,
        )

        meter = OpmMeter(quantize_model(model, bits=10), t=8)
        source = SimulatorSource.from_program(
            core, model.proxies, mcf_like(), cycles=512,
            chunk_cycles=128, engine=engine, tracer=tracer,
        )
        service = StreamService(
            meter,
            [StreamSession("demo", source, meter)],
            tracer=tracer,
        )
        service.run()

    manifest.extra["flow_total_seconds"] = round(est.total_seconds, 6)
    manifest.extra["ga_individuals"] = len(ga.individuals)

    paths = {
        "chrome": tracer.to_chrome(out / "trace.json"),
        "jsonl": tracer.to_jsonl(out / "trace.jsonl"),
        "manifest": manifest.save(out / "manifest.json"),
    }
    _self_check(paths)
    return tracer, manifest, paths


def _collect_names(roots) -> set[str]:
    names: set[str] = set()
    stack = list(roots)
    while stack:
        s = stack.pop()
        names.add(s.name)
        stack.extend(s.children)
    return names


def _self_check(paths: dict) -> None:
    """Exports must parse, nest, and cover every pipeline stage."""
    for key in ("chrome", "jsonl"):
        roots = load_trace(paths[key])
        names = _collect_names(roots)
        missing = REQUIRED_SPANS - names
        if missing:
            raise AssertionError(
                f"{paths[key]} missing spans: {sorted(missing)}"
            )
        if not any(r.children for r in roots):
            raise AssertionError(f"{paths[key]} lost span nesting")
    m = RunManifest.load(paths["manifest"])
    for field in ("design", "seed", "engine", "q", "config_hash"):
        if getattr(m, field) in (None, ""):
            raise AssertionError(f"manifest missing {field}")
    if not m.stages:
        raise AssertionError("manifest has no stage timings")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="traced tiny end-to-end APOLLO pipeline run"
    )
    parser.add_argument(
        "--out", default="results/trace-demo",
        help="output directory for trace.json / trace.jsonl / manifest.json",
    )
    parser.add_argument(
        "--engine", choices=list(ENGINES), default=DEFAULT_ENGINE
    )
    parser.add_argument("--q", type=int, default=8)
    args = parser.parse_args(argv)

    tracer, manifest, paths = run_demo(
        args.out, engine=args.engine, q=args.q
    )
    print(manifest.render())
    print()
    print(render_tree(tracer.roots))
    print()
    for key, path in paths.items():
        print(f"# {key}: {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

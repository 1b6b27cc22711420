#!/usr/bin/env python3
"""Repository benchmark: fleet serving and train-to-trace workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-wide --seed 1 \
        --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that attributes time to each
layer.  Human-readable lines (every metric with its unit, the ungated
figures, the design-quality numbers) come first; the last line of
standard output is the JSON result.  The exit code is non-zero when any
output differs from its offline reference or an operation fails.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> unit, reported with --trace 0 on every workload.
END_TO_END = {
    "setup_s": "s",
    "cycles_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "job_s": "s",
    "rss_peak_mb": "MB",
}

#: name -> unit, reported with --trace 1 on every workload; a layer the
#: workload never calls reads 0.  Busy seconds are self times per job
#: (one closed-loop fleet pass, or one train-to-trace repetition).
PER_LAYER = {
    "serve.protocol.busy_s": "s",
    "serve.protocol.bytes": "B",
    "serve.admission.busy_s": "s",
    "serve.admission.shed": "count",
    "serve.push.busy_s": "s",
    "serve.push.dropped": "count",
    "serve.gather.busy_s": "s",
    "serve.apply.busy_s": "s",
    "stream.ingest.busy_s": "s",
    "stream.aggregate.busy_s": "s",
    "serve.tick.self_s": "s",
    "serve.pop.busy_s": "s",
    "serve.gemv.busy_s": "s",
    "serve.gemv.rows": "count",
    "serve.gemv.bytes_moved": "B",
    "parallel.pool.busy_s": "s",
    "parallel.pool.ipc_bytes_per_tick": "B",
    "parallel.shm.fallbacks": "count",
    "parallel.pool.respawns": "count",
    "opm.meter.busy_s": "s",
    "serve.over_meter": "ratio",
    "serve.attributed_frac": "frac",
    "loadgen.lag_ms": "ms",
    "genbench.ga.busy_s": "s",
    "genbench.dataset.busy_s": "s",
    "uarch.pipeline.busy_s": "s",
    "rtl.sim.busy_s": "s",
    "rtl.sim.lane_cycles": "count",
    "core.select.busy_s": "s",
    "core.cd.busy_s": "s",
    "core.cd.calls": "count",
    "core.cd.iters": "count",
    "core.relax.busy_s": "s",
    "opm.quantize.busy_s": "s",
    "flow.uarch_s": "s",
    "flow.rtl_s": "s",
    "flow.inference_s": "s",
    "trace.overhead_frac": "frac",
}

#: ``serve-many`` runs on request but is not in BENCHMARK.json: its speed
#: follows the host's pure-Python speed, which drifts past any allowed
#: bound between runs (README.md, "Steadiness").
WORKLOADS = ("serve-many", "serve-wide", "train")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    # Keep every cache and artifact inside the checkout.
    os.environ["REPRO_CC_CACHE"] = str(ROOT / ".bench_build" / "repro-cc")
    os.environ["REPRO_ARTIFACTS_DIR"] = str(out / "artifacts")
    # One BLAS thread per process, inherited by pool workers, set before
    # numpy loads.  This masks a known program defect (see README.md):
    # at the BLAS defaults the pool workers' GEMVs and the PDN model built
    # at each watched session open slow down in some processes and not in
    # others, which spreads serve-wide past its bounds.  The setting is
    # printed in every report as ``blas_env``.
    for var in BLAS_VARS:
        os.environ[var] = "1"

    from stats import blas_env, revision, rss_peak_mb, src_lines

    if args.workload == "train":
        from train_bench import TrainBench as Bench
    else:
        from serve_bench import ServeBench as Bench
    t0 = time.perf_counter()
    bench = Bench(args.workload, args.seed, args.seconds, out,
                  bool(args.trace))
    try:
        values = bench.run()
    except Exception:
        traceback.print_exc()
        return 1
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        values["rss_peak_mb"] = rss_peak_mb()
    metrics = {
        k: {"value": float(values.get(k, 0.0)), "unit": u}
        for k, u in units.items()
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - t0,
        "src_lines": src_lines(ROOT),
        "revision": revision(ROOT),
        "blas_env": blas_env(BLAS_VARS),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failed_frac": bench.failed / max(1, bench.attempted),
        "metrics": metrics,
        "details": bench.report,
    }
    for k, m in metrics.items():
        print(f"{k:36s} {m['value']:>16.6g} {m['unit']}")
    for k in ("seed", "wall_s", "src_lines", "revision", "blas_env",
              "attempted", "failed", "failed_frac"):
        print(f"{k:36s} {report[k]!s:>16}")
    for k, v in bench.report.items():
        print(f"{k:36s} {json.dumps(v)}")
    (out / f"{args.workload}.trace{args.trace}.report.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    correct = bench.failed == 0 and bench.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Structural tests of the experiment layer at tiny scale.

Accuracy-shape assertions live in benchmarks/ (default scale); here we
check that every experiment runs, renders, and exposes the expected
summary fields, plus the context's caching behaviour.
"""

import numpy as np
import pytest

from repro.config import get_scale
from repro.errors import ExperimentError
from repro.experiments import (
    EXPERIMENTS,
    ExperimentContext,
    run_experiment,
)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    cache = tmp_path_factory.mktemp("artifacts")
    return ExperimentContext(design="n1", scale="tiny", cache_dir=cache)


def test_unknown_experiment_rejected():
    with pytest.raises(ExperimentError):
        run_experiment("fig99")


def test_unknown_design_rejected():
    with pytest.raises(ExperimentError):
        ExperimentContext(design="m3")


def test_context_dataset_disk_cache(tmp_path):
    ctx1 = ExperimentContext(design="n1", scale="tiny", cache_dir=tmp_path)
    train1 = ctx1.train
    files = list(tmp_path.glob("*.npz"))
    assert files, "training dataset should be cached on disk"
    ctx2 = ExperimentContext(design="n1", scale="tiny", cache_dir=tmp_path)
    train2 = ctx2.train
    np.testing.assert_allclose(train1.labels, train2.labels)


def test_context_accepts_str_cache_dir(tmp_path):
    ctx = ExperimentContext(design="n1", scale="tiny", cache_dir=str(tmp_path))
    assert ctx.cache_dir == tmp_path
    assert ctx.train.labels.size
    assert list(tmp_path.glob("*.npz")), "dataset should be cached on disk"


def test_context_screened_shared(ctx):
    X, ids = ctx.screened
    assert X.shape[1] == ids.size
    assert X.shape[1] <= get_scale("tiny").screen_width
    # memoized object identity
    assert ctx.screened[0] is X


def test_context_model_caching(ctx):
    m1 = ctx.apollo(12)
    m2 = ctx.apollo(12)
    assert m1 is m2
    m3 = ctx.apollo(8)
    assert m3 is not m1 and m3.q == 8


@pytest.mark.parametrize(
    "exp_id,expected_keys",
    [
        ("table1", ["n_methods"]),
        ("table3", ["apollo_counters", "apollo_multipliers"]),
        ("table4", ["n_benchmarks", "power_ratio"]),
        ("table5", ["n_methods"]),
        ("fig03", ["max_min_ratio", "virus_power"]),
        ("fig09", ["r2", "nrmse", "avg_bias_pct"]),
        ("fig13", ["mcp_larger"]),
        ("fig14", ["apollo_below_lasso"]),
        ("fig15a", ["gated_clock_proxies", "units_covered"]),
        ("fig15b", ["max_loss_at_b10plus"]),
        ("fig17", ["pearson", "deep_agreement"]),
        ("sec7_5", ["area_pct_paper_scale", "latency_cycles"]),
        ("ext_dvfs", ["governed_perf", "violation_reduction"]),
        ("ext_multicore", ["peak_reduction_pct"]),
        ("ext_didt", ["didt_fitness", "droop_didt_mv"]),
    ],
)
def test_experiments_run_and_render(ctx, exp_id, expected_keys):
    res = run_experiment(exp_id, ctx=ctx)
    assert res.id == exp_id
    text = res.render()
    assert res.title in text
    assert "paper:" in text
    for key in expected_keys:
        assert key in res.summary, f"{exp_id} missing summary[{key!r}]"


def test_fig12_renames_to_a77(ctx):
    # fig12 is fig10 pointed at an a77 context; on any context the runner
    # relabels the result id.
    res = run_experiment("fig12", ctx=ctx, with_cnn=False)
    assert res.id == "fig12"


def test_experiment_registry_complete():
    expected = {
        "table1", "table3", "table4", "table5", "fig03", "fig09",
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15a", "fig15b",
        "fig16", "fig17", "sec7_5", "sec8_1", "ablations",
        "ext_highlevel", "ext_dvfs", "ext_counters", "ext_didt",
        "ext_multicore", "ext_workloads", "ext_littlecore",
    }
    assert expected == set(EXPERIMENTS)

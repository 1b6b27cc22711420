"""Tests for the apollo-repro CLI."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out
    assert "table4" in out
    assert "ext_dvfs" in out


def test_info_command(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "n1-like" in out
    assert "a77-like" in out
    assert "nets" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_experiment_writes_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACTS_DIR", str(tmp_path / "art"))
    out_file = tmp_path / "t1.txt"
    rc = main(
        ["run", "table1", "--scale", "tiny", "--out", str(out_file)]
    )
    assert rc == 0
    text = out_file.read_text()
    assert "table1" in text
    assert "APOLLO" in text


def test_run_table_experiment_on_tiny_context(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setenv("REPRO_ARTIFACTS_DIR", str(tmp_path / "art"))
    rc = main(["run", "table3", "--scale", "tiny"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table 3" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_stream_command_end_to_end(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_ARTIFACTS_DIR", str(tmp_path / "art"))
    model_path = str(tmp_path / "opm.npz")
    cycles, sessions, t = 2000, 2, 8
    rc = main([
        "stream", "--scale", "tiny",
        "--sessions", str(sessions), "--cycles", str(cycles),
        "--chunk-cycles", "128", "--t", str(t),
        "--save-model", model_path,
        "--out", str(tmp_path / "snap.json"),
    ])
    assert rc == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["counters"]["cycles_processed"] == sessions * cycles
    assert snap["counters"]["windows_emitted"] == sessions * (cycles // t)
    assert snap["counters"]["blocks_dropped"] == 0
    assert len(snap["sessions"]) == sessions
    assert (tmp_path / "snap.json").exists()

    # round 2: reload the saved quantized model instead of retraining
    rc = main([
        "stream", "--scale", "tiny", "--model", model_path,
        "--sessions", "1", "--cycles", "512", "--t", "4",
    ])
    assert rc == 0
    snap2 = json.loads(capsys.readouterr().out)
    assert snap2["counters"]["cycles_processed"] == 512


@pytest.fixture
def exported_run(tmp_path):
    """A tiny traced run's export files (trace + manifest)."""
    from repro.obs import RunManifest, Tracer

    tracer = Tracer()
    with tracer.span("flow.estimate", workload="smoke", cycles=64):
        with tracer.span("flow.uarch"):
            pass
        with tracer.span("flow.rtl") as sp:
            sp.set(engine="compiled")
        with tracer.span("flow.inference"):
            pass
    manifest = RunManifest(
        run="cli-smoke",
        design="n1-like",
        scale="tiny",
        seed=20211018,
        engine="compiled",
        q=12,
        config={"t": 8},
    )
    manifest.record_tracer(tracer)
    return {
        "chrome": tracer.to_chrome(tmp_path / "trace.json"),
        "jsonl": tracer.to_jsonl(tmp_path / "trace.jsonl"),
        "manifest": manifest.save(tmp_path / "manifest.json"),
    }


@pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
def test_trace_command_renders_span_tree(exported_run, capsys, fmt):
    assert main(["trace", str(exported_run[fmt])]) == 0
    out = capsys.readouterr().out
    assert "flow.estimate" in out
    assert "flow.rtl" in out
    assert "workload=smoke" in out
    # children are indented under the root
    rtl_line = next(
        line for line in out.splitlines() if "flow.rtl" in line
    )
    assert rtl_line.startswith("  ")


def test_trace_command_rejects_bad_input(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope.json")]) == 2
    assert "cannot load trace" in capsys.readouterr().err
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["trace", str(empty)]) == 1
    assert "no spans" in capsys.readouterr().err


def test_manifest_command_renders_sidecar(exported_run, capsys):
    assert main(["manifest", str(exported_run["manifest"])]) == 0
    out = capsys.readouterr().out
    assert "cli-smoke" in out
    assert "20211018" in out  # the seed
    assert "config hash" in out
    assert "flow.estimate" in out  # the stage-time table
    assert "total" in out


def test_manifest_command_rejects_foreign_json(
    tmp_path, capsys, exported_run
):
    assert main(["manifest", str(exported_run["chrome"])]) == 2
    assert "cannot load manifest" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Serving subcommands
# --------------------------------------------------------------------- #
@pytest.fixture
def model_registry_dir(tmp_path):
    """A disk-backed model registry with two versions, v1 active."""
    import numpy as np

    from repro.opm import QuantizedModel
    from repro.serve import ModelRegistry

    root = tmp_path / "registry"
    reg = ModelRegistry(root)
    for i, version in enumerate(("v1", "v2")):
        rng = np.random.default_rng(i)
        reg.publish(version, QuantizedModel(
            proxies=np.arange(4, dtype=np.int64),
            int_weights=rng.integers(1, 100, size=4),
            int_intercept=3,
            step=0.01,
            bits=8,
        ), activate=i == 0)
    return root


def test_serve_demo_command(tmp_path, capsys):
    out = tmp_path / "serve-demo"
    assert main(["serve", "--demo", "--out", str(out)]) == 0
    assert "Fleet power report" in capsys.readouterr().out
    assert (out / "fleet-report.json").exists()
    assert (out / "fleet-report.md").exists()


def test_loadgen_and_fleet_report_commands(
    tmp_path, capsys, model_registry_dir
):
    import json

    fleet_path = tmp_path / "fleet.json"
    rc = main([
        "loadgen", "--registry", str(model_registry_dir),
        "--sessions", "3", "--cycles", "64", "--chunk-cycles", "16",
        "--shards", "2", "--seed", "5",
        "--out", str(tmp_path / "load.json"),
        "--fleet-out", str(fleet_path),
    ])
    assert rc == 0
    load = json.loads(capsys.readouterr().out)
    assert load["n_sessions"] == 3
    assert load["cycles_total"] == 3 * 64
    assert load["dropped_blocks"] == 0

    assert main(["fleet-report", str(fleet_path), "--top", "2"]) == 0
    md = capsys.readouterr().out
    assert "Fleet power report" in md and "v1" in md

    assert main(["fleet-report", str(tmp_path / "load.json")]) == 2
    assert "cannot load fleet report" in capsys.readouterr().err


def test_serve_tcp_command_bounded_run(capsys, model_registry_dir):
    rc = main([
        "serve", "--registry", str(model_registry_dir),
        "--shards", "2", "--max-seconds", "0.05",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "# serving on 127.0.0.1:" in captured.err
    import json

    snap = json.loads(captured.out)
    assert snap["registry"]["active"] == "v1"
    assert len(snap["shards"]) == 2


def test_stream_registry_version_errors(
    capsys, model_registry_dir, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_ARTIFACTS_DIR", str(tmp_path / "art"))
    rc = main([
        "stream", "--scale", "tiny", "--registry",
        str(model_registry_dir), "--model-version", "v9",
        "--sessions", "1", "--cycles", "64",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown model version 'v9'" in err and "['v1', 'v2']" in err

    rc = main([
        "stream", "--scale", "tiny", "--model-version", "v1",
        "--sessions", "1", "--cycles", "64",
    ])
    assert rc == 2
    assert "--model-version needs --registry" in capsys.readouterr().err


def test_stream_registry_pinned_version_runs(
    capsys, model_registry_dir, tmp_path, monkeypatch
):
    import json

    monkeypatch.setenv("REPRO_ARTIFACTS_DIR", str(tmp_path / "art"))
    rc = main([
        "stream", "--scale", "tiny", "--registry",
        str(model_registry_dir), "--model-version", "v2",
        "--sessions", "1", "--cycles", "256", "--workers", "1",
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert rc == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["counters"]["cycles_processed"] == 256

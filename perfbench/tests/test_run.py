"""The command end to end, the tracer, and BENCHMARK.json against the harness."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_short_mode_runs_every_workload():
    proc = _run("--short")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for name in workloads.WORKLOADS:
        for metric, unit in run.END_TO_END:
            entry = result["metrics"][f"{name}.{metric}"]
            assert entry["unit"] == unit and entry["value"] > 0


def test_traced_short_run_reports_every_layer_metric():
    proc = _run("--short", "--workload", "decode_cold", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {name for name, _, _ in tracing.LAYER_METRICS}
    assert result["metrics"]["draft_gen.build_prefix_tree_drafts.calls"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "decode_hot", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracing_leaves_outputs_unchanged_and_restores_the_program():
    mods = workloads.spectr_modules()
    classes = (mods["prob_core"].RngStream, mods["prob_core"].ProbVector, mods["lm_sim"].ToyLm,
               mods["token_coupling"].TransportPlan)
    owners = (*mods.values(), *classes)
    before = [dict(vars(owner)) for owner in owners]
    wl = workloads.prepare("decode_hot", seed=2, short=True)
    plain, _ = workloads.run_round(wl)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        traced, _ = workloads.run_round(wl)
        layers = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert workloads.fingerprint(traced) == workloads.fingerprint(plain)
    assert layers["spectr_decode.serial_calls"] == sum(t.serial_big_calls for t in plain.traces)
    assert layers["prob_core.draws"] > 0
    for owner, attrs in zip(owners, before):
        assert {k: v for k, v in vars(owner).items() if k in attrs} == attrs


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

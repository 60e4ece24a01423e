"""Short-mode checks of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
from modnet.config import load_config  # noqa: E402
from modnet.runner import execute_run  # noqa: E402

SHORT = ["--iterations", "3", "--seconds", "0"]


def bench(*args: str, cwd: str = ROOT) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, proc.stdout, last


def listed(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_every_end_to_end_metric_for_every_workload():
    code, out, last = bench(*SHORT)
    assert code == 0, out
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for name in run.WORKLOADS:
        for key, unit in listed("end_to_end").items():
            metric = last["metrics"][f"{name}/{key}"]
            assert metric["unit"] == unit and metric["value"] > 0
        block = out.split(f"workload {name} ")[1]
        for key, unit in run.END_TO_END_UNITS.items():
            assert f"  {key} " in block and f" {unit} " in block


def test_traced_run_reports_listed_layers_and_matches_untraced_outputs():
    # the byte-identity of metrics.jsonl and final.ckpt between the
    # untraced and traced run is one of the benchmark's own checks
    code, out, last = bench(*SHORT, "--trace", "1")
    assert code == 0, out
    assert last["correct"]
    for name in run.WORKLOADS:
        for key, unit in listed("per_layer").items():
            assert last["metrics"][f"{name}/{key}"]["unit"] == unit


def traced_counts(workload: str, out_dir: str) -> dict[str, float]:
    wl = run.Workload(workload, seed=3, iterations=2)
    cfg = load_config(wl.config, wl.overrides)
    t = tracer.Tracer()
    t.install()
    try:
        execute_run(cfg, out_dir)
    finally:
        t.uninstall()
    layers = t.layer_metrics(cfg.trainer.iterations * cfg.trainer.m_steps)
    return {k: v for k, v in layers.items() if k.startswith(("autodiff.records", "modular."))}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_repeat_exactly(workload, tmp_path):
    first = traced_counts(workload, str(tmp_path / "a"))
    second = traced_counts(workload, str(tmp_path / "b"))
    assert first["autodiff.records_per_step"] > 0
    assert first["modular.pool_apply_calls"] > 0
    assert first == second


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    targets = [(o, a) for spans in tracer.SPANS.values() for o, a in spans]
    targets += list(tracer.COUNTS.values())
    before = {(o, a): o.__dict__[a] for o, a in targets}
    t = tracer.Tracer()
    t.install()
    try:
        assert all(o.__dict__[a] is not f for (o, a), f in before.items())
    finally:
        t.uninstall()
    traced_counts("toy-em", str(tmp_path / "run"))
    assert all(o.__dict__[a] is f for (o, a), f in before.items())


def test_numeric_abort_is_counted_not_raised(tmp_path):
    wl = run.Workload("toy-em", seed=0, iterations=3)
    spec = {
        "config": wl.config,
        # the first Adam step overflows every parameter, so every later
        # step is skipped until the guard aborts the run
        "overrides": wl.overrides + ["trainer.lr=1e308"],
        "trace": False,
        "setup_probes": 0,
        "out_dir": str(tmp_path / "run"),
    }
    res, err = run.run_child(spec, deadline=time.monotonic() + 120)
    assert res is not None, err
    assert res["status"] == "aborted"
    assert 0 < res["failed"] < res["attempted"]
    assert any("status aborted" in f for f in run.check_run("abort", res, 3))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out, last = bench(*SHORT, cwd=str(tmp_path))
    assert code != 0
    assert last is None

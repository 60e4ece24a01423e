"""Training-loop benchmark for modnet: one command, four workloads.

Each run is one ``modnet.runner.execute_run`` on a shipped config in a
fresh single-process child (``child.py``) with BLAS pinned to one thread.
Only ``seed``, ``trainer.iterations`` and the workload's listed overrides
are changed.  A workload repeats its fixed-length run until ``--seconds``
is used up (at least twice), pools the per-iteration samples and checks
the outputs.  ``--trace 1`` pairs each untraced run with a traced one and
reports per-layer metrics instead.  See README.md in this directory.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--iterations N]

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count gradient steps.  The exit code is 0 only when every output check
passed, and 2 when the checkout has no modnet sources or configs.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 10  # set-up-only executions after each untraced run
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Timings are scaled to a machine on which the calibration kernel
# (tracer.kernel_seconds) takes exactly this long; see README.md.
REF_KERNEL_S = 0.00125

# name -> (shipped config, fixed iterations per run, checkpoints and exports on).
# The iteration count is fixed so that eval_nll and the output hashes
# compare across machines; only the number of repeated runs follows --seconds.
WORKLOADS = {
    "toy-em": ("configs/toy_em.json", 300, True),
    "two-regime-em": ("configs/two_regime_em.json", 20, False),
    "two-regime-reinforce": ("configs/two_regime_reinforce.json", 15, False),
    "toy-noisy-topk": ("configs/toy_noisy_topk.json", 300, False),
}

END_TO_END_UNITS = {
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "iters_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "eval_nll": "nats",
    "failed_step_frac": "ratio",
}


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def run_child(spec: dict, deadline: float) -> tuple[dict | None, str]:
    """Run one child to completion; returns (result, error message)."""
    run_dir = spec["out_dir"]
    os.makedirs(run_dir)
    spec_path = os.path.join(run_dir, "spec.json")
    result_path = os.path.join(run_dir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({k: "1" for k in BLAS_ENV})
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, spec_path, result_path],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-5:])
        return None, f"child exited {proc.returncode}: {tail}"
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), ""


def iteration_ms(result: dict) -> tuple[list[float], list[float]]:
    """(wall, scaled) ms of every iteration of one run.

    Wall time is the difference between consecutive ``timing.jsonl`` rows
    minus the calibration kernels run inside it.  The scaled time multiplies
    it by REF_KERNEL_S over the mean kernel time around the iteration: the
    kernels inside it, the last one before it and the first one after it.
    """
    log = [(int(i), k) for i, k in result["kernel_log"]]
    at = [i for i, _ in log]
    wall, scaled, prev = [], [], 0.0
    for i, t in enumerate(result["wall_time_s"], start=1):
        lo, hi = bisect.bisect_left(at, i), bisect.bisect_right(at, i)
        ms = 1e3 * (t - prev - sum(k for _, k in log[lo:hi]))
        prev = t
        near = [k for _, k in log[max(0, lo - 1) : hi + 1]]
        wall.append(ms)
        scaled.append(ms * REF_KERNEL_S / statistics.fmean(near))
    return wall, scaled


def timing_metrics(runs: list[list[float]], setups: list[float], iterations: int) -> dict:
    """The four timing metrics from per-run iteration ms and set-up seconds."""
    samples = [ms for run in runs for ms in run[1:]]  # iteration 1 is warm-up
    return {
        "iter_ms_p50": statistics.median(samples),
        "iter_ms_p90": statistics.quantiles(samples, n=10, method="inclusive")[-1],
        "iters_per_s": statistics.median(1e3 * iterations / sum(run) for run in runs),
        "setup_s": statistics.median(setups),
    }


def check_run(label: str, res: dict, iterations: int) -> list[str]:
    failures = []
    if res["status"] != "completed":
        failures.append(f"{label}: status {res['status']}")
    if not math.isfinite(res["eval_nll"]):
        failures.append(f"{label}: eval_nll is not finite")
    if not math.isfinite(res["final_objective"]):
        failures.append(f"{label}: final objective is not finite")
    if len(res["wall_time_s"]) != iterations:
        failures.append(f"{label}: {len(res['wall_time_s'])} timing rows, expected {iterations}")
    if res["status"] == "completed" and res["guard_skipped"] != res["failed"]:
        failures.append(
            f"{label}: guard skipped {res['guard_skipped']} steps but "
            f"{res['failed']} steps left the parameters unchanged"
        )
    return failures


def is_timing(key: str) -> bool:
    return key.endswith(("_ms", "_share"))


class Workload:
    """Repeated runs of one workload and the metrics drawn from them."""

    def __init__(self, name: str, seed: int, iterations: int | None):
        self.name = name
        self.seed = seed
        config, default_iterations, diag = WORKLOADS[name]
        self.config = os.path.join(ROOT, config)
        self.iterations = iterations or default_iterations
        with open(self.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        self.overrides = [f"seed={seed}", f"trainer.iterations={self.iterations}"]
        if diag:
            self.overrides += [
                f"diagnostics.checkpoint_interval={raw['diagnostics']['interval']}",
                "diagnostics.export_images=true",
                "diagnostics.export_traces=true",
            ]
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.failures: list[str] = []

    def run(self, seconds: float, trace: bool) -> None:
        """Repeat rounds until ``seconds`` would be exceeded.

        A round is one untraced run, plus one traced run under ``trace``.
        Trace 0 makes at least two rounds, so that two same-seed runs can
        be compared byte for byte.
        """
        work_dir = os.path.join(OUT_ROOT, f"{self.name}-t{int(trace)}")
        shutil.rmtree(work_dir, ignore_errors=True)
        start = time.monotonic()
        deadline = start + CHILD_TIMEOUT_S
        min_rounds = 1 if trace else 2
        longest = 0.0
        while len(self.plain) < min_rounds or time.monotonic() - start + longest <= seconds:
            round_start = time.monotonic()
            k = len(self.plain)
            for traced in ([False, True] if trace else [False]):
                spec = {
                    "config": self.config,
                    "overrides": self.overrides,
                    "trace": traced,
                    "setup_probes": 0 if trace else SETUP_PROBES,
                    "out_dir": os.path.join(work_dir, f"run{k}{'-traced' if traced else ''}"),
                }
                res, err = run_child(spec, deadline)
                label = f"{self.name} {'traced ' if traced else ''}run {k}"
                if res is None:
                    self.failures.append(f"{label}: {err}")
                    return
                self.failures += check_run(label, res, self.iterations)
                (self.traced if traced else self.plain).append(res)
            longest = max(longest, time.monotonic() - round_start)
        ref = self.plain[0]["sha256"]
        others = [(f"run {i}", r) for i, r in enumerate(self.plain[1:], start=1)]
        others += [(f"traced run {i}", r) for i, r in enumerate(self.traced)]
        for label, res in others:
            for fname, digest in res["sha256"].items():
                if digest != ref[fname]:
                    self.failures.append(f"{self.name} {label}: {fname} differs from run 0")

    @property
    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.plain + self.traced)

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.plain + self.traced)

    def end_to_end(self) -> tuple[dict, dict, dict]:
        """(metrics, wall, notes): every end-to-end metric with its timings
        scaled to the reference speed, the same timings unscaled, and how
        each was sampled."""
        times = [iteration_ms(r) for r in self.plain]
        setups = [pair for r in self.plain for pair in r["setup"]]
        wall = timing_metrics([t[0] for t in times], [s for s, _ in setups], self.iterations)
        metrics = timing_metrics(
            [t[1] for t in times], [s * REF_KERNEL_S / k for s, k in setups], self.iterations
        )
        samples = len(times) * (self.iterations - 1)
        beyond = sum(1 for t in times for ms in t[1][1:] if ms > metrics["iter_ms_p90"])
        runs = len(self.plain)
        metrics.update({
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.plain),
            "eval_nll": self.plain[0]["eval_nll"],
            "failed_step_frac": self.failed / self.attempted,
        })
        notes = {
            "iter_ms_p50": f"{samples} iteration samples from {runs} runs",
            "iter_ms_p90": f"{samples} iteration samples, {beyond} beyond p90",
            "iters_per_s": f"median of {runs} runs of {self.iterations} iterations, "
            f"batch {self.plain[0]['batch']}",
            "setup_s": f"median of {len(setups)} set-ups",
            "peak_rss_mb": f"median of {runs} runs",
            "eval_nll": f"after {self.iterations} iterations",
            "failed_step_frac": f"{self.failed} of {self.attempted} gradient steps",
        }
        return metrics, wall, notes

    def layers(self) -> dict:
        """Per-layer metrics: timings are medians over traced runs, counts
        must repeat exactly."""
        out = dict(self.traced[0]["layers"])
        for res in self.traced[1:]:
            if {k: v for k, v in res["layers"].items() if not is_timing(k)} != {
                k: v for k, v in out.items() if not is_timing(k)
            }:
                self.failures.append(f"{self.name}: layer counts differ between traced runs")
        for key in out:
            if is_timing(key):
                out[key] = statistics.median(r["layers"][key] for r in self.traced)
        plain = statistics.median(s for r in self.plain for s in iteration_ms(r)[1][1:])
        traced = statistics.median(s for r in self.traced for s in iteration_ms(r)[1][1:])
        out["trace.overhead_frac"] = traced / plain - 1.0
        return out

    def report(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "config": os.path.relpath(self.config, ROOT),
            "overrides": self.overrides,
            "iterations_per_run": self.iterations,
            "runs": len(self.plain),
            "traced_runs": len(self.traced),
            "sha256": self.plain[0]["sha256"] if self.plain else None,
            "env": [dict(r["env"], git_commit=git_commit()) for r in self.plain + self.traced],
            "timings": [
                {k: r[k] for k in ("wall_time_s", "kernel_log", "setup")}
                for r in self.plain + self.traced
            ],
            "failures": self.failures,
        }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="iterations per run for every workload, in place of the fixed counts (short checks)",
    )
    args = ap.parse_args(argv)

    needed = ["src/modnet/runner.py", *(w[0] for w in WORKLOADS.values())]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.trace:
        listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    os.makedirs(OUT_ROOT, exist_ok=True)
    correct, attempted, failed, out = True, 0, 0, {}
    for name in names:
        wl = Workload(name, args.seed, args.iterations)
        wl.run(seconds, bool(args.trace))
        report = wl.report()
        print(f"workload {name} seed {args.seed} trace {args.trace}: {whys.get(name)}")
        if report["env"]:
            print(f"  env {json.dumps(report['env'][0], sort_keys=True)}")
        metrics = {}
        if len(wl.plain) >= 1 and not args.trace:
            metrics, wall, notes = wl.end_to_end()
            report["wall"] = wall
            for key, value in metrics.items():
                unit = END_TO_END_UNITS[key]
                unscaled = f"; wall {wall[key]:.6g} {unit}" if key in wall else ""
                print(f"  {key:<18} {value:>14.6g} {unit:<6} ({notes[key]}{unscaled})")
            print(f"  sha256 {json.dumps(report['sha256'], sort_keys=True)}")
        elif wl.traced:
            metrics = wl.layers()
            for key in sorted(metrics):
                print(f"  {key:<42} {metrics[key]:.6g}")
            absent = sorted(set(listed) - set(metrics))
            if absent:
                wl.failures.append(f"{name}: listed per-layer metrics never reached: {absent}")
        for failure in wl.failures:
            print(f"  CHECK FAILED: {failure}")
        report["metrics"] = metrics
        path = os.path.join(OUT_ROOT, f"result-{name}-s{args.seed}-t{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        correct = correct and not wl.failures
        attempted += wl.attempted
        failed += wl.failed
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, unit in listed.items():
            if math.isfinite(metrics.get(key, math.nan)):
                out[prefix + key] = {"value": metrics[key], "unit": unit}

    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": out}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

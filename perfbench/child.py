"""One benchmark run in a fresh process: ``execute_run`` on one config.

The parent (``run.py``) starts this with BLAS pinned to one thread and
``src`` on the import path.  It writes one JSON result file and exits 0,
or exits non-zero when the run could not be measured at all; a run that
ends in ``NumericAbort`` is measured and reported, not raised.

Usage: python3 perfbench/child.py SPEC_JSON RESULT_PATH
where SPEC_JSON holds config, overrides, out_dir, trace and setup_probes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

from modnet.config import load_config
from modnet.em import NumericAbort
from modnet.runner import execute_run
from modnet.serialize import read_checkpoint

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import SetupDone, Tracer, kernel_seconds  # noqa: E402


def sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def kernel_median(n: int = 3) -> float:
    return statistics.median(kernel_seconds() for _ in range(n))


def time_setup(cfg, out_dir: str) -> list[float]:
    """[seconds from calling ``execute_run`` to its first iteration,
    calibration kernel seconds around it]."""
    tracer = Tracer(stop_at_loop=True)
    before = kernel_median()
    tracer.install(full=False)
    start = time.perf_counter()
    try:
        execute_run(cfg, out_dir)
    except SetupDone:
        pass
    finally:
        tracer.uninstall()
    after = kernel_median()
    shutil.rmtree(out_dir)
    if tracer.loop_start is None:
        raise RuntimeError("set-up probe never reached its first iteration")
    return [tracer.loop_start - start, (before + after) / 2]


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cfg = load_config(spec["config"], spec["overrides"])
    out_dir = spec["out_dir"]
    trace = bool(spec["trace"])

    tracer = Tracer()
    before = kernel_median()
    tracer.install(full=trace)
    start = time.perf_counter()
    try:
        record = execute_run(cfg, out_dir)
    except NumericAbort:
        with open(os.path.join(out_dir, "run_record.json"), encoding="utf-8") as fh:
            record = json.load(fh)
    finally:
        tracer.uninstall()
    # high-water mark of the run itself, before any set-up probe
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(out_dir, "timing.jsonl"), encoding="utf-8") as fh:
        wall = [json.loads(line)["wall_time_s"] for line in fh]
    ckpt_path = record["checkpoints"][-1] if record["checkpoints"] else None
    ckpt = read_checkpoint(ckpt_path) if ckpt_path else None
    attempted = cfg.trainer.iterations * cfg.trainer.m_steps
    taken = ckpt.opt_t if ckpt is not None else 0
    evals = (record["summary"]["eval"] or {}).get("nll")
    final_obj = record["summary"]["final_objective"]
    result = {
        "status": record["status"],
        "batch": cfg.trainer.batch,
        "setup": [],
        "wall_time_s": wall,
        "kernel_log": tracer.kernel_log,
        "peak_rss_mb": peak_rss_mb,
        "eval_nll": evals if evals is not None else float("nan"),
        "final_objective": final_obj if final_obj is not None else float("nan"),
        "attempted": attempted,
        # every step that did not move the parameters failed, aborted ones included
        "failed": attempted - taken,
        "guard_skipped": None if ckpt is None else int(ckpt.trainer_scalars["total"]),
        "sha256": {
            "metrics.jsonl": sha256(os.path.join(out_dir, "metrics.jsonl")),
            "final.ckpt": sha256(os.path.join(out_dir, "checkpoints", "final.ckpt")),
        },
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {
                k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
            },
        },
    }
    if trace:
        tracer.write_spans(os.path.join(out_dir, "spans.jsonl"))
        result["layers"] = tracer.layer_metrics(attempted)
    if tracer.kernel_log and tracer.kernel_log[0][0] == 1:
        # the first loop kernel runs right after set-up ends
        kernel = (before + tracer.kernel_log[0][1]) / 2
        result["setup"].append([tracer.loop_start - start, kernel])
    for i in range(spec["setup_probes"]):
        result["setup"].append(time_setup(cfg, os.path.join(out_dir, f"setup-probe-{i}")))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

"""Declared drift: short training runs against their recorded trajectories.

The byte pins of ``test_parity`` hold a run's outputs fixed.  A change
that moves their bits on purpose, such as a reordered floating-point
formula, re-pins them and shows with this module that the runs moved by
rounding only.  ``tests/trajectories/`` holds, for each run in
``MOVED``, every float of its ``metrics.jsonl`` and of its run record's
summary at full precision, and the norm of every parameter array of its
``final.ckpt``, recorded from the code before such a change.

``compare`` reports the largest relative difference per metric, per
summary value and per parameter norm, and lists as failures every row
whose decision changed (``e_step_improved_fraction``, which counts the
E-step's kept proposals) and every value whose type or presence changed,
whatever the float drift.  ``test_drift`` holds every run within
``BOUND``.

    PYTHONPATH=src python tests/drift.py [NAME ...]          # report
    PYTHONPATH=src python tests/drift.py --write [NAME ...]  # record

Record trajectories from the code a change starts from, never from the
change itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np
from test_parity import pinned_config

from modnet.runner import execute_run
from modnet.serialize import read_checkpoint

TRAJECTORIES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trajectories")

# the pinned runs through the recurrent cell, whose arithmetic a declared
# drift may move
MOVED = (
    "text_char_em",
    "two_regime_em_smoke",
    "two_regime_noisy_topk",
    "two_regime_reinforce",
    "two_regime_reinforce/m8_two_slots_clipped",
    "two_regime_static",
)

# metrics that count discrete choices: any change is a failure
DECISIONS = ("e_step_improved_fraction",)

# largest relative difference a declared drift may show on any value
BOUND = 1e-9


def _flat(obj, prefix: str = "") -> dict:
    """Leaves of nested dicts, keyed by their dotted paths."""
    if not isinstance(obj, dict):
        return {prefix: obj}
    out = {}
    for key, value in obj.items():
        out.update(_flat(value, f"{prefix}.{key}" if prefix else key))
    return out


def trajectory(name: str, out_dir: str) -> dict:
    """Run ``name`` (a key of ``test_parity``'s pins) into ``out_dir`` and
    return its trajectory: metric rows, flattened summary and the norm of
    every parameter array."""
    execute_run(pinned_config(name), out_dir)
    with open(os.path.join(out_dir, "metrics.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    with open(os.path.join(out_dir, "run_record.json"), encoding="utf-8") as fh:
        summary = _flat(json.load(fh)["summary"])
    params = read_checkpoint(os.path.join(out_dir, "checkpoints", "final.ckpt")).params
    norms = {key: float(np.linalg.norm(arr)) for key, arr in sorted(params.items())}
    return {"rows": rows, "summary": summary, "norms": norms}


def path_of(name: str) -> str:
    return os.path.join(TRAJECTORIES, name.replace("/", "__") + ".json")


def load(name: str) -> dict:
    with open(path_of(name), encoding="utf-8") as fh:
        return json.load(fh)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def relative(a: float, b: float) -> float:
    """|a - b| / |a|, with 0 for equal values and inf past a zero ``a``."""
    if a == b:
        return 0.0
    return abs(a - b) / abs(a) if a != 0 else math.inf


def compare(old: dict, new: dict) -> tuple[dict, list[str]]:
    """(drift, failures): the largest relative difference of each field
    between the trajectories ``old`` and ``new``, keyed "metrics.<key>",
    "summary.<path>" or "norms.<array>", and a line for every changed
    decision, naming its row, and every value changed in kind."""
    drift: dict[str, float] = {}
    failures: list[str] = []

    def note(field: str, where: str, a, b) -> None:
        if _is_number(a) and _is_number(b):
            drift[field] = max(drift.get(field, 0.0), relative(a, b))
        elif a != b:
            failures.append(f"{where}: {a!r} -> {b!r}")

    if len(old["rows"]) != len(new["rows"]):
        failures.append(f"metrics: {len(old['rows'])} rows recorded, {len(new['rows'])} now")
    for i, (a, b) in enumerate(zip(old["rows"], new["rows"])):
        for key in sorted(a.keys() | b.keys()):
            where = f"row {i} (iteration {a.get('iteration')}) {key}"
            if key in DECISIONS and a.get(key) != b.get(key):
                failures.append(f"{where}: decision changed, {a.get(key)!r} -> {b.get(key)!r}")
            else:
                note(f"metrics.{key}", where, a.get(key), b.get(key))
    for section in ("summary", "norms"):
        for key in sorted(old[section].keys() | new[section].keys()):
            a, b = old[section].get(key), new[section].get(key)
            note(f"{section}.{key}", f"{section} {key}", a, b)
    return drift, failures


def report(name: str, drift: dict, failures: list[str]) -> str:
    lines = [name]
    lines += [f"  {field:<44} {value:.2e}" for field, value in sorted(drift.items())]
    lines += [f"  FAIL {line}" for line in failures]
    worst = max(drift.values(), default=0.0)
    verdict = "ok" if worst <= BOUND and not failures else "OUT OF BOUND"
    lines.append(f"  max {worst:.2e} (bound {BOUND:.0e}): {verdict}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", default=list(MOVED))
    parser.add_argument("--write", action="store_true", help="record, do not compare")
    args = parser.parse_args(argv)
    bad = 0
    for name in args.names:
        with tempfile.TemporaryDirectory() as tmp:
            got = trajectory(name, tmp)
        if args.write:
            os.makedirs(TRAJECTORIES, exist_ok=True)
            with open(path_of(name), "w", encoding="utf-8") as fh:
                json.dump(got, fh, indent=1, sort_keys=True, allow_nan=False)
                fh.write("\n")
            print(f"recorded {path_of(name)}")
            continue
        drift, failures = compare(load(name), got)
        print(report(name, drift, failures))
        bad += bool(failures) or max(drift.values(), default=0.0) > BOUND
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

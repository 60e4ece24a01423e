"""Experiment configuration: JSON files plus dotted-key CLI overrides.

Unknown keys and invalid values fail fast with the offending field path,
so a typo in a sweep file surfaces immediately instead of training the
wrong thing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field, fields


class ConfigError(Exception):
    """Bad experiment configuration; message names the field path."""


TASK_KINDS = ("toy-regression", "two-regime-lm", "text-lm")
TRAINER_KINDS = ("em", "reinforce", "noisy-topk", "static")

# accepted spellings for fields whose common shorthand differs
ALIASES = {
    "S": "n_samples",
    "max_iterations": "iterations",
    "m_batch": "batch",
}


@dataclass
class ArchitectureConfig:
    n_layers: int = 1
    n_modules: int = 2
    n_slots: int = 1
    hidden: int = 8
    combine: str = "sum"
    module_kind: str = "linear"
    embed_dim: int = 32
    topk: int = 4


@dataclass
class TrainerConfig:
    kind: str = "em"
    iterations: int = 1000
    lr: float = 1e-3
    n_samples: int = 10
    m_steps: int = 15
    e_batch: int = 64
    batch: int = 64
    clip_norm: float | None = None
    samples_per_example: int = 1
    ema_decay: float = 0.99
    static_indices: list[int] | None = None


@dataclass
class TaskConfig:
    kind: str = "toy-regression"
    # two-cluster regression
    n: int = 2000
    dim: int = 2
    center: float = 2.0
    spread: float = 0.5
    scale_lo: float = 0.5
    scale_hi: float = 2.0
    # symbol-chain and text modelling
    n_windows: int = 2000
    unroll: int = 20
    n_states: int = 6
    noise: float = 0.1
    path: str | None = None
    mode: str = "char"
    vocab_cap: int = 10_000


@dataclass
class DiagnosticsConfig:
    interval: int = 1
    probe_size: int = 256
    export_images: bool = False
    export_traces: bool = False
    checkpoint_interval: int = 0


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str | None = None
    task: TaskConfig = field(default_factory=TaskConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _fill(dc_type, data: dict, path: str):
    allowed = {f.name: f for f in fields(dc_type)}
    kwargs = {}
    for key, value in data.items():
        name = ALIASES.get(key, key)
        here = f"{path}.{name}" if path else name
        if name not in allowed:
            raise ConfigError(f"{here}: unknown field")
        ftype = allowed[name].type
        if ftype in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected an object")
            kwargs[name] = _fill(_SECTIONS[ftype], value, here)
        else:
            kwargs[name] = _coerce(value, ftype, here)
    return dc_type(**kwargs)


# nested sections by annotation; annotations are strings in this module
_SECTIONS = {
    c.__name__: c for c in (TaskConfig, TrainerConfig, ArchitectureConfig, DiagnosticsConfig)
}


def _coerce(value, ftype, path: str):
    ft = ftype if isinstance(ftype, str) else getattr(ftype, "__name__", str(ftype))
    if ft == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if ft == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path}: {value!r} is out of range") from None
    if ft == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value
    if ft == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if ft == "list[int]":
        if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in value
        ):
            raise ConfigError(f"{path}: expected a list of integers, got {value!r}")
        return value
    if ft.endswith(" | None"):
        return None if value is None else _coerce(value, ft[: -len(" | None")], path)
    raise TypeError(f"{path}: no rule for field type {ft!r}")


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    t, tr, a, d = cfg.task, cfg.trainer, cfg.architecture, cfg.diagnostics
    if t.kind not in TASK_KINDS:
        raise ConfigError(f"task.kind: must be one of {TASK_KINDS}, got {t.kind!r}")
    if tr.kind not in TRAINER_KINDS:
        raise ConfigError(
            f"trainer.kind: must be one of {TRAINER_KINDS}, got {tr.kind!r}"
        )
    if a.n_modules < 1 or a.n_slots < 1 or a.n_layers < 1:
        raise ConfigError("architecture: layers, modules, and slots must be >= 1")
    for name, size in (
        ("architecture.hidden", a.hidden),
        ("architecture.embed_dim", a.embed_dim),
        ("task.unroll", t.unroll),
        ("task.dim", t.dim),
    ):
        if size < 1:
            raise ConfigError(f"{name}: must be >= 1, got {size}")
    if a.combine not in ("sum", "concat"):
        raise ConfigError(f"architecture.combine: 'sum' or 'concat', got {a.combine!r}")
    if a.module_kind not in ("linear", "linear-relu"):
        raise ConfigError(
            f"architecture.module_kind: 'linear' or 'linear-relu', got {a.module_kind!r}"
        )
    if tr.kind == "noisy-topk" and not 1 <= a.topk <= a.n_modules:
        raise ConfigError(
            f"architecture.topk: must lie in [1, {a.n_modules}], got {a.topk}"
        )
    if tr.kind == "noisy-topk" and a.combine != "sum":
        raise ConfigError("architecture.combine: a noisy top-k gate sums its module outputs")
    if tr.kind == "noisy-topk" and a.n_slots != 1:
        raise ConfigError(
            f"architecture.n_slots: a noisy top-k gate routes a single slot, got {a.n_slots}"
        )
    if t.kind in ("two-regime-lm", "text-lm"):
        if a.n_layers != 1:
            raise ConfigError(
                "architecture.n_layers: recurrent tasks use a single modular cell"
            )
        if a.combine != "sum":
            raise ConfigError("architecture.combine: recurrent cells sum module outputs")
        if a.module_kind != "linear":
            raise ConfigError(
                "architecture.module_kind: a recurrent cell's modules are linear; "
                "it rectifies their sum"
            )
    elif a.combine == "concat" and a.n_slots > 1:
        raise ConfigError(
            "architecture.combine: concat widens each layer by its slot count, "
            "so the last layer's output would not match the regression targets"
        )
    if t.kind == "text-lm" and not t.path:
        raise ConfigError("task.path: text modelling needs a corpus file")
    if t.kind == "two-regime-lm" and t.n_states < 2:
        raise ConfigError("task.n_states: need at least two states")
    if not 0.0 <= t.noise < 1.0:
        raise ConfigError(f"task.noise: must lie in [0, 1), got {t.noise}")
    if tr.iterations < 0:
        raise ConfigError("trainer.iterations: must be >= 0")
    if min(tr.n_samples, tr.m_steps, tr.e_batch, tr.batch) < 1:
        raise ConfigError(
            "trainer: n_samples, m_steps, e_batch, and batch must be >= 1"
        )
    if not (math.isfinite(tr.lr) and tr.lr > 0):
        raise ConfigError(f"trainer.lr: must be a finite number > 0, got {tr.lr}")
    if tr.clip_norm is not None and not (math.isfinite(tr.clip_norm) and tr.clip_norm >= 0):
        raise ConfigError(
            f"trainer.clip_norm: must be a finite number >= 0 (0 disables), got {tr.clip_norm}"
        )
    if tr.samples_per_example < 1:
        raise ConfigError("trainer.samples_per_example: must be >= 1")
    if not 0.0 < tr.ema_decay < 1.0:
        raise ConfigError("trainer.ema_decay: must lie in (0, 1)")
    if tr.static_indices is not None:
        if len(tr.static_indices) != a.n_slots:
            raise ConfigError(
                f"trainer.static_indices: need {a.n_slots} entries, "
                f"got {len(tr.static_indices)}"
            )
        if any(not 0 <= i < a.n_modules for i in tr.static_indices):
            raise ConfigError(
                f"trainer.static_indices: indices must lie in [0, {a.n_modules})"
            )
    if d.interval < 1 or d.probe_size < 1:
        raise ConfigError("diagnostics: interval and probe_size must be >= 1")
    if d.checkpoint_interval < 0:
        raise ConfigError("diagnostics.checkpoint_interval: must be >= 0")
    return cfg


def require_object(value, what: str) -> dict:
    """``value`` when it is a JSON object, else a ConfigError naming ``what``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def from_dict(data: dict) -> ExperimentConfig:
    return validate(_fill(ExperimentConfig, require_object(data, "config root"), ""))


def anchor_task_path(data: dict, anchor_dir: str) -> dict:
    """Rewrite a relative ``task.path`` to be absolute against ``anchor_dir``
    so configs work regardless of the caller's working directory."""
    task = data.get("task")
    if isinstance(task, dict):
        p = task.get("path")
        if isinstance(p, str) and p and not os.path.isabs(p):
            task["path"] = os.path.normpath(os.path.join(anchor_dir, p))
    return data


def load_config(path: str, overrides: list[str] | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    require_object(data, f"{path}: config root")
    if overrides:
        data = apply_overrides(data, overrides)
    anchor_task_path(data, os.path.dirname(os.path.abspath(path)))
    return from_dict(data)


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Set dotted keys like ``trainer.lr=0.01``; values parse as JSON,
    falling back to a bare string."""
    out = json.loads(json.dumps(data))  # deep copy, JSON types only
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:  # JSONDecodeError, or an integer past Python's digit limit
            value = raw
        node = out
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {dotted!r}: {part} is not an object")
        node[parts[-1]] = value
    return out


RESUME_OVERRIDABLE = {
    "trainer.iterations",
    "diagnostics.interval",
    "diagnostics.checkpoint_interval",
    "diagnostics.export_images",
    "diagnostics.export_traces",
    "out_dir",
}


def check_resume_overrides(overrides: list[str]) -> None:
    """Resumes may only reschedule; anything touching the model is refused."""
    for item in overrides:
        dotted = item.split("=", 1)[0]
        if dotted not in RESUME_OVERRIDABLE:
            raise ConfigError(
                f"override {dotted!r}: resume accepts only "
                f"{sorted(RESUME_OVERRIDABLE)}"
            )

"""Experiment configuration: JSON files plus dotted-key CLI overrides.

Unknown keys and invalid values fail fast with the offending field path,
so a typo in a sweep file surfaces immediately instead of training the
wrong thing.  Each leaf field states its own rule with ``rule(default,
least=, above=, below=, choices=, kinds=)``; a float must also be finite,
and a bare ``rule(default)`` checks the type alone.  Only the task or
trainer ``kinds`` read a tagged field: others accept just its default, and
``to_dict`` leaves it out.  ``validate`` applies every field's rule in one
loop, then the few rules that tie one field's value to another's.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import os
from dataclasses import dataclass, field, fields


class ConfigError(Exception):
    """Bad experiment configuration; message names the field path."""


_OPS = {">=": operator.ge, ">": operator.gt, "<": operator.lt}
TOY, RECURRENT = ("toy-regression",), ("two-regime-lm", "text-lm")
TASK_KINDS = TOY + RECURRENT


@dataclass(frozen=True)
class Rule:
    """One field's own constraint: ``(op, bound)`` limits, choices, reading kinds."""

    limits: tuple[tuple[str, float], ...] = ()
    choices: tuple[str, ...] | None = None
    kinds: tuple[str, ...] | None = None

    def check(self, value, path: str) -> None:
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"{path}: must be one of {self.choices}, got {value!r}")
        ok = all(_OPS[op](value, bound) for op, bound in self.limits)
        text = " and ".join(f"{op} {bound}" for op, bound in self.limits)
        if isinstance(value, float) and not (math.isfinite(value) and ok):
            raise ConfigError(f"{path}: must be a finite number {text}".rstrip() + f", got {value}")
        if not ok:
            raise ConfigError(f"{path}: must be {text}, got {value}")

    def reads(self, kinds) -> bool:  # no hashing: a stored header's kind may be a list
        return self.kinds is None or any(k in kinds for k in self.kinds)


def rule(default, least=None, above=None, below=None, choices=None, kinds=None):
    """A ``default`` >= least, > above, < below, in choices; only ``kinds`` set another value."""
    limits = tuple((op, b) for op, b in zip(_OPS, (least, above, below)) if b is not None)
    return field(default=default, metadata={"rule": Rule(limits, choices, kinds)})


@dataclass
class ArchitectureConfig:
    n_layers: int = rule(1, least=1, kinds=TOY)
    n_modules: int = rule(2, least=1)
    # a noisy top-k gate routes one slot, and a recurrent cell's modules are linear
    n_slots: int = rule(1, least=1, kinds=("em", "reinforce", "static"))
    hidden: int = rule(8, least=1)
    module_kind: str = rule("linear", choices=("linear", "linear-relu"), kinds=TOY)
    embed_dim: int = rule(32, least=1, kinds=RECURRENT)
    topk: int = rule(4, least=1, kinds=("noisy-topk",))


@dataclass
class TrainerConfig:
    kind: str = rule("em", choices=("em", "reinforce", "noisy-topk", "static"))
    iterations: int = rule(1000, least=0)
    lr: float = rule(1e-3, above=0)
    n_samples: int = rule(10, least=1, kinds=("em",))
    m_steps: int = rule(15, least=1)
    e_batch: int = rule(64, least=1, kinds=("em",))
    batch: int = rule(64, least=1)
    clip_norm: float | None = rule(None, least=0)  # 0 disables clipping
    samples_per_example: int = rule(1, least=1, kinds=("reinforce",))
    ema_decay: float = rule(0.99, above=0, below=1, kinds=("reinforce",))
    static_indices: list[int] | None = rule(None, kinds=("static",))


@dataclass
class TaskConfig:
    kind: str = rule("toy-regression", choices=TASK_KINDS)
    # two-cluster regression
    n: int = rule(2000, least=1, kinds=TOY)
    dim: int = rule(2, least=1, kinds=TOY)
    center: float = rule(2.0, kinds=TOY)
    spread: float = rule(0.5, kinds=TOY)
    scale_lo: float = rule(0.5, kinds=TOY)
    scale_hi: float = rule(2.0, kinds=TOY)
    # symbol-chain and text modelling
    n_windows: int = rule(2000, least=1, kinds=("two-regime-lm",))
    unroll: int = rule(20, least=1, kinds=RECURRENT)
    n_states: int = rule(6, least=2, kinds=("two-regime-lm",))
    noise: float = rule(0.1, least=0, below=1, kinds=("two-regime-lm",))
    path: str | None = rule(None, kinds=("text-lm",))
    mode: str = rule("char", choices=("char", "word"), kinds=("text-lm",))
    # word mode keeps <unk>, <eos> and at least one word
    vocab_cap: int = rule(10_000, least=3, kinds=("text-lm",))


@dataclass
class DiagnosticsConfig:
    interval: int = rule(1, least=1)
    probe_size: int = rule(256, least=1)
    export_images: bool = rule(False)
    export_traces: bool = rule(False)
    checkpoint_interval: int = rule(0, least=0)


@dataclass
class ExperimentConfig:
    seed: int = rule(0, least=0)
    out_dir: str | None = rule(None)
    task: TaskConfig = field(default_factory=TaskConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)

    def to_dict(self) -> dict:  # the fields that its task and trainer kinds read
        return project(dataclasses.asdict(self))


def _fill(dc_type, data: dict, path: str):
    allowed = {f.name: f for f in fields(dc_type)}
    kwargs = {}
    for key, value in data.items():
        here = f"{path}.{key}" if path else key
        if key not in allowed:
            raise ConfigError(f"{here}: unknown field")
        ftype = allowed[key].type
        if ftype in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected an object")
            kwargs[key] = _fill(_SECTIONS[ftype], value, here)
        else:
            kwargs[key] = _coerce(value, ftype, here)
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


def project(data: dict) -> dict:
    """``data`` without the known fields that its task and trainer kinds do
    not read; unknown keys and misshapen sections are left for ``_fill``."""
    task, trainer = data.get("task", {}), data.get("trainer", {})
    if not (isinstance(task, dict) and isinstance(trainer, dict)):
        return data
    kinds = (task.get("kind", TaskConfig.kind), trainer.get("kind", TrainerConfig.kind))
    out = dict(data)
    for f in fields(ExperimentConfig):
        if f.type in _SECTIONS and isinstance(out.get(f.name), dict):
            read = {g.name: g.metadata["rule"].reads(kinds) for g in fields(_SECTIONS[f.type])}
            out[f.name] = {k: v for k, v in out[f.name].items() if read.get(k, True)}
    return out


def _check_fields(obj, kinds, prefix: str = "") -> None:
    # a section's kind is its first field: checked before the fields tagged by it
    for f in fields(obj):
        value, path = getattr(obj, f.name), prefix + f.name
        if f.type in _SECTIONS:
            _check_fields(value, kinds, path + ".")
        elif value != f.default and not (tag := f.metadata["rule"]).reads(kinds.values()):
            sort = "task" if set(tag.kinds) <= set(TASK_KINDS) else "trainer"
            raise ConfigError(f"{path}: not read by {sort} kind {kinds[sort]}")
        elif value is not None:
            f.metadata["rule"].check(value, path)


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    t, tr, a = cfg.task, cfg.trainer, cfg.architecture
    _check_fields(cfg, {"task": t.kind, "trainer": tr.kind})
    if t.scale_lo > t.scale_hi:
        raise ConfigError(
            f"task.scale_lo: must be <= task.scale_hi ({t.scale_hi}), got {t.scale_lo}"
        )
    if tr.kind == "noisy-topk" and a.topk > a.n_modules:
        raise ConfigError(f"architecture.topk: must lie in [1, {a.n_modules}], got {a.topk}")
    if t.kind == "text-lm" and not t.path:
        raise ConfigError("task.path: text modelling needs a corpus file")
    # the generator needs each state's likeliest successor to be its permutation's
    if t.kind == "two-regime-lm" and not 1.0 - t.noise > t.noise / (t.n_states - 1):
        raise ConfigError(
            f"task.noise: must be < (n_states - 1) / n_states = "
            f"{(t.n_states - 1) / t.n_states:.4g} for two-regime-lm, got {t.noise}"
        )
    if tr.static_indices is not None:
        if len(tr.static_indices) != a.n_slots:
            raise ConfigError(
                f"trainer.static_indices: need {a.n_slots} entries, "
                f"got {len(tr.static_indices)}"
            )
        if any(not 0 <= i < a.n_modules for i in tr.static_indices):
            raise ConfigError(f"trainer.static_indices: indices must lie in [0, {a.n_modules})")
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
            allowed = sorted(RESUME_OVERRIDABLE)
            raise ConfigError(f"override {dotted!r}: resume accepts only {allowed}")

import dataclasses
import json
import os
import re
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from modnet.cli import main
from modnet.config import (
    ConfigError,
    ExperimentConfig,
    Rule,
    apply_overrides,
    check_resume_overrides,
    from_dict,
    load_config,
    project,
)
from modnet.runner import (
    _effective_clip,
    build_dataset,
    build_model,
    build_task,
    execute_run,
)
from modnet.seeding import SeedStreams

TOY_EM = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "toy_em.json")
TIDES = os.path.join(os.path.dirname(__file__), os.pardir, "data", "tides.txt")
SHIPPED = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_empty_config_yields_defaults():
    cfg = from_dict({})
    assert cfg.seed == 0
    assert cfg.task.kind == "toy-regression"
    assert cfg.trainer.kind == "em"
    assert cfg.trainer.iterations == 1000
    assert cfg.architecture.n_modules == 2
    assert cfg.diagnostics.probe_size == 256


def test_to_dict_round_trips_through_from_dict():
    cfg = from_dict({"seed": 9, "trainer": {"lr": 0.01}})
    again = from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_shorthand_spellings_are_unknown_fields(tmp_path, capsys, monkeypatch):
    # a shorthand beside its field would silently override it
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "runs"))
    for alias in ("S", "max_iterations", "m_batch"):
        assert main(["run", TOY_EM, "--set", f"trainer.{alias}=3"]) == 2
        err = capsys.readouterr().err
        assert f"config error: trainer.{alias}: unknown field" in err and "Traceback" not in err
    with pytest.raises(ConfigError, match="trainer.S: unknown field"):
        from_dict({"trainer": {"n_samples": 10, "S": 3}})
    assert not (tmp_path / "runs").exists()


def test_unknown_field_names_the_full_path():
    with pytest.raises(ConfigError, match="trainer.lrx: unknown field"):
        from_dict({"trainer": {"lrx": 0.1}})
    with pytest.raises(ConfigError, match="architecture.widht: unknown field"):
        from_dict({"architecture": {"widht": 4}})
    with pytest.raises(ConfigError, match="bogus: unknown field"):
        from_dict({"bogus": 1})


def test_type_errors_are_rejected_with_path():
    with pytest.raises(ConfigError, match="trainer.lr: expected a number"):
        from_dict({"trainer": {"lr": "fast"}})
    with pytest.raises(ConfigError, match="trainer.iterations: expected an integer"):
        from_dict({"trainer": {"iterations": 3.5}})
    with pytest.raises(ConfigError, match="expected an integer"):
        from_dict({"trainer": {"iterations": True}})
    with pytest.raises(ConfigError, match="expected true/false"):
        from_dict({"diagnostics": {"export_images": 1}})
    with pytest.raises(ConfigError, match="task.kind: expected a string"):
        from_dict({"task": {"kind": 5}})
    with pytest.raises(ConfigError, match="trainer: expected an object"):
        from_dict({"trainer": 5})
    with pytest.raises(ConfigError, match="root"):
        from_dict([1, 2])


@pytest.mark.parametrize(
    "patch,needle",
    [
        ({"task": {"kind": "mystery"}}, "task.kind"),
        ({"trainer": {"kind": "sgd"}}, "trainer.kind"),
        ({"architecture": {"n_modules": 0}}, "architecture"),
        ({"architecture": {"combine": "stack"}}, "combine"),
        ({"architecture": {"module_kind": "conv"}}, "module_kind"),
        ({"trainer": {"kind": "noisy-topk"},
          "architecture": {"topk": 3, "n_modules": 2}}, "topk"),
        ({"task": {"kind": "two-regime-lm"},
          "architecture": {"n_layers": 2}}, "n_layers"),
        ({"task": {"kind": "text-lm"}}, "task.path"),
        ({"task": {"kind": "two-regime-lm", "n_states": 1}}, "n_states"),
        ({"task": {"kind": "two-regime-lm", "noise": 1.0}}, "task.noise"),
        ({"trainer": {"iterations": -1}}, "iterations"),
        ({"trainer": {"e_batch": 0}}, "must be >= 1"),
        ({"trainer": {"kind": "reinforce", "ema_decay": 1.0}}, "ema_decay"),
        ({"trainer": {"kind": "reinforce", "samples_per_example": 0}}, "samples_per_example"),
        ({"trainer": {"kind": "static", "static_indices": [0, 1]}}, "static_indices"),
        ({"trainer": {"kind": "static", "static_indices": [5]}}, "static_indices"),
        ({"diagnostics": {"interval": 0}}, "diagnostics"),
        ({"diagnostics": {"checkpoint_interval": -2}}, "checkpoint_interval"),
        ({"trainer": {"n_samples": 0}}, "must be >= 1"),
        ({"trainer": {"m_steps": 0}}, "must be >= 1"),
        ({"trainer": {"kind": "reinforce", "ema_decay": 0.0}}, "ema_decay"),
        # optional fields are checked against their annotations
        ({"trainer": {"static_indices": 1.5}}, "trainer.static_indices: expected a list"),
        ({"trainer": {"static_indices": [True]}}, "trainer.static_indices: expected a list"),
        ({"out_dir": 5}, "out_dir: expected a string"),
        ({"trainer": {"clip_norm": "abc"}}, "trainer.clip_norm: expected a number"),
        ({"trainer": {"clip_norm": [1]}}, "trainer.clip_norm: expected a number"),
        ({"task": {"path": 3}}, "task.path: expected a string"),
        # a non-positive step or a negative clip would train downhill
        ({"trainer": {"lr": 0}}, "trainer.lr: must be a finite number > 0"),
        ({"trainer": {"lr": -0.001}}, "trainer.lr: must be a finite number > 0"),
        ({"trainer": {"lr": float("nan")}}, "trainer.lr: must be a finite number > 0"),
        ({"trainer": {"lr": float("inf")}}, "trainer.lr: must be a finite number > 0"),
        ({"trainer": {"clip_norm": -1}}, "trainer.clip_norm: must be a finite number >= 0"),
        ({"trainer": {"clip_norm": float("nan")}}, "trainer.clip_norm: must be a finite"),
        ({"trainer": {"clip_norm": float("inf")}}, "trainer.clip_norm: must be a finite"),
        # configs that still set the deleted combine field
        ({"architecture": {"n_slots": 2, "combine": "concat"}}, "architecture.combine"),
        ({"trainer": {"kind": "noisy-topk"}, "architecture": {"topk": 1, "combine": "concat"}},
         "architecture.combine"),
        # settings the built model would otherwise ignore without a word
        ({"task": {"kind": "two-regime-lm"}, "architecture": {"module_kind": "linear-relu"}},
         "architecture.module_kind"),
        ({"trainer": {"kind": "noisy-topk"}, "architecture": {"topk": 1, "n_slots": 3}},
         "architecture.n_slots"),
        # dimensions below 1 fail later with a division by zero or an index error
        ({"architecture": {"hidden": 0}}, "architecture.hidden: must be >= 1, got 0"),
        ({"task": {"kind": "two-regime-lm"}, "architecture": {"hidden": 0}},
         "architecture.hidden: must be >= 1"),
        ({"task": {"kind": "two-regime-lm"}, "architecture": {"embed_dim": 0}},
         "architecture.embed_dim: must be >= 1"),
        ({"task": {"kind": "two-regime-lm", "unroll": 0}}, "task.unroll: must be >= 1"),
        ({"task": {"kind": "text-lm", "path": "c.txt", "unroll": -3}},
         "task.unroll: must be >= 1, got -3"),
        ({"task": {"dim": 0}}, "task.dim: must be >= 1"),
        # a negative seed failed inside numpy, an empty dataset inside the trainer
        ({"seed": -1}, "seed: must be >= 0, got -1"),
        ({"task": {"n": 0}}, "task.n: must be >= 1, got 0"),
        ({"task": {"kind": "two-regime-lm", "n_windows": 0}}, "task.n_windows: must be >= 1"),
        # toy-task floats: non-finite values and crossed scale bounds
        ({"task": {"center": float("nan")}}, "task.center: must be a finite number"),
        ({"task": {"spread": float("inf")}}, "task.spread: must be a finite number"),
        ({"task": {"scale_lo": float("inf")}}, "task.scale_lo: must be a finite number"),
        ({"task": {"scale_hi": float("-inf")}}, "task.scale_hi: must be a finite number"),
        ({"task": {"scale_lo": 3.0}}, r"task.scale_lo: must be <= task.scale_hi \(2.0\), got 3.0"),
        # past (n_states - 1) / n_states the two-regime generator redrew its tables forever
        ({"task": {"kind": "two-regime-lm", "noise": 0.9}}, "task.noise: must be < "),
        ({"task": {"kind": "two-regime-lm", "n_states": 2, "noise": 0.5}}, "task.noise"),
        # each bound under a kind that reads its field, so the bound itself refuses
        ({"task": {"kind": "two-regime-lm", "noise": -0.1}},
         "task.noise: must be a finite number >= 0 and < 1, got -0.1"),
        ({"trainer": {"kind": "reinforce", "ema_decay": 1.0}},
         "trainer.ema_decay: must be a finite number > 0 and < 1, got 1.0"),
        ({"trainer": {"kind": "reinforce", "ema_decay": 0.0}},
         "trainer.ema_decay: must be a finite number > 0 and < 1, got 0.0"),
        ({"trainer": {"kind": "reinforce", "samples_per_example": 0}},
         "trainer.samples_per_example: must be >= 1, got 0"),
        # the three rules these tags replaced name the field and the kind
        ({"task": {"kind": "two-regime-lm"}, "architecture": {"n_layers": 2}},
         "architecture.n_layers: not read by task kind two-regime-lm"),
        ({"task": {"kind": "text-lm", "path": "c.txt"},
          "architecture": {"module_kind": "linear-relu"}},
         "architecture.module_kind: not read by task kind text-lm"),
        ({"trainer": {"kind": "noisy-topk"}, "architecture": {"topk": 1, "n_slots": 3}},
         "architecture.n_slots: not read by trainer kind noisy-topk"),
    ],
)
def test_validation_rejects_bad_combinations(patch, needle):
    with pytest.raises(ConfigError, match=needle):
        from_dict(patch)


def test_valid_noisy_topk_and_static_indices_pass():
    cfg = from_dict({"trainer": {"kind": "noisy-topk"},
                     "architecture": {"topk": 2, "n_modules": 3}})
    assert cfg.architecture.topk == 2
    cfg = from_dict({"trainer": {"kind": "static", "static_indices": [1]}})
    assert cfg.trainer.static_indices == [1]


def test_zero_clip_norm_validates_and_disables_clipping():
    # recurrent tasks clip at 5.0 by default
    cfg = from_dict({"task": {"kind": "two-regime-lm"}, "trainer": {"clip_norm": 0}})
    assert _effective_clip(cfg) is None


def test_load_config_reads_file_and_applies_overrides(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(
        {"seed": 3, "task": {"kind": "text-lm", "path": "c.txt"}, "trainer": {"lr": 0.5}}
    ))
    cfg = load_config(str(path), overrides=["trainer.lr=0.25", "seed=8",
                                            "task.mode=word"])
    assert cfg.seed == 8
    assert cfg.trainer.lr == 0.25
    assert cfg.task.mode == "word"  # bare string value


def test_relative_corpus_path_is_anchored_to_the_config_file(tmp_path):
    nested = tmp_path / "configs"
    nested.mkdir()
    path = nested / "text.json"
    path.write_text(json.dumps({
        "task": {"kind": "text-lm", "path": "../data/corpus.txt"},
    }))
    cfg = load_config(str(path))
    assert cfg.task.path == str(tmp_path / "data" / "corpus.txt")
    cfg = load_config(str(path), overrides=["task.path=/abs/other.txt"])
    assert cfg.task.path == "/abs/other.txt"


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    # json refuses integers past Python's digit limit with a plain ValueError
    huge = tmp_path / "huge.json"
    huge.write_text('{"seed": ' + "1" * 5000 + "}")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(huge))
    with pytest.raises(ConfigError, match="seed: expected an integer"):
        load_config(TOY_EM, ["seed=" + "1" * 5000])


def test_overrides_parse_json_values_and_build_paths():
    base = {"seed": 1}
    out = apply_overrides(base, ["diagnostics.export_images=true",
                                 "trainer.static_indices=[0,1]",
                                 "trainer.clip_norm=null"])
    assert out["diagnostics"]["export_images"] is True
    assert out["trainer"]["static_indices"] == [0, 1]
    assert out["trainer"]["clip_norm"] is None
    assert base == {"seed": 1}  # input untouched


def test_override_requires_key_value_shape():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["trainer.lr"])


def test_resume_overrides_only_reschedule():
    check_resume_overrides(["trainer.iterations=50", "diagnostics.interval=5"])
    with pytest.raises(ConfigError, match="resume accepts only"):
        check_resume_overrides(["trainer.lr=0.1"])
    with pytest.raises(ConfigError, match="resume accepts only"):
        check_resume_overrides(["seed=2"])


def _leaves() -> list[tuple[str, dataclasses.Field]]:
    """(dotted path, field) for every leaf of the config schema."""
    out, root = [], ExperimentConfig()
    for f in fields(root):
        section = getattr(root, f.name)
        if dataclasses.is_dataclass(section):
            out += [(f"{f.name}.{g.name}", g) for g in fields(section)]
        else:
            out.append((f.name, f))
    return out


LEAVES = dict(_leaves())


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# real field paths, sections and junk; "=" would split the override elsewhere
KEYS = st.sampled_from(list(LEAVES)) | st.text(alphabet="abkstx._", max_size=12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(key=KEYS, value=JSON_VALUES)
@example(key="trainer.static_indices", value=1.5)
@example(key="out_dir", value=5)
@example(key="task.path", value=3)
def test_any_single_override_validates_or_raises_config_error(key, value):
    assert os.path.isfile(TOY_EM)  # a missing file would raise ConfigError every time
    try:
        cfg = load_config(TOY_EM, [f"{key}={json.dumps(value)}"])
    except ConfigError:
        return
    assert from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


# ---------------------------------------------------------------------------
# the schema: every leaf field states its rule, and the rules are complete


def test_every_leaf_field_declares_its_rule():
    # a field added without rule() would skip validation
    for path, f in LEAVES.items():
        assert isinstance(f.metadata.get("rule"), Rule), path
        if f.type == "int":
            assert f.metadata["rule"].limits, f"{path}: an int field needs a least value"


def _outside(f: dataclasses.Field) -> st.SearchStrategy:
    """Values that break ``f``'s rule: a wrong JSON type, a choice not
    offered, a bound crossed, or a non-finite float."""
    r, is_float = f.metadata["rule"], f.type.startswith("float")
    bad = [st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)]
    if r.choices is not None:
        bad.append(st.text(max_size=8).filter(lambda s: s not in r.choices))
    if is_float:
        bad.append(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    for op, b in r.limits:
        if op == ">=" and not is_float:
            bad.append(st.integers(max_value=b - 1))
        elif op in (">=", ">"):
            bad.append(st.floats(max_value=b, exclude_max=op == ">="))
        else:
            bad.append(st.floats(min_value=b))
    return st.one_of(bad)


# a shipped config whose task or trainer kind reads the fields tagged with it
KIND_CONFIG = {"toy-regression": "toy_em", "two-regime-lm": "two_regime_em",
               "text-lm": "text_char_em", "em": "toy_em", "reinforce": "toy_reinforce",
               "noisy-topk": "toy_noisy_topk", "static": "toy_static"}


@pytest.mark.parametrize("path", sorted(LEAVES))
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_value_outside_a_field_rule_is_exit_2_naming_the_field(
    tmp_path, capsys, monkeypatch, path, data
):
    value = data.draw(_outside(LEAVES[path]))
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "runs"))
    tag = LEAVES[path].metadata["rule"].kinds
    config = os.path.join(SHIPPED, f"{KIND_CONFIG[tag[0] if tag else 'em']}.json")
    # one iteration, so a hole shows as a quick exit 0 rather than a long run
    argv = ["run", config, "--set", "trainer.iterations=1", "--set", f"{path}={json.dumps(value)}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    # the field's own rule refuses it, not the refusal of a field its kinds do not read
    assert re.search(f"config error: {re.escape(path)}: (expected|must be) ", err), err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def _smallest(path: str, f: dataclasses.Field):
    """A small value that keeps ``f``'s rule."""
    if path == "task.path":
        return TIDES
    return f.metadata["rule"].limits[0][1] if f.type == "int" else f.default


def _inside(path: str, f: dataclasses.Field) -> st.SearchStrategy:
    """Other small values that keep ``f``'s rule."""
    r = f.metadata["rule"]
    if path == "task.path":
        return st.none()
    if r.choices is not None:
        return st.sampled_from(r.choices)
    if f.type == "int":
        least = r.limits[0][1]
        return st.integers(least, least + 3)
    if f.type.startswith("float"):
        lo = max([b for op, b in r.limits if op != "<"], default=-10.0)
        hi = min([b for op, b in r.limits if op == "<"], default=10.0)
        return st.floats(lo, hi, exclude_min=(">", lo) in r.limits,
                         exclude_max=("<", hi) in r.limits)
    if path == "trainer.static_indices":
        return st.lists(st.integers(0, 3), min_size=1, max_size=3)
    if f.type == "bool":
        return st.booleans()
    return st.none()  # out_dir: the run root decides


@st.composite
def _small_configs(draw, task_kind, trainer_kind):
    """Each field the two kinds read keeps its smallest value or, one time
    in four, draws another within its rule, so most draws pass the
    cross-field rules; training is one iteration of one M-step."""
    cfg = {"task": {"kind": task_kind}, "trainer": {"kind": trainer_kind}}
    for path, f in LEAVES.items():
        if path in ("task.kind", "trainer.kind"):
            continue
        value = draw(_inside(path, f)) if draw(st.integers(0, 3)) == 3 else _smallest(path, f)
        section, _, name = path.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[name] = value
    cfg["trainer"].update(iterations=1, m_steps=1)
    return project(cfg)


@pytest.mark.parametrize("trainer_kind", LEAVES["trainer.kind"].metadata["rule"].choices)
@pytest.mark.parametrize("task_kind", LEAVES["task.kind"].metadata["rule"].choices)
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_within_the_field_rules_is_refused_or_runs(
    tmp_path, capsys, monkeypatch, task_kind, trainer_kind, data
):
    cfg = data.draw(_small_configs(task_kind, trainer_kind))
    try:
        from_dict(cfg)
    except ConfigError:
        return  # every field keeps its rule, so a cross-field rule refused it
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "runs"))
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) in (0, 3), capsys.readouterr().err
    capsys.readouterr()


# ---------------------------------------------------------------------------
# fields by kind: a field that the run's task and trainer kinds do not read
# takes only its default, and the stored config leaves it out

TASK_KINDS = LEAVES["task.kind"].metadata["rule"].choices
TRAINER_KINDS = LEAVES["trainer.kind"].metadata["rule"].choices


def _other(path: str, f: dataclasses.Field):
    """A value that keeps ``f``'s rule and is not its default."""
    r = f.metadata["rule"]
    if r.choices is not None:
        return next(c for c in r.choices if c != f.default)
    if f.default is None:
        return TIDES if path == "task.path" else [1]
    return f.default + 1 if f.type == "int" else f.default / 2


@pytest.mark.parametrize("trainer_kind", TRAINER_KINDS)
@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_fields_left_out_of_the_stored_config_change_no_metric(tmp_path, task_kind, trainer_kind):
    # a misspelt kind in a tag would make its field unsettable under every kind
    for path, f in LEAVES.items():
        tag = f.metadata["rule"].kinds
        assert tag is None or set(tag) <= set(TASK_KINDS) or set(tag) <= set(TRAINER_KINDS), path
    task = {"toy-regression": {"n": 16}, "two-regime-lm": {"n_windows": 8, "unroll": 4},
            "text-lm": {"path": TIDES, "unroll": 40}}[task_kind]
    cfg = from_dict(project({
        "task": {"kind": task_kind, **task},
        "architecture": {"hidden": 3, "embed_dim": 3, "topk": 1},
        "trainer": {"kind": trainer_kind, "iterations": 2, "m_steps": 1, "batch": 4,
                    "e_batch": 4, "n_samples": 2},
        "diagnostics": {"probe_size": 4},
    }))
    stored = cfg.to_dict()
    unread = {}
    for path, f in LEAVES.items():
        section, _, name = path.rpartition(".")
        if name not in (stored[section] if section else stored):
            unread.setdefault(section, {})[name] = _other(path, f)
    assert unread and "" not in unread  # only section fields depend on the kinds
    # replace() skips the refusal that from_dict applies to these values
    changed = dataclasses.replace(cfg, **{
        section: dataclasses.replace(getattr(cfg, section), **values)
        for section, values in unread.items()
    })
    for run, c in (("defaults", cfg), ("changed", changed)):
        execute_run(c, str(tmp_path / run))
    metrics = [(tmp_path / run / "metrics.jsonl").read_bytes() for run in ("defaults", "changed")]
    assert metrics[0] == metrics[1], unread
    assert changed.to_dict() == stored
    # a gated model routes one slot, whatever architecture.n_slots holds
    shapes = []
    for c in (cfg, changed):
        streams = SeedStreams(c.seed)
        data = build_dataset(c, streams)
        shapes.append(build_task(c, build_model(c, data, streams), data).unit_shape)
    assert shapes[0] == shapes[1]


@pytest.mark.parametrize(
    "config,override,message",
    [
        ("toy_em_smoke", "task.unroll=5", "task.unroll: not read by task kind toy-regression"),
        ("two_regime_em_smoke", "task.center=3",
         "task.center: not read by task kind two-regime-lm"),
        ("text_char_em", "task.n_windows=8", "task.n_windows: not read by task kind text-lm"),
        ("toy_em_smoke", "trainer.ema_decay=0.5", "trainer.ema_decay: not read by trainer kind em"),
        ("toy_reinforce", "trainer.n_samples=3",
         "trainer.n_samples: not read by trainer kind reinforce"),
        ("toy_noisy_topk", "architecture.n_slots=2",
         "architecture.n_slots: not read by trainer kind noisy-topk"),
        ("toy_static", "architecture.topk=1", "architecture.topk: not read by trainer kind static"),
    ],
)
def test_a_field_the_kinds_do_not_read_is_exit_2_naming_field_and_kind(
    tmp_path, capsys, monkeypatch, config, override, message
):
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "runs"))
    assert main(["run", os.path.join(SHIPPED, f"{config}.json"), "--set", override]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()
    # its default is accepted, as the shipped configs spell some out
    name = override.split("=")[0]
    section, _, leaf = name.rpartition(".")
    default = LEAVES[name].default
    cfg = load_config(os.path.join(SHIPPED, f"{config}.json"), [f"{name}={json.dumps(default)}"])
    assert leaf not in cfg.to_dict()[section]

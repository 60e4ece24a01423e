import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modnet.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    check_resume_overrides,
    from_dict,
    load_config,
)
from modnet.runner import _effective_clip

TOY_EM = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "toy_em.json")


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


def test_shorthand_spellings_map_to_canonical_fields():
    cfg = from_dict({"trainer": {"S": 4, "max_iterations": 50, "m_batch": 8}})
    assert cfg.trainer.n_samples == 4
    assert cfg.trainer.iterations == 50
    assert cfg.trainer.batch == 8


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
        ({"task": {"noise": 1.0}}, "task.noise"),
        ({"trainer": {"iterations": -1}}, "iterations"),
        ({"trainer": {"e_batch": 0}}, "must be >= 1"),
        ({"trainer": {"ema_decay": 1.0}}, "ema_decay"),
        ({"trainer": {"samples_per_example": 0}}, "samples_per_example"),
        ({"trainer": {"static_indices": [0, 1]}}, "static_indices"),
        ({"trainer": {"static_indices": [5]}}, "static_indices"),
        ({"diagnostics": {"interval": 0}}, "diagnostics"),
        ({"diagnostics": {"checkpoint_interval": -2}}, "checkpoint_interval"),
        ({"trainer": {"n_samples": 0}}, "must be >= 1"),
        ({"trainer": {"m_steps": 0}}, "must be >= 1"),
        ({"trainer": {"ema_decay": 0.0}}, "ema_decay"),
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
        # concat widens each layer by its slot count, past the regression targets
        ({"architecture": {"n_slots": 2, "combine": "concat"}}, "architecture.combine"),
        # settings the built model would otherwise ignore without a word
        ({"trainer": {"kind": "noisy-topk"}, "architecture": {"topk": 1, "combine": "concat"}},
         "architecture.combine"),
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
    path.write_text('{"seed": 3, "trainer": {"lr": 0.5}}')
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


def _field_paths() -> list[str]:
    paths = []
    for name, body in ExperimentConfig().to_dict().items():
        paths += [f"{name}.{sub}" for sub in body] if isinstance(body, dict) else [name]
    return paths


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
KEYS = st.sampled_from(_field_paths()) | st.text(alphabet="abkstx._", max_size=12)


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

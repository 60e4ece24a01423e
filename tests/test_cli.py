import json
import struct
import os
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modnet.cli import main


def tiny_config(**extra):
    cfg = {
        "seed": 0,
        "task": {"kind": "toy-regression", "n": 64, "dim": 2},
        "architecture": {"n_layers": 1, "n_modules": 2, "n_slots": 1},
        "trainer": {
            "kind": "em",
            "iterations": 3,
            "n_samples": 2,
            "m_steps": 2,
            "e_batch": 16,
            "batch": 16,
        },
        "diagnostics": {"probe_size": 32},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, name="exp.json", **extra):
    path = tmp_path / name
    path.write_text(json.dumps(tiny_config(**extra)))
    return str(path)


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_run_trains_and_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path)
    assert main(["run", cfg, "--set", f"out_dir={out}"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"] == 3
    assert "mse" in summary["eval"]

    assert len(read_jsonl(out / "metrics.jsonl")) == 3
    assert len(read_jsonl(out / "timing.jsonl")) == 3
    record = json.loads((out / "run_record.json").read_text())
    assert record["status"] == "completed"
    assert (out / "checkpoints" / "final.ckpt").exists()


def test_env_var_moves_output_root(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    assert main(["run", write_config(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "root" / "toy-regression-em-s0" / "run_record.json").exists()


def test_missing_config_is_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_override_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", cfg, "--set", "trainer.lr"]) == 2
    assert main(["run", cfg, "--set", "trainer.bogus=1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "override,field", [("trainer.static_indices=1.5", "trainer.static_indices"), ("out_dir=5", "out_dir")]
)
def test_mistyped_optional_override_is_exit_2(tmp_path, capsys, monkeypatch, override, field):
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "runs"))
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "toy_em_smoke.json")
    assert main(["run", shipped, "--set", override]) == 2
    assert f"config error: {field}: expected" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_negative_clip_norm_is_exit_2(tmp_path, capsys, monkeypatch):
    # a negative clip scales every gradient step downhill
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "runs"))
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "toy_em_smoke.json")
    assert main(["run", shipped, "--set", "trainer.clip_norm=-1"]) == 2
    assert "config error: trainer.clip_norm: must be" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "config,override",
    [
        ("two_regime_em_smoke", "architecture.hidden=0"),
        ("text_char_em", "task.unroll=0"),
        ("toy_em_smoke", "task.dim=0"),
    ],
)
def test_zero_dimension_is_exit_2(tmp_path, capsys, monkeypatch, config, override):
    # each used to fail inside the model with a traceback
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "runs"))
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{config}.json")
    assert main(["run", shipped, "--set", override]) == 2
    field = override.split("=")[0]
    assert f"config error: {field}: must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_is_exit_3_and_checkpoints(tmp_path, capsys):
    # lr this large overflows the squared residual to -inf on step two
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        trainer={"kind": "em", "iterations": 50, "lr": 1e160, "n_samples": 2,
                 "m_steps": 2, "e_batch": 16, "batch": 16},
    )
    assert main(["run", cfg, "--set", f"out_dir={out}"]) == 3
    assert "numeric abort" in capsys.readouterr().err
    assert (out / "checkpoints" / "abort.ckpt").exists()
    record = json.loads((out / "run_record.json").read_text())
    assert record["status"] == "aborted"
    assert "skipped" in record["failure"]


def test_eval_on_train_and_external_dataset(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path)
    assert main(["run", cfg, "--set", f"out_dir={out}"]) == 0
    capsys.readouterr()
    ckpt = str(out / "checkpoints" / "final.ckpt")

    assert main(["eval", ckpt, "train"]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert scores["mode"] == "most-likely-composition"
    assert scores["iteration"] == 3
    assert scores["mse"] >= 0.0

    spec = tmp_path / "other.json"
    spec.write_text(json.dumps({"task": tiny_config()["task"], "seed": 5}))
    assert main(["eval", ckpt, str(spec), "--mode", "enumerate-marginal"]) == 0
    other = json.loads(capsys.readouterr().out)
    assert other["mode"] == "enumerate-marginal"
    assert other["mse"] != pytest.approx(scores["mse"])  # different draw


def test_eval_spec_reads_a_relative_corpus_path_from_its_own_directory(
    tmp_path, capsys, monkeypatch
):
    specs = tmp_path / "specs"
    specs.mkdir()
    (specs / "corpus.txt").write_text("the tide comes in and the tide goes out\n" * 4)
    task = {"kind": "text-lm", "path": "corpus.txt", "unroll": 5}
    cfg = specs / "exp.json"
    cfg.write_text(json.dumps(tiny_config(
        task=task, architecture={"n_modules": 2, "n_slots": 1, "hidden": 4, "embed_dim": 4}
    )))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--set", f"out_dir={out}"]) == 0
    capsys.readouterr()
    ckpt = str(out / "checkpoints" / "final.ckpt")
    assert main(["eval", ckpt, "train"]) == 0
    on_train = json.loads(capsys.readouterr().out)

    spec = specs / "spec.json"
    spec.write_text(json.dumps({"task": task}))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["eval", ckpt, str(spec)]) == 0
    assert json.loads(capsys.readouterr().out) == on_train


def test_eval_missing_checkpoint_is_exit_2(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "gone.ckpt"), "train"]) == 2
    assert "config error" in capsys.readouterr().err


def test_eval_corrupt_checkpoint_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    assert main(["eval", str(bad), "train"]) == 2
    capsys.readouterr()


def header_without_arrays():
    head = json.dumps({"version": "0", "config": tiny_config(), "iteration": 1}).encode()
    return b"MODNETC1" + struct.pack("<Q", len(head)) + head


@pytest.mark.parametrize("command", ["eval", "resume"])
@pytest.mark.parametrize(
    "blob",
    [b"MODNETC1\x01", header_without_arrays()],
    ids=["short-header", "no-arrays"],
)
def test_malformed_checkpoint_is_exit_2(tmp_path, capsys, monkeypatch, command, blob):
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    argv = [command, str(bad)] + (["train"] if command == "eval" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(bad) in err


def rewrite_header(src, dst, **fields):
    """Copy a checkpoint with some top-level header fields replaced."""
    blob = open(src, "rb").read()
    (n,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + n])
    header.update(fields)
    head = json.dumps(header, sort_keys=True).encode()
    with open(dst, "wb") as fh:
        fh.write(blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + n :])
    return header


@pytest.fixture(scope="module")
def mid_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("mid")
    cfg = write_config(root, diagnostics={"probe_size": 32, "checkpoint_interval": 2})
    assert main(["run", cfg, "--set", f"out_dir={root / 'out'}"]) == 0
    return str(root / "out" / "checkpoints" / "step-000002.ckpt")


@pytest.mark.parametrize(
    "field,value", [("rng", {"seed": 0}), ("scalars", {})], ids=["rng-no-streams", "scalars-empty"]
)
def test_resume_with_malformed_nested_header_is_exit_2(
    tmp_path, capsys, mid_checkpoint, field, value
):
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(mid_checkpoint, bad, **{field: value})
    assert main(["resume", bad, "--set", f"out_dir={tmp_path / 'resumed'}"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and bad in err


def test_eval_with_wrongly_shaped_parameter_is_exit_2(tmp_path, capsys, mid_checkpoint):
    # the header still parses: the payload holds more than the one value read
    arrays = rewrite_header(mid_checkpoint, os.devnull)["arrays"]
    arrays = [dict(e, shape=[1]) if e["name"] == "param:l0.pool.m0.b" else e for e in arrays]
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(mid_checkpoint, bad, arrays=arrays)
    assert main(["eval", bad, "train"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "l0.pool.m0.b" in err


@pytest.fixture(scope="module")
def reinforce_checkpoint(tmp_path_factory):
    # enough iterations after the checkpoint for 10 skipped steps in a row
    root = tmp_path_factory.mktemp("reinforce")
    cfg = write_config(
        root,
        trainer={"kind": "reinforce", "iterations": 8, "m_steps": 2, "batch": 16},
        diagnostics={"probe_size": 32, "checkpoint_interval": 2},
    )
    assert main(["run", cfg, "--set", f"out_dir={root / 'out'}"]) == 0
    return str(root / "out" / "checkpoints" / "step-000002.ckpt")


@pytest.mark.parametrize("ema", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_resume_with_non_finite_ema_is_exit_2(tmp_path, capsys, reinforce_checkpoint, ema):
    scalars = rewrite_header(reinforce_checkpoint, os.devnull)["scalars"]
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(reinforce_checkpoint, bad, scalars=dict(scalars, ema=ema))
    assert main(["resume", bad, "--set", f"out_dir={tmp_path / 'resumed'}"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "ema" in err and bad in err


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def entry_paths(node, prefix=()):
    """Key paths to every entry of the nested dicts and lists in ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from entry_paths(child, prefix + (key,))


def replaced(node, path, value):
    node = json.loads(json.dumps(node))
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node


@settings(max_examples=25, deadline=None)
@given(field=st.sampled_from(["rng", "scalars"]), data=st.data())
def test_resume_on_any_rng_or_scalars_object_exits_0_or_2(mid_checkpoint, field, data):
    real = rewrite_header(mid_checkpoint, os.devnull)[field]
    # arbitrary objects, and the real one with a single entry replaced
    mutant = st.builds(
        replaced, st.just(real), st.sampled_from(list(entry_paths(real))), JSON_VALUES
    )
    value = data.draw(st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4) | mutant)
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.ckpt")
        rewrite_header(mid_checkpoint, bad, **{field: value})
        assert main(["resume", bad, "--set", f"out_dir={os.path.join(tmp, 'out')}"]) in (0, 2)


def exit_on_corrupted(checkpoint, pos, flip, root):
    """Exit codes of ``eval CKPT train`` and ``resume CKPT`` on a copy of
    ``checkpoint`` whose byte ``pos`` is XORed with ``flip``."""
    blob = bytearray(open(checkpoint, "rb").read())
    blob[pos] ^= flip
    bad = os.path.join(root, "bad.ckpt")
    with open(bad, "wb") as fh:
        fh.write(blob)
    return main(["eval", bad, "train"]), main(["resume", bad])


CORRUPTION = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@CORRUPTION
@given(data=st.data(), flip=st.integers(1, 255))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_any_single_byte_corruption_exits_0_2_or_3(tmp_path, monkeypatch, mid_checkpoint, data, flip):
    pos = data.draw(st.integers(0, os.path.getsize(mid_checkpoint) - 1))
    root = tempfile.mkdtemp(dir=tmp_path)
    monkeypatch.setenv("MODNET_RUNS", root)
    codes = exit_on_corrupted(mid_checkpoint, pos, flip, root)
    assert set(codes) <= {0, 2, 3}


@CORRUPTION
@given(pos=st.integers(0, 15), flip=st.integers(1, 255))
def test_any_corrupted_preamble_exits_2(tmp_path, monkeypatch, mid_checkpoint, pos, flip):
    # the magic and the header length; a changed header byte may still parse
    root = tempfile.mkdtemp(dir=tmp_path)
    monkeypatch.setenv("MODNET_RUNS", root)
    assert exit_on_corrupted(mid_checkpoint, pos, flip, root) == (2, 2)


def test_resume_rejects_non_schedule_overrides(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, diagnostics={"probe_size": 32, "checkpoint_interval": 2})
    assert main(["run", cfg, "--set", f"out_dir={out}"]) == 0
    capsys.readouterr()
    mid = str(out / "checkpoints" / "step-000002.ckpt")
    assert main(["resume", mid, "--set", "trainer.lr=0.5"]) == 2
    assert "resume accepts only" in capsys.readouterr().err


def test_resume_reproduces_the_tail_of_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        trainer={"kind": "em", "iterations": 4, "n_samples": 2, "m_steps": 2,
                 "e_batch": 16, "batch": 16},
        diagnostics={"probe_size": 32, "checkpoint_interval": 2},
    )
    assert main(["run", cfg, "--set", f"out_dir={out}"]) == 0
    capsys.readouterr()

    mid = str(out / "checkpoints" / "step-000002.ckpt")
    assert main(["resume", mid]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"] == 4

    resumed = tmp_path / "root" / "toy-regression-em-s0-resume"
    tail = read_jsonl(resumed / "metrics.jsonl")
    full = read_jsonl(out / "metrics.jsonl")
    assert [r["iteration"] for r in tail] == [3, 4]
    assert tail == full[2:]


def test_sweep_expands_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "base": tiny_config(),
        "axes": {"seed": [0, 1], "trainer.lr": [0.01, 0.001]},
    }))
    assert main(["sweep", str(grid)]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert len(listing["configs"]) == 4

    sweep_dir = tmp_path / "root" / "sweep"
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    assert [e["settings"]["seed"] for e in manifest["configs"]] == [0, 0, 1, 1]
    first = json.loads((sweep_dir / "combo-000.json").read_text())
    assert first["trainer"]["lr"] == 0.01
    assert first["out_dir"].endswith("combo-000")


def test_sweep_without_base_is_exit_2(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"axes": {"seed": [0]}}))
    assert main(["sweep", str(grid)]) == 2
    capsys.readouterr()


HOSTILE_JSON = {
    "run-list-root": ("run", [1, 2], "config root"),
    "run-list-root-with-override": ("run --set seed=1", [1, 2], "config root"),
    "sweep-list-grid": ("sweep", [tiny_config()], "sweep grid"),
    "sweep-string-base": ("sweep", {"base": "exp.json"}, "base"),
    "sweep-base-path-names-a-list": ("sweep", {"base_path": "list.json"}, "base_path"),
    "sweep-base-path-not-a-name": ("sweep", {"base_path": 5}, "base_path"),
    "sweep-axis-not-a-list": ("sweep", {"base": tiny_config(), "axes": {"seed": 3}}, "axes.seed"),
    "sweep-empty-axis": ("sweep", {"base": tiny_config(), "axes": {"seed": []}}, "axes.seed"),
    "sweep-out-dir-not-a-name": ("sweep", {"base": tiny_config(), "out_dir": 7}, "out_dir"),
    "run-concat-several-slots": (
        "run",
        tiny_config(architecture={"n_modules": 2, "n_slots": 2, "combine": "concat"}),
        "architecture.combine",
    ),
    "run-noisy-topk-concat": (
        "run",
        tiny_config(architecture={"n_modules": 2, "topk": 1, "combine": "concat"},
                    trainer={"kind": "noisy-topk", "iterations": 3}),
        "architecture.combine",
    ),
    "run-noisy-topk-several-slots": (
        "run",
        tiny_config(architecture={"n_modules": 2, "topk": 1, "n_slots": 3},
                    trainer={"kind": "noisy-topk", "iterations": 3}),
        "architecture.n_slots",
    ),
    "sweep-noisy-topk-several-slots": (
        "sweep",
        {"base": tiny_config(architecture={"n_modules": 2, "topk": 1}),
         "axes": {"trainer.kind": ["em", "noisy-topk"], "architecture.n_slots": [1, 3]}},
        "architecture.n_slots",
    ),
    "run-recurrent-relu-modules": (
        "run",
        tiny_config(task={"kind": "two-regime-lm", "n_windows": 8},
                    architecture={"module_kind": "linear-relu"}),
        "architecture.module_kind",
    ),
    "eval-list-spec": ("eval", [1, 2], "dataset spec"),
    "eval-list-seed": ("eval", {"seed": [1]}, "seed"),
    "eval-unknown-field": ("eval", {"sed": 1}, "sed"),
    "eval-other-task-kind": (
        "eval", {"task": {"kind": "two-regime-lm", "n_windows": 8}}, "task.kind"
    ),
    "eval-other-dim": ("eval", {"task": {"kind": "toy-regression", "n": 8, "dim": 3}}, "task.dim"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_JSON))
def test_hostile_json_is_exit_2_naming_the_field(
    tmp_path, capsys, monkeypatch, mid_checkpoint, case
):
    command, content, field = HOSTILE_JSON[case]
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    (tmp_path / "list.json").write_text("[1, 2]")
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(content))
    name, *rest = command.split()
    argv = [name] + ([mid_checkpoint] if name == "eval" else []) + [str(path)] + rest
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "root").exists()


def test_console_script_and_module_entry(tmp_path):
    cfg = write_config(tmp_path)
    env = dict(os.environ, MODNET_RUNS=str(tmp_path / "root"))
    proc = subprocess.run(
        [sys.executable, "-m", "modnet", "run", cfg],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["iterations"] == 3

    exe = shutil.which("modnet")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "run", cfg], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr

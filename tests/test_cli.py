import dataclasses
import importlib
import json
import math
import struct
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modnet.cli import main
from modnet.config import ExperimentConfig
from modnet.em import EMTrainer


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


@pytest.mark.parametrize(
    "config,override,field",
    [
        ("toy_em_smoke", "seed=-1", "seed"),
        ("toy_em_smoke", "task.n=0", "task.n"),
        ("two_regime_em_smoke", "task.n_windows=0", "task.n_windows"),
        ("text_char_em", "task.path={tmp}/missing.txt", "task.path"),
        # an infinite scale bound overflowed the uniform draw with a traceback,
        # a NaN centre or spread trained into a numeric abort, and crossed
        # scale bounds failed in numpy without naming either field
        ("toy_em_smoke", "task.scale_lo=Infinity", "task.scale_lo"),
        ("toy_em_smoke", "task.scale_hi=-Infinity", "task.scale_hi"),
        ("toy_em_smoke", "task.center=NaN", "task.center"),
        ("toy_em_smoke", "task.spread=NaN", "task.spread"),
        ("toy_em_smoke", "task.scale_lo=3.0", "task.scale_lo"),
        # too much noise hung the two-regime generator, a word vocabulary of
        # two symbols trained on <unk> and <eos> alone, and an unknown text
        # mode failed in the corpus reader without naming the field
        ("two_regime_em_smoke", "task.noise=0.9", "task.noise"),
        ("text_char_em", "task.vocab_cap=2", "task.vocab_cap"),
        ("text_char_em", "task.vocab_cap=0", "task.vocab_cap"),
        ("text_char_em", "task.mode=xyz", "task.mode"),
    ],
)
def test_bad_data_field_is_exit_2_before_any_run_directory(
    tmp_path, capsys, monkeypatch, config, override, field
):
    # each used to exit 2 without naming the field, most after creating
    # the run's checkpoint directory
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "runs"))
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{config}.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", shipped, "--set", override.format(tmp=tmp_path)])
    assert code == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_word_mode_trains_at_the_smallest_vocab_cap(tmp_path, capsys):
    # <unk>, <eos> and one word
    out = tmp_path / "out"
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "text_char_em.json")
    overrides = ["task.mode=word", "task.vocab_cap=3", "trainer.iterations=1", f"out_dir={out}"]
    assert main(["run", shipped] + [a for o in overrides for a in ("--set", o)]) == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 1


@pytest.mark.parametrize("spec,field", [({"seed": -1}, "seed"), ({"task": {"n": 0}}, "task.n")])
def test_eval_spec_with_bad_data_field_is_exit_2(tmp_path, capsys, spec, field):
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path), "--set", f"out_dir={out}"]) == 0
    capsys.readouterr()
    if "task" in spec:
        spec = {"task": dict(tiny_config()["task"], **spec["task"])}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["eval", str(out / "checkpoints" / "final.ckpt"), str(path)]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


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
    # its step counts end inside the aborted iteration, which a resume
    # accepts; the resumed run counts that iteration's unrun steps as
    # skipped and starts a new streak, so its own checkpoints resume too
    first = rewrite_header(str(out / "checkpoints" / "abort.ckpt"), os.devnull)
    assert first["opt_t"] + first["scalars"]["total"] < 2 * first["iteration"]
    again = tmp_path / "again"
    assert main([
        "resume", str(out / "checkpoints" / "abort.ckpt"),
        "--set", f"out_dir={again}", "--set", "diagnostics.checkpoint_interval=1",
    ]) == 3
    written = sorted((again / "checkpoints").iterdir())
    assert [p.name for p in written] == ["abort.ckpt"] + [
        f"step-{i:06d}.ckpt" for i in range(first["iteration"] + 1, first["iteration"] + 5)
    ]
    for path in written:
        header = rewrite_header(str(path), os.devnull)
        scalars = header["scalars"]
        assert header["opt_t"] == first["opt_t"]  # every step of the resumed run skips
        assert header["opt_t"] + scalars["total"] == 2 * header["iteration"]
        skipped_since = 2 * (header["iteration"] - first["iteration"])
        assert scalars["streak"] == (10 if path.name == "abort.ckpt" else skipped_since)
        assert main(["resume", str(path), "--set", f"out_dir={tmp_path / path.name}"]) == 3
        assert (tmp_path / path.name / "checkpoints" / "abort.ckpt").exists()


def strict_json(text):
    """JSON as its grammar has it: NaN and the infinities are refused."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "iterations, lr", [(1, "1e308"), (1, "1e200"), (3, "1e308")],
    ids=["NaN", "Infinity", "skipped iterations"],
)
def test_a_run_that_ends_non_finite_is_exit_3_and_writes_only_json(tmp_path, capsys, iterations, lr):
    # the first step's update overflows the parameters: the final evaluation
    # is NaN or infinite, and every later step is skipped
    out = tmp_path / "out"
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "toy_em_smoke.json")
    assert main([
        "run", shipped, "--set", f"out_dir={out}", "--set", f"trainer.iterations={iterations}",
        "--set", "trainer.m_steps=1", "--set", f"trainer.lr={lr}",
    ]) == 3
    printed = capsys.readouterr()
    assert printed.out == "" and "numeric abort: evaluation: mse, nll not finite" in printed.err
    record = strict_json((out / "run_record.json").read_text())
    assert record["status"] == "aborted" and record["failure"] == "evaluation: mse, nll not finite"
    assert record["summary"]["eval"] is None
    rows = [strict_json(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    # an iteration that took no step has no objective
    assert [r["objective"] is None for r in rows] == [False] + [True] * (iterations - 1)
    for line in (out / "timing.jsonl").read_text().splitlines():
        strict_json(line)
    assert main(["eval", str(out / "checkpoints" / "final.ckpt"), "train"]) == 3
    printed = capsys.readouterr()
    assert printed.out == "" and "numeric abort: evaluation: mse, nll not finite" in printed.err


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


@pytest.mark.parametrize("change", ["corpus", "vocab_cap"])
def test_eval_on_a_corpus_with_another_vocabulary_is_exit_2(tmp_path, capsys, change):
    # it exited 2 naming lm.embed's shape, not the corpus or the cap
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "text_char_em.json")
    out = tmp_path / "out"
    mode = "char" if change == "corpus" else "word"
    schedule = ["--set", "trainer.iterations=2", "--set", f"task.mode={mode}"]
    assert main(["run", shipped, *schedule, "--set", f"out_dir={out}"]) == 0
    header = rewrite_header(out / "checkpoints" / "final.ckpt", os.devnull)
    task = dict(header["config"]["task"])
    if change == "corpus":
        corpus = tmp_path / "nine.txt"
        corpus.write_text("abcdefgh " * 30)
        task.update(path=str(corpus))
        field, cap, size = "task.path", task["vocab_cap"], 9
    else:
        task.update(vocab_cap=5)
        field, cap, size = "task.vocab_cap", 5, 5
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"task": task}))
    capsys.readouterr()
    assert main(["eval", str(out / "checkpoints" / "final.ckpt"), str(spec)]) == 2
    err = capsys.readouterr().err
    embed = next(e for e in header["arrays"] if e["name"].endswith("lm.embed"))
    assert embed["shape"][0] != size
    assert f"{field}: {task['path']!r} at vocab_cap {cap} has a vocabulary of {size} tokens" in err
    assert f"the checkpoint's model {embed['shape'][0]}" in err


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


def rewrite_header(src, dst, header=None, **fields):
    """Copy a checkpoint with some top-level header fields replaced, or
    with all of its header replaced by ``header``."""
    blob = open(src, "rb").read()
    (n,) = struct.unpack("<Q", blob[8:16])
    if header is None:
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


@pytest.mark.parametrize("command", ["eval", "resume"])
@pytest.mark.parametrize("case", ["overlapping", "negative-offset", "trailing-bytes"])
def test_checkpoint_with_misplaced_arrays_is_exit_2(
    tmp_path, capsys, monkeypatch, mid_checkpoint, command, case
):
    # each of these loaded wrong values without complaint while the reader
    # trusted the manifest's offsets and ignored the payload's end
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    arrays = rewrite_header(mid_checkpoint, os.devnull)["arrays"]
    if case == "overlapping":  # the second array read over the first
        arrays[1] = dict(arrays[1], offset=0)
    elif case == "negative-offset":  # a two-value array read from the payload's tail
        i = next(i for i, e in enumerate(arrays) if e["shape"] == [2])
        arrays[i] = dict(arrays[i], offset=-4)
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(mid_checkpoint, bad, arrays=arrays)
    if case == "trailing-bytes":
        with open(bad, "ab") as fh:
            fh.write(bytes(8))
    argv = [command, bad] + (["train"] if command == "eval" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "malformed checkpoint" in err and bad in err


@pytest.mark.parametrize("command", ["eval", "resume"])
@pytest.mark.parametrize(
    "kinds", [("param", "opt_m", "opt_v"), ("opt_v",)], ids=["param-and-moments", "moment-only"]
)
def test_checkpoint_with_arrays_the_model_lacks_is_exit_2(
    tmp_path, capsys, monkeypatch, mid_checkpoint, command, kinds
):
    # a third module's arrays, for which the two-module model has no piece,
    # were dropped without complaint
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    arrays = rewrite_header(mid_checkpoint, os.devnull)["arrays"]
    end = arrays[-1]["offset"] + math.prod(arrays[-1]["shape"])
    extra = [
        {"name": f"{kind}:l0.pool.m2.w", "shape": [2, 2], "offset": end + 4 * i, "dtype": "float64"}
        for i, kind in enumerate(kinds)
    ]
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(mid_checkpoint, bad, arrays=arrays + extra)
    with open(bad, "ab") as fh:
        fh.write(bytes(8 * 4 * len(kinds)))
    argv = [command, bad] + (["train"] if command == "eval" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    # the first kind that holds one is named
    assert "config error" in err and "checkpoint arrays do not fit the model" in err
    assert f"{kinds[0]}: missing [], unknown ['l0.pool.m2.w']" in err


@pytest.mark.parametrize("change", ["missing", "unknown"])
def test_resume_with_other_rng_streams_is_exit_2(tmp_path, capsys, mid_checkpoint, change):
    # a stream left out of the snapshot would resume from its seed
    rng = rewrite_header(mid_checkpoint, os.devnull)["rng"]
    streams = dict(rng["streams"])
    if change == "missing":
        name = "noise"
        del streams[name]
    else:
        name = "spare"
        streams[name] = streams["noise"]
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(mid_checkpoint, bad, rng=dict(rng, streams=streams))
    assert main(["resume", bad, "--set", f"out_dir={tmp_path / 'resumed'}"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{name}'" in err and bad in err


@pytest.mark.parametrize("dtype", ["int64", "float64"])
@pytest.mark.parametrize("value", [0.5, 7.0, -1.0, math.nan, math.inf])
def test_resume_with_buffer_compositions_that_are_not_module_indices_is_exit_2(
    tmp_path, capsys, monkeypatch, mid_checkpoint, value, dtype
):
    # 0.5 used to train as module 0, and 7 (of two modules) made the resume
    # directory, then failed at the first search step without naming the
    # checkpoint; "float64" is the layout checkpoints had before int64
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    arrays = rewrite_header(mid_checkpoint, os.devnull)["arrays"]
    entry = next(e for e in arrays if e["name"] == "state:buffer_comps")
    entry["dtype"] = dtype
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(mid_checkpoint, bad, arrays=arrays)
    blob = open(bad, "rb").read()
    (n,) = struct.unpack("<Q", blob[8:16])
    start, size = 16 + n + 8 * entry["offset"], math.prod(entry["shape"])
    with open(bad, "wb") as fh:
        fh.write(blob[:start] + np.full(size, value).astype("<f8").tobytes() + blob[start + 8 * size :])
    assert main(["resume", bad]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "buffer_comps" in err and bad in err
    assert "Traceback" not in err
    assert not (tmp_path / "root").exists()


def test_eval_with_wrongly_shaped_parameter_is_exit_2(tmp_path, capsys, mid_checkpoint):
    # the header still parses: the payload holds more than the one value read
    arrays = rewrite_header(mid_checkpoint, os.devnull)["arrays"]
    arrays = [dict(e, shape=[1]) if e["name"] == "param:l0.pool.m0.b" else e for e in arrays]
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(mid_checkpoint, bad, arrays=arrays)
    assert main(["eval", bad, "train"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "l0.pool.m0.b" in err


@pytest.mark.parametrize("command", ["eval", "resume"])
def test_checkpoint_with_a_combine_field_is_exit_2(
    tmp_path, capsys, monkeypatch, mid_checkpoint, command
):
    # checkpoints written while the config had architecture.combine
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    config = rewrite_header(mid_checkpoint, os.devnull)["config"]
    config["architecture"]["combine"] = "sum"
    old = str(tmp_path / "old.ckpt")
    rewrite_header(mid_checkpoint, old, config=config)
    argv = [command, old] + (["train"] if command == "eval" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "architecture.combine: unknown field" in err
    assert "Traceback" not in err
    assert not (tmp_path / "root").exists()


@pytest.mark.parametrize("command", ["eval", "resume"])
@pytest.mark.parametrize(
    "path,value,message",
    [("task", 5, "an object"), ("trainer", [1], "an object"),
     ("task.kind", [1], "a string"), ("trainer.kind", {"em": 1}, "a string")],
)
def test_a_header_whose_kinds_are_misshapen_is_exit_2(
    tmp_path, capsys, monkeypatch, mid_checkpoint, command, path, value, message
):
    # the header loses the fields its kinds do not read before it validates
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    config = rewrite_header(mid_checkpoint, os.devnull)["config"]
    section, _, leaf = path.rpartition(".")
    (config[section] if section else config)[leaf] = value
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(mid_checkpoint, bad, config=config)
    assert main([command, bad] + (["train"] if command == "eval" else [])) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: expected {message}" in err and "Traceback" not in err
    assert not (tmp_path / "root").exists()


def test_a_header_with_fields_its_kinds_never_read_resumes_and_evaluates_alike(
    tmp_path, capsys, monkeypatch
):
    # headers once held every config field, an EM run's topk among them
    def every_field(cfg):
        return dict(dataclasses.asdict(cfg), architecture=dict(
            dataclasses.asdict(cfg.architecture), topk=2))

    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    cfg = write_config(tmp_path, diagnostics={"probe_size": 32, "checkpoint_interval": 2})
    seen = {}
    for form in ("read", "every"):
        with monkeypatch.context() as patch:
            if form == "every":
                patch.setattr(ExperimentConfig, "to_dict", every_field)
            assert main(["run", cfg, "--set", f"out_dir={tmp_path / form}"]) == 0
        mid = tmp_path / form / "checkpoints" / "step-000002.ckpt"
        header = rewrite_header(mid, os.devnull)["config"]
        resumed = tmp_path / f"{form}-resumed"
        assert main(["resume", str(mid), "--set", f"out_dir={resumed}"]) == 0
        capsys.readouterr()
        assert main(["eval", str(mid), "train"]) == 0
        seen[form] = (
            sum(len(v) if isinstance(v, dict) else 1 for v in header.values()),
            "topk" in header["architecture"],
            (resumed / "metrics.jsonl").read_bytes(),
            (resumed / "checkpoints" / "final.ckpt").read_bytes(),
            capsys.readouterr().out,
        )
    assert seen["every"][:2] == (39, True) and seen["read"][:2] == (27, False)
    assert seen["every"][2:] == seen["read"][2:]


@pytest.fixture(scope="module")
def two_regime_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("two-regime")
    cfg = write_config(root, task={"kind": "two-regime-lm", "n_windows": 16, "unroll": 4})
    assert main(["run", cfg, "--set", f"out_dir={root / 'out'}"]) == 0
    return str(root / "out" / "checkpoints" / "final.ckpt")


@pytest.fixture(scope="module")
def two_layer_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("two-layer")
    cfg = write_config(root, architecture={"n_layers": 2, "n_modules": 2, "hidden": 3})
    assert main(["run", cfg, "--set", f"out_dir={root / 'out'}"]) == 0
    return str(root / "out" / "checkpoints" / "final.ckpt")


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


@pytest.mark.parametrize("kind", ["static", "reinforce"])
def test_resume_of_an_em_checkpoint_as_another_trainer_is_exit_2(
    tmp_path, capsys, monkeypatch, mid_checkpoint, kind
):
    # a static resume of an EM checkpoint used to drop the buffer and exit 0
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    config = rewrite_header(mid_checkpoint, os.devnull)["config"]
    config["trainer"]["kind"] = kind
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(mid_checkpoint, bad, config=config)
    assert main(["resume", bad]) == 2
    err = capsys.readouterr().err
    assert "trainer.arrays: missing [], unknown ['buffer_comps']" in err and bad in err
    assert not (tmp_path / "root").exists()


@pytest.mark.parametrize("iteration", [-1, 4])
def test_resume_from_an_iteration_outside_the_schedule_is_exit_2(
    tmp_path, capsys, monkeypatch, mid_checkpoint, iteration
):
    # -1 renumbered the rows from 0 and trained one iteration too many
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(mid_checkpoint, bad, iteration=iteration)
    assert main(["resume", bad]) == 2
    err = capsys.readouterr().err
    assert f"iteration: the checkpoint is at {iteration}, outside [0, 3]" in err
    assert not (tmp_path / "root").exists()


def test_resume_keeps_buffer_scores_only_beside_buffer_compositions(
    tmp_path, capsys, monkeypatch, reinforce_checkpoint
):
    # the score array of EM checkpoints before int64 compositions
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    arrays = rewrite_header(reinforce_checkpoint, os.devnull)["arrays"]
    end = arrays[-1]["offset"] + math.prod(arrays[-1]["shape"])
    scores = {"name": "state:buffer_scores", "shape": [1], "offset": end, "dtype": "float64"}
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(reinforce_checkpoint, bad, arrays=arrays + [scores])
    with open(bad, "ab") as fh:
        fh.write(bytes(8))
    assert main(["resume", bad]) == 2
    assert "trainer.arrays: missing [], unknown ['buffer_scores']" in capsys.readouterr().err
    assert not (tmp_path / "root").exists()


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


DELETED = object()


def replaced(node, path, value):
    """A copy of ``node`` with the entry at ``path`` set to ``value``, or
    left out if ``value`` is ``DELETED``."""
    node = json.loads(json.dumps(node))
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETED:
        del parent[path[-1]]
    else:
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


@pytest.mark.parametrize("flag", [2, 3])
def test_resume_with_a_stream_flag_other_than_0_or_1_is_exit_2(
    tmp_path, capsys, monkeypatch, mid_checkpoint, flag
):
    # numpy's state setter took 3 without a word, and the stream then
    # served a stale buffered word
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    rng = rewrite_header(mid_checkpoint, os.devnull)["rng"]
    rng["streams"]["noise"]["has_uint32"] = flag
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(mid_checkpoint, bad, rng=rng)
    assert main(["resume", bad]) == 2
    assert f"stream 'noise': has_uint32 {flag} is not 0 or 1" in capsys.readouterr().err
    assert not (tmp_path / "root").exists()


@pytest.fixture(scope="module")
def smoke_step_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "toy_em_smoke.json")
    schedule = ["--set", "trainer.iterations=4", "--set", "diagnostics.checkpoint_interval=2"]
    assert main(["run", shipped, "--set", f"out_dir={root / 'out'}", *schedule]) == 0
    return str(root / "out" / "checkpoints" / "step-000002.ckpt")


@pytest.mark.parametrize(
    "edit", ["opt_t 0", "opt_t 3", "opt_t + 1", "streak 3, total 0", "trainer.m_steps + 1"]
)
def test_resume_refuses_step_counts_that_no_run_writes(
    tmp_path, capsys, monkeypatch, smoke_step_checkpoint, edit
):
    # each resumed with exit 0: opt_t 0 or 3 restarted Adam's bias correction
    header = rewrite_header(smoke_step_checkpoint, os.devnull)
    t, scalars, config = header["opt_t"], header["scalars"], header["config"]
    assert t + scalars["total"] == 2 * config["trainer"]["m_steps"] > 3
    field, fields = {
        "opt_t 0": ("opt_t", {"opt_t": 0}),
        "opt_t 3": ("opt_t", {"opt_t": 3}),
        "opt_t + 1": ("opt_t", {"opt_t": t + 1}),
        "streak 3, total 0": ("scalars.streak", {"scalars": dict(scalars, streak=3, total=0)}),
        "trainer.m_steps + 1": (
            "trainer.m_steps",
            {"config": replaced(config, ("trainer", "m_steps"), config["trainer"]["m_steps"] + 1)},
        ),
    }[edit]
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    bad = str(tmp_path / "bad.ckpt")
    rewrite_header(smoke_step_checkpoint, bad, **fields)
    assert main(["resume", bad]) == 2
    err = capsys.readouterr().err
    assert f"{field}: " in err or f" {field} " in err
    assert bad in err
    assert not (tmp_path / "root").exists()


def test_resume_refuses_every_hostile_state_leaf(
    tmp_path, capsys, monkeypatch, smoke_step_checkpoint
):
    # each leaf of the saved state, and each array's dtype, set to a value
    # of another type or range, or deleted
    header = rewrite_header(smoke_step_checkpoint, os.devnull)
    paths = list(entry_paths(header))
    # an entry comes just before its children: a leaf is one the next does not extend
    leaves = [
        path for path, after in zip(paths, paths[1:] + [()])
        if after[: len(path)] != path
        and (path[0] in ("rng", "scalars", "opt_t", "iteration") or path[-1] == "dtype")
    ]
    assert len(leaves) == 1 + 7 * 13 + 2 + 2 + 19
    root = tmp_path / "root"
    monkeypatch.setenv("MODNET_RUNS", str(root))
    bad = str(tmp_path / "bad.ckpt")
    passed = []
    for path in leaves:
        for value in (-1, 1.5, True, None, "x", 1e308, DELETED):
            rewrite_header(smoke_step_checkpoint, bad, replaced(header, path, value))
            code = main(["resume", bad])
            if code != 2 or root.exists():
                passed.append((path, value, code))
                shutil.rmtree(root, ignore_errors=True)
    capsys.readouterr()
    assert passed == []


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


def test_resume_from_a_checkpoint_with_float_compositions_and_scores(
    tmp_path, capsys, monkeypatch
):
    # the layout before int64 compositions: the buffer as float64, beside
    # a per-example score array that a resume does not read
    state = EMTrainer.state

    def old_layout(trainer):
        new = state(trainer)
        comps = new["arrays"]["buffer_comps"]
        arrays = {
            "buffer_comps": comps.astype(np.float64),
            "buffer_scores": np.linspace(-3.0, 0.0, len(comps)),
        }
        return dict(new, arrays=arrays)

    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    cfg = write_config(
        tmp_path,
        trainer={"kind": "em", "iterations": 4, "n_samples": 2, "m_steps": 2,
                 "e_batch": 16, "batch": 16},
        diagnostics={"probe_size": 32, "checkpoint_interval": 2},
    )
    full = tmp_path / "full"
    assert main(["run", cfg, "--set", f"out_dir={full}"]) == 0
    with monkeypatch.context() as patch:
        patch.setattr(EMTrainer, "state", old_layout)
        assert main(["run", cfg, "--set", f"out_dir={tmp_path / 'old'}"]) == 0
    capsys.readouterr()
    mid = str(tmp_path / "old" / "checkpoints" / "step-000002.ckpt")
    blob = open(mid, "rb").read()
    (n,) = struct.unpack("<Q", blob[8:16])
    layout = {e["name"]: e["dtype"] for e in json.loads(blob[16 : 16 + n])["arrays"]}
    assert layout["state:buffer_comps"] == "float64"
    assert layout["state:buffer_scores"] == "float64"

    assert main(["resume", mid]) == 0
    tail = read_jsonl(tmp_path / "root" / "toy-regression-em-s0-resume" / "metrics.jsonl")
    assert [r["iteration"] for r in tail] == [3, 4]
    assert tail == read_jsonl(full / "metrics.jsonl")[2:]


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
    # the base sets no field that only one of the swept kinds reads, so the
    # first three combinations validate and the fourth is refused
    "sweep-noisy-topk-several-slots": (
        "sweep",
        {"base": tiny_config(architecture={"n_modules": 4},
                             trainer={"iterations": 3, "m_steps": 2, "batch": 16}),
         "axes": {"trainer.kind": ["em", "noisy-topk"], "architecture.n_slots": [1, 3]}},
        'combo-003 {"architecture.n_slots": 3, "trainer.kind": "noisy-topk"}: '
        "architecture.n_slots: not read by trainer kind noisy-topk",
    ),
    "sweep-kind-axis-over-a-field-one-kind-reads": (
        "sweep",
        {"base": tiny_config(architecture={"n_modules": 2, "topk": 1}),
         "axes": {"trainer.kind": ["em", "noisy-topk"], "architecture.n_slots": [1, 3]}},
        'combo-000 {"architecture.n_slots": 1, "trainer.kind": "em"}: '
        "architecture.topk: not read by trainer kind em",
    ),
    "run-recurrent-relu-modules": (
        "run",
        tiny_config(task={"kind": "two-regime-lm", "n_windows": 8},
                    architecture={"module_kind": "linear-relu"}),
        "architecture.module_kind",
    ),
    "run-corpus-shorter-than-a-window": (
        "run", tiny_config(task={"kind": "text-lm", "path": "list.json"}), "task.unroll"
    ),
    "eval-list-spec": ("eval", [1, 2], "dataset spec"),
    "eval-list-seed": ("eval", {"seed": [1]}, "seed"),
    "eval-unknown-field": ("eval", {"sed": 1}, "sed"),
    "eval-other-task-kind": (
        "eval", {"task": {"kind": "two-regime-lm", "n_windows": 8}}, "task.kind"
    ),
    # the kinds are compared before the checkpoint's n_layers meets the spec's kind
    "eval-other-task-kind-two-layers": (
        "eval",
        {"task": {"kind": "two-regime-lm", "n_windows": 8}},
        "task.kind: the checkpoint models 'toy-regression', got 'two-regime-lm'",
    ),
    "eval-other-dim": ("eval", {"task": {"kind": "toy-regression", "n": 8, "dim": 3}}, "task.dim"),
    "eval-other-n-states": (
        "eval", {"task": {"kind": "two-regime-lm", "n_windows": 8, "n_states": 3}}, "task.n_states"
    ),
}
# cases scored against a checkpoint other than the one-layer toy one
HOSTILE_CHECKPOINT = {
    "eval-other-n-states": "two_regime_checkpoint",
    "eval-other-task-kind-two-layers": "two_layer_checkpoint",
}


@pytest.mark.parametrize("case", sorted(HOSTILE_JSON))
def test_hostile_json_is_exit_2_naming_the_field(tmp_path, capsys, monkeypatch, request, case):
    command, content, field = HOSTILE_JSON[case]
    checkpoint = request.getfixturevalue(HOSTILE_CHECKPOINT.get(case, "mid_checkpoint"))
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path / "root"))
    (tmp_path / "list.json").write_text("[1, 2]")
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(content))
    name, *rest = command.split()
    argv = [name] + ([checkpoint] if name == "eval" else []) + [str(path)] + rest
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

    # the console script, read from the project's metadata rather than PATH;
    # tomllib is imported here as it needs Python 3.11
    import tomllib

    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["modnet"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main

"""Declared drift: every run whose bits the recurrent cell moves stays
within ``drift.BOUND`` of its recorded trajectory, and the check itself
passes a rounding-level nudge and fails a changed decision."""

import copy

import numpy as np
import pytest
from drift import BOUND, MOVED, compare, load, trajectory

import modnet.runner as runner


def worst(drift: dict) -> tuple[str, float]:
    return max(drift.items(), key=lambda kv: kv[1], default=("none", 0.0))


@pytest.mark.parametrize("name", MOVED)
def test_moved_run_stays_within_the_declared_drift(tmp_path, name):
    drift, failures = compare(load(name), trajectory(name, str(tmp_path)))
    assert not failures, failures
    field, value = worst(drift)
    assert value <= BOUND, f"{name} {field}: relative drift {value:.2e} > {BOUND:.0e}"


def test_one_ulp_on_a_starting_parameter_stays_within_the_bound(tmp_path, monkeypatch):
    # a real run whose first parameter starts one ulp away: rounding-level
    # drift, which the bound must pass without a changed decision
    build = runner.build_model

    def nudged(*args, **kwargs):
        model = build(*args, **kwargs)
        first = model.parameters()[0].data.reshape(-1)
        first[0] = np.nextafter(first[0], np.inf)
        return model

    monkeypatch.setattr(runner, "build_model", nudged)
    drift, failures = compare(load("two_regime_em_smoke"), trajectory("two_regime_em_smoke", str(tmp_path)))
    assert not failures
    field, value = worst(drift)
    assert 0.0 < value <= BOUND, (field, value)


def test_a_changed_e_step_decision_fails_naming_its_row():
    old = load("two_regime_em_smoke")
    new = copy.deepcopy(old)
    row = new["rows"][3]
    row["e_step_improved_fraction"] += 1.0 / 32
    row["objective"] = np.nextafter(row["objective"], 0.0)
    drift, failures = compare(old, new)
    assert failures == [
        f"row 3 (iteration {row['iteration']}) e_step_improved_fraction: decision changed, "
        f"{old['rows'][3]['e_step_improved_fraction']!r} -> {row['e_step_improved_fraction']!r}"
    ]
    assert 0.0 < drift["metrics.objective"] <= BOUND


def test_a_missing_value_fails_and_a_drifted_norm_is_reported():
    old = load("two_regime_static")
    new = copy.deepcopy(old)
    key = "lm.cell.update.w"
    new["norms"][key] *= 1.0 + 1e-6
    new["rows"][0]["objective"] = None
    drift, failures = compare(old, new)
    assert drift[f"norms.{key}"] == pytest.approx(1e-6, rel=1e-3)
    assert len(failures) == 1 and failures[0].startswith("row 0 (iteration 1) objective:")

from __future__ import annotations

import json
import math

import pytest

import pollctl as pc
from pollctl.config import (
    ConfigError,
    control_from,
    cost_from,
    load_config,
    resolve_config,
    rewrite_config,
    scaled_from,
    set_path,
    system_from,
)


def minimal() -> dict:
    return {
        "system": {
            "arrival_rates": [1.0, 1.0],
            "service_rates": [4.0, 4.0],
            "table": [1, 2],
            "switchover_means": [1.0, 1.0],
        }
    }


def test_defaults_are_materialised():
    resolved = resolve_config(minimal())
    assert resolved["cost"] is None
    assert resolved["sweep"] is None
    assert resolved["control"] == {"repetitions": 1, "ratios": [1.0, 1.0]}
    assert resolved["optimize"] == {"repetition_set": [1], "budget": None}
    sim = resolved["simulation"]
    assert sim["scale"] == 1
    assert sim["measured_cycles"] == 1000
    assert sim["warmup_cycles"] is None
    assert sim["record_path_cycles"] == 0
    assert sim["batches"] == 20
    assert sim["confidence"] == 0.95
    assert sim["service_distribution"] == {"kind": "exponential"}
    assert sim["switchover_distribution"] == {"kind": "deterministic"}


def test_table_entries_are_one_based():
    params = system_from(resolve_config(minimal())["system"])
    assert params.table == (0, 1)
    bad = minimal()
    bad["system"]["table"] = [0, 1]
    with pytest.raises(ConfigError, match="1..2"):
        resolve_config(bad)


def test_switchover_interpretations_are_exclusive():
    per_queue = minimal()
    per_queue["system"]["table"] = [1, 2, 2]
    del per_queue["system"]["switchover_means"]
    per_queue["system"]["switchover_means_per_queue"] = [0.5, 2.0]
    resolved = resolve_config(per_queue)
    # stage means follow the polled queue of each stage
    assert resolved["system"]["switchover_means"] == [0.5, 2.0, 2.0]

    both = minimal()
    both["system"]["switchover_means_per_queue"] = [0.5, 2.0]
    with pytest.raises(ConfigError, match="exactly one"):
        resolve_config(both)
    neither = minimal()
    del neither["system"]["switchover_means"]
    with pytest.raises(ConfigError, match="exactly one"):
        resolve_config(neither)


def test_unknown_keys_are_rejected_with_path():
    top = minimal()
    top["costs"] = {}
    with pytest.raises(ConfigError, match="unknown key config.costs"):
        resolve_config(top)
    nested = minimal()
    nested["system"]["switch_over"] = [1.0]
    with pytest.raises(ConfigError, match="unknown key system.switch_over"):
        resolve_config(nested)
    sim = minimal()
    sim["simulation"] = {"service_distribution": {"kind": "exponential", "shape": 2}}
    with pytest.raises(ConfigError, match="does not apply"):
        resolve_config(sim)


def test_numbers_must_be_numbers():
    bad = minimal()
    bad["system"]["arrival_rates"] = [1.0, True]
    with pytest.raises(ConfigError, match="list of numbers"):
        resolve_config(bad)
    short = minimal()
    short["system"]["service_rates"] = [4.0]
    with pytest.raises(ConfigError, match="length 2"):
        resolve_config(short)


def test_infeasible_system_is_rejected():
    overloaded = minimal()
    overloaded["system"]["arrival_rates"] = [3.0, 3.0]
    with pytest.raises(pc.InfeasibleParameters):
        resolve_config(overloaded)


def test_cost_sections_resolve_to_cost_functions():
    linear = minimal()
    linear["cost"] = {"kind": "linear", "coefficients": [1.0, 2.0]}
    psi = cost_from(resolve_config(linear)["cost"])
    assert isinstance(psi, pc.SeparableCost)
    assert psi.value([1.0, 1.0]) == pytest.approx(3.0)

    pwl = minimal()
    pwl["cost"] = {
        "kind": "piecewise_linear",
        "thresholds": [[0.0, 2.0], [0.0]],
        "slopes": [[1.0, 3.0], [2.0]],
    }
    psi = cost_from(resolve_config(pwl)["cost"])
    assert psi.value([3.0, 0.0]) == pytest.approx(9.0)

    poly = minimal()
    poly["cost"] = {"kind": "polynomial", "coefficients": [[0.0, 0.0, 1.0], [0.0, 1.0]]}
    psi = cost_from(resolve_config(poly)["cost"])
    assert psi.value([2.0, 3.0]) == pytest.approx(7.0)

    assert cost_from(None) is None


def test_cost_sections_reject_mistakes():
    wrong_kind = minimal()
    wrong_kind["cost"] = {"kind": "quadratic"}
    with pytest.raises(ConfigError, match="cost.kind"):
        resolve_config(wrong_kind)
    wrong_len = minimal()
    wrong_len["cost"] = {"kind": "linear", "coefficients": [1.0]}
    with pytest.raises(ConfigError, match="length 2"):
        resolve_config(wrong_len)
    bad_pwl = minimal()
    bad_pwl["cost"] = {
        "kind": "piecewise_linear",
        "thresholds": [[1.0], [0.0]],
        "slopes": [[1.0], [1.0]],
    }
    with pytest.raises(ConfigError, match="cost: first threshold"):
        resolve_config(bad_pwl)
    mixed = minimal()
    mixed["cost"] = {"kind": "linear", "coefficients": [1.0, 2.0], "slopes": []}
    with pytest.raises(ConfigError, match="unknown key cost.slopes"):
        resolve_config(mixed)


def test_control_section_checks_ratio_vector():
    good = minimal()
    good["control"] = {"repetitions": 2, "ratios": [1.0, 0.5, 0.25, 1.0]}
    control = control_from(resolve_config(good)["control"])
    assert control.repetitions == 2
    assert control.ratios == (1.0, 0.5, 0.25, 1.0)

    wrong_len = minimal()
    wrong_len["control"] = {"repetitions": 2, "ratios": [1.0, 0.5]}
    with pytest.raises(ConfigError, match="length 4"):
        resolve_config(wrong_len)
    out_of_range = minimal()
    out_of_range["control"] = {"ratios": [1.5, 0.5]}
    with pytest.raises(pc.InvalidControl):
        resolve_config(out_of_range)


def test_optimize_and_simulation_validation():
    empty_reps = minimal()
    empty_reps["optimize"] = {"repetition_set": []}
    with pytest.raises(ConfigError, match="nonempty"):
        resolve_config(empty_reps)
    dedup = minimal()
    dedup["optimize"] = {"repetition_set": [2, 1, 2], "budget": 0}
    resolved = resolve_config(dedup)
    assert resolved["optimize"] == {"repetition_set": [1, 2], "budget": 0}

    bad_conf = minimal()
    bad_conf["simulation"] = {"confidence": 1.0}
    with pytest.raises(ConfigError, match="confidence"):
        resolve_config(bad_conf)
    bad_scale = minimal()
    bad_scale["simulation"] = {"scale": 0}
    with pytest.raises(ConfigError, match="scale"):
        resolve_config(bad_scale)
    bad_batches = minimal()
    bad_batches["simulation"] = {"batches": 1}
    with pytest.raises(ConfigError, match="batches"):
        resolve_config(bad_batches)
    too_many = minimal()
    too_many["simulation"] = {"measured_cycles": 30, "batches": 40}
    with pytest.raises(ConfigError, match=r"simulation\.batches \(40\) exceeds"):
        resolve_config(too_many)
    one_each = minimal()
    one_each["simulation"] = {"measured_cycles": 40, "batches": 40}
    assert resolve_config(one_each)["simulation"]["batches"] == 40


def test_scaled_from_builds_matching_system():
    data = minimal()
    data["simulation"] = {
        "scale": 5,
        "service_distribution": {"kind": "gamma", "shape": 3.0},
        "switchover_distribution": {"kind": "uniform", "width": 0.5},
    }
    resolved = resolve_config(data)
    scaled = scaled_from(resolved, system_from(resolved["system"]))
    assert scaled.scale == 5
    assert all(isinstance(d, pc.Gamma) and d.shape == 3.0 for d in scaled.service)
    assert all(isinstance(d, pc.Uniform) and d.mean == 5.0 for d in scaled.switchover)


def test_sweep_section_and_set_path():
    data = minimal()
    data["cost"] = {"kind": "linear", "coefficients": [1.0, 2.0]}
    data["sweep"] = {"parameter": "cost.coefficients.1", "values": [2.0, 4.0]}
    resolved = resolve_config(data)
    assert resolved["sweep"] == {
        "parameter": "cost.coefficients.1",
        "values": [2.0, 4.0],
    }

    doc = {"a": {"b": [10, 20, 30]}}
    set_path(doc, "a.b.2", 99)
    assert doc["a"]["b"] == [10, 20, 99]
    with pytest.raises(ConfigError, match="not a list index"):
        set_path(doc, "a.b.x", 1)
    with pytest.raises(ConfigError, match="out of range"):
        set_path(doc, "a.b.7", 1)
    with pytest.raises(ConfigError, match="no entry"):
        set_path(doc, "a.c", 1)
    with pytest.raises(ConfigError, match="addresses a scalar"):
        set_path(doc, "a.b.0.z", 1)


def test_rewrite_config_is_pure_and_revalidates():
    data = minimal()
    data["cost"] = {"kind": "linear", "coefficients": [1.0, 2.0]}
    resolved = resolve_config(data)
    variant = rewrite_config(resolved, "cost.coefficients.1", 9.0)
    assert variant["cost"]["coefficients"] == [1.0, 9.0]
    assert resolved["cost"]["coefficients"] == [1.0, 2.0]
    with pytest.raises(pc.InfeasibleParameters):
        rewrite_config(resolved, "system.arrival_rates.0", 5.0)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", "utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(broken))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal()), "utf-8")
    assert load_config(str(good))["control"]["ratios"] == [1.0, 1.0]


def every_section() -> dict:
    config = minimal()
    config["cost"] = {"kind": "linear", "coefficients": [1.0, 8.0]}
    config["control"] = {"ratios": [1.0, 0.5]}
    config["optimize"] = {"budget": 4}
    config["simulation"] = {
        "confidence": 0.9,
        "service_distribution": {"kind": "gamma", "shape": 2.0},
    }
    config["sweep"] = {"parameter": "cost.coefficients.1", "values": [2.0, 4.0]}
    return config


def load_text(tmp_path, config: dict):
    # ``json.dumps`` writes NaN and the infinities as Python's ``json`` reads
    # them back: NaN, Infinity, -Infinity
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), "utf-8")
    return load_config(str(path))


def test_every_section_loads_from_json_text(tmp_path):
    assert load_text(tmp_path, every_section())["sweep"]["values"] == [2.0, 4.0]


def rejected_by_key(tmp_path, entry: str, value):
    """Put ``value`` at ``entry`` and expect the error to name its key (the
    list's, for a list position)."""
    config = every_section()
    set_path(config, entry, value)
    key = entry.rstrip(".0123456789")
    with pytest.raises(ConfigError, match=key.replace(".", r"\.") + " must"):
        load_text(tmp_path, config)


@pytest.mark.parametrize(
    "entry",
    [
        "system.arrival_rates.0",
        "system.switchover_means.1",
        "cost.coefficients.0",
        "control.ratios.1",
        "optimize.budget",
        "simulation.confidence",
        "simulation.service_distribution.shape",
        "sweep.values.1",
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_are_rejected_by_key(tmp_path, entry, value):
    rejected_by_key(tmp_path, entry, value)


@pytest.mark.parametrize(
    "entry", ["system.service_rates.0", "simulation.service_distribution.shape"]
)
def test_integers_beyond_every_float_are_rejected_by_key(tmp_path, entry):
    rejected_by_key(tmp_path, entry, 10**400)


@pytest.mark.parametrize("section", ["service_distribution", "switchover_distribution"])
@pytest.mark.parametrize("kind", [["gamma"], {"name": "gamma"}, "weibull", None])
def test_distribution_kinds_outside_the_list_are_rejected_by_key(
    tmp_path, section, kind
):
    config = every_section()
    config["simulation"][section] = {"kind": kind}
    with pytest.raises(ConfigError, match=rf"simulation\.{section}\.kind must be"):
        load_text(tmp_path, config)


@pytest.mark.parametrize(
    "kind, option, bad, edges",
    [
        ("gamma", "shape", [0.0, -1.0], [1e-3]),
        ("lognormal", "cv", [-1.0, 1e155], [0.0, 1e150]),
        ("uniform", "width", [-0.1, 2.0], [0.0, 1.0]),
    ],
)
@pytest.mark.parametrize("section", ["service_distribution", "switchover_distribution"])
def test_out_of_range_distribution_options_are_rejected_by_key(
    tmp_path, section, kind, option, bad, edges
):
    key = rf"simulation\.{section}\.{option} must"
    for value in bad + edges:
        config = every_section()
        config["simulation"][section] = {"kind": kind, option: value}
        if value in bad:
            with pytest.raises(ConfigError, match=key):
                load_text(tmp_path, config)
        else:
            assert load_text(tmp_path, config)["simulation"][section][option] == value

"""Strict JSON run configuration.

Unknown keys anywhere in the file are rejected so that typos fail fast
instead of silently falling back to defaults.  Queue and stage indices in
configuration files and CLI outputs are 1-based; the Python API is 0-based
throughout.  ``resolve_config`` returns the configuration with all defaults
materialised, which the CLI embeds verbatim in its outputs.
"""

from __future__ import annotations

import copy
import json
import math
from typing import Any

from .cost import (
    CostFunction,
    linear_cost,
    piecewise_linear_cost,
    polynomial_cost,
)
from .distributions import KIND_OPTIONS, ScaledSystem, make_distribution, scaled_system
from .model import ControlParams, SystemParameters, validate


class ConfigError(ValueError):
    """A malformed, unknown, or inconsistent configuration entry."""


def _check_keys(
    section: Any,
    path: str,
    required: tuple[str, ...],
    optional: tuple[str, ...] = (),
) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    for key in section:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {path}.{key}")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing key {path}.{key}")


def _finite(value: Any) -> bool:
    """Whether ``value`` is a number that a float holds, other than NaN and
    the infinities, which Python's ``json`` also reads."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond every float
        return False


def _number_list(value: Any, path: str, length: int | None = None) -> list[float]:
    if not isinstance(value, list) or not all(_finite(v) for v in value):
        raise ConfigError(f"{path} must be a list of numbers, each finite")
    if length is not None and len(value) != length:
        raise ConfigError(f"{path} must have length {length}")
    return [float(v) for v in value]


def _positive_int(value: Any, path: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{path} must be an integer >= {minimum}")
    return value


#: every option of any distribution kind, each once
_DISTRIBUTION_OPTIONS = tuple(dict.fromkeys(sum(KIND_OPTIONS.values(), ())))


def _resolve_distribution(section: Any, path: str) -> dict[str, Any]:
    _check_keys(section, path, required=("kind",), optional=_DISTRIBUTION_OPTIONS)
    kind = section["kind"]
    if kind not in KIND_OPTIONS:
        raise ConfigError(f"{path}.kind must be one of {sorted(KIND_OPTIONS)}")
    allowed = KIND_OPTIONS[kind]
    options: dict[str, float] = {}
    for key in _DISTRIBUTION_OPTIONS:
        if key in section:
            if key not in allowed:
                raise ConfigError(f"{path}.{key} does not apply to kind {kind!r}")
            value = section[key]
            if not _finite(value):
                raise ConfigError(f"{path}.{key} must be a finite number")
            options[key] = float(value)
    try:  # the kind checks its options, and names the one it rejects
        make_distribution(kind, 1.0, **options)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc
    return {"kind": kind, **options}


def _resolve_system(section: Any) -> dict[str, Any]:
    _check_keys(
        section,
        "system",
        required=("arrival_rates", "service_rates", "table"),
        optional=("switchover_means", "switchover_means_per_queue"),
    )
    arrivals = _number_list(section["arrival_rates"], "system.arrival_rates")
    queues = len(arrivals)
    services = _number_list(section["service_rates"], "system.service_rates", queues)
    table = section["table"]
    if not isinstance(table, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in table
    ):
        raise ConfigError("system.table must be a list of 1-based queue indices")
    if any(v < 1 or v > queues for v in table):
        raise ConfigError(f"system.table entries must lie in 1..{queues}")

    has_stage = "switchover_means" in section
    has_queue = "switchover_means_per_queue" in section
    if has_stage == has_queue:
        raise ConfigError(
            "system needs exactly one of switchover_means, switchover_means_per_queue"
        )
    if has_stage:
        stage_means = _number_list(
            section["switchover_means"], "system.switchover_means", len(table)
        )
    else:
        per_queue = _number_list(
            section["switchover_means_per_queue"],
            "system.switchover_means_per_queue",
            queues,
        )
        stage_means = [per_queue[v - 1] for v in table]

    resolved = {
        "arrival_rates": arrivals,
        "service_rates": services,
        "table": list(table),
        "switchover_means": stage_means,
    }
    validate(system_from(resolved))
    return resolved


def system_from(resolved_system: dict[str, Any]) -> SystemParameters:
    return SystemParameters(
        arrival_rates=tuple(resolved_system["arrival_rates"]),
        service_rates=tuple(resolved_system["service_rates"]),
        table=tuple(v - 1 for v in resolved_system["table"]),
        switchover_means=tuple(resolved_system["switchover_means"]),
    )


#: each cost kind: its builder, and its option keys in the builder's order,
#: each marked by whether it holds one list per queue
_COST_KINDS = {
    "linear": (linear_cost, {"coefficients": False}),
    "piecewise_linear": (piecewise_linear_cost, {"thresholds": True, "slopes": True}),
    "polynomial": (polynomial_cost, {"coefficients": True}),
}


def _resolve_cost(section: Any, queues: int) -> dict[str, Any]:
    _check_keys(
        section,
        "cost",
        required=("kind",),
        optional=("coefficients", "thresholds", "slopes"),
    )
    kind = section["kind"]
    if kind not in list(_COST_KINDS):  # a list: the kind may be unhashable
        raise ConfigError(f"cost.kind must be one of {list(_COST_KINDS)}")
    options = _COST_KINDS[kind][1]
    _check_keys(section, "cost", required=("kind", *options))
    resolved = {"kind": kind}
    for key, per_queue in options.items():
        value = section[key]
        if not per_queue:
            resolved[key] = _number_list(value, f"cost.{key}", queues)
            continue
        if not isinstance(value, list) or len(value) != queues:
            raise ConfigError(f"cost.{key} must be one list per queue")
        resolved[key] = [
            _number_list(v, f"cost.{key}[{k}]") for k, v in enumerate(value)
        ]
    try:
        cost_from(resolved)
    except ValueError as exc:
        raise ConfigError(f"cost: {exc}") from exc
    return resolved


def cost_from(resolved_cost: dict[str, Any] | None) -> CostFunction | None:
    if resolved_cost is None:
        return None
    build, options = _COST_KINDS[resolved_cost["kind"]]
    return build(*(resolved_cost[key] for key in options))


def _resolve_control(section: Any, params: SystemParameters) -> dict[str, Any]:
    _check_keys(section, "control", required=(), optional=("repetitions", "ratios"))
    repetitions = _positive_int(section.get("repetitions", 1), "control.repetitions")
    stage_count = params.num_stages * repetitions
    if "ratios" in section:
        ratios = _number_list(section["ratios"], "control.ratios", stage_count)
    else:
        ratios = [1.0] * stage_count
    resolved = {"repetitions": repetitions, "ratios": ratios}
    control_from(resolved).validate_for(params)
    return resolved


def control_from(resolved_control: dict[str, Any]) -> ControlParams:
    return ControlParams(
        repetitions=resolved_control["repetitions"],
        ratios=tuple(resolved_control["ratios"]),
    )


def _resolve_optimize(section: Any) -> dict[str, Any]:
    _check_keys(section, "optimize", required=(), optional=("repetition_set", "budget"))
    reps = section.get("repetition_set", [1])
    if not isinstance(reps, list) or not reps:
        raise ConfigError("optimize.repetition_set must be a nonempty list")
    reps = [
        _positive_int(v, "optimize.repetition_set entry") for v in reps
    ]
    budget = section.get("budget")
    if budget is not None:
        budget = _positive_int(budget, "optimize.budget", minimum=0)
    return {"repetition_set": sorted(set(reps)), "budget": budget}


def _resolve_simulation(section: Any) -> dict[str, Any]:
    _check_keys(
        section,
        "simulation",
        required=(),
        optional=(
            "scale",
            "measured_cycles",
            "warmup_cycles",
            "record_path_cycles",
            "batches",
            "confidence",
            "service_distribution",
            "switchover_distribution",
        ),
    )
    warmup = section.get("warmup_cycles")
    if warmup is not None:
        warmup = _positive_int(warmup, "simulation.warmup_cycles", minimum=0)
    confidence = section.get("confidence", 0.95)
    if not _finite(confidence) or not 0.0 < confidence < 1.0:
        raise ConfigError("simulation.confidence must lie in (0, 1)")
    measured = _positive_int(
        section.get("measured_cycles", 1000), "simulation.measured_cycles"
    )
    batches = _positive_int(section.get("batches", 20), "simulation.batches", 2)
    if batches > measured:
        raise ConfigError(
            f"simulation.batches ({batches}) exceeds simulation.measured_cycles "
            f"({measured}); every batch needs at least one measured cycle"
        )
    return {
        "scale": _positive_int(section.get("scale", 1), "simulation.scale"),
        "measured_cycles": measured,
        "warmup_cycles": warmup,
        "record_path_cycles": _positive_int(
            section.get("record_path_cycles", 0),
            "simulation.record_path_cycles",
            minimum=0,
        ),
        "batches": batches,
        "confidence": float(confidence),
        "service_distribution": _resolve_distribution(
            section.get("service_distribution", {"kind": "exponential"}),
            "simulation.service_distribution",
        ),
        "switchover_distribution": _resolve_distribution(
            section.get("switchover_distribution", {"kind": "deterministic"}),
            "simulation.switchover_distribution",
        ),
    }


def scaled_from(resolved: dict[str, Any], params: SystemParameters) -> ScaledSystem:
    sim = resolved["simulation"]
    service = dict(sim["service_distribution"])
    switchover = dict(sim["switchover_distribution"])
    kinds = service.pop("kind"), switchover.pop("kind")
    return scaled_system(params, sim["scale"], *kinds, service, switchover)


def _resolve_sweep(section: Any) -> dict[str, Any]:
    _check_keys(section, "sweep", required=("parameter", "values"))
    parameter = section["parameter"]
    if not isinstance(parameter, str) or not parameter:
        raise ConfigError("sweep.parameter must be a dotted path string")
    values = _number_list(section["values"], "sweep.values")
    if not values:
        raise ConfigError("sweep.values must be nonempty")
    return {"parameter": parameter, "values": values}


def _key(node: Any, part: str) -> Any:
    """The key or list index that one part of a dotted path names in ``node``."""
    if isinstance(node, list):
        try:
            index = int(part)
        except ValueError:
            raise ConfigError(f"sweep.parameter: {part!r} is not a list index")
        if not 0 <= index < len(node):
            raise ConfigError(f"sweep.parameter: index {index} out of range")
        return index
    if isinstance(node, dict):
        if part not in node:
            raise ConfigError(f"sweep.parameter: no entry {part!r}")
        return part
    raise ConfigError(f"sweep.parameter: {part!r} addresses a scalar")


def set_path(data: dict[str, Any], path: str, value: Any) -> Any:
    """Assign ``value`` at a dotted path and return the entry it replaces;
    list positions are 0-based."""
    node: Any = data
    *parents, last = path.split(".")
    for part in parents:
        node = node[_key(node, part)]
    key = _key(node, last)
    replaced, node[key] = node[key], value
    return replaced


def resolve_config(data: Any) -> dict[str, Any]:
    """Validate a raw configuration object and fill in all defaults."""
    _check_keys(
        data,
        "config",
        required=("system",),
        optional=("cost", "control", "optimize", "simulation", "sweep"),
    )
    resolved: dict[str, Any] = {"system": _resolve_system(data["system"])}
    params = system_from(resolved["system"])
    queues = params.num_queues
    resolved["cost"] = (
        _resolve_cost(data["cost"], queues) if "cost" in data else None
    )
    resolved["control"] = _resolve_control(data.get("control", {}), params)
    resolved["optimize"] = _resolve_optimize(data.get("optimize", {}))
    resolved["simulation"] = _resolve_simulation(data.get("simulation", {}))
    resolved["sweep"] = _resolve_sweep(data["sweep"]) if "sweep" in data else None
    return resolved


def load_config(path: str) -> dict[str, Any]:
    """Read, validate, and resolve a JSON configuration file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return resolve_config(data)


def rewrite_config(resolved: dict[str, Any], path: str, value: Any) -> dict[str, Any]:
    """Copy a resolved config, set one value, and re-validate."""
    data = copy.deepcopy(resolved)
    replaced = set_path(data, path, value)
    # a whole number stays an integer over an integer entry or an unset one,
    # such as ``optimize.budget``
    whole = isinstance(value, float) and value.is_integer()
    if whole and (replaced is None or isinstance(replaced, int)):
        set_path(data, path, int(value))
    if data.get("cost") is None:
        data.pop("cost", None)
    if data.get("sweep") is None:
        data.pop("sweep", None)
    return resolve_config(data)

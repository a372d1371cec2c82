"""Output checks applied to every benchmark run, outside the timed region.

Each check returns a list of failure messages; an empty list means the run's
outputs are correct.  The checks recompute what they compare against with
the library's public functions, never with the numbers under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from pollctl.config import cost_from, system_from
from pollctl.model import ControlParams, augment
from pollctl.rfcp import control_cost, relaxation_bound_cyclic

Z_BAR = 4.0  # AC6's bar on polling-level and busy-time z-scores
RTOL = 1e-12  # round-off allowance when comparing equilibrium costs

# Varies between identical runs by design; every other artefact must not.
RUN_META = "run_meta.json"


def artefacts(out: Path) -> dict[str, bytes]:
    """Contents of every artefact a CLI call wrote, except ``run_meta.json``."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != RUN_META
    }


def check_optimize(out: Path, resolved: dict) -> tuple[float, list[str]]:
    """Check ``optimize_result.json``; return the reported cost and failures."""
    params = system_from(resolved["system"])
    psi = cost_from(resolved["cost"])
    result = json.loads((out / "optimize_result.json").read_text("utf-8"))
    cost = float(result["cost"])
    repetitions = int(result["repetitions"])
    ratios = np.asarray(result["ratios"], dtype=float)
    failures = []

    if repetitions not in resolved["optimize"]["repetition_set"]:
        failures.append(f"repetitions {repetitions} outside the repetition set")
    if ratios.size != params.num_stages * repetitions:
        return cost, failures + [f"{ratios.size} ratios for {repetitions} repetitions"]

    # compact set: ratios in [0, 1] and every queue cleared at least once a cycle
    if ratios.min() < 0.0 or ratios.max() > 1.0:
        failures.append("a ratio lies outside [0, 1]")
    table = augment(params.table, repetitions)
    for k in range(params.num_queues):
        total = float(ratios[list(table.visit_stages(k))].sum())
        if total < 1.0 - RTOL:
            failures.append(f"queue {k + 1} ratio sum {total!r} below 1")

    fresh = control_cost(params, ControlParams(repetitions, tuple(ratios)), psi)
    if abs(fresh - cost) > RTOL * abs(fresh):
        failures.append(f"reported cost {cost!r} != recomputed {fresh!r}")
    exhaustive = control_cost(params, ControlParams.exhaustive(params), psi)
    if cost > exhaustive * (1.0 + RTOL):
        failures.append(f"cost {cost!r} above the exhaustive policy's {exhaustive!r}")
    if len(params.table) == params.num_queues:
        bound = relaxation_bound_cyclic(params, repetitions, psi)
        if cost < bound * (1.0 - RTOL):
            failures.append(f"cost {cost!r} below the relaxation bound {bound!r}")
    return cost, failures


def check_simulate(out: Path) -> list[str]:
    """Every polling-level and busy-time row must have |z| below ``Z_BAR``."""
    with open(out / "simulation_stats.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    failures = []
    checked = 0
    for row in rows:
        if row["kind"] not in ("polling_level", "busy_time"):
            continue
        checked += 1
        z = float(row["z"])
        if not abs(z) < Z_BAR:  # also rejects nan
            failures.append(
                f"{row['kind']} stage {row['stage']} queue {row['queue']}: z = {z!r}"
            )
    if not checked:
        failures.append("simulation_stats.csv has no polling_level or busy_time rows")
    return failures


def observable_digest(results) -> str:
    """SHA-256 of the integer observables of simulation results.

    Covers, per measured cycle, the job counts at every polling epoch and the
    services and arrivals per queue, so two versions of the simulator can be
    compared bitwise for one seed.
    """
    digest = hashlib.sha256()
    for result in results:
        digest.update(str(result.warmup_cycles).encode())
        for record in result.records:
            for values in (record.polling_levels, record.services, record.arrivals):
                digest.update(np.ascontiguousarray(values, dtype="<i8").tobytes())
    return digest.hexdigest()


"""End-to-end acceptance gate.

Ten numbered checks pin the package's core guarantees: fluid contraction and
periodic-equilibrium consistency on a large randomized population, the
two-queue hand oracle, optimality structure on cyclic tables, the qualitative
three-queue sweep, the exact stationary mean identities of the simulator at
two scales, cycle-length and cost convergence as the scale grows, a
lower-bound sanity check, and bitwise determinism.  Each check prints one
PASS/FAIL line; tolerances are pinned in the assertions.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

import pollctl as pc
from conftest import random_cyclic_params, random_instance, random_pwl_cost
from oracles import cycle_start_levels, pe_fixed_point
from pollctl.config import resolve_config, system_from

SEED = 0
POPULATION = 1000


@contextmanager
def criterion(capsys, name):
    state = {"note": ""}
    try:
        yield state
    except BaseException:
        with capsys.disabled():
            print(f"\n{name}: FAIL {state['note']}", flush=True)
        raise
    with capsys.disabled():
        print(f"\n{name}: PASS {state['note']}", flush=True)


@pytest.fixture(scope="module")
def instances():
    gen = np.random.default_rng(202408)
    return [random_instance(gen) for _ in range(POPULATION)]


@pytest.fixture(scope="module")
def symmetric():
    return pc.SystemParameters((1.0, 1.0), (4.0, 4.0), (0, 1), (1.0, 1.0))


def three_queue_config(interpretation: str, c3: float) -> dict:
    data = {
        "system": {
            "arrival_rates": [2.0, 2.0, 2.0],
            "service_rates": [8.0, 8.0, 8.0],
            "table": [1, 2, 3, 2, 3],
        },
        "cost": {"kind": "linear", "coefficients": [1.0, 1.0, c3]},
    }
    if interpretation == "per_stage":
        data["system"]["switchover_means"] = [2.0] * 5
    else:
        data["system"]["switchover_means_per_queue"] = [2.0] * 3
    return resolve_config(data)


@pytest.fixture(scope="module")
def three_queue_sweeps():
    """Optimal policies for the three-queue example, both switchover readings."""
    results = {}
    for interpretation in ("per_stage", "per_queue"):
        per_value = []
        for c3 in (2.0, 4.0, 6.0, 8.0, 12.0):
            resolved = three_queue_config(interpretation, c3)
            params = system_from(resolved["system"])
            psi = pc.linear_cost(resolved["cost"]["coefficients"])
            solution = pc.solve_rfcp(params, psi, (1,), budget=10, seed=SEED)
            pe = pc.pe_from_params(params, solution.control)
            per_value.append((c3, params, psi, solution, pe))
        results[interpretation] = per_value
    return results


@pytest.fixture(scope="module")
def mean_identity_runs(symmetric):
    """Simulations against one thinned control at scales 1 and 100."""
    control = pc.ControlParams(1, (1.0, 0.6))
    pe = pc.pe_from_params(symmetric, control)
    runs = {}
    for scale in (1, 100):
        scaled = pc.scaled_system(symmetric, scale)
        runs[scale] = pc.run(
            scaled,
            control,
            warmup_cycles=500,
            measured_cycles=10_000,
            seed=SEED,
        )
    return pe, runs


@pytest.fixture(scope="module")
def scale_sweep_runs(symmetric):
    """Exhaustive-policy simulations with the linear cost at growing scales."""
    control = pc.ControlParams.exhaustive(symmetric)
    psi = pc.linear_cost([1.0, 1.0])
    runs = {}
    for scale in (10, 100, 1000):
        scaled = pc.scaled_system(symmetric, scale)
        runs[scale] = pc.run(
            scaled,
            control,
            psi,
            warmup_cycles=500,
            measured_cycles=10_000,
            seed=SEED,
        )
    return control, psi, runs


def test_ac01_cycle_map_contraction(request, capsys):
    with criterion(capsys, "AC1 cycle-map contraction") as out:
        clock = time.perf_counter()
        population = request.getfixturevalue("instances")
        radii = []
        for params, control in population:
            radius = pc.spectral_radius(pc.cycle_map(params, control).matrix)
            assert radius < 1.0
            radii.append(radius)

        gen = np.random.default_rng(7)
        checked = 0
        index = 0
        skipped = 0
        while checked < 100:
            params, control = population[index % POPULATION]
            index += 1
            matrix = pc.cycle_map(params, control).matrix
            eigenvalues, basis = np.linalg.eig(matrix)
            if np.linalg.cond(basis) > 1e8:
                skipped += 1  # near-defective basis: ratio bound not exact
                continue
            radius = float(np.abs(eigenvalues).max())
            pe = pc.pe_from_params(params, control)
            fixed = pe.levels[0]
            floor = 1e-9 * (1.0 + np.abs(fixed).max())
            start = fixed + gen.uniform(0.5, 2.0, params.num_queues) * (
                1.0 + np.abs(fixed)
            )
            horizon = 6.0 * pe.cycle_time
            while True:
                # tours far from equilibrium run long; stretch until six fit
                traj = pc.simulate_fluid(params, control, start, horizon=horizon)
                if len(traj.cycle_start_times) >= 6:
                    break
                horizon *= 2.0
            inverse = np.linalg.inv(basis)
            errors = [
                float(np.abs(inverse @ (lv - fixed)).max())
                for lv in cycle_start_levels(traj)
            ]
            assert len(errors) >= 5
            for before, after in zip(errors, errors[1:]):
                if before <= floor:
                    break
                assert after <= (radius + 1e-6) * before
            checked += 1
        elapsed = time.perf_counter() - clock
        assert elapsed < 60.0
        out["note"] = (
            f"(1000 instances, max radius {max(radii):.4f}, 100 trajectories, "
            f"{skipped} near-defective redraws, {elapsed:.1f}s)"
        )


def test_ac02_pe_consistency(request, capsys):
    with criterion(capsys, "AC2 equilibrium consistency") as out:
        population = request.getfixturevalue("instances")
        strict = 0
        for params, control in population:
            mapping = pc.cycle_map(params, control)
            radius = pc.spectral_radius(mapping.matrix)
            fixed = pe_fixed_point(params, control)
            scale = 1.0 + float(np.abs(fixed).max())

            start = pc.pe_from_params(params, control).levels[0]
            assert np.abs(start - fixed).max() <= 1e-8 * scale

            level = np.zeros(params.num_queues)
            for _ in range(50):
                level = mapping(level)
            # the iteration error is exactly the 50-fold contracted initial
            # error; for radii up to 0.65 that is already below 1e-8 relative
            predicted = np.linalg.matrix_power(mapping.matrix, 50) @ (-fixed)
            assert np.abs((level - fixed) - predicted).max() <= 1e-8 * scale
            if radius <= 0.65:
                strict += 1
                assert np.abs(level - fixed).max() <= 1e-8 * scale

            pe = pc.pe_from_params(params, control)
            assert np.abs(pe.flow_balance_residual()).max() <= 1e-10
            rho, _ = pc.traffic_intensity(params)
            tau = (
                control.repetitions * sum(params.switchover_means) / (1.0 - rho)
            )
            assert pe.cycle_time == tau
        out["note"] = (
            f"(1000 instances, {strict} with radius <= 0.65 checked strictly)"
        )


def test_ac03_hand_oracle(symmetric, capsys):
    with criterion(capsys, "AC3 two-queue hand oracle") as out:
        control = pc.ControlParams.exhaustive(symmetric)
        pe = pc.pe_from_params(symmetric, control)
        assert np.abs(pe.levels[0] - np.array([3.0, 1.0])).max() < 1e-9
        assert abs(pe.cycle_time - 4.0) < 1e-9
        cost = pc.pe_average_cost(pe, pc.linear_cost([1.0, 1.0]))
        assert abs(cost - 3.0) < 1e-9
        start = tuple(float(v) for v in pe.levels[0])
        out["note"] = f"(start {start}, tau {pe.cycle_time}, cost {cost})"


def test_ac04_cyclic_exhaustive_optimality(capsys):
    with criterion(capsys, "AC4 cyclic exhaustive optimality") as out:
        gen = np.random.default_rng(404)
        linear_gaps = []
        for draw in range(100):
            params = random_cyclic_params(gen)
            single_piece = draw % 2 == 0
            psi = random_pwl_cost(gen, params.num_queues, single_piece)
            solution = pc.solve_rfcp(params, psi, (1,), budget=1, seed=SEED)
            exhaustive_cost = pc.control_cost(
                params, pc.ControlParams.exhaustive(params), psi
            )
            assert solution.repetitions == 1
            assert (
                abs(solution.cost - exhaustive_cost)
                <= 1e-5 * exhaustive_cost
            )
            assert np.abs(np.array(solution.ratios) - 1.0).max() <= 1e-3
            bound = pc.relaxation_bound_cyclic(params, 1, psi)
            assert solution.cost >= bound - 1e-9 * max(1.0, bound)
            if single_piece:
                gap = abs(solution.cost - bound) / max(1.0, bound)
                assert gap <= 1e-9
                linear_gaps.append(gap)
        out["note"] = (
            f"(100 instances, max linear bound gap {max(linear_gaps):.2e})"
        )


def test_ac05_three_queue_sweep(request, capsys):
    with criterion(capsys, "AC5 three-queue cost sweep") as out:
        clock = time.perf_counter()
        sweeps = request.getfixturevalue("three_queue_sweeps")
        notes = []
        for interpretation, per_value in sweeps.items():
            shares = []
            for c3, params, psi, solution, pe in per_value:
                # stage 2 (second table position) revisits queue 2 later, so
                # its first-visit served share is the lever the cost moves
                share = float(pc.visit_busy_shares(pe, 1)[0])
                shares.append(share)
                if c3 == 8.0:
                    assert solution.ratios[1] < 1.0 - 1e-3
            assert all(
                after <= before + 1e-9
                for before, after in zip(shares, shares[1:])
            )
            notes.append(
                f"{interpretation}: shares "
                + "/".join(f"{s:.3f}" for s in shares)
            )
        elapsed = time.perf_counter() - clock
        assert elapsed < 300.0
        out["note"] = f"({'; '.join(notes)}, {elapsed:.1f}s)"


def test_ac06_stationary_mean_identities(request, capsys):
    with criterion(capsys, "AC6 stationary mean identities") as out:
        pe, runs = request.getfixturevalue("mean_identity_runs")
        worst = 0.0
        for scale, result in runs.items():
            rows = pc.polling_epoch_stats(result, pe, batches=20)
            for row in rows:
                if row["kind"] not in ("polling_level", "busy_time"):
                    continue
                assert abs(row["z"]) < 4.0, (scale, row)
                worst = max(worst, abs(row["z"]))
        out["note"] = f"(scales 1 and 100, 10000 cycles, max |z| {worst:.2f})"


def test_ac07_cycle_length_mean(request, capsys):
    with criterion(capsys, "AC7 scaled cycle-length mean") as out:
        pe, runs = request.getfixturevalue("mean_identity_runs")
        gaps = {}
        for scale, result in runs.items():
            mean = float(result.durations.mean())
            gaps[scale] = abs(mean - pe.cycle_time) / pe.cycle_time
            assert gaps[scale] < 0.01
        out["note"] = (
            "(relative gaps "
            + ", ".join(f"n={n}: {g:.2e}" for n, g in gaps.items())
            + ")"
        )


def test_ac08_cost_converges_with_scale(request, capsys):
    with criterion(capsys, "AC8 cost convergence in scale") as out:
        clock = time.perf_counter()
        _, _, runs = request.getfixturevalue("scale_sweep_runs")
        target = 3.0
        gaps = []
        widths = []
        for scale in (10, 100, 1000):
            rate, half_width = pc.long_run_cost(runs[scale])
            gaps.append(abs(rate - target))
            widths.append(half_width)
        for j in range(len(gaps) - 1):
            assert gaps[j + 1] <= gaps[j] + widths[j] + widths[j + 1]
        assert gaps[-1] / target < 0.02
        elapsed = time.perf_counter() - clock
        assert elapsed < 600.0
        out["note"] = (
            "(gap% "
            + ", ".join(f"{100 * g / target:.3f}" for g in gaps)
            + f", {elapsed:.0f}s)"
        )


def test_ac09_lower_bound_sanity(request, capsys):
    with criterion(capsys, "AC9 fluid lower-bound sanity") as out:
        sweeps = request.getfixturevalue("three_queue_sweeps")
        c3, params, psi, solution, _ = next(
            entry for entry in sweeps["per_stage"] if entry[0] == 8.0
        )
        fluid_best = solution.cost
        scaled = pc.scaled_system(params, 500)

        estimates = {}
        for label, control in (
            ("exhaustive", pc.ControlParams.exhaustive(params)),
            ("optimal", solution.control),
        ):
            result = pc.run(
                scaled,
                control,
                psi,
                warmup_cycles=200,
                measured_cycles=400,
                seed=SEED,
            )
            estimates[label] = pc.long_run_cost(result)
        rate_ex, half_ex = estimates["exhaustive"]
        rate_op, half_op = estimates["optimal"]
        assert rate_ex >= fluid_best - 3.0 * half_ex
        assert abs(rate_op - fluid_best) <= 3.0 * half_op
        out["note"] = (
            f"(fluid optimum {fluid_best:.2f}, exhaustive sim {rate_ex:.2f}, "
            f"optimal sim {rate_op:.2f} +/- {half_op:.2f})"
        )


def test_ac10_determinism(request, capsys, tmp_path):
    with criterion(capsys, "AC10 bitwise determinism") as out:
        population = request.getfixturevalue("instances")
        # equilibrium computations: identical bytes on recomputation
        for params, control in population[:50]:
            first = pc.pe_from_params(params, control)
            second = pc.pe_from_params(params, control)
            assert first.levels.tobytes() == second.levels.tobytes()
            assert first.times.tobytes() == second.times.tobytes()

        # optimizer: identical solutions on repeated solves
        resolved = three_queue_config("per_stage", 8.0)
        params = system_from(resolved["system"])
        psi = pc.linear_cost(resolved["cost"]["coefficients"])
        repeat = pc.solve_rfcp(params, psi, (1,), budget=10, seed=SEED)
        reference = next(
            entry
            for entry in request.getfixturevalue("three_queue_sweeps")["per_stage"]
            if entry[0] == 8.0
        )[3]
        assert repeat.ratios == reference.ratios
        assert repeat.cost == reference.cost
        assert repeat.evaluations == reference.evaluations

        # simulations: fresh prefix runs reproduce the stored cycle records
        def digest(result, count):
            arrays = (
                result.durations[:count],
                result.polling_array[:count],
                result.busy_array[:count],
            )
            return b"".join(a.tobytes() for a in arrays)

        pe, identity_runs = request.getfixturevalue("mean_identity_runs")
        control_identity = identity_runs[1].control
        _, psi_sweep, sweep_runs = request.getfixturevalue("scale_sweep_runs")
        checks = [
            (identity_runs[1], None, 10_000),
            (identity_runs[100], None, 2_000),
            (sweep_runs[10], psi_sweep, 2_000),
            (sweep_runs[1000], psi_sweep, 1_000),
        ]
        for stored, psi_run, cycles in checks:
            fresh = pc.run(
                stored.scaled,
                stored.control,
                psi_run,
                warmup_cycles=500,
                measured_cycles=cycles,
                seed=SEED,
            )
            assert digest(fresh, cycles) == digest(stored, cycles)
            if psi_run is not None:
                assert (
                    fresh.costs[:cycles].tobytes()
                    == stored.costs[:cycles].tobytes()
                )

        # command line: full artifact comparison, metadata sidecar excluded
        import json

        from pollctl.cli import main

        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "system": {
                        "arrival_rates": [1.0, 1.0],
                        "service_rates": [4.0, 4.0],
                        "table": [1, 2],
                        "switchover_means": [1.0, 1.0],
                    },
                    "cost": {"kind": "linear", "coefficients": [1.0, 1.0]},
                    "simulation": {
                        "warmup_cycles": 50,
                        "measured_cycles": 200,
                        "record_path_cycles": 2,
                        "batches": 10,
                    },
                    "optimize": {"budget": 2},
                }
            ),
            "utf-8",
        )
        trees = []
        for tag in ("one", "two"):
            for command in ("pe", "optimize", "simulate"):
                dest = tmp_path / tag / command
                code = main(
                    [
                        command,
                        "--config",
                        str(config),
                        "--out",
                        str(dest),
                        "--seed",
                        "3",
                    ]
                )
                assert code == 0
            trees.append(
                {
                    str(p.relative_to(tmp_path / tag)): p.read_bytes()
                    for p in sorted((tmp_path / tag).rglob("*"))
                    if p.is_file() and p.name != "run_meta.json"
                }
            )
        assert trees[0] == trees[1]
        assert control_identity.ratios == (1.0, 0.6)
        out["note"] = "(equilibria, solver, simulator prefixes, CLI artifacts)"

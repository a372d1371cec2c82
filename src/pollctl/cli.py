"""Command-line interface.

Four subcommands cover the workflow: ``pe`` computes the periodic
equilibrium for an explicit control, ``optimize`` searches the control
space, ``simulate`` runs the discrete-event system and compares it against
the fluid predictions, and ``sweep`` re-optimises over a grid of one
configuration value, emitting plot-ready CSV.

Each command only computes: it returns its artefacts, by file name, and its
``run_meta.json`` counters, and ``main`` writes them all.  All data outputs
are byte-identical across runs with the same configuration and seed;
wall-clock metadata lives only in the ``run_meta.json`` sidecar.
Exit codes: 0 on success, 2 for configuration or validation errors, 1 for
runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    control_from,
    cost_from,
    load_config,
    rewrite_config,
    scaled_from,
    system_from,
)
from .des import long_run_cost, polling_epoch_stats, process_cpus, run
from .fluid import cycle_map, pe_from_params, spectral_radius, visit_busy_shares
from .model import ControlParams
from .rfcp import control_cost, exhaustive_shortcut, relaxation_bound_cyclic, solve_rfcp
from .rng import replication_seed


def _write(path: Path, artefact: dict | tuple) -> None:
    """Write a dict as JSON, or a ``(header, rows)`` pair as CSV."""
    if isinstance(artefact, dict):
        path.write_text(json.dumps(artefact, indent=2, sort_keys=True) + "\n", "utf-8")
        return
    header, rows = artefact
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _queue_columns(prefix: str, queues: int) -> list[str]:
    return [f"{prefix}{k + 1}" for k in range(queues)]


#: the columns of ``optimize_stages.csv``, and of ``sweep_stages.csv`` after
#: ``value``
_STAGE_COLUMNS = ["stage", "queue", "ratio", "busy_time", "busy_share"]


def _stage_rows(params, control: ControlParams, pe) -> list[list[Any]]:
    """Per-stage summary of a policy at its equilibrium (1-based indices)."""
    table = control.augmented_table(params)
    shares = np.empty(len(table))
    for k, stages in enumerate(table.visits):
        shares[stages] = visit_busy_shares(pe, k)
    return [
        [i + 1, queue + 1, control.ratios[i], float(pe.busy_times[i]), float(share)]
        for i, (queue, share) in enumerate(zip(table.polled.tolist(), shares))
    ]


def _cmd_pe(resolved: dict, args: argparse.Namespace) -> tuple[dict, dict]:
    params = system_from(resolved["system"])
    control = control_from(resolved["control"])
    psi = cost_from(resolved["cost"])
    pe = pe_from_params(params, control)
    summary = {
        "cycle_time": float(pe.cycle_time),
        "start_levels": [float(v) for v in pe.levels[0]],
        "busy_times": [float(v) for v in pe.busy_times],
        "queue_ratio_sums": [float(v) for v in control.queue_ratio_sums(params)],
        "flow_balance_residual": float(np.abs(pe.flow_balance_residual()).max()),
        "cycle_map_spectral_radius": spectral_radius(cycle_map(params, control).matrix),
        "average_cost": None if psi is None else control_cost(params, control, psi),
    }
    header = ["time", "kind", "stage"] + _queue_columns("q", params.num_queues)
    rows = [
        [float(t), kind, stage + 1] + [float(v) for v in levels]
        for t, (kind, stage), levels in zip(pe.times, pe.markers, pe.levels)
    ]
    return {"pe_breakpoints.csv": (header, rows), "pe_summary.json": summary}, {}


def _optimize(resolved: dict, seed: int):
    """Optimise the control of one resolved configuration with a cost.

    Returns the system, the solution, the winning policy's equilibrium and
    the ``run_meta.json`` counters: where every start of every search ended,
    whether the exhaustive shortcut settles the search, and the relaxation
    lower bound at the winning repetition count (``None`` where it does not
    apply).
    """
    params = system_from(resolved["system"])
    psi = cost_from(resolved["cost"])
    settings = resolved["optimize"]
    repetition_set = tuple(settings["repetition_set"])
    solution = solve_rfcp(
        params, psi, repetition_set, budget=settings["budget"], seed=seed
    )
    shortcut = exhaustive_shortcut(params, psi, repetition_set)
    try:
        bound = relaxation_bound_cyclic(params, solution.repetitions, psi)
    except ValueError:
        bound = None
    counters = {
        "searches": [
            {"repetitions": s.repetitions, "starts": [asdict(o) for o in s.starts]}
            for s in solution.searches
        ],
        "shortcut_applies": shortcut is not None,
        "relaxation_bound": bound,
    }
    return params, solution, pe_from_params(params, solution.control), counters


def _cmd_optimize(resolved: dict, args: argparse.Namespace) -> tuple[dict, dict]:
    if resolved["cost"] is None:
        raise ConfigError("optimize requires a cost section")
    params, solution, pe, counters = _optimize(resolved, args.seed)
    result = {
        "repetitions": solution.repetitions,
        "ratios": list(solution.ratios),
        "cost": solution.cost,
        "evaluations": solution.evaluations,
        "searches": [
            {
                "repetitions": s.repetitions,
                "ratios": list(s.ratios),
                "cost": s.cost,
                "evaluations": s.evaluations,
            }
            for s in solution.searches
        ],
        "shortcut_applies": counters["shortcut_applies"],
        "relaxation_bound": counters["relaxation_bound"],
    }
    stages = (_STAGE_COLUMNS, _stage_rows(params, solution.control, pe))
    return {"optimize_result.json": result, "optimize_stages.csv": stages}, counters


def _run_replication(payload: tuple[dict, int, int, int]) -> dict[str, Any]:
    """Worker: one simulation replication (top level for multiprocessing)."""
    resolved, rep_seed, record_cycles, cpus = payload
    params = system_from(resolved["system"])
    control = control_from(resolved["control"])
    psi = cost_from(resolved["cost"])
    sim = resolved["simulation"]
    scaled = scaled_from(resolved, params)
    # the equilibrium first, so that a numerical breakdown fails before any tour
    pe = pe_from_params(params, control)
    clock = time.perf_counter()
    result = run(
        scaled,
        control,
        psi,
        warmup_cycles=sim["warmup_cycles"],
        measured_cycles=sim["measured_cycles"],
        seed=rep_seed,
        record_path_cycles=record_cycles,
        cpus=cpus,
    )
    simulate_s = time.perf_counter() - clock
    stats = polling_epoch_stats(result, pe, batches=sim["batches"])
    payload_out: dict[str, Any] = {
        "seed": rep_seed,
        "warmup_cycles": result.warmup_cycles,
        "stats": stats,
        "cost_rate": None,
        "half_width": None,
        "path": None,
        "counters": {
            "warmup_cycles": result.warmup_cycles,
            "warmup_converged": result.warmup_converged,
            "tours": result.warmup_cycles + result.indices.size,
            "jobs_served": int(result.services.sum()),
            "cost_passes": result.cost_passes,
            "simulate_s": simulate_s,
            "refills_ahead": result.refills_ahead,
            "refill_wait_s": result.refill_wait_s,
            "drawn_inline": result.drawn_inline,
            "cycle_map_spectral_radius": spectral_radius(
                cycle_map(params, control).matrix
            ),
        },
    }
    if psi is not None:
        rate, half = long_run_cost(result, sim["batches"], sim["confidence"])
        payload_out["cost_rate"] = rate
        payload_out["half_width"] = half
    if result.path is not None:
        grid = np.linspace(0.0, result.path.end_time, 2001)
        sampled = result.path.sample(grid)
        fluid = pe.value_at(grid)
        payload_out["path"] = (grid, sampled, fluid)
    return payload_out


def ProcessPoolExecutor(max_workers: int):
    """The process pool ``simulate`` runs its replications on, imported on
    first use: ``concurrent.futures`` loads ``multiprocessing`` with it, which
    only a ``simulate`` with more than one worker needs."""
    import concurrent.futures

    return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)


def _worker_count(threads: int, replications: int) -> int:
    """Worker processes for ``simulate``: no more than replications or the
    CPUs the process may run on."""
    return min(threads, replications, process_cpus())


#: the columns of ``simulation_stats.csv`` after ``replication``; stage and
#: queue are 1-based there, which makes an aggregate row's -1 a 0
_STAT_COLUMNS = ["kind", "stage", "queue", "estimate", "std_error", "fluid", "z"]


def _cmd_simulate(resolved: dict, args: argparse.Namespace) -> tuple[dict, dict]:
    if args.replications < 1:
        raise ConfigError("--replications must be positive")
    if args.threads < 1:
        raise ConfigError("--threads must be positive")
    workers = _worker_count(args.threads, args.replications)
    # the worker processes share the CPUs, and a replication draws its
    # streams ahead on a thread only with a CPU of its own to spare
    cpus = max(1, process_cpus() // workers)
    record = resolved["simulation"]["record_path_cycles"]
    payloads = [
        (resolved, replication_seed(args.seed, j), record if j == 0 else 0, cpus)
        for j in range(args.replications)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_replication, payloads))
    else:
        results = [_run_replication(p) for p in payloads]
    stat_rows = [
        [j]
        + [row[c] + 1 if c in ("stage", "queue") else row[c] for c in _STAT_COLUMNS]
        for j, rep in enumerate(results)
        for row in rep["stats"]
    ]
    rates = [rep["cost_rate"] for rep in results if rep["cost_rate"] is not None]
    summary = {
        "replications": [
            {
                "seed": rep["seed"],
                "warmup_cycles": rep["warmup_cycles"],
                "cost_rate": rep["cost_rate"],
                "half_width": rep["half_width"],
            }
            for rep in results
        ],
        "pooled_cost_rate": float(np.mean(rates)) if rates else None,
    }
    artefacts = {
        "simulation_stats.csv": (["replication"] + _STAT_COLUMNS, stat_rows),
        "simulation_summary.json": summary,
    }
    path = results[0]["path"]
    if path is not None:
        grid, sampled, fluid = path
        queues = sampled.shape[1]
        header = (
            ["time"] + _queue_columns("q", queues) + _queue_columns("fluid_q", queues)
        )
        rows = [
            [float(t)] + [float(v) for v in sampled[i]] + [float(v) for v in fluid[i]]
            for i, t in enumerate(grid)
        ]
        artefacts["simulation_path.csv"] = (header, rows)
    return artefacts, {"replications": [rep["counters"] for rep in results]}


def _cmd_sweep(resolved: dict, args: argparse.Namespace) -> tuple[dict, dict]:
    sweep = resolved["sweep"]
    if sweep is None:
        raise ConfigError("sweep requires a sweep section")
    if resolved["cost"] is None:
        raise ConfigError("sweep requires a cost section")
    summary_rows, stage_rows, records, counters = [], [], [], []
    for index, value in enumerate(sweep["values"]):
        try:
            variant = rewrite_config(resolved, sweep["parameter"], value)
        except ValueError as exc:
            raise ConfigError(f"sweep.values[{index}] = {value}: {exc}") from exc
        params, solution, pe, found = _optimize(variant, args.seed)
        counters.append({"value": value, **found})
        summary_rows.append(
            [value, solution.repetitions, solution.cost, solution.evaluations]
        )
        stages = _stage_rows(params, solution.control, pe)
        stage_rows += [[value] + row for row in stages]
        records.append(
            {
                "value": value,
                "repetitions": solution.repetitions,
                "ratios": list(solution.ratios),
                "cost": solution.cost,
            }
        )
    artefacts = {
        "sweep_summary.csv": (
            ["value", "repetitions", "cost", "evaluations"],
            summary_rows,
        ),
        "sweep_stages.csv": (["value"] + _STAGE_COLUMNS, stage_rows),
        "sweep_result.json": {"parameter": sweep["parameter"], "results": records},
    }
    return artefacts, {"values": counters}


#: each command: the function that computes its artefacts and counters, the
#: ``run_meta.json`` phase that times it, and its help text
COMMANDS = {
    "pe": (_cmd_pe, "solve", "compute the periodic equilibrium of an explicit control"),
    "optimize": (
        _cmd_optimize,
        "solve",
        "search repetition counts and ratios for minimum cost",
    ),
    "simulate": (
        _cmd_simulate,
        "simulate",
        "run the discrete-event system and compare with fluid",
    ),
    "sweep": (
        _cmd_sweep,
        "solve",
        "re-optimise over a grid of one configuration value",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pollctl",
        description="Fluid analysis, control optimisation, and simulation "
        "of polling systems with binomial-exhaustive service.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="JSON configuration file")
        sub.add_argument("--out", default=None, help="output directory")
        sub.add_argument("--seed", type=int, default=0, help="master seed")
        if name == "simulate":
            sub.add_argument(
                "--replications", type=int, default=1, help="independent runs"
            )
            sub.add_argument(
                "--threads", type=int, default=1, help="worker processes"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, phase, _ = COMMANDS[args.command]
    out = Path(args.out if args.out is not None else f"pollctl_{args.command}")
    started = datetime.now(timezone.utc).isoformat()
    clock = time.perf_counter()
    try:
        if args.seed < 0:
            raise ConfigError("--seed must be a nonnegative integer")
        resolved = load_config(args.config)
        loaded = time.perf_counter()
        artefacts, counters = command(resolved, args)
        computed = time.perf_counter()
        manifest = {
            "command": args.command,
            "seed": args.seed,
            "outputs": sorted(artefacts),
            "config": resolved,
        }
        if args.command == "simulate":
            manifest["replications"] = args.replications
        out.mkdir(parents=True, exist_ok=True)
        for name, artefact in {**artefacts, "resolved_config.json": manifest}.items():
            _write(out / name, artefact)
        written = time.perf_counter()
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    phases = {"load": loaded - clock, "solve": 0.0, "simulate": 0.0}
    phases[phase] = computed - loaded
    phases["write"] = written - computed
    _write(
        out / "run_meta.json",
        {
            "version": __version__,
            "started_utc": started,
            "elapsed_seconds": time.perf_counter() - clock,
            "phases": phases,
            "counters": counters,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Four subcommands cover the workflow: ``pe`` computes the periodic
equilibrium for an explicit control, ``optimize`` searches the control
space, ``simulate`` runs the discrete-event system and compares it against
the fluid predictions, and ``sweep`` re-optimises over a grid of one
configuration value, emitting plot-ready CSV.

All data outputs are byte-identical across runs with the same configuration
and seed; wall-clock metadata lives only in the ``run_meta.json`` sidecar.
Exit codes: 0 on success, 2 for configuration or validation errors, 1 for
runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import contextmanager
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
from .cost import pe_average_cost
from .model import ControlParams
from .rfcp import exhaustive_shortcut, relaxation_bound_cyclic, solve_rfcp
from .rng import replication_seed


#: the phases ``run_meta.json`` times for every command
PHASES = ("load", "solve", "simulate", "write")


@contextmanager
def _phase(phases: dict[str, float], name: str):
    """Add the wall time of the ``with`` block to ``phases[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] += time.perf_counter() - start


def _write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _queue_columns(prefix: str, queues: int) -> list[str]:
    return [f"{prefix}{k + 1}" for k in range(queues)]


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


def _cmd_pe(resolved: dict, out: Path, seed: int, phases: dict) -> list[str]:
    with _phase(phases, "load"):
        params = system_from(resolved["system"])
        control = control_from(resolved["control"])
        psi = cost_from(resolved["cost"])
    with _phase(phases, "solve"):
        pe = pe_from_params(params, control)
        summary = {
            "cycle_time": float(pe.cycle_time),
            "start_levels": [float(v) for v in pe.levels[0]],
            "busy_times": [float(v) for v in pe.busy_times],
            "queue_ratio_sums": [
                float(v) for v in control.queue_ratio_sums(params)
            ],
            "flow_balance_residual": float(
                np.abs(pe.flow_balance_residual()).max()
            ),
            "cycle_map_spectral_radius": float(
                spectral_radius(cycle_map(params, control).matrix)
            ),
            "average_cost": pe_average_cost(pe, psi) if psi is not None else None,
        }

    with _phase(phases, "write"):
        header = ["time", "kind", "stage"] + _queue_columns("q", params.num_queues)
        rows = []
        for t, (kind, stage), levels in zip(pe.times, pe.markers, pe.levels):
            rows.append([float(t), kind, stage + 1] + [float(v) for v in levels])
        _write_csv(out / "pe_breakpoints.csv", header, rows)
        _write_json(out / "pe_summary.json", summary)
    return ["pe_breakpoints.csv", "pe_summary.json"]


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


def _cmd_optimize(
    resolved: dict, out: Path, seed: int, counters: dict[str, Any], phases: dict
) -> list[str]:
    if resolved["cost"] is None:
        raise ConfigError("optimize requires a cost section")
    with _phase(phases, "solve"):
        params, solution, pe, found = _optimize(resolved, seed)
    counters.update(found)
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
        "shortcut_applies": found["shortcut_applies"],
        "relaxation_bound": found["relaxation_bound"],
    }
    with _phase(phases, "write"):
        _write_json(out / "optimize_result.json", result)
        _write_csv(
            out / "optimize_stages.csv",
            ["stage", "queue", "ratio", "busy_time", "busy_share"],
            _stage_rows(params, solution.control, pe),
        )
    return ["optimize_result.json", "optimize_stages.csv"]


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
            "tours": result.warmup_cycles + len(result.records),
            "jobs_served": int(np.sum([r.services for r in result.records])),
            "cost_integrations": result.cost_integrations,
            "cost_passes": result.cost_passes,
            "simulate_s": simulate_s,
            "refills_ahead": result.refills_ahead,
            "refill_wait_s": result.refill_wait_s,
            "drawn_inline": result.drawn_inline,
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


def _cmd_simulate(
    resolved: dict,
    out: Path,
    seed: int,
    replications: int,
    threads: int,
    counters: dict[str, Any],
    phases: dict,
) -> list[str]:
    sim = resolved["simulation"]
    workers = _worker_count(threads, replications)
    # the worker processes share the CPUs, and a replication draws its
    # streams ahead on a thread only with a CPU of its own to spare
    cpus = max(1, process_cpus() // workers)
    payloads = [
        (
            resolved,
            replication_seed(seed, j),
            sim["record_path_cycles"] if j == 0 else 0,
            cpus,
        )
        for j in range(replications)
    ]
    with _phase(phases, "simulate"):
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_replication, payloads))
        else:
            results = [_run_replication(p) for p in payloads]
    with _phase(phases, "write"):
        stat_rows = []
        for j, rep in enumerate(results):
            for row in rep["stats"]:
                stat_rows.append(
                    [
                        j,
                        row["kind"],
                        row["stage"] + 1 if row["stage"] >= 0 else 0,
                        row["queue"] + 1 if row["queue"] >= 0 else 0,
                        row["estimate"],
                        row["std_error"],
                        row["fluid"],
                        row["z"],
                    ]
                )
        _write_csv(
            out / "simulation_stats.csv",
            [
                "replication",
                "kind",
                "stage",
                "queue",
                "estimate",
                "std_error",
                "fluid",
                "z",
            ],
            stat_rows,
        )

        counters["replications"] = [rep["counters"] for rep in results]
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
        _write_json(out / "simulation_summary.json", summary)
        outputs = ["simulation_stats.csv", "simulation_summary.json"]

        path = results[0]["path"]
        if path is not None:
            grid, sampled, fluid = path
            queues = sampled.shape[1]
            header = (
                ["time"]
                + _queue_columns("q", queues)
                + _queue_columns("fluid_q", queues)
            )
            rows = [
                [float(t)]
                + [float(v) for v in sampled[i]]
                + [float(v) for v in fluid[i]]
                for i, t in enumerate(grid)
            ]
            _write_csv(out / "simulation_path.csv", header, rows)
            outputs.append("simulation_path.csv")
    return outputs


def _cmd_sweep(
    resolved: dict, out: Path, seed: int, counters: dict[str, Any], phases: dict
) -> list[str]:
    sweep = resolved["sweep"]
    if sweep is None:
        raise ConfigError("sweep requires a sweep section")
    if resolved["cost"] is None:
        raise ConfigError("sweep requires a cost section")
    with _phase(phases, "solve"):
        summary_rows = []
        stage_rows = []
        records = []
        counters["values"] = []
        for value in sweep["values"]:
            variant = rewrite_config(resolved, sweep["parameter"], value)
            params, solution, pe, found = _optimize(variant, seed)
            counters["values"].append({"value": value, **found})
            summary_rows.append(
                [value, solution.repetitions, solution.cost, solution.evaluations]
            )
            for row in _stage_rows(params, solution.control, pe):
                stage_rows.append([value] + row)
            records.append(
                {
                    "value": value,
                    "repetitions": solution.repetitions,
                    "ratios": list(solution.ratios),
                    "cost": solution.cost,
                }
            )
    with _phase(phases, "write"):
        _write_csv(
            out / "sweep_summary.csv",
            ["value", "repetitions", "cost", "evaluations"],
            summary_rows,
        )
        _write_csv(
            out / "sweep_stages.csv",
            ["value", "stage", "queue", "ratio", "busy_time", "busy_share"],
            stage_rows,
        )
        _write_json(
            out / "sweep_result.json",
            {"parameter": sweep["parameter"], "results": records},
        )
    return ["sweep_summary.csv", "sweep_stages.csv", "sweep_result.json"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pollctl",
        description="Fluid analysis, control optimisation, and simulation "
        "of polling systems with binomial-exhaustive service.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("pe", "compute the periodic equilibrium of an explicit control"),
        ("optimize", "search repetition counts and ratios for minimum cost"),
        ("simulate", "run the discrete-event system and compare with fluid"),
        ("sweep", "re-optimise over a grid of one configuration value"),
    ):
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
    out = Path(args.out if args.out is not None else f"pollctl_{args.command}")
    started = datetime.now(timezone.utc).isoformat()
    clock = time.perf_counter()
    counters: dict[str, Any] = {}
    phases = dict.fromkeys(PHASES, 0.0)
    try:
        with _phase(phases, "load"):
            resolved = load_config(args.config)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "pe":
            outputs = _cmd_pe(resolved, out, args.seed, phases)
        elif args.command == "optimize":
            outputs = _cmd_optimize(resolved, out, args.seed, counters, phases)
        elif args.command == "simulate":
            if args.replications < 1:
                raise ConfigError("--replications must be positive")
            if args.threads < 1:
                raise ConfigError("--threads must be positive")
            outputs = _cmd_simulate(
                resolved,
                out,
                args.seed,
                args.replications,
                args.threads,
                counters,
                phases,
            )
        else:
            outputs = _cmd_sweep(resolved, out, args.seed, counters, phases)
        manifest = {
            "command": args.command,
            "seed": args.seed,
            "outputs": sorted(outputs),
            "config": resolved,
        }
        if args.command == "simulate":
            manifest["replications"] = args.replications
        with _phase(phases, "write"):
            _write_json(out / "resolved_config.json", manifest)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    _write_json(
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

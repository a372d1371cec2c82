"""pollctl benchmark: three CLI workloads, end-to-end metrics and a layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ``src/``.
A workload is a closed loop of in-process calls to ``pollctl.cli.main`` with
``--seed N``: the next call starts only when the previous one has returned.
Every run's outputs are checked.  With ``--trace 0`` the benchmark first
times ``SETUP_PROBES`` fresh set-ups, then repeats the workload and reports
the end-to-end metrics of BENCHMARK.json.  Each workload run's wall time is
scaled to a nominal machine speed by a reference task timed right before and
after it (``reference.py``).  With ``--trace 1`` it alternates untraced and
traced runs and reports the per-layer metrics.  The last line of standard
output is one JSON object; the full record, with every sample and span, is
written under ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_DIR = HERE / "workloads"
OUT = ROOT / ".bench_out"

# CLI subcommands one workload run issues, in order, on workloads/<name>.json.
WORKLOADS = {
    "optimize-revisit": ("optimize",),
    "simulate-s500": ("simulate",),
    "cyclic-pwl-s1": ("optimize", "simulate"),
}
SETUP_PROBES = 3
# Two runs at least, so that every benchmark compares two runs of one seed.
MIN_RUNS = 2
# One thread per BLAS/OpenMP pool: the closed loop is a single caller.
BLAS_PINNING = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def probe_setup(config: Path) -> float:
    """Seconds from starting a fresh interpreter to pollctl imported and the
    workload config resolved."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(config)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


@contextmanager
def captured_runs(cli):
    """Keep every SimulationResult the CLI computes, for the observable digest."""
    results: list = []
    if not hasattr(cli, "run"):
        yield results
        return
    original = cli.run

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    cli.run = keep
    try:
        yield results
    finally:
        cli.run = original


def run_cli(call, commands, config: Path, seed: int, work: Path):
    """Issue one workload run's CLI calls back to back.

    Returns the wall time and the failures: a non-zero exit or a traceback.
    """
    failures = []
    start = time.perf_counter()
    try:
        for command in commands:
            argv = [command, "--config", str(config), "--out", str(work / command)]
            argv += ["--seed", str(seed)]
            if command == "simulate":
                argv += ["--threads", "1"]
            code = call(argv)
            if code != 0:
                failures.append(f"pollctl {command} exited with {code}")
                break
    except Exception:  # a crash is one failed run, not the end of the benchmark
        failures.append(traceback.format_exc())
    return time.perf_counter() - start, failures


def check_run(commands, work: Path, resolved: dict, optimum, results):
    """Check one run's outputs.

    Returns its artefacts, the digest of its simulations, its optimum over
    the reference optimum (``None`` if it does not optimise) and the failures.
    """
    import checks

    outputs, ratio, failures = {}, None, []
    for command in commands:
        out = work / command
        outputs[command] = checks.artefacts(out)
        if command == "optimize":
            cost, found = checks.check_optimize(out, resolved)
            ratio = cost / optimum
        else:
            found = checks.check_simulate(out)
        failures += found
    digest = checks.observable_digest(results) if results else None
    return outputs, digest, ratio, failures


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "pollctl" / "__init__.py").is_file():
        print(f"bench: no pollctl sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PINNING)  # before NumPy is first imported
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import pollctl
    from pollctl import cli, rfcp
    from pollctl.config import load_config

    if Path(pollctl.__file__).resolve().parent != SRC / "pollctl":
        print(f"bench: pollctl imported from {pollctl.__file__}", file=sys.stderr)
        return 2
    import reference
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    commands = WORKLOADS[args.workload]
    config = WORKLOAD_DIR / f"{args.workload}.json"
    resolved = load_config(str(config))
    optimum = None
    if "optimize" in commands:
        optimum_file = WORKLOAD_DIR / f"{args.workload}.reference.json"
        optimum = json.loads(optimum_file.read_text("utf-8"))["cost"]

    tracer = tracing.Tracer({"cli": cli, "rfcp": rfcp})
    work = OUT / "work" / str(os.getpid())
    deadline = time.perf_counter() + args.seconds
    setup = [] if args.trace else [probe_setup(config) for _ in range(SETUP_PROBES)]
    reference.reference_seconds()  # first-call costs, not machine speed
    speed = [reference.reference_seconds()]

    runs: list[dict] = []
    layer_runs: list[dict] = []
    durations: dict[str, list[int]] = {"fluid": [], "cost": []}
    spans_out: list[list] = []
    first = None
    try:
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            call = functools.partial(tracer.main, cli.main) if traced else cli.main
            patches = tracer.installed() if traced else nullcontext()
            with patches, captured_runs(cli) as results:
                wall, failures = run_cli(call, commands, config, args.seed, work)
            speed.append(reference.reference_seconds())
            record = {
                "traced": traced,
                "wall_raw_s": wall,
                "wall_s": reference.normalised(wall, speed[-2], speed[-1]),
                "opt_ratio": None,
                "digest": None,
            }
            if not failures:
                try:
                    outputs, record["digest"], record["opt_ratio"], failures = check_run(
                        commands, work, resolved, optimum, results
                    )
                    if first is None:
                        first = (outputs, record["digest"])
                    elif (outputs, record["digest"]) != first:
                        failures.append("artefacts or digest differ from the first run")
                except Exception:
                    failures.append(traceback.format_exc())
            del results
            record["failures"] = failures
            for failure in failures:
                print(f"bench: run {len(runs)}: {failure}", file=sys.stderr)
            runs.append(record)

            if traced:
                spans = tracer.take()
                layer_runs.append(tracing.run_metrics(spans))
                for layer in durations:
                    durations[layer] += tracing.call_durations(spans, layer)
                spans_out.append([span[:4] for span in spans])

            if len(runs) >= MIN_RUNS:
                typical = statistics.median(r["wall_raw_s"] for r in runs)
                if time.perf_counter() + typical > deadline:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def samples(key: str, traced: bool = False) -> list:
        return [r[key] for r in runs if r["traced"] == traced and r[key] is not None]

    attempted = len(runs)
    failed = sum(1 for r in runs if r["failures"])
    if args.trace:
        values = tracing.layer_metrics(layer_runs, durations, tracer.present)
        # raw seconds, like every other per-layer time
        values["trace.overhead_s"] = statistics.median(
            samples("wall_raw_s", traced=True)
        ) - statistics.median(samples("wall_raw_s"))
        declared = spec["per_layer"]
    else:
        ratios = samples("opt_ratio")
        values = {
            "setup_s": statistics.median(setup),
            # the mean: with 3 to 7 runs it spread less across benchmarks than the median
            "wall_s": statistics.mean(samples("wall_s")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
            # 1 where nothing is optimised; the reference is the seed's optimum
            "opt_ratio": statistics.median(ratios) if ratios else 1.0,
        }
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    undeclared = set(values) - set(units)
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    absent = [name for name in units if name not in values]
    if absent:
        print(f"bench: absent (wrapped name missing): {absent}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": list(commands),
        "environment": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
            "blas_pinning": BLAS_PINNING,
        },
        "reference_optimum": optimum,
        "nominal_reference_s": reference.NOMINAL_S,
        "samples": {
            "setup_s": setup,
            "wall_s": samples("wall_s"),
            "wall_raw_s": samples("wall_raw_s"),
            "traced_wall_raw_s": samples("wall_raw_s", traced=True),
            "reference_s": speed,
            "opt_ratio": samples("opt_ratio") + samples("opt_ratio", traced=True),
        },
        "runs": runs,
        "absent_metrics": absent,
        "trace": {
            "absent_names": tracer.absent,
            "per_run": layer_runs,
            "span_fields": ["key", "parent", "start_ns", "end_ns"],
            "spans": spans_out,
        }
        if args.trace
        else None,
        "result": result,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record) + "\n", "utf-8")

    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

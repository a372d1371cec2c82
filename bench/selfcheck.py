"""Self-check of the benchmark: every workload at minimal length, both modes.

    python3 bench/selfcheck.py

Runs ``run.py --seconds 1`` (the fewest runs the benchmark makes) for every
workload with ``--trace 0`` and ``--trace 1``.  It checks that the last line
has exactly the result keys, that no run failed, and that every end-to-end or
per-layer metric of BENCHMARK.json is emitted with its unit.  From the result
file it also checks that the spans account for the work: on optimize-revisit
the fluid and cost spans plus ``rfcp.self_s`` cover ``rfcp.solve_s``, and on
simulate-s500 ``des.run_s`` covers the traced wall time, each to 90%.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0
COVERAGE = 0.9
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """Run one benchmark; return its result line and its result file."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    argv += ["--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        stdout, _ = proc.communicate(timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited with {proc.returncode}")
    name = f"{workload}-seed{SEED}-trace{trace}-{proc.pid}.json"
    record = json.loads((ROOT / ".bench_out" / "results" / name).read_text("utf-8"))
    return json.loads(stdout.strip().splitlines()[-1]), record


def check_result(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"failed runs: {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(expected):
        problems.append(f"metrics {sorted(set(metrics) ^ set(expected))} missing or extra")
    for name, metric in metrics.items():
        value = metric.get("value")
        if metric.get("unit") != expected.get(name):
            problems.append(f"{name}: unit {metric.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def span_seconds(spans: list[list], keys: set[str]) -> float:
    return sum(end - start for key, _, start, end in spans if key in keys) * 1e-9


def check_coverage(workload: str, record: dict) -> list[str]:
    layer = record["trace"]["per_run"][0]
    spans = record["trace"]["spans"][0]
    if workload == "optimize-revisit":
        covered = span_seconds(spans, {"rfcp.pe_from_params", "rfcp.pe_average_cost"})
        share = (covered + layer["rfcp.self_s"]) / layer["rfcp.solve_s"]
        what = "fluid + cost + rfcp.self_s of rfcp.solve_s"
    elif workload == "simulate-s500":
        share = layer["des.run_s"] / record["samples"]["traced_wall_raw_s"][0]
        what = "des.run_s of the traced wall time"
    else:
        return []
    if share < COVERAGE:
        return [f"{what} is {share:.3f}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, record = bench(workload, trace)
            found = check_result(result, declared)
            if trace:
                found += check_coverage(workload, record)
            problems += [f"{workload} --trace {trace}: {p}" for p in found]
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in layer trace of one benchmark run.

The tracer replaces module attributes that the CLI and the optimiser look up
at call time with timing wrappers, so it sees every call that crosses a layer
boundary without touching code under ``src/``.  Spans stay in memory as
``[key, parent, start_ns, end_ns, result]`` lists; ``layer_metrics`` derives
counts, totals and self times from them after the traced calls return.

A wrapped name that no longer exists is reported in ``absent`` and the
metrics that depend on it are left out, so the benchmark keeps running when
a layer is refactored.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

# (module, attribute, layer).  ``model``, ``distributions`` and ``rng`` are
# thin and are timed inside their callers.
WRAPPED = (
    ("cli", "load_config", "config"),
    ("cli", "solve_rfcp", "rfcp"),
    ("cli", "exhaustive_shortcut", "rfcp"),
    ("cli", "relaxation_bound_cyclic", "rfcp"),
    ("cli", "pe_from_params", "fluid"),
    ("cli", "run", "des"),
    ("cli", "polling_epoch_stats", "stats"),
    ("cli", "long_run_cost", "stats"),
    ("rfcp", "control_cost", "rfcp"),
    ("rfcp", "pe_from_params", "fluid"),
    ("rfcp", "pe_average_cost", "cost"),
)
MAIN = "cli.main"
LAYER = {f"{mod}.{attr}": layer for mod, attr, layer in WRAPPED}
LAYER[MAIN] = "cli"

# Wrapped calls whose return value the metrics read.
_KEEP_RESULT = {"cli.solve_rfcp", "cli.run"}

# Metric name -> wrapped keys it is computed from (any one suffices).
SOURCES = {
    "config.load_s": ("cli.load_config",),
    "fluid.pe_calls": ("cli.pe_from_params", "rfcp.pe_from_params"),
    "fluid.pe_us": ("cli.pe_from_params", "rfcp.pe_from_params"),
    "cost.avg_calls": ("rfcp.pe_average_cost",),
    "cost.avg_us": ("rfcp.pe_average_cost",),
    "rfcp.solve_s": ("cli.solve_rfcp",),
    "rfcp.evaluations": ("cli.solve_rfcp",),
    "rfcp.us_per_eval": ("cli.solve_rfcp",),
    "rfcp.self_s": ("cli.solve_rfcp",),
    "rfcp.shortcut_s": ("cli.exhaustive_shortcut",),
    "rfcp.bound_s": ("cli.relaxation_bound_cyclic",),
    "des.run_s": ("cli.run",),
    "des.jobs": ("cli.run",),
    "des.cycles": ("cli.run",),
    "des.stages": ("cli.run",),
    "des.ns_per_job": ("cli.run",),
    "des.us_per_stage": ("cli.run",),
    "stats.epoch_stats_s": ("cli.polling_epoch_stats",),
    "stats.long_run_cost_s": ("cli.long_run_cost",),
    "cli.self_s": (),
}
# Per-call medians, pooled over every traced run rather than per run.
PER_CALL = {"fluid.pe_us": ("fluid", 1e-3), "cost.avg_us": ("cost", 1e-3)}


class Tracer:
    """Timing wrappers on the names in ``WRAPPED`` and the spans they record."""

    def __init__(self, modules: dict) -> None:
        self._modules = modules
        self.present = {
            f"{mod}.{attr}" for mod, attr, _ in WRAPPED if hasattr(modules[mod], attr)
        }
        self.absent = sorted(set(LAYER) - self.present - {MAIN})
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack
        keep = key in _KEEP_RESULT
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [key, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if keep:
                span[4] = result
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every present name for the duration of the block."""
        originals = []
        for mod, attr, _ in WRAPPED:
            if f"{mod}.{attr}" in self.present:
                module = self._modules[mod]
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(f"{mod}.{attr}", original))
        try:
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def main(self, cli_main, argv: list[str]) -> int:
        """Call the CLI entry point inside a root span."""
        return self._wrap(MAIN, cli_main)(argv)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and empty the record."""
        spans = list(self.spans)
        self.spans.clear()  # in place: installed wrappers hold this list
        return spans


def _self_times(spans: list[list]) -> list[int]:
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def run_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced workload run."""
    totals: dict[str, int] = {}
    counts: dict[str, int] = {}
    for key, _, start, end, _ in spans:
        totals[key] = totals.get(key, 0) + end - start
        counts[key] = counts.get(key, 0) + 1

    def seconds(key: str) -> float:
        return totals.get(key, 0) * 1e-9

    # self time of rfcp-layer spans inside a solve: Nelder-Mead, penalty and
    # projection, i.e. solve time minus its fluid and cost spans
    own = _self_times(spans)
    in_solve = [False] * len(spans)
    rfcp_self = 0
    for i, (key, parent, _, _, _) in enumerate(spans):
        in_solve[i] = key == "cli.solve_rfcp" or (parent >= 0 and in_solve[parent])
        if in_solve[i] and LAYER[key] == "rfcp":
            rfcp_self += own[i]

    # a call that raised has no result to count
    solutions = [s[4] for s in spans if s[0] == "cli.solve_rfcp" and s[4] is not None]
    evaluations = sum(solution.evaluations for solution in solutions)
    solve_s = seconds("cli.solve_rfcp")
    runs = [s[4] for s in spans if s[0] == "cli.run" and s[4] is not None]
    measured = sum(len(r.records) for r in runs)
    jobs = sum(int(rec.services.sum()) for r in runs for rec in r.records)
    cycles = sum(r.warmup_cycles + len(r.records) for r in runs)
    stages = sum(
        (r.warmup_cycles + len(r.records)) * r.records[0].polling_levels.shape[0]
        for r in runs
    )
    run_s = seconds("cli.run")
    # jobs are counted in the measured cycles only; warmup cycles are
    # charged at the measured mean when converting to time per job
    all_jobs = jobs * cycles / measured if measured else 0.0
    return {
        "config.load_s": seconds("cli.load_config"),
        "fluid.pe_calls": counts.get("cli.pe_from_params", 0)
        + counts.get("rfcp.pe_from_params", 0),
        "cost.avg_calls": counts.get("rfcp.pe_average_cost", 0),
        "rfcp.solve_s": solve_s,
        "rfcp.evaluations": evaluations,
        "rfcp.us_per_eval": solve_s * 1e6 / evaluations if evaluations else 0.0,
        "rfcp.self_s": rfcp_self * 1e-9,
        "rfcp.shortcut_s": seconds("cli.exhaustive_shortcut"),
        "rfcp.bound_s": seconds("cli.relaxation_bound_cyclic"),
        "des.run_s": run_s,
        "des.jobs": jobs,
        "des.cycles": cycles,
        "des.stages": stages,
        "des.ns_per_job": run_s * 1e9 / all_jobs if all_jobs else 0.0,
        "des.us_per_stage": run_s * 1e6 / stages if stages else 0.0,
        "stats.epoch_stats_s": seconds("cli.polling_epoch_stats"),
        "stats.long_run_cost_s": seconds("cli.long_run_cost"),
        "cli.self_s": sum(t for s, t in zip(spans, own) if s[0] == MAIN) * 1e-9,
    }


def call_durations(spans: list[list], layer: str) -> list[int]:
    """Durations in ns of every span of one layer."""
    return [end - start for key, _, start, end, _ in spans if LAYER[key] == layer]


def layer_metrics(
    per_run: list[dict[str, float]], durations: dict[str, list[int]], present: set
) -> dict[str, float]:
    """Median over traced runs of each metric whose wrapped names exist.

    ``durations`` maps a layer to its pooled per-call durations in ns.
    """
    out = {}
    for name, sources in SOURCES.items():
        if sources and not present.intersection(sources):
            continue
        if name in PER_CALL:
            layer, factor = PER_CALL[name]
            calls = durations[layer]
            out[name] = statistics.median(calls) * factor if calls else 0.0
        else:
            out[name] = statistics.median(run[name] for run in per_run)
    return out

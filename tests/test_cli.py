from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from pollctl import cli, des
from pollctl import cost as cost_module
from pollctl.cli import main
from pollctl.config import control_from, cost_from, load_config, set_path, system_from
from pollctl.rfcp import control_cost


def write_config(tmp_path, extra=None, name="config.json"):
    data = {
        "system": {
            "arrival_rates": [1.0, 1.0],
            "service_rates": [4.0, 4.0],
            "table": [1, 2],
            "switchover_means": [1.0, 1.0],
        },
        "cost": {"kind": "linear", "coefficients": [1.0, 1.0]},
    }
    if extra:
        data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data), "utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def tree_bytes(root, skip=("run_meta.json",)):
    return {
        p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.name not in skip
    }


def test_pe_command_outputs(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "pe"
    assert main(["pe", "--config", str(config), "--out", str(out)]) == 0

    summary = json.loads((out / "pe_summary.json").read_text("utf-8"))
    assert summary["cycle_time"] == pytest.approx(4.0)
    assert summary["start_levels"] == pytest.approx([3.0, 1.0])
    assert summary["average_cost"] == pytest.approx(3.0)
    assert summary["cycle_map_spectral_radius"] == pytest.approx(1.0 / 9.0)
    assert summary["flow_balance_residual"] < 1e-10

    rows = read_csv(out / "pe_breakpoints.csv")
    assert rows[0] == ["time", "kind", "stage", "q1", "q2"]
    assert len(rows) == 6  # header + 2 stages x 2 epochs + closing poll
    assert rows[1][1:3] == ["poll", "1"]
    assert [float(v) for v in rows[-1][3:]] == pytest.approx([3.0, 1.0])

    manifest = json.loads((out / "resolved_config.json").read_text("utf-8"))
    assert manifest["command"] == "pe"
    assert manifest["outputs"] == ["pe_breakpoints.csv", "pe_summary.json"]
    assert manifest["config"]["system"]["table"] == [1, 2]
    assert (out / "run_meta.json").exists()


def test_optimize_command_outputs(tmp_path):
    config = write_config(tmp_path, {"optimize": {"budget": 2}})
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(config), "--out", str(out)]) == 0
    result = json.loads((out / "optimize_result.json").read_text("utf-8"))
    assert result["repetitions"] == 1
    assert result["cost"] == pytest.approx(3.0, rel=1e-6)
    assert result["shortcut_applies"] is True
    assert result["relaxation_bound"] == pytest.approx(3.0)
    assert result["evaluations"] > 0

    rows = read_csv(out / "optimize_stages.csv")
    assert rows[0] == ["stage", "queue", "ratio", "busy_time", "busy_share"]
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert [r[1] for r in rows[1:]] == ["1", "2"]


def test_optimize_and_sweep_report_every_start(tmp_path):
    config = write_config(
        tmp_path,
        {
            "system": README_CONFIG["system"],
            "cost": README_CONFIG["cost"],
            "optimize": {"repetition_set": [1, 2], "budget": 1},
            "sweep": {"parameter": "cost.coefficients.2", "values": [2, 8]},
        },
    )
    runs = {}
    for command in ("optimize", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        runs[command] = json.loads((out / "run_meta.json").read_text("utf-8"))
        # the data artefacts carry no per-start records
        assert all(b"success" not in data for data in tree_bytes(out).values())

    result = json.loads((tmp_path / "optimize" / "optimize_result.json").read_text())
    searches = runs["optimize"]["counters"]["searches"]
    assert [s["repetitions"] for s in searches] == [1, 2]
    for search, summary in zip(searches, result["searches"]):
        starts = search["starts"]
        assert len(starts) == 1 + 1
        assert sorted(starts[0]) == ["cost", "evaluations", "success"]
        assert sum(start["evaluations"] for start in starts) == summary["evaluations"]
        assert min(start["cost"] for start in starts) == summary["cost"]
        assert all(isinstance(start["success"], bool) for start in starts)

    rows = read_csv(tmp_path / "sweep" / "sweep_summary.csv")
    values = runs["sweep"]["counters"]["values"]
    assert [v["value"] for v in values] == [2, 8]
    for value, row in zip(values, rows[1:]):
        spent = sum(s["evaluations"] for search in value["searches"] for s in search["starts"])
        assert spent == int(row[3])



def test_optimize_and_sweep_report_shortcut_and_bound(tmp_path):
    # the cyclic default system settles by the shortcut and has a bound; the
    # revisit system has neither, and both say so in run_meta.json
    revisit = {"system": README_CONFIG["system"], "cost": README_CONFIG["cost"]}
    cases = {"cyclic": {}, "revisit": revisit}
    expected = {"cyclic": (True, pytest.approx(3.0)), "revisit": (False, None)}
    for name, extra in cases.items():
        sweep = {"parameter": "cost.coefficients.1", "values": [1.0, 2.0]}
        settings = {**extra, "optimize": {"budget": 0}, "sweep": sweep}
        config = write_config(tmp_path, settings, name=f"{name}.json")
        metas = {}
        for command in ("optimize", "sweep"):
            out = tmp_path / f"{name}-{command}"
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
            metas[command] = json.loads((out / "run_meta.json").read_text("utf-8"))
        result = json.loads(
            (tmp_path / f"{name}-optimize" / "optimize_result.json").read_text("utf-8")
        )
        counters = metas["optimize"]["counters"]
        shortcut, bound = expected[name]
        assert counters["shortcut_applies"] is result["shortcut_applies"] is shortcut
        assert counters["relaxation_bound"] == result["relaxation_bound"] == bound
        values = metas["sweep"]["counters"]["values"]
        assert [v["value"] for v in values] == [1.0, 2.0]
        assert [v["shortcut_applies"] for v in values] == [shortcut] * 2
        bounds = [v["relaxation_bound"] for v in values]
        if bound is None:
            assert bounds == [None, None]
        else:  # a dearer queue 2 raises the bound
            assert bounds[0] == counters["relaxation_bound"] < bounds[1]
        # the counters stay out of the sweep's data files
        data = tree_bytes(tmp_path / f"{name}-sweep").values()
        assert all(b"shortcut_applies" not in d for d in data)


def test_simulate_command_outputs(tmp_path):
    config = write_config(
        tmp_path,
        {
            "simulation": {
                "warmup_cycles": 20,
                "measured_cycles": 80,
                "record_path_cycles": 2,
                "batches": 8,
            }
        },
    )
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--config",
            str(config),
            "--out",
            str(out),
            "--replications",
            "2",
        ]
    )
    assert code == 0
    summary = json.loads((out / "simulation_summary.json").read_text("utf-8"))
    assert len(summary["replications"]) == 2
    seeds = [rep["seed"] for rep in summary["replications"]]
    assert len(set(seeds)) == 2
    assert all(rep["warmup_cycles"] == 20 for rep in summary["replications"])
    assert summary["pooled_cost_rate"] == pytest.approx(
        sum(r["cost_rate"] for r in summary["replications"]) / 2
    )

    rows = read_csv(out / "simulation_stats.csv")
    assert rows[0][:4] == ["replication", "kind", "stage", "queue"]
    kinds = {row[1] for row in rows[1:]}
    assert kinds == {"polling_level", "busy_time", "duration"}
    # aggregate rows use 0 for stage and queue; per-stage rows are 1-based
    duration_rows = [row for row in rows[1:] if row[1] == "duration"]
    assert all(row[2] == "0" and row[3] == "0" for row in duration_rows)

    path_rows = read_csv(out / "simulation_path.csv")
    assert path_rows[0] == ["time", "q1", "q2", "fluid_q1", "fluid_q2"]
    assert len(path_rows) == 2002

    counters = json.loads((out / "run_meta.json").read_text("utf-8"))["counters"]
    assert len(counters["replications"]) == 2
    for rep in counters["replications"]:
        assert rep["warmup_cycles"] == 20
        assert rep["warmup_converged"] is True
        assert rep["tours"] == 100
        assert rep["jobs_served"] > 0
    assert "counters" not in summary["replications"][0]


def test_simulate_reports_each_replications_run_time(tmp_path):
    config = write_config(
        tmp_path,
        {"simulation": {"warmup_cycles": 5, "measured_cycles": 40, "batches": 4}},
    )
    out = tmp_path / "timed"
    args = ["simulate", "--config", str(config), "--out", str(out)]
    assert main(args + ["--replications", "2"]) == 0
    meta = json.loads((out / "run_meta.json").read_text("utf-8"))
    times = [rep["simulate_s"] for rep in meta["counters"]["replications"]]
    assert len(times) == 2
    assert all(0.0 < s < meta["elapsed_seconds"] for s in times)
    summary = (out / "simulation_summary.json").read_text("utf-8")
    assert "simulate_s" not in summary


def test_simulate_reports_refills_ahead(tmp_path, monkeypatch):
    # every stream sent ahead, or none; the worker then makes every refill
    # it is sent
    config = write_config(
        tmp_path,
        {
            "simulation": {
                "scale": 3000,
                "warmup_cycles": 1,
                "measured_cycles": 8,
                "batches": 4,
                "record_path_cycles": 2,
            }
        },
    )
    result = des._RefillThread.result

    def from_worker(self, refill):
        refill[0].result()
        return result(self, refill)

    monkeypatch.setattr(des._RefillThread, "result", from_worker)
    trees, counters = {}, {}
    for ahead in (True, False):
        monkeypatch.setattr(
            des, "_drawn_ahead", lambda scaled, control, cpus: [ahead] * 3
        )
        out = tmp_path / f"ahead-{ahead}"
        args = ["simulate", "--config", str(config), "--out", str(out)]
        assert main(args + ["--replications", "2"]) == 0
        trees[ahead] = tree_bytes(out)
        meta = json.loads((out / "run_meta.json").read_text("utf-8"))
        counters[ahead] = meta["counters"]["replications"]
    assert trees[True] == trees[False]
    assert all(rep["refills_ahead"] > 0 for rep in counters[True])
    assert all(rep["refill_wait_s"] >= 0.0 for rep in counters[True])
    # each stream's first request is drawn before any refill is in flight
    assert all(rep["drawn_inline"] > 0 for rep in counters[True])
    assert all(
        rep["refills_ahead"] == 0
        and rep["refill_wait_s"] == 0.0
        and rep["drawn_inline"] == 0
        for rep in counters[False]
    )
    summary = (tmp_path / "ahead-True/simulation_summary.json").read_text("utf-8")
    assert "refill" not in summary and "drawn_inline" not in summary


def test_sweep_command_outputs(tmp_path):
    config = write_config(
        tmp_path,
        {
            "optimize": {"budget": 0},
            "sweep": {"parameter": "cost.coefficients.1", "values": [1.0, 2.0]},
        },
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = read_csv(out / "sweep_summary.csv")
    assert rows[0] == ["value", "repetitions", "cost", "evaluations"]
    assert [row[0] for row in rows[1:]] == ["1.0", "2.0"]
    assert float(rows[2][2]) > float(rows[1][2])  # dearer queue, dearer optimum

    result = json.loads((out / "sweep_result.json").read_text("utf-8"))
    assert result["parameter"] == "cost.coefficients.1"
    assert len(result["results"]) == 2
    stage_rows = read_csv(out / "sweep_stages.csv")
    assert stage_rows[0][0] == "value"
    assert len(stage_rows) == 1 + 2 * 2  # two stages per swept value


def test_repeated_runs_are_byte_identical(tmp_path):
    config = write_config(
        tmp_path,
        {
            "simulation": {
                "warmup_cycles": 10,
                "measured_cycles": 40,
                "record_path_cycles": 1,
                "batches": 4,
            }
        },
    )
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(config),
                    "--out",
                    str(out),
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
    assert tree_bytes(outs[0]) == tree_bytes(outs[1])


def test_error_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["pe", "--config", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {}, "unknown": 1}), "utf-8")
    assert main(["pe", "--config", str(bad)]) == 2

    # NaN in a cost, read by Python's ``json``, is a config error
    nan_cost = write_config(
        tmp_path, {"cost": {"kind": "linear", "coefficients": [math.nan, 1.0]}}
    )
    assert main(["pe", "--config", str(nan_cost), "--out", str(tmp_path / "n")]) == 2
    assert "cost.coefficients must be" in capsys.readouterr().err
    assert not (tmp_path / "n").exists()

    # an unhashable distribution kind is a config error, not a TypeError
    listed_kind = write_config(
        tmp_path, {"simulation": {"service_distribution": {"kind": ["gamma"]}}}
    )
    assert main(["pe", "--config", str(listed_kind), "--out", str(tmp_path / "k")]) == 2
    assert "simulation.service_distribution.kind must be" in capsys.readouterr().err

    no_cost = {
        "system": {
            "arrival_rates": [1.0, 1.0],
            "service_rates": [4.0, 4.0],
            "table": [1, 2],
            "switchover_means": [1.0, 1.0],
        }
    }
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(no_cost), "utf-8")
    assert main(["optimize", "--config", str(plain), "--out", str(tmp_path / "x")]) == 2
    assert main(["sweep", "--config", str(plain), "--out", str(tmp_path / "y")]) == 2

    config = write_config(tmp_path)
    assert (
        main(
            [
                "simulate",
                "--config",
                str(config),
                "--out",
                str(tmp_path / "z"),
                "--replications",
                "0",
            ]
        )
        == 2
    )


@pytest.mark.parametrize("command", ["pe", "optimize", "simulate", "sweep"])
def test_out_of_range_distribution_option_exits_as_config_error(
    tmp_path, capsys, command
):
    # the second, a lognormal cv whose square overflows, once passed the
    # config checks and raised at the first draw
    for section, kind, option, value in (
        ("switchover_distribution", "uniform", "width", 2.0),
        ("service_distribution", "lognormal", "cv", 1e155),
    ):
        config = write_config(
            tmp_path,
            {
                "simulation": {section: {"kind": kind, option: value}},
                "sweep": {"parameter": "cost.coefficients.1", "values": [2.0]},
            },
        )
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: simulation.{section}.{option} must" in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["pe", "optimize", "simulate", "sweep"])
def test_negative_seed_exits_as_config_error(tmp_path, capsys, command):
    config = write_config(
        tmp_path, {"sweep": {"parameter": "cost.coefficients.1", "values": [2.0]}}
    )
    out = tmp_path / "o"
    args = [command, "--config", str(config), "--out", str(out), "--seed", "-1"]
    assert main(args) == 2
    assert "error: --seed must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


#: a system that passes every configuration check, but whose equilibrium
#: solve loses the tour length to round-off
BREAKDOWN = {
    "system": {
        "arrival_rates": [0.4995, 0.4995],
        "service_rates": [1.0, 1.0],
        "table": [1, 2, 1, 2],
        "switchover_means": [1.0, 1.0, 1.0, 1.0],
    },
    "control": {"ratios": [1.0, 1e-9, 1.0, 1e-9]},
}


@pytest.mark.parametrize("command", ["pe", "simulate"])
def test_numerical_breakdown_exits_as_runtime_failure(
    tmp_path, capsys, monkeypatch, command
):
    # the equilibrium is built before the simulator runs a tour
    monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("a tour was run"))
    config = write_config(tmp_path, BREAKDOWN)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "runtime failure: tour duration disagrees with switchover budget" in err


def test_simulator_level_mismatch_exits_as_runtime_failure(
    tmp_path, capsys, monkeypatch
):
    # stop the busy period at the walk's first passage of drop + 1
    found = des._first_passage
    monkeypatch.setattr(
        des,
        "_first_passage",
        lambda p, t0, c, shift: found(p, t0, c, shift + 1),
    )
    config = write_config(
        tmp_path,
        {"simulation": {"warmup_cycles": 0, "measured_cycles": 5, "batches": 5}},
    )
    args = ["simulate", "--config", str(config), "--out", str(tmp_path / "s")]
    assert main(args) == 1
    assert "runtime failure: stage" in capsys.readouterr().err


PIECEWISE = {
    "kind": "piecewise_linear",
    "thresholds": [[0.0, 2.0], [0.0, 3.0]],
    "slopes": [[1.0, 5.0], [1.0, 3.0]],
}


def test_corrupted_block_merge_exits_as_runtime_failure(tmp_path, capsys, monkeypatch):
    # every tour bound after the first one slot late in the merged path
    found = cost_module._bound_slots
    monkeypatch.setattr(
        cost_module,
        "_bound_slots",
        lambda jumps: found(jumps) + (np.arange(jumps.size + 1) > 0),
    )
    config = write_config(
        tmp_path,
        {
            "cost": PIECEWISE,
            "simulation": {"warmup_cycles": 0, "measured_cycles": 5, "batches": 5},
        },
    )
    args = ["simulate", "--config", str(config), "--out", str(tmp_path / "s")]
    assert main(args) == 1
    assert "runtime failure: merged path holds" in capsys.readouterr().err


def test_corrupted_polling_levels_exit_as_runtime_failure(
    tmp_path, capsys, monkeypatch
):
    # one service too many at the block's end only, so only the rebuilt
    # levels at the tour bounds disagree
    found = des._served_before

    def off_by_one(served):
        before = found(served)
        before[-1] += 1
        return before

    monkeypatch.setattr(des, "_served_before", off_by_one)
    config = write_config(
        tmp_path,
        {"simulation": {"warmup_cycles": 0, "measured_cycles": 5, "batches": 5}},
    )
    args = ["simulate", "--config", str(config), "--out", str(tmp_path / "s")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "runtime failure: rebuilt polling levels disagree" in err


def test_run_meta_reports_phases_for_every_command(tmp_path):
    config = write_config(
        tmp_path,
        {
            "optimize": {"budget": 0},
            "simulation": {"warmup_cycles": 5, "measured_cycles": 40, "batches": 4},
            "sweep": {"parameter": "cost.coefficients.1", "values": [1.0, 2.0]},
        },
    )
    busiest = {
        "pe": "solve",
        "optimize": "solve",
        "simulate": "simulate",
        "sweep": "solve",
    }
    for command, phase in busiest.items():
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        meta = json.loads((out / "run_meta.json").read_text("utf-8"))
        phases = meta["phases"]
        assert sorted(phases) == ["load", "simulate", "solve", "write"]
        assert all(s >= 0.0 for s in phases.values())
        assert phases["load"] > 0.0 and phases["write"] > 0.0 and phases[phase] > 0.0
        idle = {"solve", "simulate"} - {phase}
        assert all(phases[name] == 0.0 for name in idle)
        assert sum(phases.values()) <= meta["elapsed_seconds"]
        # timings stay out of the data artefacts
        assert all(b"phases" not in data for data in tree_bytes(out).values())


def test_simulate_reports_cost_passes(tmp_path):
    simulation = {"warmup_cycles": 5, "measured_cycles": 40, "batches": 4}
    passes = {}
    for name, cost in (("piecewise", PIECEWISE), ("none", None)):
        config = write_config(
            tmp_path, {"cost": cost, "simulation": simulation}, name=f"{name}.json"
        )
        if cost is None:  # no cost section at all
            data = json.loads(config.read_text("utf-8"))
            del data["cost"]
            config.write_text(json.dumps(data), "utf-8")
        out = tmp_path / name
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        meta = json.loads((out / "run_meta.json").read_text("utf-8"))
        (rep,) = meta["counters"]["replications"]
        passes[name] = rep["cost_passes"]
    # one block for the warmup tours and one for the measured ones
    assert passes == {"piecewise": 2, "none": 0}


def test_simulate_builds_no_cycle_record(tmp_path, monkeypatch):
    # the counters come from the result's columns: a record built on the way
    # would raise
    results = []

    def kept(*args, **kwargs):
        results.append(des.run(*args, **kwargs))
        return results[-1]

    def no_record(*args, **kwargs):
        raise AssertionError("simulate built a CycleRecord")

    simulation = {
        "warmup_cycles": 7,
        "measured_cycles": 60,
        "record_path_cycles": 3,
        "batches": 4,
    }
    config = write_config(tmp_path, {"cost": PIECEWISE, "simulation": simulation})
    out = tmp_path / "sim"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "run", kept)
        patch.setattr(des, "CycleRecord", no_record)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text("utf-8"))
    (rep,) = meta["counters"]["replications"]
    (result,) = results
    assert rep["tours"] == result.warmup_cycles + len(result.records) == 67
    assert rep["jobs_served"] == int(np.sum([r.services for r in result.records]))


def test_simulate_workers_never_exceed_replications_or_cpus(monkeypatch):
    monkeypatch.setattr(cli, "process_cpus", lambda: 4)
    assert cli._worker_count(threads=64, replications=3) == 3
    assert cli._worker_count(threads=64, replications=100) == 4
    assert cli._worker_count(threads=2, replications=100) == 2
    # the CPUs the process may run on, not the machine's
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli, "process_cpus", lambda: 1)
    assert cli._worker_count(threads=8, replications=8) == 1


def test_simulate_shares_the_cpus_among_its_workers(tmp_path, monkeypatch):
    class InProcessPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    shares = []

    def run(*args, cpus, **kwargs):
        shares.append(cpus)
        return des.run(*args, cpus=cpus, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli, "run", run)
    monkeypatch.setattr(cli, "process_cpus", lambda: 8)
    config = write_config(
        tmp_path,
        {"simulation": {"warmup_cycles": 2, "measured_cycles": 8, "batches": 4}},
    )
    args = ["simulate", "--config", str(config), "--replications", "8"]
    for threads, share in ((1, 8), (2, 4), (3, 2), (8, 1), (64, 1)):
        shares.clear()
        out = tmp_path / f"threads-{threads}"
        assert main(args + ["--threads", str(threads), "--out", str(out)]) == 0
        assert shares == [share] * 8


def test_simulate_with_one_worker_runs_in_process(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single worker must not start a process pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    config = write_config(
        tmp_path,
        {"simulation": {"warmup_cycles": 5, "measured_cycles": 20, "batches": 4}},
    )
    args = ["simulate", "--config", str(config), "--threads", "8"]
    assert main(args + ["--out", str(tmp_path / "threads")]) == 0
    assert main(args[:-2] + ["--out", str(tmp_path / "single")]) == 0
    assert tree_bytes(tmp_path / "threads") == tree_bytes(tmp_path / "single")


def test_console_script_entry_point(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "script"
    proc = subprocess.run(
        [sys.executable, "-m", "pollctl.cli", "pe", "--config", str(config), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "pe_summary.json").exists()


#: the README's example config
README_CONFIG = {
    "system": {
        "arrival_rates": [2.0, 2.0, 2.0],
        "service_rates": [8.0, 8.0, 8.0],
        "table": [1, 2, 3, 2, 3],
        "switchover_means": [2.0, 2.0, 2.0, 2.0, 2.0],
    },
    "cost": {"kind": "linear", "coefficients": [1.0, 1.0, 8.0]},
    "optimize": {"repetition_set": [1, 2], "budget": 16},
    "simulation": {"scale": 100, "measured_cycles": 5000},
    "sweep": {"parameter": "cost.coefficients.2", "values": [2, 4, 6, 8, 12]},
}


def test_start_up_loads_no_process_pool_and_pe_no_scipy(tmp_path):
    config = tmp_path / "system.json"
    config.write_text(json.dumps(README_CONFIG), "utf-8")
    argv = ["pe", "--config", str(config), "--out", str(tmp_path / "pe")]
    code = (
        "import sys, pollctl.cli\n"
        "pools = ('multiprocessing', 'concurrent.futures')\n"
        "print([m for m in pools if m in sys.modules])\n"
        f"status = pollctl.cli.main({argv!r})\n"
        "print(status, [m for m in sys.modules if m.partition('.')[0] == 'scipy'])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0 []"]


@pytest.mark.parametrize("command", ["simulate", "optimize", "sweep"])
def test_simulate_with_a_cost_loads_no_scipy(tmp_path, command):
    config = tmp_path / "system.json"
    tiny = {
        **README_CONFIG,
        "optimize": {"repetition_set": [1, 2], "budget": 1},
        "simulation": {"scale": 1, "warmup_cycles": 10, "measured_cycles": 40, "batches": 4},
        "sweep": {"parameter": "cost.coefficients.2", "values": [2, 8]},
    }
    config.write_text(json.dumps(tiny), "utf-8")
    out = tmp_path / command
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "simulate":
        argv += ["--threads", "1"]
    code = (
        "import sys, pollctl.cli\n"
        f"status = pollctl.cli.main({argv!r})\n"
        "print(status, [m for m in sys.modules if m.partition('.')[0] == 'scipy'])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 []"]
    if command == "simulate":
        summary = json.loads((out / "simulation_summary.json").read_text("utf-8"))
        assert summary["replications"][0]["half_width"] > 0.0


def test_sweeping_an_integer_entry_matches_optimize_at_each_value(tmp_path, capsys):
    # a swept value is a float; written over an integer entry, or over the
    # unset budget, it is an integer again
    unset = {**README_CONFIG, "optimize": {"repetition_set": [1, 2], "budget": None}}
    sweeps = [
        (README_CONFIG, "optimize.budget", [0, 2]),
        (unset, "optimize.budget", [0, 2]),
        (README_CONFIG, "system.table.4", [2, 3]),
        (README_CONFIG, "optimize.repetition_set.0", [1, 2]),
    ]
    for n, (base, parameter, values) in enumerate(sweeps):
        sweep = {"parameter": parameter, "values": values}
        config = write_config(tmp_path, {**base, "sweep": sweep}, name=f"{n}.json")
        out = tmp_path / f"sweep-{n}"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        summary = read_csv(out / "sweep_summary.csv")[1:]
        stages = read_csv(out / "sweep_stages.csv")[1:]
        assert [float(row[0]) for row in summary] == values
        for value, row in zip(values, summary):
            data = copy.deepcopy(base)
            set_path(data, parameter, value)
            written = write_config(tmp_path, data, name=f"{n}-{value}.json")
            ref = tmp_path / f"optimize-{n}-{value}"
            assert main(["optimize", "--config", str(written), "--out", str(ref)]) == 0
            result = json.loads((ref / "optimize_result.json").read_text("utf-8"))
            assert [int(row[1]), float(row[2]), int(row[3])] == [
                result["repetitions"],
                result["cost"],
                result["evaluations"],
            ]
            assert [r[1:] for r in stages if float(r[0]) == value] == read_csv(
                ref / "optimize_stages.csv"
            )[1:]

    # a value that fails resolution is named with the error
    failing = [
        ("system.arrival_rates.0", [2.0, 5.0], "sweep.values[1] = 5.0: total load"),
        ("optimize.budget", [1.5], "sweep.values[0] = 1.5: optimize.budget must be"),
    ]
    for n, (parameter, values, message) in enumerate(failing):
        sweep = {"parameter": parameter, "values": values}
        config = write_config(tmp_path, {**README_CONFIG, "sweep": sweep})
        out = tmp_path / f"bad-{n}"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_manifest_lists_exactly_the_files_written(tmp_path):
    runs = [("pe", 0), ("optimize", 0), ("sweep", 0), ("simulate", 0), ("simulate", 2)]
    for command, record in runs:
        simulation = {
            "warmup_cycles": 5,
            "measured_cycles": 20,
            "batches": 4,
            "record_path_cycles": record,
        }
        sweep = {"parameter": "cost.coefficients.1", "values": [1.0, 2.0]}
        settings = {"optimize": {"budget": 0}, "simulation": simulation, "sweep": sweep}
        name = f"{command}-{record}"
        config = write_config(tmp_path, settings, name=f"{name}.json")
        out = tmp_path / name
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads((out / "resolved_config.json").read_text("utf-8"))
        written = sorted(
            p.name
            for p in out.iterdir()
            if p.name not in ("resolved_config.json", "run_meta.json")
        )
        assert manifest["outputs"] == written
        if command == "simulate":
            assert ("simulation_path.csv" in written) is (record > 0)


#: a small revisit system with a piecewise-linear cost that every command
#: runs on in ``test_every_artefact_keeps_its_pinned_bytes``
PINNED_CONFIG = {
    "system": README_CONFIG["system"],
    "cost": {
        "kind": "piecewise_linear",
        "thresholds": [[0.0, 2.0], [0.0, 3.0], [0.0, 2.0]],
        "slopes": [[1.0, 5.0], [1.0, 3.0], [2.0, 9.0]],
    },
    "optimize": {"budget": 0},
    "simulation": {
        "scale": 4,
        "warmup_cycles": 10,
        "measured_cycles": 40,
        "batches": 4,
        "record_path_cycles": 2,
    },
    "sweep": {"parameter": "cost.slopes.2.1", "values": [6.0, 9.0]},
}

#: SHA-256 of every artefact but ``run_meta.json``, from the CLI whose
#: commands still wrote their own files; ``pe_summary.json``'s from the ``pe``
#: that prices a policy with ``control_cost``
PINNED_ARTEFACTS = {
    "pe/pe_breakpoints.csv": (
        "6ddc64a408cd9f0dac9fcc6e7ad603ac"
        "eef37afa733b994b4f42fc806d41e7cc"
    ),
    "pe/pe_summary.json": (
        "69041070053e65a1a3b27272dc2cdd81"
        "0e710deafb1f5caf03acb4265c403007"
    ),
    "pe/resolved_config.json": (
        "a19be2e42c6bc60ddb8fde4184900ab1"
        "c37e3f53fcdcb9392e91954aaf98a6b5"
    ),
    "optimize/optimize_result.json": (
        "665145e96105915f70ea70ba83bf249d"
        "7de6abcc611a216fdb45960e06daa1c1"
    ),
    "optimize/optimize_stages.csv": (
        "2513eaeea695b3630896175566ab2cf3"
        "52392e2169bca248b199f0d1f485df66"
    ),
    "optimize/resolved_config.json": (
        "681ed5d3d41999711dd83a4bafcac2ab"
        "6e8d8a4d40e7ee08d1995cf01768c97a"
    ),
    "simulate/resolved_config.json": (
        "96bf071e5acad98cea87b9201b454822"
        "3025f8c6d779bf9fe48c77b474a92e43"
    ),
    "simulate/simulation_path.csv": (
        "276717913a74e0aebb3695475715a341"
        "a7b1a452c34dbd4a24e3ac8ea27193fd"
    ),
    "simulate/simulation_stats.csv": (
        "2e2216e00e3f681dad0a25a35ec8f2f2"
        "9e58caddb908f3bb45241b41ec7140c9"
    ),
    "simulate/simulation_summary.json": (
        "68b2851880b727794326ef1491100918"
        "7c7d2c671f0a105bd10b764d3a9e760b"
    ),
    "sweep/resolved_config.json": (
        "b985aa8cf8f3ac509fbc37ab2140934f"
        "6f94f64c250034722b0264b2f915ce9d"
    ),
    "sweep/sweep_result.json": (
        "bda4510b5f65c8d0a8f7d28b918211ce"
        "d524dda2d61fc3a002785f097f850a7f"
    ),
    "sweep/sweep_stages.csv": (
        "b0567d289869c25a1967e7dde78b4721"
        "35e7d28a2e84e0666d76b3bca0e4b4ef"
    ),
    "sweep/sweep_summary.csv": (
        "8c58c9c531b845369d05cb3f12421ce7"
        "30b44f15d2c04446b41d3de36fde3eaa"
    ),
}


def test_every_artefact_keeps_its_pinned_bytes(tmp_path):
    """Every command's artefacts keep their bytes.

    Like the simulator's pinned runs, the digests include LAPACK results:
    they hold under NumPy 2.4.6.
    """
    config = write_config(tmp_path, PINNED_CONFIG)
    for command in ("pe", "optimize", "simulate", "sweep"):
        argv = [command, "--config", str(config), "--out", str(tmp_path / command)]
        if command == "simulate":
            argv += ["--replications", "2"]
        assert main(argv) == 0
    digests = {
        f"{command}/{name}": hashlib.sha256(data).hexdigest()
        for command in ("pe", "optimize", "simulate", "sweep")
        for name, data in tree_bytes(tmp_path / command).items()
    }
    assert digests == PINNED_ARTEFACTS


WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"


@pytest.mark.parametrize(
    "name", ["cyclic-pwl-s1", "optimize-revisit", "simulate-s500", "readme", "pinned"]
)
def test_pe_reports_the_price_optimize_reports(tmp_path, name):
    # the breakpoint-orbit quadrature differs from it in the last digits
    if name in ("readme", "pinned"):
        config = write_config(
            tmp_path, README_CONFIG if name == "readme" else PINNED_CONFIG
        )
    else:
        config = WORKLOADS / f"{name}.json"
    out = tmp_path / "pe"
    assert main(["pe", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "pe_summary.json").read_text("utf-8"))
    resolved = load_config(config)
    price = control_cost(
        system_from(resolved["system"]),
        control_from(resolved["control"]),
        cost_from(resolved["cost"]),
    )
    assert summary["average_cost"].hex() == price.hex()


def test_simulate_reports_the_contraction_rate_pe_reports(tmp_path):
    small = {"scale": 1, "warmup_cycles": 10, "measured_cycles": 40, "batches": 4}
    config = write_config(tmp_path, {**README_CONFIG, "simulation": small})
    args = ["--config", str(config), "--out"]
    assert main(["pe", *args, str(tmp_path / "pe")]) == 0
    assert main(["simulate", *args, str(tmp_path / "sim"), "--replications", "2"]) == 0
    summary = json.loads((tmp_path / "pe" / "pe_summary.json").read_text("utf-8"))
    meta = json.loads((tmp_path / "sim" / "run_meta.json").read_text("utf-8"))
    reps = meta["counters"]["replications"]
    radii = [rep["cycle_map_spectral_radius"] for rep in reps]
    assert radii == [summary["cycle_map_spectral_radius"]] * 2
    assert 0.0 < radii[0] < 1.0

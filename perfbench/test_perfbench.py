"""Tests of the benchmark itself: smoke runs of every workload, injected
corruption that the checks must catch, and the determinism guards.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_end_to_end(workload):
    result = run.run(workload, seed=1, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_traced(workload):
    result = run.run(workload, seed=1, seconds=0, trace=True)
    assert result["correct"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("per_layer")
    assert (run.OUT / f"spans-{workload}.tsv").is_file()


def _inputs(workload, task):
    _, mods, inputs = run.set_up(workload, 1, 1)
    return mods, [i for i in inputs if i.task == task and "Y6,3" not in i.label]


def _drop_first_bag(inp, raw, mods):
    g, res = raw
    td = res.decomposition
    edges = tuple((a - 1, b - 1) for a, b in td.edges if 0 not in (a, b))
    broken = mods.treewidth.TreeDecomposition(td.bags[1:], edges, td.num_graph_vertices)
    return g, dataclasses.replace(res, decomposition=broken)


def _remove_witness_vertex(inp, raw, mods):
    g, b, cls, cert, td = raw
    w = cert.witness
    return g, b, cls, dataclasses.replace(cert, witness=w & (w - 1)), td


def _take_chip_off_winner(inp, raw, mods):
    if inp.task != "gonality":
        return raw
    g, res = raw
    chips = list(res.winning_divisor.chips)
    chips[next(v for v, c in enumerate(chips) if c)] -= 1
    winner = mods.chipfiring.Divisor(tuple(chips))
    return g, dataclasses.replace(res, winning_divisor=winner)


@pytest.mark.parametrize(
    "workload, task, corrupt",
    [
        ("tw_relabeled", "treewidth", _drop_first_bag),
        ("bramble_order", "bramble", _remove_witness_vertex),
        ("gonality", "gonality", _take_chip_off_winner),
    ],
)
def test_corruption_is_caught(workload, task, corrupt):
    mods, inputs = _inputs(workload, task)
    assert run.run_pass(inputs, mods).failed == 0
    p = run.run_pass(inputs, mods, corrupt=corrupt)
    assert p.failed == len(inputs) and len(p.latencies) == len(inputs)


def test_corruption_raises_fail_frac(capsys):
    result = run.run("bramble_order", 1, 0, False, corrupt=_remove_witness_vertex)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["checked_frac"]["value"] == 0
    assert "FAILED order(" in capsys.readouterr().out


def test_clock_ended_search_is_a_benchmark_error():
    mods, inputs = _inputs("tw_family", "treewidth")

    def stopped_by_clock(inp, raw, mods):
        g, res = raw
        return g, dataclasses.replace(res, proof_status="bounds_only", states=10)

    with pytest.raises(wl.BenchmarkError, match="clock"):
        run.run_pass(inputs[:1], mods, corrupt=stopped_by_clock)


def test_changed_counter_is_a_benchmark_error():
    ref = {"treewidth.states": 100}
    assert run.same_counters(ref, {"treewidth.states": 100}) == ref
    with pytest.raises(wl.BenchmarkError, match="treewidth.states"):
        run.same_counters(ref, {"treewidth.states": 101})


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90, 90.0)
    assert run.tail(samples[:10]) == (100, 10.0)


def test_counters_repeat_across_processes():
    def layer_counters():
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "gonality",
             "--seed", "3", "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, check=True,
        )
        metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if k in run.DETERMINISTIC}

    first = layer_counters()
    assert first["chipfiring.q_reduce_calls"] > 0
    assert layer_counters() == first


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gonality",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

"""Self-test of the benchmark at tiny size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.workloads import (WORKLOADS, Spans, compile_scale_topologies,
                                 fattree_flows_specs, fluid_churn_draws,
                                 generate_flows)
from repro.experiments.runner import RunContext

ROOT = run.ROOT
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
LISTED = [workload["name"] for workload in BENCHMARK["workloads"]]


def _cli(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", LISTED)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _cli("--workload", workload, "--seed", "2", "--seconds", "0",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if kind == "end_to_end":
            assert metric["value"] > 0


def _inputs(workload: str, seed: int):
    """What a workload's seed generates: flow sets, or compiled topologies."""
    if workload == "compile-scale":
        return [sorted(link.key for link in build().links)
                for _family, build in compile_scale_topologies(seed, "tiny")]
    if workload == "fattree-flows":
        specs = fattree_flows_specs(seed, "tiny")
        flow_sets = [spec for spec in specs if spec.system == specs[0].system]
    else:
        flow_sets = [draw[0] for draw in fluid_churn_draws(seed, "tiny")]
    topology = flow_sets[0].topology.build()
    return [[(flow.src_host, flow.dst_host, flow.size_packets, flow.start_time)
             for flow in generate_flows(spec, topology)]
            for spec in flow_sets]


@pytest.mark.parametrize("workload", LISTED)
def test_the_seed_picks_the_inputs(workload):
    first = _inputs(workload, 1)
    assert first == _inputs(workload, 1)
    assert first != _inputs(workload, 2)


def _summaries_match_the_runner(points, specs):
    context = RunContext(sanitize=False)
    by_name = {point.name: point for point in points}
    assert sorted(by_name) == sorted(spec.name for spec in specs)
    for spec in specs:
        assert (json.dumps(context.run(spec).summary)
                == json.dumps(by_name[spec.name].payload)), spec.name


def test_fattree_flows_times_the_runner_code():
    points = WORKLOADS["fattree-flows"].run_pass(1, Spans(), "tiny")
    _summaries_match_the_runner(points, fattree_flows_specs(1, "tiny"))


def test_fluid_churn_times_the_runner_code():
    points = WORKLOADS["fluid-churn"].run_pass(1, Spans(), "tiny")
    specs = [spec for draw in fluid_churn_draws(1, "tiny") for spec in draw]
    _summaries_match_the_runner(points, specs)


def test_a_wrong_digest_fails_the_check():
    point = WORKLOADS["compile-scale"].run_pass(1, Spans(), "tiny")[0]
    assert run.check_point(point, {point.name: point.digest()}) is None
    assert run.check_point(point, {point.name: "0" * 64}) is not None
    result = run.measure("compile-scale", 1, 0, False, "tiny",
                         expected={point.name: "0" * 64})
    assert result["correct"] is False
    assert result["failed"] == run.MIN_PASSES


def test_a_wrong_digest_makes_the_command_fail(monkeypatch, capsys):
    measure = run.measure
    wrong = {"compile:fattree:MU": "0" * 64}
    monkeypatch.setattr(run, "measure", lambda *args, **kwargs: measure(
        *args, **{**kwargs, "expected": wrong}))
    assert run.main(["--workload", "compile-scale", "--seconds", "0",
                     "--size", "tiny"]) == 1
    assert json.loads(capsys.readouterr().out)["failed"] == run.MIN_PASSES


def test_invariants_catch_impossible_outputs():
    point = WORKLOADS["fattree-flows"].run_pass(1, Spans(), "tiny")[0]
    point.payload["completed_flows"] = point.payload["flows"] + 1
    assert "more flows completed" in run.check_point(point, {})


def test_default_seed_digests_are_recorded():
    expected = run.load_expected()
    for name in LISTED:
        assert len(expected[name]) == WORKLOADS[name].points["full"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    def counts():
        metrics = run.measure(workload, 1, 0, True, "tiny")["metrics"]
        return {name: metric["value"] for name, metric in metrics.items()
                if metric["unit"] in ("count", "bytes", "kB")}

    first = counts()
    assert first == counts()
    assert any(first.values())


def test_traced_run_splits_time_by_layer():
    metrics = {name: metric["value"] for name, metric in
               run.measure("fluid-churn", 1, 0, True, "tiny")["metrics"].items()}
    for system in ("ecmp", "contra"):
        assert metrics[f"fluid.solver_calls.{system}"] > 0
        assert metrics[f"fluid.epoch.self_s.{system}"] > 0
        # No packets in the fluid plane: the packet layers stay idle.
        assert metrics[f"simulator.link.self_s.{system}"] == 0
        assert metrics[f"transport.self_s.{system}"] == 0
    assert metrics["trace.overhead_ratio"] > 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", LISTED[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

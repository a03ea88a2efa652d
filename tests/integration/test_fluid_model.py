"""Integration tests for the fluid flow model (ARCHITECTURE.md §7).

Four contract families:

* **fidelity** — fluid FCTs must track the packet oracle on small fabrics
  where both planes can run the identical workload.  Stated tolerances: the
  two planes see the *same flow set* (below the streaming threshold the
  fluid plane uses the eager generator), completion ratios stay ≥ 0.9, and
  the fluid median/p99 FCT stays within a 3×/4× band of the packet one.
  The bands are deliberately loose — the fluid model has no queueing, so
  its tails are structurally different — but tight enough to catch a unit
  mix-up or a broken solver outright.
* **local == global** — the per-epoch locality fast paths (arrival
  certificate, region-local re-solve) must reproduce the full progressive
  filling solve to 1e-9 relative on every summary statistic for
  utilization-independent systems.  (hula/contra may bifurcate on float-ulp
  utilization ties, so they are covered by the invariant harness instead.)
* **max-min invariant** — after *every* epoch, the current group rates must
  equal the global weighted max-min allocation of the current groups.
* **sharding** — fluid grid points shard, resume and merge byte-identically,
  exactly like packet points.
"""

import math

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.fluid_scale import (
    MILLION_CHURN_PERIOD,
    MILLION_FLOW_TARGET_QUICK,
    fluid_fidelity_specs,
    fluid_million_specs,
    to_fidelity_points,
)
from repro.experiments.registry import _with_flow_model, run_scenario
from repro.experiments.results import (
    ResultsStore,
    ShardedBackend,
    collect_results,
)
from repro.experiments.runner import (
    RunContext,
    ScenarioSpec,
    TopologySpec,
    default_failed_link,
    run_grid,
)
from repro.simulator.fluid import (
    FluidSimulation,
    FluidStats,
    build_path_model,
    max_min_rates,
)
from repro.topology import fattree
from repro.workloads import distribution_by_name, generate_workload

TINY = ExperimentConfig(workload_duration=1.5, run_duration=40.0, loads=(0.4,),
                        websearch_scale=0.05, cache_scale=0.2)


def small_workload(topology, load=0.6, duration=3.0, seed=2):
    return generate_workload(topology, distribution_by_name("web_search", 0.05),
                             load=load, duration=duration,
                             host_capacity=TINY.host_capacity, seed=seed).flows


def churned(simulation, topology):
    a, b = default_failed_link(topology)
    simulation.fail_link(a, b, at_time=1.0)
    simulation.recover_link(a, b, at_time=2.0)
    return simulation


# =============================================================================
# Fidelity oracle: fluid vs packet on fabrics both planes can run
# =============================================================================

class TestFluidVsPacketFidelity:
    @pytest.fixture(scope="class")
    def points(self):
        specs = [s for s in fluid_fidelity_specs(TINY) if s.load == 0.4]
        assert len(specs) == 8  # 2 fabrics x 2 systems x 2 planes
        return to_fidelity_points(run_grid(specs, processes=1))

    def test_both_planes_run_the_identical_flow_set(self, points):
        """Below the streaming threshold the fluid plane uses the same eager
        generator and seed as the packet plane, so the flow sets are equal —
        the comparison is paired, not merely distributionally matched."""
        for point in points:
            assert point.fluid_flows == point.packet_flows > 0

    def test_completion_ratios_stay_high_on_both_planes(self, points):
        for point in points:
            assert point.fluid_p50_ms == point.fluid_p50_ms, point  # not NaN
            assert point.packet_p50_ms == point.packet_p50_ms, point

    def test_fct_within_stated_tolerance_bands(self, points):
        """Stated fidelity tolerance: p50 within 3x, p99 within 4x of the
        packet oracle, both directions, on every (fabric, system) point."""
        assert {(p.fabric, p.system) for p in points} == {
            ("fattree", "ecmp"), ("fattree", "contra"),
            ("abilene", "shortest-path"), ("abilene", "contra")}
        for point in points:
            p50_ratio = point.fluid_p50_ms / point.packet_p50_ms
            p99_ratio = point.fluid_p99_ms / point.packet_p99_ms
            assert 1 / 3 <= p50_ratio <= 3.0, (point, p50_ratio)
            assert 1 / 4 <= p99_ratio <= 4.0, (point, p99_ratio)

    def test_missing_twin_is_an_error(self, points):
        specs = [s for s in fluid_fidelity_specs(TINY) if s.load == 0.4]
        results = run_grid(specs[:1], processes=1)
        with pytest.raises(ExperimentError, match="missing"):
            to_fidelity_points(results)


# =============================================================================
# Local fast paths vs forced global solve
# =============================================================================

class TestLocalGlobalDifferential:
    """The arrival certificate and region-local re-solve are *exactness*
    optimizations: for systems whose path choice cannot depend on
    utilization, the whole run must match a force-global run to 1e-9
    relative on every summary float (epoch counts may differ by the one
    certificate-skipped solve at the boundary)."""

    @pytest.mark.parametrize("system", ["ecmp", "shortest-path", "spain"])
    def test_summaries_match_to_1e9_with_link_events(self, system):
        topology = fattree(4, capacity=TINY.host_capacity)
        flows = small_workload(topology)
        summaries = []
        for force_global in (False, True):
            model = build_path_model(system, topology, policy="datacenter")
            simulation = FluidSimulation(topology, model, stats=FluidStats(),
                                         force_global_solve=force_global)
            simulation.add_flows(flows)
            churned(simulation, topology)
            stats = simulation.run(40.0, stop_after_completion=True)
            summaries.append(stats.summary())
        local, forced = summaries
        assert set(local) == set(forced)
        assert abs(local.pop("epochs") - forced.pop("epochs")) <= 2
        for key, value in local.items():
            assert value == pytest.approx(forced[key], rel=1e-9, abs=1e-12), key


# =============================================================================
# Per-epoch max-min invariant (covers hula/contra too)
# =============================================================================

class InvariantCheckedSimulation(FluidSimulation):
    """Re-verifies the global weighted max-min allocation after every epoch.

    hula/contra can legitimately diverge from a force-global twin run (a
    float-ulp utilization tie picks a different path, bifurcating the
    trajectories), so for them the correctness statement is this invariant:
    whatever groups exist, their rates are the max-min allocation.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.epochs_verified = 0

    def _resched(self, now):
        super()._resched(now)
        groups = {path: group for path, group in self._groups.items()
                  if group.count}
        if not groups:
            return
        capacity = self.fabric.capacity
        capacities = {link: capacity[link]
                      for path in groups for link in path}
        expected = max_min_rates(
            {path: path for path in groups}, capacities,
            {path: group.count for path, group in groups.items()},
            {path: group.rate_cap for path, group in groups.items()})
        for path, group in groups.items():
            assert math.isclose(group.rate, expected[path],
                                rel_tol=1e-9, abs_tol=1e-9), \
                (path, group.rate, expected[path])
        self.epochs_verified += 1


class TestMaxMinInvariant:
    @pytest.mark.parametrize("system", ["contra", "hula", "ecmp"])
    def test_every_epoch_is_maxmin_under_churn(self, system):
        topology = fattree(4, capacity=TINY.host_capacity)
        model = build_path_model(system, topology, policy="datacenter")
        simulation = InvariantCheckedSimulation(topology, model,
                                                stats=FluidStats())
        simulation.add_flows(small_workload(topology))
        churned(simulation, topology)
        stats = simulation.run(40.0, stop_after_completion=True)
        assert simulation.epochs_verified > 100
        assert stats.summary()["completion_ratio"] > 0.9


# =============================================================================
# Per-switch flow sketch: one hash per flow
# =============================================================================

def reference_sketch_flow(simulation, state, path):
    """The placement loop before flows carried their sketch slot: it offered
    the flow id to every switch's sketch, re-hashing it per switch."""
    link_switch = simulation._link_switch
    record = simulation.stats.record_switch_flow
    for link in path:
        switch = link_switch[link]
        if switch is not None:
            record(switch, state.uid)


class TestFlowSketchSlots:
    @pytest.mark.parametrize("system", ["ecmp", "contra"])
    def test_churn_point_matches_per_switch_hashing(self, system, monkeypatch):
        topology = fattree(4, capacity=TINY.host_capacity)
        flows = small_workload(topology)

        def run():
            model = build_path_model(system, topology, policy="datacenter")
            stats = FluidStats(flow_sketch=True)
            simulation = FluidSimulation(topology, model, stats=stats)
            simulation.add_flows(flows)
            churned(simulation, topology)
            simulation.run(40.0, stop_after_completion=True)
            registers = {name: bytes(sketch._registers)
                         for name, sketch in stats._flow_sketches.items()}
            return stats.summary(), registers

        summary, registers = run()
        monkeypatch.setattr(FluidSimulation, "_sketch_flow", reference_sketch_flow)
        expected_summary, expected_registers = run()
        keys = [key for key in summary if key.startswith("flow_sketch_")]
        assert keys == ["flow_sketch_switches", "flow_sketch_max_flows",
                        "flow_sketch_mean_flows"]
        assert summary["flow_sketch_switches"] == len(registers) > 10
        assert registers == expected_registers
        assert summary == expected_summary


# =============================================================================
# Sharding / resume / merge for fluid grids
# =============================================================================

class TestFluidSharding:
    def _specs(self):
        return [s for s in fluid_fidelity_specs(TINY)
                if s.load == 0.4 and "fattree" in s.name]

    def test_shards_union_to_the_serial_run(self, tmp_path):
        specs = self._specs()
        serial = run_grid(specs, processes=1)
        for index in range(2):
            run_grid(specs, backend=ShardedBackend(ResultsStore(tmp_path, index, 2)))
        merged = collect_results(specs, ResultsStore(tmp_path))
        assert merged == serial

    def test_resume_skips_completed_fluid_points(self, tmp_path):
        specs = self._specs()
        first = ShardedBackend(ResultsStore(tmp_path))
        first.run(specs)
        assert first.executed == len(specs)
        second = ShardedBackend(ResultsStore(tmp_path))
        resumed = second.run(specs)
        assert second.executed == 0
        assert resumed == collect_results(specs, ResultsStore(tmp_path))


# =============================================================================
# Dispatch, validation and the --flow-model override
# =============================================================================

class TestFlowModelDispatch:
    def _spec(self, **overrides):
        base = dict(name="fluid-test", system="contra",
                    topology=TopologySpec("fattree", k=4,
                                          capacity=TINY.host_capacity,
                                          oversubscription=TINY.oversubscription),
                    config=TINY, workload="web_search", load=0.4,
                    seed=1, stop_after_completion=True, flow_model="fluid")
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_unknown_flow_model_rejected(self):
        with pytest.raises(ExperimentError, match="unknown flow model"):
            RunContext().run(self._spec(flow_model="quantum"))

    def test_flow_sketch_requires_fluid(self):
        with pytest.raises(ExperimentError, match="flow_sketch requires"):
            RunContext().run(self._spec(flow_model="packet", flow_sketch=True))

    @pytest.mark.parametrize("overrides,match", [
        (dict(system="presto"), "does not support system"),
        (dict(traffic="streams"), "constant-rate"),
        (dict(transport="reliable"), "no fluid-plane equivalent"),
        (dict(cdf_points=(0.5,)), "no fluid-plane equivalent"),
        (dict(collect_throughput=True), "no fluid-plane equivalent"),
        (dict(probe_period=0.5), "no fluid-plane equivalent"),
        (dict(respect_compiled_probe_period=True), "no fluid-plane equivalent"),
        (dict(use_versioning=False), "no fluid-plane equivalent"),
    ])
    def test_packet_only_knobs_fail_loudly_on_the_fluid_plane(self, overrides, match):
        with pytest.raises(ExperimentError, match=match):
            RunContext().run(self._spec(**overrides))

    def test_override_applies_to_a_packet_grid(self):
        specs = [self._spec(flow_model="packet")]
        overridden = _with_flow_model("x", specs, "fluid")
        assert all(s.flow_model == "fluid" for s in overridden)
        assert _with_flow_model("x", specs, None) == specs
        assert _with_flow_model("x", specs, "packet") == specs

    def test_override_rejected_when_the_grid_pins_flow_models(self):
        for scenario in ("fluid-vs-packet", "fluid-million"):
            with pytest.raises(ExperimentError, match="cannot override"):
                run_scenario(scenario, TINY, flow_model="packet")

    def test_override_rejected_for_legacy_scenarios(self):
        with pytest.raises(ExperimentError, match="not a single spec grid"):
            run_scenario("fig9-10", TINY, flow_model="fluid")

    def test_cli_exposes_the_flag(self):
        from repro.cli import build_parser
        parser = build_parser()
        for command in (["run-grid", "fig11"],
                        ["merge-results", "fig11", "--results-dir", "r"],
                        ["gc-results", "fig11", "--results-dir", "r"]):
            args = parser.parse_args(command + ["--flow-model", "fluid"])
            assert args.flow_model == "fluid"
        with pytest.raises(SystemExit):
            parser.parse_args(["run-grid", "fig11", "--flow-model", "hybrid"])


# =============================================================================
# Million-flow family: structural contract (the run itself is a benchmark)
# =============================================================================

class TestFluidMillionSpecs:
    def test_quick_preset_targets_the_quick_flow_count(self):
        specs = fluid_million_specs(TINY)
        assert [s.system for s in specs] == ["ecmp", "contra"]
        for spec in specs:
            assert spec.flow_model == "fluid"
            assert spec.flow_sketch is True
            assert spec.name.endswith(str(MILLION_FLOW_TARGET_QUICK))
            assert spec.topology.k == 8
            assert spec.topology.oversubscription == 1.0
            assert spec.config.host_window == 8

    def test_churn_alternates_and_ends_recovered(self):
        spec = fluid_million_specs(TINY)[0]
        actions = [event.action for event in spec.events]
        assert actions[::2] == ["fail"] * len(actions[::2])
        assert actions[1::2] == ["recover"] * len(actions[1::2])
        assert actions[-1] == "recover"
        times = [event.time for event in spec.events]
        assert times == sorted(times)
        assert times[0] == MILLION_CHURN_PERIOD

    def test_duration_is_sized_from_the_flow_target(self):
        quick, custom = fluid_million_specs(TINY)[0], \
            fluid_million_specs(TINY, systems=("contra",), flow_target=200_000)[0]
        assert custom.config.workload_duration \
            == pytest.approx(2 * quick.config.workload_duration)

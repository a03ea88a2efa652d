"""The benchmark's workloads as direct call sequences into each layer.

A workload is a function ``(seed, spans, size, points) -> points`` that
performs one *pass*: it builds every grid point of the workload from scratch
through the public entry point of each layer and runs it to completion (a
closed load: one point at a time, serial, in this process), appending each
finished point to ``points`` so that a pass which raises keeps what it
finished.  Each call is wrapped in a
:class:`Spans` span named after the layer it enters, so the caller can read
set-up, run and summary time per system without instrumenting the program.

The call sequences mirror ``RunContext.run`` for the same specs; the test
suite checks that they reproduce ``RunContext().run(spec).summary`` byte for
byte, so the benchmark times the code users run.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.compiler import compile_policy
from repro.core.p4gen import generate_all_p4
from repro.experiments.config import quick_config
from repro.experiments.fct import fattree_fct_specs
from repro.experiments.fluid_scale import fluid_million_specs
from repro.experiments.runner import (POLICY_BUILDERS, LinkEvent,
                                      ScenarioSpec, build_routing_system,
                                      default_failed_link)
from repro.experiments.scalability import scalability_policies
from repro.simulator import Network, StatsCollector
from repro.simulator.fluid import FluidSimulation, FluidStats, build_path_model
from repro.topology.fattree import fattree_for_switch_count
from repro.topology.graph import Topology
from repro.topology.random_graphs import random_network
from repro.workloads import distribution_by_name, generate_workload

#: The seed whose per-point output digests are recorded in expected.json.
DEFAULT_SEED = 1

#: Span names that count as set-up: everything before a point's first
#: simulated event.
SETUP_PHASES = ("topology", "compile", "p4gen", "workload", "network_build",
                "path_model")
#: Span names a traced pass profiles under the point's run profiler.
RUN_PHASES = ("run", "summary")

SIZES = ("full", "tiny")


class Spans:
    """Host seconds per ``(phase, system)`` around the benchmark's own calls.

    With ``profile=True`` every span also runs under a ``cProfile`` profiler
    keyed by ``("setup" | "run", system)``, so self time can later be split
    by module per system and per phase.  With ``setup_only=True`` a pass
    builds every point but runs none, which samples set-up time cheaply.
    """

    def __init__(self, profile: bool = False, setup_only: bool = False) -> None:
        self.setup_only = setup_only
        #: ``(phase, system, seconds)`` per span, in call order.  A workload
        #: makes the same calls in every pass of one seed, so entry ``i``
        #: of two passes' logs times the same call.
        self.log: List[Tuple[str, str, float]] = []
        self.profiles: Dict[Tuple[str, str], cProfile.Profile] = {}
        self._profile = profile

    @contextmanager
    def __call__(self, phase: str, system: str = ""):
        profiler = None
        if self._profile:
            kind = "run" if phase in RUN_PHASES else "setup"
            profiler = self.profiles.setdefault((kind, system), cProfile.Profile())
            profiler.enable()
        started = time.perf_counter()
        try:
            yield
        finally:
            self.log.append((phase, system, time.perf_counter() - started))
            if profiler is not None:
                profiler.disable()

    def total(self, phases: Optional[Sequence[str]] = None,
              system: Optional[str] = None) -> float:
        """Seconds summed over the given phases (all if None) and system."""
        return sum(seconds for phase, sys_name, seconds in self.log
                   if selects(phase, sys_name, phases, system))


def selects(phase: str, system: str, phases: Optional[Sequence[str]],
            wanted: Optional[str]) -> bool:
    """Whether a span is one of ``phases`` (any if None) of ``wanted``."""
    return ((phases is None or phase in phases)
            and (wanted is None or system == wanted))


@dataclass
class Point:
    """One completed grid point: its output and the work it did."""

    name: str
    system: str
    #: ``summary()`` of a simulation point; compile facts of a compile point.
    payload: Dict
    #: Engine events processed (simulation points only).
    events: int = 0
    #: Flows the point's workload generator produced (first user only).
    flows: int = 0

    @property
    def is_simulation(self) -> bool:
        return "completion_ratio" in self.payload

    def digest(self) -> str:
        text = json.dumps(self.payload, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def workload_scale(spec: ScenarioSpec) -> float:
    """The flow-size scale ``RunContext`` applies to a spec's workload."""
    if spec.workload_scale is not None:
        return spec.workload_scale
    return {"web_search": spec.config.websearch_scale,
            "cache": spec.config.cache_scale}.get(spec.workload, 1.0)


def generate_flows(spec: ScenarioSpec, topology: Topology):
    """The flow list ``RunContext`` generates for a ``traffic="flows"`` spec."""
    config = spec.config
    return generate_workload(
        topology, distribution_by_name(spec.workload, workload_scale(spec)),
        load=spec.load, duration=config.workload_duration,
        host_capacity=spec.workload_host_rate or config.host_capacity,
        seed=spec.seed, start_after=config.warmup).flows


# ------------------------------------------------------------ fattree-flows

#: Packet-plane systems in the order each traffic mix runs them.
PACKET_SYSTEMS = ("contra", "hula", "ecmp")
PACKET_TRAFFIC = ("cache", "web_search")


def fattree_flows_specs(seed: int, size: str = "full") -> List[ScenarioSpec]:
    """Figure 11 quick regime at load 0.8: k=4 fat-tree at 4:1, 12 ms of
    arrivals, every system on each traffic mix's identical flow set."""
    config = replace(quick_config(), seed=seed)
    if size == "tiny":
        config = replace(config, workload_duration=1.0)
    return fattree_fct_specs(config, systems=PACKET_SYSTEMS,
                             workloads=PACKET_TRAFFIC, loads=(0.8,))


def run_packet_point(spec: ScenarioSpec, topology: Topology, flows,
                     compiled, spans: Spans) -> Optional[Point]:
    """One packet-plane point, call for call as ``RunContext.run`` makes it."""
    config = spec.config
    with spans("network_build", spec.system):
        system = build_routing_system(spec.system, topology, config,
                                      compiled=compiled,
                                      use_versioning=spec.use_versioning)
        network = Network(
            topology, system,
            buffer_packets=config.buffer_packets,
            host_window=config.host_window,
            host_rto=config.host_rto,
            util_window=config.util_window,
            stats=StatsCollector(record_paths=spec.record_paths,
                                 fct_percentiles=spec.fct_percentiles),
            transport=spec.transport if spec.transport is not None else config.transport,
            host_ack_every=spec.ack_every,
            sanitize=False,
        )
        network.schedule_flows(flows)
    if spans.setup_only:
        return None
    run_duration = spec.run_duration if spec.run_duration is not None \
        else config.run_duration
    with spans("run", spec.system):
        stats = network.run(run_duration,
                            stop_after_completion=spec.stop_after_completion)
    with spans("summary", spec.system):
        summary = stats.summary()
    return Point(spec.name, spec.system, summary, events=network.sim.events_processed)


def fattree_flows_pass(seed: int, spans: Spans, size: str = "full",
                       points: Optional[List[Point]] = None) -> List[Point]:
    points = [] if points is None else points
    specs = fattree_flows_specs(seed, size)
    with spans("topology"):
        topology = specs[0].topology.build()
    with spans("compile", "contra"):
        compiled = compile_policy(POLICY_BUILDERS[specs[0].policy](), topology)
    for traffic in PACKET_TRAFFIC:
        mix = [spec for spec in specs if spec.workload == traffic]
        with spans("workload"):
            flows = generate_flows(mix[0], topology)
        for index, spec in enumerate(mix):
            point = run_packet_point(
                spec, topology, flows,
                compiled if spec.system == "contra" else None, spans)
            if point is not None:
                point.flows = len(flows) if index == 0 else 0
                points.append(point)
    return points


# -------------------------------------------------------------- fluid-churn

FLUID_SYSTEMS = ("ecmp", "contra")
#: Independent draws per fluid-churn pass and flows per draw.  A draw's host
#: time is chaotic in its seed once saturated links percolate (see
#: fluid-cascade), so a pass averages many small draws, each seeded from the
#: run's seed.
FLUID_DRAWS = {"full": 16, "tiny": 2}
FLUID_DRAW_FLOWS = {"full": 1_500, "tiny": 800}
#: The fluid-million churn (one agg-core link failing and recovering every
#: 50 ms) compressed so a draw's ~20 ms of arrivals see one fail/recover cycle.
DRAW_CHURN_PERIOD = 8.0
#: The single large draw of the fluid-cascade workload.
CASCADE_FLOWS = {"full": 20_000, "tiny": 1_000}


def fluid_million_draw(seed: int, flow_target: int) -> List[ScenarioSpec]:
    """The fluid-million regime at ``flow_target`` flows: k=8 fat-tree at
    1:1, web_search at 40%, window 8, one agg-core link failing and
    recovering every 50 ms, HLL sketch on; one spec per system."""
    config = replace(quick_config(), seed=seed)
    return [replace(spec, name=f"{spec.name}:seed{seed}")
            for spec in fluid_million_specs(config, systems=FLUID_SYSTEMS,
                                            flow_target=flow_target)]


def churn_events(link: Tuple[str, str], end: float,
                 period: float) -> Tuple[LinkEvent, ...]:
    """Fail/recover ``link`` every ``period`` ms until ``end``, ending up."""
    events: List[LinkEvent] = []
    time_ms, failed = period, False
    while time_ms < end:
        events.append(LinkEvent(time_ms, link[0], link[1],
                                "recover" if failed else "fail"))
        failed = not failed
        time_ms += period
    if failed:
        events.append(LinkEvent(time_ms, link[0], link[1], "recover"))
    return tuple(events)


def fluid_churn_draws(seed: int, size: str = "full") -> List[List[ScenarioSpec]]:
    """The fluid-churn pass: small fluid-million draws seeded
    ``1000 * seed + i``, each with the compressed churn schedule."""
    draws = [fluid_million_draw(1000 * seed + draw, FLUID_DRAW_FLOWS[size])
             for draw in range(FLUID_DRAWS[size])]
    link = default_failed_link(draws[0][0].topology.build())
    return [[replace(spec, events=churn_events(
                link, spec.config.warmup + spec.config.workload_duration,
                DRAW_CHURN_PERIOD)) for spec in specs]
            for specs in draws]


def run_fluid_point(spec: ScenarioSpec, topology: Topology, flows,
                    spans: Spans) -> Optional[Point]:
    """One fluid-plane point, call for call as ``RunContext.run`` makes it."""
    config = spec.config
    with spans("path_model", spec.system):
        model = build_path_model(spec.system, topology, policy=spec.policy)
        simulation = FluidSimulation(
            topology, model,
            stats=FluidStats(fct_percentiles=spec.fct_percentiles,
                             flow_sketch=spec.flow_sketch),
            host_window=config.host_window,
            sanitize=False,
        )
        simulation.add_flows(flows)
        for event in sorted(spec.events, key=lambda event: event.time):
            if event.action == "fail":
                simulation.fail_link(event.a, event.b, at_time=event.time)
            else:
                simulation.recover_link(event.a, event.b, at_time=event.time)
    if spans.setup_only:
        return None
    run_duration = spec.run_duration if spec.run_duration is not None \
        else config.run_duration
    with spans("run", spec.system):
        stats = simulation.run(run_duration,
                               stop_after_completion=spec.stop_after_completion)
    with spans("summary", spec.system):
        summary = stats.summary()
    return Point(spec.name, spec.system, summary,
                 events=simulation.sim.events_processed)


def run_fluid_draws(draws: List[List[ScenarioSpec]], spans: Spans,
                    points: List[Point]) -> List[Point]:
    """Every draw's systems on that draw's one generated flow list."""
    with spans("topology"):
        topology = draws[0][0].topology.build()
    for specs in draws:
        with spans("workload"):
            flows = generate_flows(specs[0], topology)
        for index, spec in enumerate(specs):
            point = run_fluid_point(spec, topology, flows, spans)
            if point is not None:
                point.flows = len(flows) if index == 0 else 0
                points.append(point)
    return points


def fluid_churn_pass(seed: int, spans: Spans, size: str = "full",
                     points: Optional[List[Point]] = None) -> List[Point]:
    points = [] if points is None else points
    return run_fluid_draws(fluid_churn_draws(seed, size), spans, points)


def fluid_cascade_pass(seed: int, spans: Spans, size: str = "full",
                       points: Optional[List[Point]] = None) -> List[Point]:
    """One 2x10^4-flow draw, where ECMP's saturated links percolate and force
    the global solver (not in BENCHMARK.json: its host time spreads ~30%
    from seed to seed, so compare it at a fixed seed)."""
    points = [] if points is None else points
    return run_fluid_draws([fluid_million_draw(seed, CASCADE_FLOWS[size])],
                           spans, points)


# ------------------------------------------------------------ compile-scale

#: Switch counts of the Figure 9/10 points: the largest of the paper's axis.
COMPILE_SWITCHES = {"full": 500, "tiny": 20}
COMPILE_POLICIES = ("MU", "WP", "CA")


def compile_scale_topologies(seed: int, size: str = "full"
                             ) -> List[Tuple[str, Callable[[], Topology]]]:
    """The Figure 9/10 topologies, built as the scalability sweep builds them;
    the seed picks the random graph."""
    switches = COMPILE_SWITCHES[size]
    return [("fattree", lambda: fattree_for_switch_count(switches)),
            ("random", lambda: random_network(switches, seed=seed, degree=4))]


def compile_facts(compiled, programs) -> Dict:
    """What a compile point produces: state counts and a digest of the P4."""
    source = "".join(programs[switch].source for switch in sorted(programs))
    return {
        "pg_nodes": compiled.product_graph.num_nodes,
        "pg_edges": compiled.product_graph.num_edges,
        "max_state_kb": compiled.max_state_kb(),
        "num_probe_ids": compiled.num_probe_ids,
        "p4_sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
    }


def compile_scale_pass(seed: int, spans: Spans, size: str = "full",
                       points: Optional[List[Point]] = None) -> List[Point]:
    points = [] if points is None else points
    for family, build in compile_scale_topologies(seed, size):
        with spans("topology"):
            topology = build()
        policies = scalability_policies(topology)
        for name in COMPILE_POLICIES:
            with spans("compile", "contra"):
                compiled = compile_policy(policies[name], topology)
            with spans("p4gen", "contra"):
                programs = generate_all_p4(compiled)
            points.append(Point(f"compile:{family}:{name}", "contra",
                                compile_facts(compiled, programs)))
    return points


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: Callable[..., List[Point]]
    #: Grid points one pass produces, per size (what a pass that raises
    #: before finishing has failed).
    points: Dict[str, int]


def _per_size(count: Callable[[str], int]) -> Dict[str, int]:
    return {size: count(size) for size in SIZES}


WORKLOADS: Dict[str, Workload] = {
    "fattree-flows": Workload(
        "fattree-flows", fattree_flows_pass,
        _per_size(lambda size: len(PACKET_SYSTEMS) * len(PACKET_TRAFFIC))),
    "fluid-churn": Workload(
        "fluid-churn", fluid_churn_pass,
        _per_size(lambda size: FLUID_DRAWS[size] * len(FLUID_SYSTEMS))),
    "compile-scale": Workload(
        "compile-scale", compile_scale_pass,
        _per_size(lambda size: 2 * len(COMPILE_POLICIES))),
    "fluid-cascade": Workload(
        "fluid-cascade", fluid_cascade_pass,
        _per_size(lambda size: len(FLUID_SYSTEMS))),
}

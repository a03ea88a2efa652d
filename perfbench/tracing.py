"""Per-layer attribution of a traced pass's ``cProfile`` profiles.

A traced pass profiles every span the workload opens (see
:class:`perfbench.workloads.Spans`).  This module turns those profiles into
the benchmark's per-layer numbers:

* **self time per layer**: each profiled function's own time goes to the
  layer of its module.  Time inside C builtins (``list.append``,
  ``heapq.heappush``, ...) has no module, so it is charged to the *calling*
  function's layer through the profile's caller edges;
* **call counts** of the fluid solver's entry points (full and region-local
  max-min solves);
* **compile phase shares**: how much of ``compile_policy`` went to policy
  analysis, product-graph construction, device-config generation and the
  worst-case RTT search that sizes the probe period.

Layers are named after the modules they cover; the fluid plane is split by
function into the epoch loop, the max-min solver, path resolution and the
cardinality sketch.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Iterable, Optional, Tuple

import repro
from repro.core import compiler
from repro.simulator import fluid
from repro.simulator.accumulators import HyperLogLog
from repro.simulator.stats import StatsCollector
from repro.topology.graph import Topology

Key = Tuple[str, int, str]

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Module path (relative to the ``repro`` package) -> layer, first match wins.
MODULE_LAYERS = (
    ("simulator/engine.py", "simulator.engine"),
    ("simulator/link.py", "simulator.link"),
    ("simulator/packet.py", "simulator.link"),
    ("simulator/probe_wave.py", "simulator.link"),
    ("simulator/switchnode.py", "simulator.switchnode"),
    ("simulator/network.py", "simulator.switchnode"),
    ("simulator/host.py", "transport"),
    ("simulator/flow.py", "transport"),
    ("simulator/stats.py", "stats"),
    ("simulator/accumulators.py", "stats"),
    ("simulator/fluid.py", "fluid.epoch"),
    ("protocol/", "protocol"),
    ("baselines/", "baselines"),
    # Only run-time profiles are bucketed, so repro.core time here is the
    # rank, attribute and tag-bit work the protocol does per packet.
    ("core/", "core.runtime"),
)

#: Every layer a run profile is split into; ``other`` is the remainder
#: (the experiment layer, the standard library, numpy, this benchmark).
LAYERS = ("simulator.engine", "simulator.link", "simulator.switchnode",
          "transport", "stats", "protocol", "core.runtime", "baselines",
          "fluid.epoch", "fluid.solver", "fluid.resolve", "fluid.sketch",
          "other")


def code_key(function) -> Optional[Key]:
    """The pstats key of a Python function (None if it has no code)."""
    function = getattr(function, "__func__", function)
    code = getattr(function, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _methods(cls) -> Iterable:
    return [value for value in vars(cls).values() if code_key(value) is not None]


def _subclasses(cls) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _function_layers() -> Dict[Key, str]:
    """Functions whose layer is not their module's (the fluid split)."""
    groups = {
        "fluid.solver": [fluid.max_min_rates,
                         getattr(fluid.FluidSimulation, "_reallocate", None),
                         getattr(fluid.FluidSimulation, "_local_reallocate", None)],
        "fluid.resolve": [method for cls in _subclasses(fluid.FluidPathModel)
                          for method in _methods(cls)],
        "fluid.sketch": list(_methods(HyperLogLog)) + [
            StatsCollector.record_switch_flow,
            StatsCollector.flow_sketch_estimates],
    }
    return {code_key(function): layer for layer, functions in groups.items()
            for function in functions if code_key(function) is not None}


FUNCTION_LAYERS = _function_layers()

#: Call counters: metric quantity -> the function whose calls it counts.
#: ``global_solves`` is the full progressive-filling re-solve,
#: ``local_solves`` the region-local one, ``solver_calls`` every invocation
#: of the max-min solver itself (both kinds call it).
CALL_COUNTERS = {
    "global_solves": code_key(getattr(fluid.FluidSimulation, "_reallocate", None)),
    "local_solves": code_key(getattr(fluid.FluidSimulation, "_local_reallocate", None)),
    "solver_calls": code_key(fluid.max_min_rates),
}

#: Compile phases: the functions ``compile_policy`` calls for each.
#: ``probe_period`` is the worst-case RTT search the probe period is sized
#: from (all-pairs shortest paths over the switches).
COMPILE_PHASES = {
    "analysis": (compiler.check_monotonicity, compiler.check_isotonicity,
                 compiler.decompose),
    "product_graph": (compiler.build_product_graph,),
    "device_configs": (getattr(compiler, "_generate_device_configs", None),),
    "probe_period": (Topology.max_rtt,),
}


def layer_of(key: Key) -> Optional[str]:
    """The layer of a profiled Python function; None for a C builtin."""
    filename = key[0]
    if filename == "~":
        return None
    layer = FUNCTION_LAYERS.get(key)
    if layer is not None:
        return layer
    if filename.startswith(REPRO_DIR):
        relative = filename[len(REPRO_DIR):].replace(os.sep, "/")
        for prefix, module_layer in MODULE_LAYERS:
            if relative.startswith(prefix):
                return module_layer
    return "other"


def _raw_stats(profile) -> Dict:
    return pstats.Stats(profile).stats


def self_seconds(profile) -> Dict[str, float]:
    """Own time per layer, builtins charged to their callers' layers."""
    stats = _raw_stats(profile)
    resolved: Dict[Key, str] = {}

    def resolve(key: Key, depth: int = 0) -> str:
        """A builtin caller's layer: the layer of its heaviest caller."""
        layer = layer_of(key)
        if layer is not None:
            return layer
        if key in resolved:
            return resolved[key]
        callers = stats.get(key, (0, 0, 0.0, 0.0, {}))[4]
        layer = "other"
        if callers and depth < 8:
            heaviest = max(callers, key=lambda caller: callers[caller][2])
            layer = resolve(heaviest, depth + 1)
        resolved[key] = layer
        return layer

    totals = dict.fromkeys(LAYERS, 0.0)
    for key, (_cc, _nc, own, _cum, callers) in stats.items():
        layer = layer_of(key)
        if layer is not None:
            totals[layer] += own
            continue
        charged = 0.0
        for caller, edge in callers.items():
            totals[resolve(caller)] += edge[2]
            charged += edge[2]
        totals["other"] += max(0.0, own - charged)
    return totals


def call_counts(profile) -> Dict[str, int]:
    """Calls of each :data:`CALL_COUNTERS` function in a profile."""
    stats = _raw_stats(profile)
    return {name: (stats[key][1] if key in stats else 0)
            for name, key in CALL_COUNTERS.items()}


def compile_shares(profile) -> Dict[str, float]:
    """Each compile phase's share of ``compile_policy``'s cumulative time,
    counting only the phase functions' calls made by ``compile_policy``."""
    stats = _raw_stats(profile)
    total_key = code_key(compiler.compile_policy)
    total = stats[total_key][3] if total_key in stats else 0.0
    shares = {}
    for phase, functions in COMPILE_PHASES.items():
        cumulative = sum(stats[key][4].get(total_key, (0, 0, 0.0, 0.0))[3]
                         for key in map(code_key, functions)
                         if key is not None and key in stats)
        shares[phase] = cumulative / total if total else 0.0
    return shares


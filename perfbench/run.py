"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fattree-flows --seed 1 --seconds 10 --trace 0

The workload runs in this process, serially, with ``CONTRA_PROCS``,
``CONTRA_SANITIZE`` and ``CONTRA_EXPERIMENT_PRESET`` pinned.  It repeats
*passes* (every grid point of the workload, built from scratch) until
``--seconds`` have elapsed and at least :data:`MIN_PASSES` passes ran, then
set-up-only passes until set-up has been timed :data:`SETUP_SAMPLES` times or
its time share runs out.  Each metric sums, over the calls it covers, every
call's median across passes (see :func:`span_total`).  Every point's output is
checked (see :func:`check_point`); a failed check or an exception counts as a
failed point and makes the command exit with status 1.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
prints the per-layer metrics instead: spans from the untraced passes, then one
extra pass under ``cProfile`` for self time per layer and call counts.

``--record`` rewrites the workload's default-seed digests in expected.json
(run it only when a change is meant to alter simulated output).  ``--size
tiny`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Environment the program reads, pinned so the caller's cannot leak in.
PINNED_ENV = {"CONTRA_PROCS": "1", "CONTRA_SANITIZE": "0",
              "CONTRA_EXPERIMENT_PRESET": "quick"}

#: Passes a run makes at least, so every call is timed more than once.
MIN_PASSES = 2
#: Set-up samples wanted per run: after the timed passes, set-up-only
#: passes (every point built, none run) top the count up, within
#: :data:`SETUP_SHARE` of ``--seconds``.
SETUP_SAMPLES = 11
SETUP_SHARE = 0.25


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    os.environ.update(PINNED_ENV)
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


import_program()

from perfbench import tracing  # noqa: E402
from perfbench.workloads import (DEFAULT_SEED, SETUP_PHASES, SIZES,  # noqa: E402
                                 WORKLOADS, Point, Spans, selects)


# ------------------------------------------------------------- output check

def load_expected() -> Dict[str, Dict[str, str]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_point(point: Point, expected: Dict[str, str]) -> Optional[str]:
    """Why a point's output is wrong, or None when it is right.

    With a recorded digest the output must match it exactly; every point
    must also satisfy the invariants of its kind.
    """
    payload = point.payload
    want = expected.get(point.name)
    if want is not None and point.digest() != want:
        return f"{point.name}: output digest {point.digest()} != expected {want}"
    if point.is_simulation:
        if not 0 < payload["flows"]:
            return f"{point.name}: no flows"
        if not payload["completed_flows"] <= payload["flows"]:
            return f"{point.name}: more flows completed than offered"
        if not payload["goodput_bytes"] <= payload["delivered_bytes"]:
            return f"{point.name}: goodput exceeds delivered bytes"
        if not 0.0 <= payload["completion_ratio"] <= 1.0:
            return f"{point.name}: completion_ratio outside [0, 1]"
        if not point.events > 0:
            return f"{point.name}: no engine events"
    elif not (payload["pg_nodes"] > 0 and payload["pg_edges"] > 0
              and payload["max_state_kb"] > 0):
        return f"{point.name}: empty compile output"
    return None


# ----------------------------------------------------------------- passes

class Pass:
    """One pass's points, spans and wall time."""

    def __init__(self, workload, seed: int, size: str, profile: bool = False,
                 setup_only: bool = False):
        self.spans = Spans(profile=profile, setup_only=setup_only)
        self.points: List[Point] = []
        self.error: Optional[str] = None
        # Start every pass from a collected heap, so garbage a previous pass
        # left behind is not collected, at random, inside this one.
        gc.collect()
        started = time.perf_counter()
        try:
            workload.run_pass(seed, self.spans, size, self.points)
        except Exception:  # a failing point is reported, not fatal
            self.error = traceback.format_exc()
        self.wall = time.perf_counter() - started
        self.missing = 0 if setup_only else workload.points[size] - len(self.points)


def run_passes(workload, seed: int, seconds: float, size: str) -> List[Pass]:
    passes: List[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(Pass(workload, seed, size))
    return passes


def run_setup_passes(workload, seed: int, seconds: float, size: str,
                     passes: List[Pass]) -> List[Pass]:
    """Set-up-only passes, while set-up samples are short and time allows."""
    extra: List[Pass] = []
    budget = SETUP_SHARE * seconds
    setup_s = median(p.spans.total(SETUP_PHASES) for p in passes)
    while (len(passes) + len(extra) < SETUP_SAMPLES
           and sum(p.wall for p in extra) + setup_s <= budget):
        extra.append(Pass(workload, seed, size, setup_only=True))
    return [p for p in extra if not p.error]


def median(values) -> float:
    return statistics.median(list(values))


def span_total(passes: List[Pass], phases=None, system=None) -> float:
    """Host seconds of the selected spans: per call, the median over passes.

    Every pass of one seed makes the same calls in the same order, so the
    ``i``-th selected span of each pass times the same call.  Taking each call's
    median before summing drops a slow-down that hit one call in one pass.
    """
    logs = [[seconds for phase, sys_name, seconds in p.spans.log
             if selects(phase, sys_name, phases, system)] for p in passes]
    count = min(len(log) for log in logs)
    return sum(median(log[i] for log in logs) for i in range(count))


# ----------------------------------------------------------------- metrics

def end_to_end(passes: List[Pass], setups: List[Pass]) -> Dict[str, float]:
    """Host time of one pass, its set-up part, and the process's peak RSS."""
    between_spans = median(p.wall - p.spans.total() for p in passes)
    return {
        "wall_s": span_total(passes) + between_spans,
        "setup_s": span_total(passes + setups, SETUP_PHASES),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


SYSTEMS = ("contra", "ecmp", "hula")
FLUID_SYSTEMS = ("contra", "ecmp")


def _sum(points: List[Point], key: str) -> float:
    return sum(p.payload[key] for p in points)


def output_counts(points: List[Point]) -> Dict[str, float]:
    """Per-layer counts read from one pass's outputs (deterministic)."""
    compiles = [p.payload for p in points if not p.is_simulation]
    packet = [p for p in points if p.is_simulation and "epochs" not in p.payload]
    contra = [p for p in packet if p.system == "contra"]
    delivered = _sum(packet, "delivered_bytes")
    metrics = {
        "core.pg_nodes": sum(c["pg_nodes"] for c in compiles),
        "core.pg_edges": sum(c["pg_edges"] for c in compiles),
        "core.max_state_kb": max((c["max_state_kb"] for c in compiles), default=0.0),
        "workloads.flows": sum(p.flows for p in points),
        "link.drops": _sum(packet, "drops"),
        "transport.retransmissions": _sum(packet, "retransmissions"),
        "transport.goodput_ratio": (_sum(packet, "goodput_bytes") / delivered
                                    if delivered else 0.0),
        "protocol.probe_bytes": _sum(contra, "probe_bytes"),
        "protocol.overhead_ratio": (median(p.payload["overhead_ratio"] for p in contra)
                                    if contra else 0.0),
        "protocol.flowlet_expirations": _sum(contra, "flowlet_expirations"),
    }
    for system in SYSTEMS:
        metrics[f"simulator.events.{system}"] = sum(
            p.events for p in points if p.system == system and p.is_simulation)
        if system in FLUID_SYSTEMS:
            metrics[f"fluid.epochs.{system}"] = sum(
                p.payload.get("epochs", 0) for p in points if p.system == system)
    return metrics


def span_metrics(passes: List[Pass]) -> Dict[str, float]:
    """Per-layer spans: medians over the untraced passes."""
    def span(phase, system=None):
        return span_total(passes, (phase,), system)

    metrics = {
        "topology.build_s": span("topology"),
        "core.compile_s": span("compile"),
        "core.p4gen_s": span("p4gen"),
        "workloads.generate_s": span("workload"),
        "simulator.network_build_s": span("network_build"),
        "fluid.path_model_s": span("path_model"),
        "stats.summary_s": span("summary"),
    }
    run_s = 0.0
    for system in SYSTEMS:
        metrics[f"simulator.run_s.{system}"] = span("run", system)
        run_s += metrics[f"simulator.run_s.{system}"]
    events = sum(output_counts(passes[0].points)[f"simulator.events.{s}"]
                 for s in SYSTEMS)
    metrics["simulator.events_per_s"] = events / run_s if run_s else 0.0
    return metrics


def traced_metrics(traced: Pass, compile_s: float) -> Dict[str, float]:
    """Self time per layer and system, call counts and compile phases."""
    metrics: Dict[str, float] = {}
    profiles = traced.spans.profiles
    for system in SYSTEMS:
        run_profile = profiles.get(("run", system))
        layers = (tracing.self_seconds(run_profile) if run_profile is not None
                  else dict.fromkeys(tracing.LAYERS, 0.0))
        for layer, seconds in layers.items():
            metrics[f"{layer}.self_s.{system}"] = seconds
        if system in FLUID_SYSTEMS:
            counts = (tracing.call_counts(run_profile) if run_profile is not None
                      else dict.fromkeys(tracing.CALL_COUNTERS, 0))
            for name, count in counts.items():
                metrics[f"fluid.{name}.{system}"] = count
            solves = counts["global_solves"] + counts["local_solves"]
            metrics[f"fluid.local_ratio.{system}"] = (
                counts["local_solves"] / solves if solves else 0.0)
    setup_profile = profiles.get(("setup", "contra"))
    shares = (tracing.compile_shares(setup_profile) if setup_profile is not None
              else dict.fromkeys(tracing.COMPILE_PHASES, 0.0))
    for phase, share in shares.items():
        metrics[f"core.{phase}_s"] = share * compile_s
    return metrics


# -------------------------------------------------------------------- main

def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full",
            expected: Optional[Dict[str, str]] = None) -> Dict:
    """Run a workload and return the result object the command prints."""
    workload = WORKLOADS[name]
    if expected is None:
        expected = (load_expected().get(name, {})
                    if seed == DEFAULT_SEED and size == "full" else {})
    passes = run_passes(workload, seed, seconds, size)
    checked = list(passes)
    if trace:
        traced = Pass(workload, seed, size, profile=True)
        checked.append(traced)
    attempted = failed = 0
    for one in checked:
        if one.error:
            print(one.error, file=sys.stderr)
        attempted += len(one.points) + one.missing
        failed += one.missing
        for point in one.points:
            problem = check_point(point, expected)
            if problem is not None:
                print(f"perfbench: {problem}", file=sys.stderr)
                failed += 1
    clean = [p for p in passes if not p.error and not p.missing] or passes
    if trace:
        metrics = span_metrics(clean)
        metrics.update(output_counts(passes[0].points))
        metrics.update(traced_metrics(traced, metrics["core.compile_s"]))
        metrics["trace.overhead_ratio"] = traced.wall / median(p.wall for p in clean)
        units = UNITS["per_layer"]
    else:
        metrics = end_to_end(clean, run_setup_passes(workload, seed, seconds,
                                                     size, clean))
        units = UNITS["end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
        "digests": {p.name: p.digest() for p in passes[0].points},
    }


def load_units() -> Dict[str, Dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


UNITS = load_units()


def record(name: str, digests: Dict[str, str]) -> None:
    expected = load_expected() if EXPECTED_PATH.exists() else {}
    expected[name] = dict(sorted(digests.items()))
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(expected.items())), handle, indent=2)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--record", action="store_true",
                        help="record this seed's digests as the expected output")
    args = parser.parse_args(argv)
    if args.record and (args.seed != DEFAULT_SEED or args.size != "full"):
        parser.error(f"--record needs --seed {DEFAULT_SEED} and --size full")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.size, expected={} if args.record else None)
    digests = result.pop("digests")
    if args.record:
        record(args.workload, digests)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

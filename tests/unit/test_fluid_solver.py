"""Property and unit tests for the fluid-plane building blocks.

Everything here is pure Python — :func:`max_min_rates`, the
:class:`HyperLogLog` sketch and :class:`FluidStats` import no numpy — so the
no-numpy CI job exercises this file too (ARCHITECTURE.md §7).

The solver's contract (its docstring, tested property by property):

* **feasible** — per-link weighted consumption never exceeds capacity;
* **max-min fair** — every group is either frozen at its rate cap or has a
  saturated bottleneck link on which no other group gets a higher rate;
* **exactly permutation-invariant** — feeding any insertion order of the
  same groups produces bit-identical floats.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.simulator.accumulators import HyperLogLog
from repro.simulator.fluid import FluidStats, max_min_rates


# =============================================================================
# Problem generator
# =============================================================================

@st.composite
def fluid_problems(draw):
    """A random small network: capacities, group paths, weights, caps."""
    link_count = draw(st.integers(min_value=1, max_value=6))
    capacities = {
        f"l{i}": draw(st.floats(min_value=0.5, max_value=100.0,
                                allow_nan=False, allow_infinity=False))
        for i in range(link_count)
    }
    links = sorted(capacities)
    group_count = draw(st.integers(min_value=1, max_value=8))
    paths = {}
    weights = {}
    caps = {}
    for g in range(group_count):
        path = draw(st.lists(st.sampled_from(links), min_size=1,
                             max_size=link_count, unique=True))
        paths[f"g{g}"] = tuple(path)
        weights[f"g{g}"] = draw(st.integers(min_value=1, max_value=5))
        if draw(st.booleans()):
            caps[f"g{g}"] = draw(st.floats(min_value=0.01, max_value=50.0,
                                           allow_nan=False, allow_infinity=False))
    return paths, capacities, weights, caps


def link_loads(paths, weights, rates):
    loads = {}
    for key, path in paths.items():
        for link in path:
            loads[link] = loads.get(link, 0.0) + weights[key] * rates[key]
    return loads


# =============================================================================
# Solver properties
# =============================================================================

class TestMaxMinProperties:
    @given(fluid_problems())
    @settings(max_examples=200, deadline=None)
    def test_rates_are_feasible(self, problem):
        paths, capacities, weights, caps = problem
        rates = max_min_rates(paths, capacities, weights, caps)
        assert set(rates) == set(paths)
        for key, rate in rates.items():
            assert rate >= 0.0
            if key in caps:
                assert rate <= caps[key] * (1 + 1e-12)
        for link, load in link_loads(paths, weights, rates).items():
            assert load <= capacities[link] * (1 + 1e-9) + 1e-9

    @given(fluid_problems())
    @settings(max_examples=200, deadline=None)
    def test_every_group_has_a_maxmin_certificate(self, problem):
        """Kleinberg's bottleneck condition: a group not frozen at its cap
        must cross a saturated link on which it gets the (joint) highest
        rate — otherwise its rate could be raised by lowering a richer
        group's, and the allocation would not be max-min."""
        paths, capacities, weights, caps = problem
        rates = max_min_rates(paths, capacities, weights, caps)
        loads = link_loads(paths, weights, rates)
        rate_scale = max(1.0, *rates.values())
        for key, rate in rates.items():
            if key in caps and rate >= caps[key] - 1e-9 * rate_scale:
                continue  # frozen at its own ceiling
            bottlenecked = False
            for link in paths[key]:
                residual = capacities[link] - loads[link]
                if residual > 1e-8 * max(1.0, capacities[link]):
                    continue  # link not saturated
                peak = max(rates[other] for other, path in paths.items()
                           if link in path)
                if rate >= peak - 1e-9 * rate_scale:
                    bottlenecked = True
                    break
            assert bottlenecked, (key, rate, rates, loads)

    @given(fluid_problems(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_result_is_exactly_permutation_invariant(self, problem, rng):
        paths, capacities, weights, caps = problem
        baseline = max_min_rates(paths, capacities, weights, caps)
        keys = list(paths)
        rng.shuffle(keys)
        shuffled = max_min_rates({k: paths[k] for k in keys},
                                 capacities,
                                 {k: weights[k] for k in reversed(keys)},
                                 {k: caps[k] for k in keys if k in caps})
        # Bit-identical, not approximately equal: the engine's byte-stability
        # contract rides on this.
        assert shuffled == baseline

    @given(fluid_problems())
    @settings(max_examples=100, deadline=None)
    def test_weights_scale_consumption_not_rate(self, problem):
        """All unfrozen groups rise at the same *rate* level; a weight-w
        group just consumes w times as much. Doubling every weight therefore
        halves every uncapped rate on a saturated network of one link."""
        paths, capacities, weights, caps = problem
        if caps:
            return  # caps break the pure scaling relation
        one_link = {key: (path[0],) for key, path in paths.items()}
        shared = {link: 10.0 for link in {p[0] for p in one_link.values()}}
        base = max_min_rates(one_link, shared, weights)
        doubled = max_min_rates(one_link, shared,
                                {k: 2 * w for k, w in weights.items()})
        for key in base:
            assert math.isclose(doubled[key], base[key] / 2.0, rel_tol=1e-12)


class TestMaxMinCases:
    def test_single_link_fair_share(self):
        rates = max_min_rates({"a": ("l",), "b": ("l",)}, {"l": 10.0})
        assert rates == {"a": 5.0, "b": 5.0}

    def test_weighted_share_is_equal_rate(self):
        rates = max_min_rates({"a": ("l",), "b": ("l",)}, {"l": 8.0},
                              weights={"a": 3, "b": 1})
        assert rates == {"a": 2.0, "b": 2.0}

    def test_cap_releases_headroom_to_others(self):
        rates = max_min_rates({"a": ("l",), "b": ("l",)}, {"l": 10.0},
                              rate_caps={"a": 1.0})
        assert rates == {"a": 1.0, "b": 9.0}

    def test_chain_bottleneck(self):
        rates = max_min_rates({"long": ("thin", "fat"), "short": ("fat",)},
                              {"thin": 2.0, "fat": 10.0})
        assert rates == {"long": 2.0, "short": 8.0}

    def test_empty_path_rejected(self):
        try:
            max_min_rates({"a": ()}, {})
        except ValueError as error:
            assert "empty path" in str(error)
        else:
            raise AssertionError("empty path must be rejected")

    def test_non_positive_weight_rejected(self):
        try:
            max_min_rates({"a": ("l",)}, {"l": 1.0}, weights={"a": 0})
        except ValueError as error:
            assert "non-positive weight" in str(error)
        else:
            raise AssertionError("zero weight must be rejected")


# =============================================================================
# HyperLogLog sketch
# =============================================================================

class TestHyperLogLog:
    def test_estimate_tracks_true_cardinality(self):
        sketch = HyperLogLog()
        for item in range(10_000):
            sketch.add(("flow", item))
        assert abs(sketch.estimate() - 10_000) / 10_000 < 0.05

    def test_duplicates_never_move_the_estimate(self):
        once, repeated = HyperLogLog(), HyperLogLog()
        for item in range(500):
            once.add(item)
            for _ in range(7):
                repeated.add(item)
        assert repeated.estimate() == once.estimate()

    def test_insertion_order_is_irrelevant(self):
        forward, backward = HyperLogLog(), HyperLogLog()
        items = [f"flow-{i}" for i in range(2_000)]
        for item in items:
            forward.add(item)
        for item in reversed(items):
            backward.add(item)
        assert forward.estimate() == backward.estimate()

    def test_merge_equals_sketch_of_union(self):
        left, right, union = HyperLogLog(), HyperLogLog(), HyperLogLog()
        for item in range(0, 3_000):
            left.add(item)
            union.add(item)
        for item in range(1_500, 4_500):
            right.add(item)
            union.add(item)
        left.merge(right)
        assert left.estimate() == union.estimate()

    def test_slot_path_leaves_registers_identical_to_add(self):
        rng = random.Random(7)
        items = [rng.randrange(10**9) for _ in range(3_000)] \
            + [("flow", i) for i in range(500)] + ["agg0", 0, -1]
        for precision in (4, 10, 16):
            added = HyperLogLog(precision)
            slotted = HyperLogLog(precision)
            for item in items:
                added.add(item)
                slotted.add_slot(HyperLogLog.slot(item, precision))
            assert slotted._registers == added._registers, precision
        assert HyperLogLog.slot(42) == HyperLogLog.slot(42, precision=10)

    @staticmethod
    def reference_estimate(sketch):
        """``estimate`` with one ``2.0 ** -r`` power per register, as it was."""
        registers = sketch._registers
        m = len(registers)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        raw = alpha * m * m / sum(2.0 ** -r for r in registers)
        zeros = registers.count(0)
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)
        return raw

    def test_estimate_equals_per_register_powers(self):
        rng = random.Random(3)
        for precision in (4, 10, 16):
            max_rank = 64 - precision + 1
            sketch = HyperLogLog(precision)
            size = len(sketch._registers)
            fills = [
                [0] * size,                                   # empty
                [rng.randrange(max_rank + 1) for _ in range(size)],  # random
                [rng.randrange(1, 12) for _ in range(size)],  # saturated
                [max_rank] * size,                            # maximum rank
                [max_rank if i % 3 else 0 for i in range(size)],
            ]
            for fill in fills:
                sketch._registers[:] = bytes(fill)
                assert sketch.estimate() == self.reference_estimate(sketch)

    def test_precision_bounds_enforced(self):
        for bad in (3, 17):
            try:
                HyperLogLog(precision=bad)
            except ValueError:
                pass
            else:
                raise AssertionError(f"precision {bad} must be rejected")


# =============================================================================
# FluidStats summary-extension opt-in
# =============================================================================

class TestFluidStatsExtensions:
    def _collect(self, **kwargs):
        stats = FluidStats(**kwargs)
        for fct in (1.0, 2.0, 3.0, 10.0):
            stats.note_flow()
            stats.note_completion(fct)
        stats.record_switch_flow("agg0", 1)
        stats.record_switch_flow("agg0", 2)
        stats.record_switch_flow("edge0", 1)
        return stats.summary()

    def test_extensions_absent_at_defaults(self):
        summary = self._collect()
        assert "p50_fct_ms" not in summary
        assert not any(key.startswith("flow_sketch") for key in summary)

    def test_percentiles_and_sketch_opt_in(self):
        summary = self._collect(fct_percentiles=(50.0,), flow_sketch=True)
        assert summary["p50_fct_ms"] == 2.5
        assert summary["flow_sketch_switches"] == 2
        assert round(summary["flow_sketch_max_flows"]) == 2
        assert summary["flow_sketch_mean_flows"] > 0

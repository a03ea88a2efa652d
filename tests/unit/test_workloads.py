"""Unit tests for workload distributions and generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import WorkloadError
from repro.topology import fattree, leafspine
from repro.workloads import (
    CACHE_CDF,
    WEB_SEARCH_CDF,
    EmpiricalCDF,
    FlowStream,
    cache_distribution,
    distribution_by_name,
    generate_workload,
    incast_pairs,
    permutation_pairs,
    random_pairs,
    split_senders_receivers,
    stream_workload,
    uniform_distribution,
    web_search_distribution,
)


class TestEmpiricalCDF:
    def test_builtin_cdfs_are_valid(self):
        assert WEB_SEARCH_CDF.points[-1][0] == 1.0
        assert CACHE_CDF.points[-1][0] == 1.0

    def test_web_search_is_heavier_tailed_than_cache(self):
        assert WEB_SEARCH_CDF.mean() > CACHE_CDF.mean()
        assert WEB_SEARCH_CDF.quantile(0.99) > CACHE_CDF.quantile(0.99)

    def test_sampling_respects_bounds(self):
        rng = np.random.default_rng(0)
        samples = WEB_SEARCH_CDF.sample(rng, 1000)
        assert samples.min() >= 1
        assert samples.max() <= WEB_SEARCH_CDF.points[-1][1]

    def test_sampling_is_deterministic_given_seed(self):
        a = WEB_SEARCH_CDF.sample(np.random.default_rng(7), 100)
        b = WEB_SEARCH_CDF.sample(np.random.default_rng(7), 100)
        assert (a == b).all()

    def test_median_sample_close_to_cdf_median(self):
        rng = np.random.default_rng(1)
        samples = CACHE_CDF.sample(rng, 5000)
        assert abs(np.median(samples) - CACHE_CDF.quantile(0.5)) <= 2

    def test_scaled_distribution_shrinks_sizes(self):
        scaled = web_search_distribution(0.1)
        assert scaled.mean() < WEB_SEARCH_CDF.mean()
        assert scaled.points[0][1] >= 1

    def test_invalid_scale_rejected(self):
        with pytest.raises(WorkloadError):
            web_search_distribution(0)

    def test_uniform_distribution(self):
        dist = uniform_distribution(5, 10)
        rng = np.random.default_rng(0)
        samples = dist.sample(rng, 200)
        assert samples.min() >= 5 and samples.max() <= 10
        with pytest.raises(WorkloadError):
            uniform_distribution(10, 5)

    def test_invalid_cdfs_rejected(self):
        with pytest.raises(WorkloadError):
            EmpiricalCDF("bad", ((0.0, 1),))
        with pytest.raises(WorkloadError):
            EmpiricalCDF("bad", ((0.0, 5), (0.5, 3), (1.0, 10)))
        with pytest.raises(WorkloadError):
            EmpiricalCDF("bad", ((0.0, 1), (0.9, 10)))

    def test_distribution_by_name(self):
        assert distribution_by_name("web_search").name.startswith("web_search")
        assert distribution_by_name("cache").name.startswith("cache")
        with pytest.raises(WorkloadError):
            distribution_by_name("hadoop")


class TestSenderReceiverSelection:
    def test_split_interleaves_hosts(self):
        topo = fattree(4)
        senders, receivers = split_senders_receivers(topo)
        assert len(senders) + len(receivers) == len(topo.hosts)
        assert not set(senders) & set(receivers)

    def test_split_requires_two_hosts(self):
        topo = leafspine(1, 1, hosts_per_leaf=1)
        with pytest.raises(WorkloadError):
            split_senders_receivers(topo)

    def test_random_pairs_distinct_switches(self):
        topo = fattree(4)
        senders, receivers = random_pairs(topo, 4, seed=0)
        assert len(senders) == len(receivers) == 4
        for s, r in zip(senders, receivers):
            assert topo.attachment_switch(s) != topo.attachment_switch(r)

    def test_random_pairs_deterministic(self):
        topo = fattree(4)
        assert random_pairs(topo, 4, seed=3) == random_pairs(topo, 4, seed=3)


class TestGenerateWorkload:
    def test_flows_sorted_and_within_duration(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        spec = generate_workload(topo, uniform_distribution(1, 5), load=0.5,
                                 duration=10.0, host_capacity=10.0, seed=0)
        times = [f.start_time for f in spec.flows]
        assert times == sorted(times)
        assert all(0.0 <= t < 10.0 for t in times)
        assert all(f.src_host != f.dst_host for f in spec.flows)

    def test_load_targets_offered_load(self):
        topo = fattree(4)
        spec = generate_workload(topo, uniform_distribution(4, 4), load=0.5,
                                 duration=200.0, host_capacity=10.0, seed=1)
        assert spec.offered_load(10.0) == pytest.approx(0.5, rel=0.2)

    def test_higher_load_generates_more_packets(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        low = generate_workload(topo, uniform_distribution(2, 6), load=0.2,
                                duration=50.0, seed=2)
        high = generate_workload(topo, uniform_distribution(2, 6), load=0.8,
                                 duration=50.0, seed=2)
        assert high.total_packets > low.total_packets

    def test_paired_mode_respects_pairs(self):
        topo = fattree(4)
        senders, receivers = random_pairs(topo, 3, seed=0)
        spec = generate_workload(topo, uniform_distribution(1, 3), load=0.3, duration=20.0,
                                 senders=senders, receivers=receivers,
                                 pair_senders_receivers=True, seed=0)
        mapping = dict(zip(senders, receivers))
        assert all(mapping[f.src_host] == f.dst_host for f in spec.flows)

    def test_paired_mode_requires_equal_lengths(self):
        topo = fattree(4)
        with pytest.raises(WorkloadError):
            generate_workload(topo, uniform_distribution(1, 3), load=0.3, duration=10.0,
                              senders=["h0_0_0"], receivers=["h1_0_0", "h2_0_0"],
                              pair_senders_receivers=True)

    def test_invalid_load_rejected(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        with pytest.raises(WorkloadError):
            generate_workload(topo, uniform_distribution(), load=0.0, duration=10.0)
        with pytest.raises(WorkloadError):
            generate_workload(topo, uniform_distribution(), load=2.0, duration=10.0)
        with pytest.raises(WorkloadError):
            generate_workload(topo, uniform_distribution(), load=0.5, duration=0.0)

    def test_max_flows_cap(self):
        topo = fattree(4)
        spec = generate_workload(topo, uniform_distribution(1, 2), load=0.9,
                                 duration=100.0, max_flows=10, seed=0)
        assert len(spec.flows) <= 10

    def test_determinism(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        a = generate_workload(topo, cache_distribution(), load=0.5, duration=20.0, seed=9)
        b = generate_workload(topo, cache_distribution(), load=0.5, duration=20.0, seed=9)
        assert [(f.src_host, f.dst_host, f.size_packets, f.start_time) for f in a.flows] == \
            [(f.src_host, f.dst_host, f.size_packets, f.start_time) for f in b.flows]

    @given(st.floats(min_value=0.1, max_value=0.9), st.integers(min_value=0, max_value=10))
    @settings(max_examples=15, deadline=None)
    def test_any_load_and_seed_produce_valid_workloads(self, load, seed):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        spec = generate_workload(topo, cache_distribution(0.5), load=load,
                                 duration=20.0, seed=seed)
        assert all(f.size_packets >= 1 for f in spec.flows)
        assert all(f.src_host in spec.senders for f in spec.flows)
        assert all(f.dst_host in spec.receivers for f in spec.flows)


def reference_sample(distribution, rng, count):
    """``EmpiricalCDF.sample`` as it was before the CDF arrays were cached."""
    uniforms = rng.random(count)
    probabilities = np.array([p for p, _ in distribution.points])
    sizes = np.array([s for _, s in distribution.points])
    sampled = np.interp(uniforms, probabilities, sizes)
    return np.maximum(1, np.round(sampled)).astype(int)


def reference_flows(topology, distribution, load, duration, host_capacity=10.0,
                    seed=0, senders=None, receivers=None,
                    pair_senders_receivers=False, max_flows=None,
                    start_after=0.0):
    """The eager generator's per-flow loop before its invariants were hoisted,
    kept verbatim as the oracle: it rebuilt the candidate receivers and the
    CDF arrays on every flow and drew the receiver with ``rng.choice``."""
    if senders is None or receivers is None:
        default_senders, default_receivers = split_senders_receivers(topology)
        senders = list(senders) if senders is not None else default_senders
        receivers = list(receivers) if receivers is not None else default_receivers
    senders = list(senders)
    receivers = list(receivers)
    rng = np.random.default_rng(seed)
    mean_size = distribution.mean()
    per_sender_rate = load * host_capacity / mean_size  # flows per ms

    flows = []
    for index, sender in enumerate(senders):
        time = start_after
        while True:
            time += float(rng.exponential(1.0 / per_sender_rate))
            if time >= start_after + duration:
                break
            if pair_senders_receivers:
                receiver = receivers[index]
            else:
                receiver = str(rng.choice([r for r in receivers if r != sender]))
            size = int(reference_sample(distribution, rng, 1)[0])
            flows.append((sender, receiver, size, time))
            if max_flows is not None and len(flows) >= max_flows:
                break
        if max_flows is not None and len(flows) >= max_flows:
            break

    flows.sort(key=lambda f: f[3])
    return [flow + (flow_id,) for flow_id, flow in enumerate(flows)]


class TestGeneratorMatchesReference:
    """The hoisted generator draws the PCG64 stream exactly like the
    historical per-flow loop, so every flow is ``==``-identical."""

    DISTRIBUTIONS = (web_search_distribution(0.05), cache_distribution(0.2),
                     uniform_distribution(1, 20))

    @staticmethod
    def flows_of(spec):
        return [(f.src_host, f.dst_host, f.size_packets, f.start_time, f.flow_id)
                for f in spec.flows]

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS,
                             ids=lambda d: d.name)
    @pytest.mark.parametrize("paired", [False, True])
    def test_flows_equal_reference(self, distribution, paired):
        topo = fattree(4)
        hosts = topo.hosts
        pairs = dict(senders=hosts[0::2], receivers=hosts[1::2]) if paired else {}
        compared = 0
        for seed in range(25):
            kwargs = dict(load=0.3 + 0.1 * (seed % 5), duration=4.0, seed=seed,
                          pair_senders_receivers=paired,
                          max_flows=40 if seed % 3 == 0 else None,
                          start_after=float(seed % 4), **pairs)
            expected = reference_flows(topo, distribution, **kwargs)
            actual = self.flows_of(generate_workload(topo, distribution, **kwargs))
            assert actual == expected, seed
            compared += len(expected)
        assert compared > 100

    def test_explicit_overlapping_senders_and_receivers(self):
        # Every host both sends and receives, so each sender's candidate
        # list excludes itself.
        topo = leafspine(2, 2, hosts_per_leaf=2)
        hosts = topo.hosts
        for seed in range(10):
            kwargs = dict(load=0.6, duration=10.0, seed=seed,
                          senders=hosts, receivers=hosts)
            assert self.flows_of(generate_workload(topo, CACHE_CDF, **kwargs)) \
                == reference_flows(topo, CACHE_CDF, **kwargs)

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS + (WEB_SEARCH_CDF,),
                             ids=lambda d: d.name)
    def test_scalar_size_draw_matches_sample(self, distribution):
        for seed in range(20):
            scalar, array = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(200):
                size = distribution.sample_one(scalar)
                assert type(size) is int
                assert size == int(distribution.sample(array, 1)[0])

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS, ids=lambda d: d.name)
    def test_batched_sample_matches_reference(self, distribution):
        for seed in range(10):
            assert np.array_equal(
                distribution.sample(np.random.default_rng(seed), 500),
                reference_sample(distribution, np.random.default_rng(seed), 500))

    def test_missing_numpy_is_a_workload_error(self, monkeypatch):
        from repro.workloads import distributions
        monkeypatch.setattr(distributions, "np", None)
        with pytest.raises(WorkloadError, match="numpy"):
            generate_workload(fattree(4), CACHE_CDF, load=0.5, duration=5.0)


class TestTrafficPatternPairs:
    def test_incast_all_senders_target_one_receiver(self):
        topo = fattree(4)
        senders, receivers = incast_pairs(topo, seed=3)
        assert len(set(receivers)) == 1
        sink = receivers[0]
        assert sink not in senders
        assert len(senders) == len(topo.hosts) - 1

    def test_incast_fanin_limits_senders(self):
        topo = fattree(4)
        senders, receivers = incast_pairs(topo, fanin=4, seed=3)
        assert len(senders) == 4 and len(receivers) == 4
        assert len(set(senders)) == 4

    def test_incast_explicit_receiver(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        senders, receivers = incast_pairs(topo, receiver="h1_0")
        assert set(receivers) == {"h1_0"}
        assert "h1_0" not in senders

    def test_incast_deterministic_given_seed(self):
        topo = fattree(4)
        assert incast_pairs(topo, fanin=5, seed=7) == incast_pairs(topo, fanin=5, seed=7)
        assert incast_pairs(topo, fanin=5, seed=7) != incast_pairs(topo, fanin=5, seed=8)

    def test_incast_rejects_bad_arguments(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        with pytest.raises(WorkloadError):
            incast_pairs(topo, receiver="not-a-host")
        with pytest.raises(WorkloadError):
            incast_pairs(topo, fanin=0)
        with pytest.raises(WorkloadError):
            incast_pairs(topo, fanin=len(topo.hosts))  # only hosts-1 candidates

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_permutation_is_a_derangement(self, seed):
        topo = fattree(4)
        senders, receivers = permutation_pairs(topo, seed=seed)
        assert senders == topo.hosts
        assert sorted(receivers) == sorted(topo.hosts)     # a permutation...
        assert all(s != r for s, r in zip(senders, receivers))  # ...with no fixed point

    def test_permutation_deterministic_given_seed(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        assert permutation_pairs(topo, seed=4) == permutation_pairs(topo, seed=4)


class TestLoadContractRegression:
    """The docstring/validation mismatch fixed by the scenario-diversity PR."""

    def test_docstring_matches_validated_bound(self):
        doc = generate_workload.__doc__
        assert "load <= 1.5" in doc
        assert "1.2" not in doc

    def test_start_after_documented(self):
        assert "start_after" in generate_workload.__doc__

    def test_bound_is_inclusive_at_1_5(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        spec = generate_workload(topo, uniform_distribution(), load=1.5, duration=5.0)
        assert spec.target_load == 1.5

    def test_start_after_delays_first_arrival(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        spec = generate_workload(topo, uniform_distribution(), load=0.8,
                                 duration=10.0, start_after=3.0, seed=1)
        assert spec.flows and min(f.start_time for f in spec.flows) >= 3.0
        assert max(f.start_time for f in spec.flows) < 13.0


class TestUniformByName:
    def test_uniform_distribution_by_name(self):
        dist = distribution_by_name("uniform")
        assert dist.name == "uniform"
        assert dist.quantile(1.0) == 20

    def test_uniform_scale_stretches_tail(self):
        assert distribution_by_name("uniform", 2.0).quantile(1.0) == 40


class TestStreamWorkload:
    """Contracts of the lazy/chunked workload path (ARCHITECTURE.md §7):
    chunk-size independence, seed determinism, re-iterability, time order."""

    def _stream(self, **kwargs):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        defaults = dict(load=0.8, duration=20.0, seed=3)
        defaults.update(kwargs)
        return stream_workload(topo, uniform_distribution(), **defaults)

    def test_chunk_size_never_changes_the_workload(self):
        reference = list(self._stream(chunk=1))
        for chunk in (2, 7, 512):
            flows = list(self._stream(chunk=chunk))
            assert [(f.src_host, f.dst_host, f.size_packets, f.start_time,
                     f.flow_id) for f in flows] \
                == [(f.src_host, f.dst_host, f.size_packets, f.start_time,
                     f.flow_id) for f in reference]

    def test_stream_is_reiterable_and_deterministic(self):
        stream = self._stream()
        first, second = list(stream), list(stream)
        assert [f.__dict__ for f in first] == [f.__dict__ for f in second]
        again = list(self._stream())
        assert [f.__dict__ for f in first] == [f.__dict__ for f in again]
        assert [f.__dict__ for f in first] \
            != [f.__dict__ for f in self._stream(seed=4)]

    def test_flows_arrive_in_time_order_with_sequential_ids(self):
        flows = list(self._stream())
        assert flows, "expected a non-empty stream at load 0.8"
        times = [f.start_time for f in flows]
        assert times == sorted(times)
        assert [f.flow_id for f in flows] == list(range(len(flows)))

    def test_start_after_delays_the_window(self):
        flows = list(self._stream(start_after=5.0, duration=10.0))
        assert min(f.start_time for f in flows) >= 5.0
        assert max(f.start_time for f in flows) < 15.0

    def test_paired_mode_fixes_each_senders_receiver(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        senders, receivers = split_senders_receivers(topo)
        stream = stream_workload(topo, uniform_distribution(), load=0.8,
                                 duration=20.0, seed=3, senders=senders,
                                 receivers=receivers,
                                 pair_senders_receivers=True)
        pairing = dict(zip(senders, receivers))
        for flow in stream:
            assert pairing[flow.src_host] == flow.dst_host

    def test_returns_flowstream_metadata(self):
        stream = self._stream()
        assert isinstance(stream, FlowStream)
        assert stream.target_load == 0.8
        assert stream.duration == 20.0
        assert stream.distribution_name == "uniform"
        # Default selection is the disjoint half/half split, like the eager path.
        assert not set(stream.senders) & set(stream.receivers)
        assert len(stream.senders) + len(stream.receivers) == 4

    def test_validation_mirrors_eager_generator(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        with pytest.raises(WorkloadError):
            stream_workload(topo, uniform_distribution(), load=1.6, duration=5.0)
        with pytest.raises(WorkloadError):
            stream_workload(topo, uniform_distribution(), load=0.5, duration=0.0)
        with pytest.raises(WorkloadError):
            stream_workload(topo, uniform_distribution(), load=0.5, duration=5.0,
                            chunk=0)
        with pytest.raises(WorkloadError):
            stream_workload(topo, uniform_distribution(), load=0.5, duration=5.0,
                            senders=["h0"], receivers=["h1", "h2"],
                            pair_senders_receivers=True)

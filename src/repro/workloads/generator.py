"""Workload generation: Poisson flow arrivals tuned to a target network load.

The FCT experiments sweep "network load" from 10% to 90% (§6.3): the offered
load is the fraction of the senders' access-link capacity consumed by the
generated flows.  Given a flow-size distribution with mean ``m`` packets and a
host link capacity of ``C`` packets/ms, a per-sender arrival rate of
``load * C / m`` flows/ms achieves that offered load; arrivals are Poisson
(exponential inter-arrival times), matching standard datacenter workload
methodology.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import WorkloadError
from repro.simulator.flow import Flow
from repro.topology.graph import Topology
from repro.workloads.distributions import EmpiricalCDF, default_rng

__all__ = [
    "WorkloadSpec",
    "FlowStream",
    "generate_workload",
    "stream_workload",
    "split_senders_receivers",
    "random_pairs",
    "incast_pairs",
    "permutation_pairs",
]


@dataclass
class WorkloadSpec:
    """A fully described workload: who sends to whom, how much, and when."""

    flows: List[Flow]
    senders: List[str]
    receivers: List[str]
    target_load: float
    duration: float
    distribution_name: str

    @property
    def total_packets(self) -> int:
        return sum(f.size_packets for f in self.flows)

    def offered_load(self, host_capacity: float) -> float:
        """The realised offered load as a fraction of sender capacity."""
        if not self.senders or self.duration <= 0:
            return 0.0
        capacity_packets = len(self.senders) * host_capacity * self.duration
        return self.total_packets / capacity_packets if capacity_packets else 0.0


class FlowStream:
    """A lazily generated workload: flows arrive as a time-ordered iterator.

    The streaming counterpart of :class:`WorkloadSpec` for million-flow fluid
    scenarios — the full flow list is never materialized.  Iterating yields
    :class:`~repro.simulator.flow.Flow` objects in non-decreasing
    ``start_time`` order with sequential ``flow_id``s; each iteration (and the
    ``flows`` property) builds a fresh generator, so a stream can drive any
    number of runs with identical flows.
    """

    def __init__(self, senders: List[str], receivers: List[str],
                 target_load: float, duration: float, distribution_name: str,
                 factory: Callable[[], Iterator[Flow]]):
        self.senders = senders
        self.receivers = receivers
        self.target_load = target_load
        self.duration = duration
        self.distribution_name = distribution_name
        self._factory = factory

    def __iter__(self) -> Iterator[Flow]:
        return self._factory()

    @property
    def flows(self) -> Iterator[Flow]:
        """A fresh arrival-ordered flow iterator (mirrors ``WorkloadSpec.flows``)."""
        return self._factory()


#: Draws per substream refill in :func:`stream_workload`.  Purely an
#: amortization knob: the generated flows are identical for every chunk size.
_STREAM_CHUNK = 1024


def stream_workload(
    topology: Topology,
    distribution: EmpiricalCDF,
    load: float,
    duration: float,
    host_capacity: float = 10.0,
    seed: int = 0,
    senders: Optional[Sequence[str]] = None,
    receivers: Optional[Sequence[str]] = None,
    pair_senders_receivers: bool = False,
    start_after: float = 0.0,
    chunk: int = _STREAM_CHUNK,
) -> FlowStream:
    """The lazy/chunked counterpart of :func:`generate_workload`.

    Same Poisson arrival process and parameters, O(senders) memory: each
    sender owns three substreams (inter-arrival gaps, destinations, sizes)
    seeded ``(seed, sender_index, field)`` and refilled ``chunk`` draws at a
    time; the per-sender streams are lazily merged by
    ``(start_time, sender_index, seq)``.  Every flow is a pure function of
    the arguments — numpy's batched draws consume the bit stream exactly like
    repeated single draws, so ``chunk`` never changes the workload.

    The draw necessarily differs from :func:`generate_workload`'s single
    shared generator (its across-sender interleaving cannot be replayed
    without materializing every sender's arrivals), so the two paths produce
    statistically equivalent but not flow-identical workloads.  Packet-level
    scenarios keep the eager path; the fluid plane switches to this one when
    the expected flow count would make the eager list a memory hazard.
    """
    if not 0.0 < load <= 1.5:
        raise WorkloadError(f"load must be in (0, 1.5], got {load}")
    if duration <= 0:
        raise WorkloadError("duration must be positive")
    if chunk < 1:
        raise WorkloadError("chunk must be positive")

    if senders is None or receivers is None:
        default_senders, default_receivers = split_senders_receivers(topology)
        senders = list(senders) if senders is not None else default_senders
        receivers = list(receivers) if receivers is not None else default_receivers
    senders = list(senders)
    receivers = list(receivers)
    if pair_senders_receivers and len(senders) != len(receivers):
        raise WorkloadError("paired workloads need equally many senders and receivers")
    for index, sender in enumerate(senders):
        options = [receivers[index]] if pair_senders_receivers \
            else [r for r in receivers if r != sender]
        if not options:
            raise WorkloadError(f"sender {sender!r} has no eligible receiver")

    per_sender_rate = load * host_capacity / distribution.mean()
    end = start_after + duration

    def sender_stream(index: int, sender: str):
        gap_rng = default_rng((seed, index, 0))
        size_rng = default_rng((seed, index, 1))
        if pair_senders_receivers:
            options = [receivers[index]]
            dst_rng = None
        else:
            options = [r for r in receivers if r != sender]
            dst_rng = default_rng((seed, index, 2))
        time = start_after
        seq = 0
        while True:
            gaps = gap_rng.exponential(1.0 / per_sender_rate, chunk)
            sizes = distribution.sample(size_rng, chunk)
            picks = dst_rng.integers(0, len(options), chunk) \
                if dst_rng is not None else None
            for draw in range(chunk):
                time += float(gaps[draw])
                if time >= end:
                    return
                receiver = options[int(picks[draw])] if picks is not None \
                    else options[0]
                yield (time, index, seq, sender, receiver, int(sizes[draw]))
                seq += 1

    def merged() -> Iterator[Flow]:
        streams = [sender_stream(index, sender)
                   for index, sender in enumerate(senders)]
        for flow_id, (time, _index, _seq, src, dst, size) in enumerate(
                heapq.merge(*streams)):
            yield Flow(src_host=src, dst_host=dst, size_packets=size,
                       start_time=time, flow_id=flow_id)

    return FlowStream(
        senders=senders,
        receivers=receivers,
        target_load=load,
        duration=duration,
        distribution_name=distribution.name,
        factory=merged,
    )


def split_senders_receivers(topology: Topology) -> Tuple[List[str], List[str]]:
    """The paper's default host split: half the hosts send, the other half receive.

    Hosts are interleaved so that senders and receivers are spread across edge
    switches rather than clustered on one side of the fabric.
    """
    hosts = topology.hosts
    if len(hosts) < 2:
        raise WorkloadError("need at least two hosts to generate traffic")
    senders = hosts[0::2]
    receivers = hosts[1::2]
    if not receivers:
        receivers = [hosts[-1]]
    return senders, receivers


def random_pairs(topology: Topology, pairs: int, seed: int = 0,
                 distinct_switches: bool = True) -> Tuple[List[str], List[str]]:
    """Randomly chosen sender/receiver host pairs (the Abilene experiment uses 4)."""
    rng = default_rng(seed)
    hosts = topology.hosts
    if len(hosts) < 2:
        raise WorkloadError("need at least two hosts to pick pairs")
    senders: List[str] = []
    receivers: List[str] = []
    attempts = 0
    while len(senders) < pairs and attempts < 1000:
        attempts += 1
        a, b = rng.choice(hosts, size=2, replace=False)
        if distinct_switches and topology.attachment_switch(a) == topology.attachment_switch(b):
            continue
        senders.append(str(a))
        receivers.append(str(b))
    if len(senders) < pairs:
        raise WorkloadError(f"could not find {pairs} host pairs on distinct switches")
    return senders, receivers


def incast_pairs(
    topology: Topology,
    receiver: Optional[str] = None,
    fanin: Optional[int] = None,
    seed: int = 0,
) -> Tuple[List[str], List[str]]:
    """N-to-1 fan-in pairing: every sender targets the same receiver host.

    The returned lists are positionally paired (use
    ``pair_senders_receivers=True``): the receiver list repeats the single
    sink once per sender.  ``receiver=None`` picks a sink deterministically
    from ``seed``; ``fanin=None`` uses every other host as a sender, otherwise
    ``fanin`` senders are drawn (seed-deterministically) without replacement.
    """
    hosts = topology.hosts
    if len(hosts) < 2:
        raise WorkloadError("need at least two hosts for incast traffic")
    rng = default_rng(seed)
    if receiver is None:
        receiver = str(rng.choice(hosts))
    elif receiver not in hosts:
        raise WorkloadError(f"incast receiver {receiver!r} is not a host")
    candidates = [h for h in hosts if h != receiver]
    if fanin is None:
        senders = candidates
    else:
        if not 1 <= fanin <= len(candidates):
            raise WorkloadError(
                f"incast fan-in must be in [1, {len(candidates)}], got {fanin}")
        senders = [str(h) for h in rng.choice(candidates, size=fanin, replace=False)]
    return senders, [receiver] * len(senders)


def permutation_pairs(topology: Topology, seed: int = 0) -> Tuple[List[str], List[str]]:
    """Random derangement pairing: every host sends to exactly one other host.

    A seed-deterministic permutation of the hosts with fixed points repaired
    by swapping, so no host ever sends to itself and every host receives from
    exactly one sender (use ``pair_senders_receivers=True``).
    """
    hosts = topology.hosts
    if len(hosts) < 2:
        raise WorkloadError("need at least two hosts for permutation traffic")
    rng = default_rng(seed)
    perm = [int(i) for i in rng.permutation(len(hosts))]
    for i in range(len(perm)):
        if perm[i] == i:
            j = (i + 1) % len(perm)
            perm[i], perm[j] = perm[j], perm[i]
    return list(hosts), [hosts[p] for p in perm]


def generate_workload(
    topology: Topology,
    distribution: EmpiricalCDF,
    load: float,
    duration: float,
    host_capacity: float = 10.0,
    seed: int = 0,
    senders: Optional[Sequence[str]] = None,
    receivers: Optional[Sequence[str]] = None,
    pair_senders_receivers: bool = False,
    max_flows: Optional[int] = None,
    start_after: float = 0.0,
) -> WorkloadSpec:
    """Generate Poisson flow arrivals achieving ``load`` over ``duration`` ms.

    Parameters
    ----------
    load:
        Target offered load as a fraction of the senders' access capacity
        (0 < load <= 1.5; the paper sweeps 0.1–0.9, and moderate
        overload points up to 1.5 are accepted for stress scenarios).
        The load describes the *arrival process* only — how the offered
        work actually drains depends on the hosts' transport mode
        (``fixed`` blasts a full window at flow start; ``slowstart`` /
        ``paced`` ramp via the congestion window — see
        :mod:`repro.simulator.flow`), and delivered work is reported as
        goodput (unique segments), never inflated by retransmitted
        duplicates.
    pair_senders_receivers:
        When True, sender ``i`` only talks to receiver ``i`` (the Abilene
        four-pair setup); otherwise destinations are drawn uniformly from the
        receiver set (the fat-tree setup).
    max_flows:
        Optional safety cap on the number of generated flows.
    start_after:
        Warm-up delay in milliseconds: the first flow of every sender arrives
        after this time, giving the routing protocol time to converge before
        traffic is measured.  Arrivals then span
        ``[start_after, start_after + duration)``.
    """
    if not 0.0 < load <= 1.5:
        raise WorkloadError(f"load must be in (0, 1.5], got {load}")
    if duration <= 0:
        raise WorkloadError("duration must be positive")

    if senders is None or receivers is None:
        default_senders, default_receivers = split_senders_receivers(topology)
        senders = list(senders) if senders is not None else default_senders
        receivers = list(receivers) if receivers is not None else default_receivers
    senders = list(senders)
    receivers = list(receivers)
    if pair_senders_receivers and len(senders) != len(receivers):
        raise WorkloadError("paired workloads need equally many senders and receivers")

    rng = default_rng(seed)
    mean_size = distribution.mean()
    per_sender_rate = load * host_capacity / mean_size  # flows per ms
    scale = 1.0 / per_sender_rate
    end = start_after + duration

    flows: List[Flow] = []
    for index, sender in enumerate(senders):
        # Draws per flow: a gap, a receiver index (unpaired only: the same
        # PCG64 draw ``rng.choice(candidates)`` makes), then a size.
        candidates = None if pair_senders_receivers \
            else [str(r) for r in receivers if r != sender]
        time = start_after
        while True:
            time += float(rng.exponential(scale))
            if time >= end:
                break
            if candidates is None:
                receiver = receivers[index]
            else:
                receiver = candidates[rng.integers(0, len(candidates))]
            size = distribution.sample_one(rng)
            flows.append(Flow(src_host=sender, dst_host=receiver,
                              size_packets=size, start_time=time))
            if max_flows is not None and len(flows) >= max_flows:
                break
        if max_flows is not None and len(flows) >= max_flows:
            break

    flows.sort(key=lambda f: f.start_time)
    # Re-assign flow ids in arrival order: ids seed the stable flow hash that
    # drives ECMP/flowlet placement, so they must be a deterministic function
    # of the workload parameters, not of a process-global counter.
    for index, flow in enumerate(flows):
        flow.flow_id = index
    return WorkloadSpec(
        flows=flows,
        senders=senders,
        receivers=receivers,
        target_load=load,
        duration=duration,
        distribution_name=distribution.name,
    )

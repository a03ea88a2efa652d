"""Equivalence of the packet-plane hot paths with their straightforward forms.

The Hula probe path processes a whole same-tick probe run per call, shares
one probe packet across the downstream links and memoises its
shortest-path neighbour sets; the Contra logic caches per-switch constants
of its compiled program.  These tests pin each rewrite to the plain
computation it replaced: a verbatim copy of the per-probe Hula logic must
leave the same tables and put the same packets on the same links in the
same order, and every cache must equal its uncached source.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.baselines import HulaSystem
from repro.baselines.hula import _HULA_PROBE_BYTES, _BestHop, HulaRouting
from repro.core.compiler import compile_policy
from repro.core.policies import CA, MU, WP
from repro.protocol import ContraSystem
from repro.protocol.tables import packet_flow_hash
from repro.simulator import Flow, Network
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.switchnode import RoutingLogic
from repro.topology import fattree


class _LegacyHulaRouting(HulaRouting):
    """Hula's probe and fallback paths as they were before the run entry point.

    Copied from the earlier ``HulaRouting``: one probe processed per call,
    one packet built per downstream link, neighbour sets re-sorted on every
    use.  Only ``SwitchNode.send_probe``, since removed, is inlined.
    """

    on_probe_batch = RoutingLogic.on_probe_batch

    def probe_round(self) -> None:
        self._version += 1
        for neighbor in self._downstream_neighbors(self.name, origin=self.name):
            self._send_probe(neighbor, origin=self.name, version=self._version, util=0.0)

    def _downstream_neighbors(self, switch: str, origin: str) -> List[str]:
        distances = self.system.distances
        here = distances.get(origin, {}).get(switch)
        if here is None:
            return []
        result = []
        for neighbor in self.network.switches[switch].switch_neighbors():
            there = distances.get(origin, {}).get(neighbor)
            if there is not None and there > here:
                result.append(neighbor)
        return result

    def _send_probe(self, neighbor: str, origin: str, version: int, util: float) -> None:
        packet = Packet(
            kind=PacketKind.PROBE,
            src_host=self.name,
            dst_host="",
            size_bytes=_HULA_PROBE_BYTES,
            probe={"origin": origin, "version": version, "util": util},
        )
        link = self.switch.ports.get(neighbor)
        if link is not None and not link.failed:
            link.enqueue(packet)

    def on_probe(self, packet: Packet, inport: str) -> None:
        now = self.network.sim.now
        self._last_probe_from[inport] = now
        self._believed_failed[inport] = False
        data = packet.probe or {}
        origin = data["origin"]
        version = int(data["version"])
        if origin == self.name:
            return
        util = max(float(data["util"]), self.switch.egress(inport).congestion)

        entry = self.best.get(origin)
        accept = (
            entry is None
            or version > entry.version
            or (version == entry.version and util < entry.utilization)
        )
        if not accept:
            return
        self.best[origin] = _BestHop(inport, util, version, now)
        for neighbor in self._downstream_neighbors(self.name, origin):
            if neighbor != inport:
                self._send_probe(neighbor, origin, version, util)

    def on_data_packet(self, packet: Packet, inport: str) -> Optional[str]:
        destination = packet.dst_switch
        now = self.network.sim.now
        fid = packet_flow_hash(packet) % self.flowlets.slots

        pinned = self.flowlets.lookup(destination, 0, 0, fid, now)
        if pinned is not None and self._usable(pinned.next_hop):
            self.flowlets.touch(pinned, now)
            return pinned.next_hop
        if pinned is not None:
            self.flowlets.expire(destination, 0, 0, fid)
            self.network.stats.flowlet_expirations += 1

        entry = self.best.get(destination)
        if entry is None or not self._usable(entry.next_hop) or self._stale(entry, now):
            fallback = self._fallback_next_hop(destination)
            if fallback is None:
                return None
            self.flowlets.install(destination, 0, 0, fid, fallback, 0, now)
            return fallback
        self.flowlets.install(destination, 0, 0, fid, entry.next_hop, 0, now)
        return entry.next_hop

    def _stale(self, entry: _BestHop, now: float) -> bool:
        max_age = self.system.probe_period * (self.system.failure_periods + 1)
        return now - entry.updated_at > max_age

    def _fallback_next_hop(self, destination: str) -> Optional[str]:
        distances = self.system.distances
        here = distances.get(destination, {}).get(self.name)
        if here is None:
            return None
        candidates = []
        for neighbor in self.switch.switch_neighbors():
            there = distances.get(destination, {}).get(neighbor)
            if there is not None and there < here and self._usable(neighbor):
                candidates.append(neighbor)
        return candidates[0] if candidates else None


class _LegacyHulaSystem(HulaSystem):
    def create_switch_logic(self, switch: str) -> RoutingLogic:
        logic = _LegacyHulaRouting(self, switch)
        self._logics[switch] = logic
        return logic


def _run_hula(system_cls, failed_link):
    """Run Hula on a k=4 fat-tree with traffic; return tables and link trace."""
    topology = fattree(4, capacity=20.0)
    system = system_cls(probe_period=0.25)
    network = Network(topology, system)
    trace = []
    for key in sorted(network.links):
        link = network.links[key]
        inner = link.enqueue

        def enqueue(packet, inner=inner, key=key):
            probe = packet.probe
            trace.append((network.sim.now, key, packet.kind, packet.flow_id,
                          packet.seq, packet.ack_seq,
                          tuple(sorted(probe.items())) if probe else None))
            return inner(packet)

        link.enqueue = enqueue
    hosts = topology.hosts
    flows = [Flow(hosts[i], hosts[-1 - i], 30, 0.05 * i, flow_id=i)
             for i in range(8)]
    network.schedule_flows(flows)
    if failed_link is not None:
        network.fail_link(*failed_link, at_time=1.0)
        network.recover_link(*failed_link, at_time=2.5)
    network.run(4.0)
    tables = {name: dict(system.logic(name).best) for name in network.switches}
    return tables, trace, network.sim.events_processed, network.stats.summary()


@pytest.mark.parametrize("failed_link", [None, ("a0_0", "c0"), ("e1_0", "a1_1")])
def test_hula_run_path_matches_per_probe_path(failed_link):
    tables, trace, events, summary = _run_hula(HulaSystem, failed_link)
    old_tables, old_trace, old_events, old_summary = _run_hula(
        _LegacyHulaSystem, failed_link)
    assert any(kind == "probe" for _, _, kind, *_ in trace)
    assert any(kind == "data" for _, _, kind, *_ in trace)
    assert tables == old_tables
    assert trace == old_trace
    assert events == old_events
    assert summary == old_summary


def test_hula_neighbor_memo_equals_uncached_sets():
    topology = fattree(4)
    system = HulaSystem()
    network = Network(topology, system)
    legacy = _LegacyHulaSystem()
    legacy_network = Network(topology, legacy)
    for name in network.switches:
        logic = system.logic(name)
        reference = legacy.logic(name)
        for origin in network.switches:
            downstream, upstream = logic._neighbors_towards(origin)
            assert list(downstream) == reference._downstream_neighbors(name, origin)
            here = system.distances[origin][name]
            assert list(upstream) == [
                neighbor for neighbor in legacy_network.switches[name].switch_neighbors()
                if system.distances[origin][neighbor] < here]
            # The memo is filled once and reused.
            assert logic._neighbors_towards(origin) is logic._neighbors_towards(origin)
        assert logic._neighbors_towards("no-such-switch") == ((), ())


@pytest.mark.parametrize("policy", [MU, CA, lambda: WP(("c0", "c1"))])
def test_contra_cached_constants_equal_config(policy):
    topology = fattree(4)
    system = ContraSystem(compile_policy(policy(), topology))
    network = Network(topology, system)
    for name in network.switches:
        logic = system.logic(name)
        config = logic.config
        assert logic._packet_tag_bits == config.packet_tag_bits()
        assert logic._probe_bits == config.probe_bits()
        assert logic._max_age == system.probe_period * (system.failure_periods + 1)
        assert logic._multicast_targets == {
            tag: config.multicast_targets(tag) for tag in config.tags}

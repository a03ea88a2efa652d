"""Hula baseline (Katta et al., SOSR 2016).

Hula is the state-of-the-art hand-crafted comparison point in Figures 11/12/14:
utilization-aware load balancing over the *shortest* paths of a datacenter
topology, implemented entirely in the data plane with periodic probes and
flowlet switching.

The implementation here follows the published design:

* every ToR (a switch with attached hosts) periodically originates probes
  carrying the bottleneck (max) utilization seen so far;
* probes are flooded along the shortest-path DAG away from the origin — on a
  Fat-tree this is exactly Hula's "up then down" multicast, and the same rule
  generalises the baseline to any topology where it is given shortest paths
  a priori (the paper notes this static knowledge is precisely what Hula has
  and Contra must discover);
* each switch keeps, per destination ToR, the best next hop and its path
  utilization, refreshed by versioned probes;
* data packets are forwarded with flowlet switching on the best next hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.protocol.tables import FlowletTable, packet_flow_hash
from repro.simulator.network import Network, RoutingSystem
from repro.simulator.packet import BASE_PROBE_BYTES, Packet, PacketKind
from repro.simulator.switchnode import RoutingLogic

__all__ = ["HulaSystem", "HulaRouting"]

#: Hula probe payload: origin ToR id + version + utilization.
_HULA_PROBE_BYTES = BASE_PROBE_BYTES + 8


@dataclass(slots=True)
class _BestHop:
    next_hop: str
    utilization: float
    version: int
    updated_at: float


class HulaSystem(RoutingSystem):
    """Hula: utilization-aware load balancing over shortest paths."""

    name = "hula"

    def __init__(
        self,
        probe_period: float = 0.25,
        flowlet_timeout: float = 0.2,
        failure_periods: int = 3,
    ):
        self.probe_period = probe_period
        self.flowlet_timeout = flowlet_timeout
        self.failure_periods = failure_periods
        self._logics: Dict[str, "HulaRouting"] = {}
        #: hop distance between every pair of switches (static shortest paths).
        self.distances: Dict[str, Dict[str, float]] = {}

    def prepare(self, network: Network) -> None:
        self.distances = network.topology.shortest_path_lengths()

    def create_switch_logic(self, switch: str) -> RoutingLogic:
        logic = HulaRouting(self, switch)
        self._logics[switch] = logic
        return logic

    def start(self, network: Network) -> None:
        # One recurring engine event coalesces every per-switch round of a
        # probe period (and one more the failure checks); see ContraSystem.
        origins = [self._logics[switch] for switch in network.destination_switches()]
        if origins:
            network.sim.schedule_periodic(self.probe_period, self._probe_all, origins)
        logics = list(self._logics.values())
        if logics:
            network.sim.schedule_periodic(
                self.probe_period, self._failure_check_all, logics,
                start_delay=self.probe_period * self.failure_periods)

    #: Same-tick rounds the race detector may permute; see ContraSystem.
    commutable_rounds = ("_probe_all", "_failure_check_all")

    @staticmethod
    def _probe_all(origins: List["HulaRouting"]) -> None:
        for logic in origins:
            logic.probe_round()

    def _failure_check_all(self, logics: List["HulaRouting"]) -> None:
        # Mutually independent per-switch checks; order is undocumented and
        # shuffled by the race detector when installed (see ContraSystem).
        rng = self.race_rng
        if rng is not None:
            logics = list(logics)
            rng.shuffle(logics)
        for logic in logics:
            logic.failure_check()

    def logic(self, switch: str) -> "HulaRouting":
        return self._logics[switch]


class HulaRouting(RoutingLogic):
    """Per-switch Hula logic."""

    def __init__(self, system: HulaSystem, name: str):
        self.system = system
        self.name = name
        self.best: Dict[str, _BestHop] = {}
        self.flowlets = FlowletTable(system.flowlet_timeout)
        self._version = 0
        self._last_probe_from: Dict[str, float] = {}
        self._believed_failed: Dict[str, bool] = {}
        self._max_age = system.probe_period * (system.failure_periods + 1)
        #: origin -> (downstream, upstream) neighbours; see _neighbors_towards.
        self._neighbor_memo: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}

    # --------------------------------------------------------------- lifecycle

    def attach(self, switch, network) -> None:
        super().attach(switch, network)
        for neighbor in switch.switch_neighbors():
            self._last_probe_from[neighbor] = 0.0
            self._believed_failed[neighbor] = False

    def start_probing(self) -> None:
        self.network.sim.schedule_periodic(self.system.probe_period, self.probe_round)

    def start_failure_detection(self) -> None:
        period = self.system.probe_period
        self.network.sim.schedule_periodic(
            period, self.failure_check,
            start_delay=period * self.system.failure_periods)

    # ------------------------------------------------------------------ probes

    def _neighbors_towards(self, origin: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Neighbours strictly farther from / nearer to ``origin``, sorted.

        The farther ones are this switch's out-edges of the shortest-path
        DAG rooted at ``origin`` (where its probes flood); the nearer ones
        are its shortest-path next hops towards ``origin``.  Both depend
        only on the static distances and the wiring, so they are computed
        once per origin, on first use (after ``prepare``).
        """
        memo = self._neighbor_memo.get(origin)
        if memo is None:
            distances = self.system.distances.get(origin, {})
            here = distances.get(self.name)
            farther: List[str] = []
            nearer: List[str] = []
            if here is not None:
                for neighbor in self.switch.switch_neighbors():
                    there = distances.get(neighbor)
                    if there is not None:
                        if there > here:
                            farther.append(neighbor)
                        elif there < here:
                            nearer.append(neighbor)
            memo = self._neighbor_memo[origin] = (tuple(farther), tuple(nearer))
        return memo

    def probe_round(self) -> None:
        self._version += 1
        self._multicast(self.name, self._version, 0.0, exclude=None)

    def _multicast(self, origin: str, version: int, util: float,
                   exclude: Optional[str]) -> None:
        """Send one probe down the shortest-path DAG away from ``origin``.

        One packet is shared by every target link: probes are never mutated
        in flight.
        """
        # Believed-failed neighbours still get probes: the failed link drops
        # them, and the first probe through the recovered link is what clears
        # the far side's failure belief (recovery detection mirrors failure
        # detection — both work purely by probe arrival/silence).
        packet = None
        ports = self.switch.ports
        for neighbor in self._neighbors_towards(origin)[0]:
            if neighbor == exclude:
                continue
            if packet is None:
                packet = Packet(
                    kind=PacketKind.PROBE,
                    src_host=self.name,
                    dst_host="",
                    size_bytes=_HULA_PROBE_BYTES,
                    probe={"origin": origin, "version": version, "util": util},
                )
            link = ports.get(neighbor)
            if link is not None and not link.failed:
                link.enqueue(packet)

    def on_probe(self, packet: Packet, inport: str) -> None:
        self.on_probe_batch((packet,), inport)

    def on_probe_batch(self, packets: Sequence[Packet], inport: str) -> None:
        """Process one same-tick probe run from ``inport``, in FIFO order.

        The probe-silence refresh is done once per run.  The ingress link's
        congestion is read at the first probe that needs it: nothing in the
        run can enqueue on that link (probes never flow back to their
        inport), so every later read in the run would return the same value.
        """
        now = self.network.sim._now
        self._last_probe_from[inport] = now
        self._believed_failed[inport] = False
        name = self.name
        best = self.best
        congestion = None
        for packet in packets:
            data = packet.probe or {}
            origin = data["origin"]
            if origin == name:
                continue
            version = int(data["version"])
            # Bottleneck utilization of the traffic-direction link (this ->
            # inport), including standing-queue pressure (same estimator
            # Contra reads).
            if congestion is None:
                congestion = self.switch.egress(inport).congestion
            util = max(float(data["util"]), congestion)
            entry = best.get(origin)
            if entry is not None and version <= entry.version and not (
                    version == entry.version and util < entry.utilization):
                continue
            best[origin] = _BestHop(inport, util, version, now)
            self._multicast(origin, version, util, exclude=inport)

    # -------------------------------------------------------------- forwarding

    def on_data_packet(self, packet: Packet, inport: str) -> Optional[str]:
        destination = packet.dst_switch
        now = self.network.sim._now
        fid = packet_flow_hash(packet) % self.flowlets.slots

        pinned = self.flowlets.lookup(destination, 0, 0, fid, now)
        if pinned is not None and self._usable(pinned.next_hop):
            self.flowlets.touch(pinned, now)
            return pinned.next_hop
        if pinned is not None:
            self.flowlets.expire(destination, 0, 0, fid)
            self.network.stats.flowlet_expirations += 1

        entry = self.best.get(destination)
        if entry is None or not self._usable(entry.next_hop) or \
                now - entry.updated_at > self._max_age:
            fallback = self._fallback_next_hop(destination)
            if fallback is None:
                return None
            self.flowlets.install(destination, 0, 0, fid, fallback, 0, now)
            return fallback
        self.flowlets.install(destination, 0, 0, fid, entry.next_hop, 0, now)
        return entry.next_hop

    def _usable(self, neighbor: str) -> bool:
        if self._believed_failed.get(neighbor, False):
            return False
        link = self.switch.ports.get(neighbor)
        return link is not None and not link.failed

    def _fallback_next_hop(self, destination: str) -> Optional[str]:
        """When probe state is missing, fall back to any live shortest-path hop."""
        for neighbor in self._neighbors_towards(destination)[1]:
            if self._usable(neighbor):
                return neighbor
        return None

    # ---------------------------------------------------------------- failures

    def failure_check(self) -> None:
        now = self.network.sim.now
        window = self.system.probe_period * self.system.failure_periods
        for neighbor, last_seen in self._last_probe_from.items():
            silent = now - last_seen > window
            if silent and not self._believed_failed.get(neighbor, False):
                self._believed_failed[neighbor] = True
                self.network.stats.failure_detections += 1
                self.network.stats.flowlet_expirations += self.flowlets.expire_via(neighbor)
            elif not silent:
                self._believed_failed[neighbor] = False

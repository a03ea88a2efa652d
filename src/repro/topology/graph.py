"""Core topology model.

A :class:`Topology` is a collection of named switches and hosts connected by
bidirectional links with capacities and propagation delays.  It is the input
to both the Contra compiler (which only needs the switch-level graph) and the
discrete-event simulator (which also needs the hosts and link parameters).

The model deliberately keeps units abstract:

* capacity is expressed in *packets per millisecond* so the simulator does not
  have to track bytes at 10 Gbps scale, and
* latency is expressed in *milliseconds*.

Relative comparisons between routing systems (the thing the Contra evaluation
measures) are invariant to this scaling; see DESIGN.md §4.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import TopologyError

__all__ = ["Link", "Topology", "NodeKind"]

_INF = float("inf")

#: A switch graph indexed for :func:`_dijkstra`: (names, name -> index,
#: adjacency lists of (neighbor index, link cost)).
_Adjacency = Tuple[List[str], Dict[str, int], List[List[Tuple[int, float]]]]
#: ``table[src][dst]`` -> next-hop switches (see ``Topology.next_hop_table``).
NextHopTable = Dict[str, Dict[str, List[str]]]


def _dijkstra(adj: List[List[Tuple[int, float]]], src: int) -> List[float]:
    """Shortest distances from ``src`` over an indexed adjacency (inf if unreached)."""
    dist = [_INF] * len(adj)
    dist[src] = 0.0
    heap = [(0.0, src)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        for nbr, step in adj[node]:
            nd = d + step
            if nd < dist[nbr]:
                dist[nbr] = nd
                push(heap, (nd, nbr))
    return dist


class NodeKind:
    """Symbolic names for the node roles used by topology generators."""

    SWITCH = "switch"
    HOST = "host"
    # Finer-grained roles used by datacenter generators; all are switches.
    CORE = "core"
    AGGREGATION = "aggregation"
    EDGE = "edge"
    SPINE = "spine"
    LEAF = "leaf"

    SWITCH_ROLES = frozenset({SWITCH, CORE, AGGREGATION, EDGE, SPINE, LEAF})


@dataclass(frozen=True)
class Link:
    """A directed link between two nodes.

    Topologies are built from bidirectional links, but internally every
    bidirectional link is stored as two directed :class:`Link` objects so the
    simulator can model asymmetric queues and per-direction utilization.
    """

    src: str
    dst: str
    capacity: float = 10.0
    latency: float = 0.05
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise TopologyError(f"self-loop link {self.src!r} -> {self.dst!r} is not allowed")
        if self.capacity <= 0:
            raise TopologyError(f"link {self.src}->{self.dst} capacity must be positive")
        if self.latency < 0:
            raise TopologyError(f"link {self.src}->{self.dst} latency must be non-negative")

    @property
    def key(self) -> Tuple[str, str]:
        """The (src, dst) pair identifying this directed link."""
        return (self.src, self.dst)

    def reversed(self) -> "Link":
        """Return the same link in the opposite direction."""
        return replace(self, src=self.dst, dst=self.src)


class Topology:
    """A network topology of switches, hosts and links.

    Parameters
    ----------
    name:
        Human readable topology name, used in reports.
    """

    def __init__(self, name: str = "topology"):
        self.name = name
        self._nodes: Dict[str, str] = {}              # node -> kind
        self._links: Dict[Tuple[str, str], Link] = {}  # directed
        self._host_attachment: Dict[str, str] = {}     # host -> switch
        #: Lazily built adjacency index (node -> sorted out-neighbors), so a
        #: ``neighbors`` call does not scan every link.
        self._neighbor_index: Dict[str, List[str]] = {}
        self._neighbor_index_built = False
        #: Memoised switch-graph searches, dropped with the neighbor index on
        #: every change to the nodes or links: the integer-indexed
        #: adjacencies behind the shortest-path searches (see
        #: ``_switch_adjacency``), ``max_rtt`` and ``next_hop_table``.
        self._adjacency_memo: Dict[Tuple[Optional[str], bool], _Adjacency] = {}
        self._max_rtt_memo: Optional[float] = None
        self._next_hop_memo: Dict[bool, NextHopTable] = {}

    # ------------------------------------------------------------------ nodes

    def add_switch(self, node: str, role: str = NodeKind.SWITCH) -> None:
        """Add a switch (optionally with a datacenter role such as ``core``)."""
        if role not in NodeKind.SWITCH_ROLES:
            raise TopologyError(f"unknown switch role {role!r}")
        existing = self._nodes.get(node)
        if existing is not None and existing not in NodeKind.SWITCH_ROLES:
            raise TopologyError(f"node {node!r} already exists as a host")
        self._nodes[node] = role
        self._invalidate_neighbor_index()

    def add_host(self, host: str, switch: str) -> None:
        """Add a host attached to ``switch``; the attachment link is added separately."""
        if host in self._nodes and self._nodes[host] in NodeKind.SWITCH_ROLES:
            raise TopologyError(f"node {host!r} already exists as a switch")
        if switch not in self._nodes or self._nodes[switch] not in NodeKind.SWITCH_ROLES:
            raise TopologyError(f"host {host!r} attaches to unknown switch {switch!r}")
        self._nodes[host] = NodeKind.HOST
        self._host_attachment[host] = switch

    def has_node(self, node: str) -> bool:
        return node in self._nodes

    def node_role(self, node: str) -> str:
        try:
            return self._nodes[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def is_switch(self, node: str) -> bool:
        return self._nodes.get(node) in NodeKind.SWITCH_ROLES

    def is_host(self, node: str) -> bool:
        return self._nodes.get(node) == NodeKind.HOST

    @property
    def switches(self) -> List[str]:
        """All switch names, sorted for determinism."""
        return sorted(n for n, kind in self._nodes.items() if kind in NodeKind.SWITCH_ROLES)

    @property
    def hosts(self) -> List[str]:
        """All host names, sorted for determinism."""
        return sorted(n for n, kind in self._nodes.items() if kind == NodeKind.HOST)

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def switches_with_role(self, role: str) -> List[str]:
        """Switches whose role equals ``role`` (e.g. ``core``)."""
        return sorted(n for n, kind in self._nodes.items() if kind == role)

    def attachment_switch(self, host: str) -> str:
        """The switch a host is attached to."""
        try:
            return self._host_attachment[host]
        except KeyError:
            raise TopologyError(f"unknown host {host!r}") from None

    def hosts_of_switch(self, switch: str) -> List[str]:
        """Hosts attached to the given switch."""
        return sorted(h for h, s in self._host_attachment.items() if s == switch)

    # ------------------------------------------------------------------ links

    def add_link(
        self,
        a: str,
        b: str,
        capacity: float = 10.0,
        latency: float = 0.05,
        weight: float = 1.0,
        bidirectional: bool = True,
    ) -> None:
        """Add a link between existing nodes ``a`` and ``b``.

        By default both directions are added with identical parameters.
        """
        for node in (a, b):
            if node not in self._nodes:
                raise TopologyError(f"cannot link unknown node {node!r}")
        if (a, b) in self._links:
            raise TopologyError(f"duplicate link {a!r} -> {b!r}")
        self._links[(a, b)] = Link(a, b, capacity=capacity, latency=latency, weight=weight)
        if bidirectional:
            if (b, a) in self._links:
                raise TopologyError(f"duplicate link {b!r} -> {a!r}")
            self._links[(b, a)] = Link(b, a, capacity=capacity, latency=latency, weight=weight)
        self._invalidate_neighbor_index()

    def remove_link(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Remove the link(s) between ``a`` and ``b``."""
        if (a, b) not in self._links:
            raise TopologyError(f"no link {a!r} -> {b!r} to remove")
        del self._links[(a, b)]
        if bidirectional and (b, a) in self._links:
            del self._links[(b, a)]
        self._invalidate_neighbor_index()

    def _invalidate_neighbor_index(self) -> None:
        """Drop every index and search result derived from the nodes and links."""
        self._neighbor_index = {}
        self._neighbor_index_built = False
        self._adjacency_memo = {}
        self._max_rtt_memo = None
        self._next_hop_memo = {}

    def has_link(self, a: str, b: str) -> bool:
        return (a, b) in self._links

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[(a, b)]
        except KeyError:
            raise TopologyError(f"no link {a!r} -> {b!r}") from None

    @property
    def links(self) -> List[Link]:
        """All directed links, sorted for determinism."""
        return [self._links[key] for key in sorted(self._links)]

    @property
    def undirected_links(self) -> List[Link]:
        """One representative per bidirectional pair (src < dst)."""
        seen: Set[Tuple[str, str]] = set()
        result: List[Link] = []
        for key in sorted(self._links):
            a, b = key
            if (b, a) in seen:
                continue
            seen.add(key)
            result.append(self._links[key])
        return result

    def neighbors(self, node: str) -> List[str]:
        """Nodes reachable from ``node`` over a single directed link (sorted)."""
        if node not in self._nodes:
            raise TopologyError(f"unknown node {node!r}")
        if not self._neighbor_index_built:
            index: Dict[str, List[str]] = {}
            for (src, dst) in self._links:
                index.setdefault(src, []).append(dst)
            for out in index.values():
                out.sort()
            self._neighbor_index = index
            self._neighbor_index_built = True
        cached = self._neighbor_index.get(node)
        # Callers own the returned list (the historical contract returned a
        # fresh list per call), so hand out a copy of the index row.
        return list(cached) if cached is not None else []

    def switch_neighbors(self, node: str) -> List[str]:
        """Neighboring switches of ``node`` (hosts excluded)."""
        is_switch = self._nodes.get
        return [n for n in self.neighbors(node)
                if is_switch(n) in NodeKind.SWITCH_ROLES]

    def degree(self, node: str) -> int:
        return len(self.neighbors(node))

    # ------------------------------------------------------------- algorithms

    def switch_graph(self) -> Dict[str, List[str]]:
        """Adjacency mapping restricted to switches (the compiler's view)."""
        return {s: self.switch_neighbors(s) for s in self.switches}

    def shortest_path_lengths(self, weighted: bool = False) -> Dict[str, Dict[str, float]]:
        """All-pairs shortest path lengths over the switch graph.

        Hop counts, or link ``weight`` sums when ``weighted`` is true.  Only
        switches are considered.
        """
        return {src: self._single_source_lengths(src, weighted) for src in self.switches}

    def _switch_adjacency(self, cost: Optional[str], reverse: bool = False) -> _Adjacency:
        """The switch graph as ``(names, index, adj)`` for :func:`_dijkstra`.

        ``names`` is :attr:`switches`, ``index`` maps a name to its position
        and ``adj[i]`` lists ``(j, c)`` for every switch-to-switch link
        ``i -> j`` (``j -> i`` when ``reverse``), ``c`` being the link's
        ``cost`` attribute, or 1.0 when ``cost`` is None.  Memoised until the
        topology changes.
        """
        key = (cost, reverse)
        cached = self._adjacency_memo.get(key)
        if cached is None:
            names = self.switches
            index = {name: i for i, name in enumerate(names)}
            adj: List[List[Tuple[int, float]]] = [[] for _ in names]
            for (src, dst), link in self._links.items():
                i, j = index.get(src), index.get(dst)
                if i is None or j is None:
                    continue
                step = getattr(link, cost) if cost else 1.0
                if reverse:
                    adj[j].append((i, step))
                else:
                    adj[i].append((j, step))
            cached = self._adjacency_memo[key] = (names, index, adj)
        return cached

    def _single_source_lengths(self, src: str, weighted: bool,
                               reverse: bool = False) -> Dict[str, float]:
        """Shortest lengths from ``src`` (to ``src`` when ``reverse``)."""
        names, index, adj = self._switch_adjacency("weight" if weighted else None, reverse)
        if src not in index:
            raise TopologyError(f"unknown switch {src!r}")
        dist = _dijkstra(adj, index[src])
        return {names[i]: d for i, d in enumerate(dist) if d != _INF}

    def shortest_paths(self, src: str, dst: str, weighted: bool = False) -> List[List[str]]:
        """All shortest switch-level paths from ``src`` to ``dst``.

        Returns a list of node sequences (including endpoints), sorted for
        determinism.  Used by ECMP/Hula/SPAIN baselines.
        """
        if src == dst:
            return [[src]]
        dist_from_src = self._single_source_lengths(src, weighted)
        if dst not in dist_from_src:
            return []
        dist_to_dst = self._single_source_lengths(dst, weighted, reverse=True)
        total = dist_from_src[dst]
        paths: List[List[str]] = []

        def extend(prefix: List[str]) -> None:
            node = prefix[-1]
            if node == dst:
                paths.append(list(prefix))
                return
            for nbr in self.switch_neighbors(node):
                step = self._links[(node, nbr)].weight if weighted else 1.0
                if nbr in dist_to_dst and (
                    abs(dist_from_src[node] + step + dist_to_dst[nbr] - total) < 1e-9
                ):
                    prefix.append(nbr)
                    extend(prefix)
                    prefix.pop()

        extend([src])
        return sorted(paths)

    def all_simple_paths(self, src: str, dst: str, cutoff: Optional[int] = None) -> List[List[str]]:
        """All simple switch-level paths up to ``cutoff`` hops (inclusive)."""
        if cutoff is None:
            cutoff = len(self.switches)
        paths: List[List[str]] = []

        def walk(prefix: List[str], visited: Set[str]) -> None:
            node = prefix[-1]
            if node == dst:
                paths.append(list(prefix))
                return
            if len(prefix) - 1 >= cutoff:
                return
            for nbr in self.switch_neighbors(node):
                if nbr in visited:
                    continue
                visited.add(nbr)
                prefix.append(nbr)
                walk(prefix, visited)
                prefix.pop()
                visited.remove(nbr)

        walk([src], {src})
        return sorted(paths)

    def is_connected(self) -> bool:
        """Whether the switch graph is connected (ignoring hosts)."""
        switches = self.switches
        if not switches:
            return True
        seen = {switches[0]}
        stack = [switches[0]]
        while stack:
            node = stack.pop()
            for nbr in self.switch_neighbors(node):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen) == len(switches)

    def diameter(self) -> int:
        """Switch-graph diameter in hops; raises if disconnected."""
        if not self.is_connected():
            raise TopologyError("cannot compute diameter of a disconnected topology")
        lengths = self.shortest_path_lengths()
        worst = 0.0
        for src, row in lengths.items():
            for dst in self.switches:
                if dst not in row:
                    raise TopologyError("cannot compute diameter of a disconnected topology")
                worst = max(worst, row[dst])
        return int(worst)

    def max_rtt(self) -> float:
        """The highest round-trip propagation time between any pair of switches.

        Contra's probe period must be at least 0.5x this value (§5.2).
        Memoised until the topology changes.
        """
        if self._max_rtt_memo is None:
            _names, _index, adj = self._switch_adjacency("latency")
            worst = 0.0
            for src in range(len(adj)):
                worst = max(worst, max(d for d in _dijkstra(adj, src) if d != _INF))
            self._max_rtt_memo = 2.0 * worst
        return self._max_rtt_memo

    def next_hop_table(self, all_hops: bool = True) -> NextHopTable:
        """For every switch, its shortest-path next hops towards every other switch.

        ``table[src][dst]`` lists, in sorted order, the switch neighbours of
        ``src`` one hop closer to ``dst``; unreachable pairs are absent.
        ``all_hops`` keeps every equal-cost next hop (ECMP); otherwise only
        the first one (the all-hops row's ``hops[:1]``, single shortest
        path).  Memoised until the topology changes: every caller gets the
        same table object, so it must be treated as read-only.
        """
        table = self._next_hop_memo.get(all_hops)
        if table is None:
            if all_hops:
                table = self._all_next_hops()
            else:
                table = {src: {dst: hops[:1] for dst, hops in row.items()}
                         for src, row in self.next_hop_table(True).items()}
            self._next_hop_memo[all_hops] = table
        return table

    def _all_next_hops(self) -> NextHopTable:
        switches = self.switches
        table: NextHopTable = {s: {} for s in switches}
        lengths = self.shortest_path_lengths()
        for src in switches:
            neighbors = self.switch_neighbors(src)
            for dst in switches:
                if src == dst or dst not in lengths[src]:
                    continue
                hops = [
                    nbr for nbr in neighbors
                    if dst in lengths[nbr] and lengths[nbr][dst] + 1 == lengths[src][dst]
                ]
                hops.sort()
                if hops:
                    table[src][dst] = hops
        return table

    # ------------------------------------------------------------------ misc

    def copy(self, name: Optional[str] = None) -> "Topology":
        """A deep copy, optionally renamed."""
        clone = Topology(name or self.name)
        clone._nodes = dict(self._nodes)
        clone._links = dict(self._links)
        clone._host_attachment = dict(self._host_attachment)
        return clone

    def with_failed_link(self, a: str, b: str) -> "Topology":
        """A copy of this topology with the ``a``–``b`` link removed (both directions)."""
        clone = self.copy(name=f"{self.name}-failed-{a}-{b}")
        clone.remove_link(a, b, bidirectional=True)
        return clone

    def to_networkx(self):
        """Export the switch graph to a :mod:`networkx` graph (for analysis/plotting)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for node in self.nodes:
            graph.add_node(node, kind=self._nodes[node])
        for link in self.links:
            graph.add_edge(link.src, link.dst, capacity=link.capacity,
                           latency=link.latency, weight=link.weight)
        return graph

    def validate(self) -> None:
        """Raise :class:`TopologyError` if the topology is structurally invalid."""
        for (src, dst) in self._links:
            if src not in self._nodes or dst not in self._nodes:
                raise TopologyError(f"link {src}->{dst} references unknown node")
        for host, switch in self._host_attachment.items():
            if not self.has_link(host, switch) or not self.has_link(switch, host):
                raise TopologyError(f"host {host!r} has no link to its attachment switch {switch!r}")
        if not self.is_connected():
            raise TopologyError(f"topology {self.name!r} switch graph is disconnected")

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (f"Topology({self.name!r}, switches={len(self.switches)}, "
                f"hosts={len(self.hosts)}, links={len(self._links)})")

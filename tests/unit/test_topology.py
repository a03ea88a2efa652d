"""Unit tests for the topology substrate."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import TopologyError
from repro.topology import (
    ABILENE_NODES,
    FATTREE_SWITCH_COUNTS,
    Topology,
    abilene,
    builtin_topologies,
    builtin_topology,
    erdos_renyi,
    fattree,
    fattree_for_switch_count,
    from_adjacency,
    from_edge_list,
    from_edge_list_file,
    leafspine,
    random_regular,
    waxman,
)
from repro.topology.graph import Link, NodeKind


class TestLink:
    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "A")

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "B", capacity=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "B", latency=-1)

    def test_reversed(self):
        link = Link("A", "B", capacity=5, latency=0.1)
        rev = link.reversed()
        assert rev.src == "B" and rev.dst == "A" and rev.capacity == 5


class TestTopologyBasics:
    def build(self):
        topo = Topology("t")
        topo.add_switch("A")
        topo.add_switch("B")
        topo.add_switch("C")
        topo.add_link("A", "B")
        topo.add_link("B", "C")
        topo.add_host("h1", "A")
        topo.add_link("h1", "A")
        return topo

    def test_switches_and_hosts(self):
        topo = self.build()
        assert topo.switches == ["A", "B", "C"]
        assert topo.hosts == ["h1"]
        assert topo.is_switch("A") and topo.is_host("h1")
        assert topo.attachment_switch("h1") == "A"
        assert topo.hosts_of_switch("A") == ["h1"]

    def test_duplicate_link_rejected(self):
        topo = self.build()
        with pytest.raises(TopologyError):
            topo.add_link("A", "B")

    def test_link_to_unknown_node_rejected(self):
        topo = self.build()
        with pytest.raises(TopologyError):
            topo.add_link("A", "Z")

    def test_host_attached_to_unknown_switch_rejected(self):
        topo = self.build()
        with pytest.raises(TopologyError):
            topo.add_host("h2", "Z")

    def test_host_and_switch_name_collision_rejected(self):
        topo = self.build()
        with pytest.raises(TopologyError):
            topo.add_host("A", "B")
        with pytest.raises(TopologyError):
            topo.add_switch("h1")

    def test_unknown_role_rejected(self):
        topo = Topology("t")
        with pytest.raises(TopologyError):
            topo.add_switch("X", role="router")

    def test_neighbors_and_degree(self):
        topo = self.build()
        assert topo.neighbors("A") == ["B", "h1"]
        assert topo.switch_neighbors("A") == ["B"]
        assert topo.degree("B") == 2

    def test_remove_link(self):
        topo = self.build()
        topo.remove_link("A", "B")
        assert not topo.has_link("A", "B")
        assert not topo.has_link("B", "A")
        with pytest.raises(TopologyError):
            topo.remove_link("A", "B")

    def test_with_failed_link_copies(self):
        topo = self.build()
        failed = topo.with_failed_link("A", "B")
        assert not failed.has_link("A", "B")
        assert topo.has_link("A", "B")

    def test_node_role_and_contains(self):
        topo = self.build()
        assert topo.node_role("A") == NodeKind.SWITCH
        assert "A" in topo and "Z" not in topo
        with pytest.raises(TopologyError):
            topo.node_role("Z")

    def test_link_lookup(self):
        topo = self.build()
        assert topo.link("A", "B").key == ("A", "B")
        with pytest.raises(TopologyError):
            topo.link("A", "C")

    def test_undirected_links_deduplicate(self):
        topo = self.build()
        undirected = {(l.src, l.dst) for l in topo.undirected_links}
        assert len(undirected) == len(topo.links) // 2

    def test_validate_detects_disconnection(self):
        topo = Topology("t")
        topo.add_switch("A")
        topo.add_switch("B")
        with pytest.raises(TopologyError):
            topo.validate()

    def test_repr_and_len(self):
        topo = self.build()
        assert "Topology" in repr(topo)
        assert len(topo) == 4


class TestTopologyAlgorithms:
    def build_square(self):
        topo = Topology("square")
        for s in "ABCD":
            topo.add_switch(s)
        for a, b in (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")):
            topo.add_link(a, b)
        return topo

    def test_shortest_path_lengths(self):
        topo = self.build_square()
        lengths = topo.shortest_path_lengths()
        assert lengths["A"]["C"] == 2
        assert lengths["A"]["B"] == 1

    def test_shortest_paths_enumerates_all(self):
        topo = self.build_square()
        paths = topo.shortest_paths("A", "C")
        assert sorted(paths) == [["A", "B", "C"], ["A", "D", "C"]]
        assert topo.shortest_paths("A", "A") == [["A"]]

    def test_all_simple_paths_with_cutoff(self):
        topo = self.build_square()
        assert len(topo.all_simple_paths("A", "C", cutoff=2)) == 2
        assert len(topo.all_simple_paths("A", "C")) == 2
        assert topo.all_simple_paths("A", "C", cutoff=1) == []

    def test_diameter_and_connectivity(self):
        topo = self.build_square()
        assert topo.is_connected()
        assert topo.diameter() == 2

    def test_max_rtt(self):
        topo = self.build_square()
        assert topo.max_rtt() == pytest.approx(2 * 2 * 0.05)

    def test_to_networkx(self):
        graph = self.build_square().to_networkx()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 8


def reference_lengths(topo, src, cost):
    """Dict-based Dijkstra over switch-to-switch links, kept independent of
    :mod:`repro.topology.graph` (``cost`` is a link attribute, or None for hops)."""
    out = {}
    for link in topo.links:
        if topo.is_switch(link.src) and topo.is_switch(link.dst):
            out.setdefault(link.src, []).append(
                (link.dst, getattr(link, cost) if cost else 1.0))
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nbr, step in out.get(node, ()):
            if d + step < dist.get(nbr, float("inf")):
                dist[nbr] = d + step
                heapq.heappush(heap, (d + step, nbr))
    return dist


def reference_max_rtt(topo):
    return 2.0 * max((max(reference_lengths(topo, s, "latency").values())
                      for s in topo.switches), default=0.0)


COSTS = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 1 / 3, 0.7]),
                  st.floats(min_value=0.0, max_value=2.0))


@st.composite
def small_topologies(draw):
    """Up to 7 switches with one-way and two-way links of mixed latency and
    weight (possibly disconnected), plus hosts on slow links."""
    switches = [f"s{i}" for i in range(draw(st.integers(1, 7)))]
    topo = Topology("random-small")
    for switch in switches:
        topo.add_switch(switch)
    for _ in range(draw(st.integers(0, 14))):
        a, b = draw(st.sampled_from(switches)), draw(st.sampled_from(switches))
        bidirectional = draw(st.booleans())
        if a == b or topo.has_link(a, b) or (bidirectional and topo.has_link(b, a)):
            continue
        topo.add_link(a, b, latency=draw(COSTS), weight=draw(COSTS),
                      bidirectional=bidirectional)
    for h in range(draw(st.integers(0, 3))):
        host = f"h{h}"
        topo.add_host(host, draw(st.sampled_from(switches)))
        # Far slower than any switch link: counting hosts would change max_rtt.
        topo.add_link(host, topo.attachment_switch(host), latency=50.0, weight=50.0)
    return topo


class TestShortestPathSearch:
    """The indexed searches equal a plain dict-based Dijkstra exactly."""

    @given(small_topologies())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_dijkstra(self, topo):
        assert topo.max_rtt() == reference_max_rtt(topo)
        for weighted, cost in ((False, None), (True, "weight")):
            assert topo.shortest_path_lengths(weighted=weighted) == {
                s: reference_lengths(topo, s, cost) for s in topo.switches}

    @given(small_topologies())
    @settings(max_examples=50, deadline=None)
    def test_shortest_paths_are_the_minimal_simple_paths(self, topo):
        lengths = topo.shortest_path_lengths()
        for src in topo.switches:
            for dst in topo.switches:
                if src == dst:
                    continue
                expected = [p for p in topo.all_simple_paths(src, dst)
                            if len(p) - 1 == lengths[src].get(dst)]
                assert topo.shortest_paths(src, dst) == expected

    def line(self):
        topo = Topology("line")
        for s in "ABC":
            topo.add_switch(s)
        topo.add_link("A", "B", latency=0.05)
        topo.add_link("B", "C", latency=0.05)
        return topo

    def test_memo_follows_link_changes(self):
        topo = self.line()
        assert topo.max_rtt() == 0.2
        assert topo.shortest_path_lengths()["A"]["C"] == 2
        topo.add_link("A", "C", latency=0.05)
        assert topo.max_rtt() == 0.1
        assert topo.shortest_path_lengths()["A"]["C"] == 1
        failed = topo.with_failed_link("A", "C")
        assert failed.max_rtt() == 0.2
        assert topo.max_rtt() == 0.1
        topo.remove_link("A", "C")
        assert topo.max_rtt() == 0.2
        assert topo.shortest_path_lengths()["A"]["C"] == 2

    def test_memo_follows_new_switches(self):
        topo = self.line()
        assert topo.max_rtt() == 0.2
        topo.add_switch("D")
        assert "D" in topo.shortest_path_lengths()
        topo.add_link("C", "D", latency=0.05)
        assert topo.max_rtt() == pytest.approx(0.3)
        assert topo.max_rtt() == reference_max_rtt(topo)

    def test_unknown_switch_raises(self):
        with pytest.raises(TopologyError):
            self.line().shortest_paths("Z", "A")

    def test_copy_starts_with_fresh_memo(self):
        topo = self.line()
        topo.max_rtt()
        topo.shortest_path_lengths()
        clone = topo.copy()
        assert clone._max_rtt_memo is None and clone._adjacency_memo == {}
        clone.add_link("A", "C", latency=0.05)
        assert clone.max_rtt() == 0.1
        assert topo.max_rtt() == 0.2


class TestFattree:
    def test_k4_counts(self):
        topo = fattree(4)
        assert len(topo.switches) == 20
        assert len(topo.switches_with_role(NodeKind.CORE)) == 4
        assert len(topo.switches_with_role(NodeKind.AGGREGATION)) == 8
        assert len(topo.switches_with_role(NodeKind.EDGE)) == 8
        assert len(topo.hosts) == 16

    def test_odd_k_rejected(self):
        with pytest.raises(TopologyError):
            fattree(5)

    def test_oversubscription_reduces_fabric_capacity(self):
        topo = fattree(4, capacity=40.0, oversubscription=4.0)
        edge = topo.switches_with_role(NodeKind.EDGE)[0]
        agg = [n for n in topo.switch_neighbors(edge)][0]
        host = topo.hosts_of_switch(edge)[0]
        assert topo.link(edge, agg).capacity == pytest.approx(10.0)
        assert topo.link(host, edge).capacity == pytest.approx(40.0)

    def test_every_pair_of_edges_has_multiple_shortest_paths(self):
        topo = fattree(4)
        edges = topo.switches_with_role(NodeKind.EDGE)
        inter_pod = (edges[0], edges[-1])
        assert len(topo.shortest_paths(*inter_pod)) >= 2

    def test_fattree_for_switch_count(self):
        topo = fattree_for_switch_count(100)
        assert len(topo.switches) >= 100
        assert len(topo.hosts) == 0

    def test_switch_count_table_matches_formula(self):
        for k, count in FATTREE_SWITCH_COUNTS.items():
            assert count == 5 * (k // 2) ** 2

    def test_invalid_oversubscription_rejected(self):
        with pytest.raises(TopologyError):
            fattree(4, oversubscription=0)


class TestLeafSpine:
    def test_structure(self):
        topo = leafspine(3, 2, hosts_per_leaf=1)
        assert len(topo.switches_with_role(NodeKind.LEAF)) == 3
        assert len(topo.switches_with_role(NodeKind.SPINE)) == 2
        assert len(topo.hosts) == 3
        for leaf in topo.switches_with_role(NodeKind.LEAF):
            assert set(topo.switch_neighbors(leaf)) == {"spine0", "spine1"}

    def test_invalid_sizes_rejected(self):
        with pytest.raises(TopologyError):
            leafspine(0, 2)
        with pytest.raises(TopologyError):
            leafspine(2, 2, hosts_per_leaf=-1)


class TestAbilene:
    def test_node_set(self):
        topo = abilene()
        assert set(topo.switches) == set(ABILENE_NODES)
        assert len(topo.switches) == 11
        assert topo.is_connected()

    def test_hosts_per_switch(self):
        topo = abilene(hosts_per_switch=2)
        assert len(topo.hosts) == 22

    def test_multiple_paths_exist_coast_to_coast(self):
        topo = abilene(hosts_per_switch=0)
        assert len(topo.all_simple_paths("SEA", "NYC", cutoff=6)) >= 2


class TestRandomGraphs:
    @given(st.integers(min_value=5, max_value=40), st.integers(min_value=0, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_random_regular_is_connected(self, n, seed):
        topo = random_regular(n, degree=3, seed=seed)
        assert topo.is_connected()
        assert len(topo.switches) == n

    @given(st.integers(min_value=5, max_value=30), st.integers(min_value=0, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_erdos_renyi_is_connected(self, n, seed):
        assert erdos_renyi(n, seed=seed).is_connected()

    def test_waxman_is_connected_and_has_varied_latency(self):
        topo = waxman(30, seed=1)
        assert topo.is_connected()
        latencies = {l.latency for l in topo.links}
        assert len(latencies) > 1

    def test_determinism(self):
        a = random_regular(20, seed=7)
        b = random_regular(20, seed=7)
        assert [(l.src, l.dst) for l in a.links] == [(l.src, l.dst) for l in b.links]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TopologyError):
            random_regular(1)
        with pytest.raises(TopologyError):
            random_regular(10, degree=10)
        with pytest.raises(TopologyError):
            erdos_renyi(10, p=2.0)


class TestZoo:
    def test_builtin_list(self):
        names = builtin_topologies()
        assert "abilene" in names and "nsfnet" in names

    def test_builtin_topologies_are_connected(self):
        for name in builtin_topologies():
            assert builtin_topology(name).is_connected()

    def test_unknown_builtin_rejected(self):
        with pytest.raises(TopologyError):
            builtin_topology("arpanet-1969")

    def test_from_edge_list_with_attributes(self):
        topo = from_edge_list([("A", "B", 5.0), ("B", "C", 5.0, 0.2)], hosts_per_switch=1)
        assert topo.link("B", "C").latency == pytest.approx(0.2)
        assert topo.link("A", "B").capacity == pytest.approx(5.0)
        assert len(topo.hosts) == 3

    def test_from_edge_list_bad_tuple_rejected(self):
        with pytest.raises(TopologyError):
            from_edge_list([("A",)])

    def test_from_adjacency(self):
        topo = from_adjacency({"A": ["B", "C"], "B": ["C"], "C": []})
        assert topo.has_link("A", "B") and topo.has_link("C", "B")

    def test_from_edge_list_file(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("# comment\nA B 10 0.1\nB C\n")
        topo = from_edge_list_file(path)
        assert topo.name == "net"
        assert topo.link("A", "B").capacity == pytest.approx(10.0)

    def test_from_edge_list_file_bad_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("A B ten\n")
        with pytest.raises(TopologyError):
            from_edge_list_file(path)

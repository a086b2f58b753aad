"""Tests for repro.utils.graphs."""

import os
import random
import subprocess
import sys

import pytest

from repro.utils.graphs import (
    enumerate_simple_cycles,
    reachable_from,
    strongly_connected_components,
    topological_order,
)


class TestEnumerateSimpleCycles:
    def test_single_cycle(self):
        cycles = enumerate_simple_cycles([("a", "b"), ("b", "c"), ("c", "a")])
        assert len(cycles) == 1
        assert set(cycles[0]) == {"a", "b", "c"}

    def test_acyclic_graph_has_no_cycles(self):
        assert enumerate_simple_cycles([("a", "b"), ("b", "c")]) == []

    def test_two_cycles(self):
        edges = [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]
        cycles = enumerate_simple_cycles(edges)
        assert len(cycles) == 2

    def test_limit_caps_enumeration(self):
        edges = [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]
        assert len(enumerate_simple_cycles(edges, limit=1)) == 1


class TestStronglyConnectedComponents:
    def test_cycle_forms_single_component(self):
        components = strongly_connected_components([("a", "b"), ("b", "a"), ("b", "c")])
        assert {"a", "b"} in components
        assert {"c"} in components

    def test_isolated_nodes_included(self):
        components = strongly_connected_components([], nodes=["x", "y"])
        assert {"x"} in components and {"y"} in components


class TestReachableFrom:
    def test_simple_chain(self):
        edges = [("a", "b"), ("b", "c"), ("d", "e")]
        assert reachable_from(edges, ["a"]) == {"a", "b", "c"}

    def test_multiple_sources(self):
        edges = [("a", "b"), ("d", "e")]
        assert reachable_from(edges, ["a", "d"]) == {"a", "b", "d", "e"}

    def test_unknown_source_ignored(self):
        assert reachable_from([("a", "b")], ["zzz"]) == set()


class TestTopologicalOrder:
    def test_orders_a_dag(self):
        order = topological_order([("a", "b"), ("b", "c")])
        assert order.index("a") < order.index("b") < order.index("c")

    def test_returns_none_for_cycle(self):
        assert topological_order([("a", "b"), ("b", "a")]) is None

    def test_includes_isolated_nodes(self):
        order = topological_order([("a", "b")], nodes=["a", "b", "z"])
        assert set(order) == {"a", "b", "z"}


def _canonical_cycle(cycle):
    """The rotation of *cycle* that starts at its smallest node."""
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:] + cycle[:pivot])


def _random_digraph(rng):
    """1-12 nodes, self-loops and parallel edges included, some isolated."""
    count = rng.randint(1, 12)
    edges = [(rng.randrange(count), rng.randrange(count))
             for _ in range(rng.randint(0, 3 * count))]
    nodes = list(range(count))
    rng.shuffle(nodes)
    return nodes, edges


class TestNetworkxOracle:
    """The stdlib algorithms agree with networkx on seeded random digraphs."""

    GRAPHS = 300

    @pytest.fixture(scope="class")
    def graphs(self):
        rng = random.Random(20240518)
        return [_random_digraph(rng) for _ in range(self.GRAPHS)]

    @staticmethod
    def _nx_graph(nodes, edges):
        nx = pytest.importorskip("networkx")
        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        return nx, graph

    def test_simple_cycles_match(self, graphs):
        for nodes, edges in graphs:
            nx, graph = self._nx_graph(nodes, edges)
            ours = [_canonical_cycle(c) for c in enumerate_simple_cycles(edges, nodes=nodes)]
            theirs = {_canonical_cycle(c) for c in nx.simple_cycles(graph)}
            assert len(ours) == len(set(ours)), (nodes, edges)
            assert set(ours) == theirs, (nodes, edges)

    def test_limit_is_a_prefix_of_the_full_enumeration(self, graphs):
        for nodes, edges in graphs:
            full = enumerate_simple_cycles(edges, nodes=nodes)
            for k in range(1, len(full) + 2):
                assert enumerate_simple_cycles(edges, nodes=nodes, limit=k) == full[:k]

    def test_strongly_connected_components_match(self, graphs):
        for nodes, edges in graphs:
            nx, graph = self._nx_graph(nodes, edges)
            ours = strongly_connected_components(edges, nodes=nodes)
            theirs = list(nx.strongly_connected_components(graph))
            assert sorted(map(sorted, ours)) == sorted(map(sorted, theirs)), (nodes, edges)

    def test_reachable_from_matches_descendants(self, graphs):
        rng = random.Random(7)
        for nodes, edges in graphs:
            nx, graph = self._nx_graph(nodes, edges)
            sources = rng.sample(nodes, rng.randint(0, len(nodes))) + [-1]
            expected = set(sources[:-1])
            for source in sources[:-1]:
                expected |= nx.descendants(graph, source)
            assert reachable_from(edges, sources, nodes=nodes) == expected, (nodes, edges)

    def test_topological_order_is_valid_or_none_when_cyclic(self, graphs):
        for nodes, edges in graphs:
            nx, graph = self._nx_graph(nodes, edges)
            order = topological_order(edges, nodes=nodes)
            try:
                list(nx.topological_sort(graph))
            except nx.NetworkXUnfeasible:
                assert order is None, (nodes, edges)
                continue
            assert sorted(order) == sorted(nodes)
            position = {node: index for index, node in enumerate(order)}
            assert all(position[s] < position[t] for s, t in edges), (nodes, edges)


class TestDeepGraphs:
    """Nothing recurses: 20,000-node rings and chains stay within the stack."""

    SIZE = 20_000

    def test_ring(self):
        ring = [(i, (i + 1) % self.SIZE) for i in range(self.SIZE)]
        cycles = enumerate_simple_cycles(ring)
        assert cycles == [list(range(self.SIZE))]
        assert strongly_connected_components(ring) == [set(range(self.SIZE))]
        assert reachable_from(ring, [self.SIZE // 2]) == set(range(self.SIZE))
        assert topological_order(ring) is None

    def test_chain(self):
        chain = [(i, i + 1) for i in range(self.SIZE - 1)]
        assert enumerate_simple_cycles(chain) == []
        assert len(strongly_connected_components(chain)) == self.SIZE
        assert reachable_from(chain, [0]) == set(range(self.SIZE))
        assert topological_order(chain) == list(range(self.SIZE))


_ORDER_PROBE = """
from repro.dfs.model import DataflowStructure
from repro.dfs.validation import validate_structure
from repro.performance.cycles import dataflow_cycles

ring = DataflowStructure("two_rings")
for index in range(4):
    ring.add_register("r{}".format(index), marked=index == 0)
    ring.add_logic("f{}".format(index))
for index in range(4):
    ring.connect("r{}".format(index), "f{}".format(index))
    ring.connect("f{}".format(index), "r{}".format((index + 1) % 4))
ring.connect("f2", "r0")  # a chord: a second, shorter ring
print([metric.nodes for metric in dataflow_cycles(ring)])

loop = DataflowStructure("logic_loop")
loop.add_register("r", marked=True)
for name in "abcd":
    loop.add_logic(name)
for source, target in ("ra", "ab", "bc", "cd", "da", "ca", "dr"):
    loop.connect(source, target)
print([issue.message for issue in validate_structure(loop)])
"""


def test_cycle_order_does_not_depend_on_the_hash_seed():
    """``dfs.edges`` is a set: cycle order and rotation must not follow it."""
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(repro.__file__)),
                      env.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        completed = subprocess.run([sys.executable, "-c", _ORDER_PROBE], env=env,
                                   capture_output=True, text=True, timeout=60)
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout)
    assert "combinational cycle" in outputs[0]
    assert outputs[0] == outputs[1]

"""Tests for block-wise multi-process ranking over spilled CSR blocks.

The contract: block ranking over a compiled plan is bit-equal to the
in-memory :func:`repro.network.pagerank.personalized_pagerank` (both
run one compile routine and one power loop), serial and parallel runs
are identical, and the edge-array compile path matches the graph
compile path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError, ValidationError
from repro.network.blockrank import (
    block_personalized_pagerank,
    block_trustrank,
    compile_transition_store,
    compile_transition_store_from_edges,
    load_block_plan,
)
from repro.network.graph import DirectedGraph
from repro.network.pagerank import personalized_pagerank
from repro.network.trustrank import anti_trustrank, reverse_graph, trustrank
from repro.perf.store import MatrixStore


def _random_graph(n_nodes=60, n_edges=300, seed=11) -> DirectedGraph:
    rng = np.random.default_rng(seed)
    graph = DirectedGraph()
    names = [f"d{i}.example" for i in range(n_nodes)]
    for name in names:
        graph.add_node(name)
    for s, d in zip(
        rng.integers(0, n_nodes, n_edges), rng.integers(0, n_nodes, n_edges)
    ):
        if s != d:
            graph.add_edge(names[s], names[d])
    return graph


@pytest.fixture(scope="module")
def graph():
    return _random_graph()


@pytest.fixture()
def store(tmp_path):
    return MatrixStore(tmp_path / "store")


def _edge_arrays(graph: DirectedGraph):
    """``(nodes, src, dst, weight)`` in node order, source-major."""
    nodes = list(graph.nodes())
    index = {n: i for i, n in enumerate(nodes)}
    src, dst, weight = [], [], []
    for s, d, w in graph.edges():
        src.append(index[s])
        dst.append(index[d])
        weight.append(w)
    return (
        nodes,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(weight, dtype=np.float64),
    )


def _max_divergence(a: dict, b: dict) -> float:
    assert set(a) == set(b)
    return max(abs(a[k] - b[k]) for k in a)


class TestCompile:
    def test_blocks_cover_all_rows(self, graph, store):
        plan = compile_transition_store(graph, store, n_blocks=4)
        assert plan.n == graph.n_nodes
        assert plan.offsets[0] == 0 and plan.offsets[-1] == plan.n
        assert plan.n_blocks == 4

    def test_more_blocks_than_rows_clamps(self, store):
        graph = DirectedGraph()
        graph.add_edge("a.example", "b.example")
        plan = compile_transition_store(graph, store, n_blocks=10)
        assert plan.n_blocks == graph.n_nodes

    def test_empty_graph_rejected(self, store):
        with pytest.raises(GraphError):
            compile_transition_store(DirectedGraph(), store, n_blocks=2)

    def test_bad_block_count_rejected(self, graph, store):
        with pytest.raises(ValidationError):
            compile_transition_store(graph, store, n_blocks=0)

    def test_plan_reloads_identically(self, graph, store):
        plan = compile_transition_store(graph, store, n_blocks=3)
        reloaded = load_block_plan(store)
        assert reloaded.nodes == plan.nodes
        assert reloaded.offsets == plan.offsets
        assert block_personalized_pagerank(
            reloaded
        ) == block_personalized_pagerank(plan)


class TestEquivalence:
    def test_uniform_matches_inmemory(self, graph, store):
        plan = compile_transition_store(graph, store, n_blocks=4)
        assert (
            _max_divergence(
                block_personalized_pagerank(plan), personalized_pagerank(graph)
            )
            <= 1e-9
        )

    def test_personalized_matches_inmemory(self, graph, store):
        teleport = {f"d{i}.example": 1.0 for i in range(0, 60, 7)}
        plan = compile_transition_store(graph, store, n_blocks=5)
        assert (
            _max_divergence(
                block_personalized_pagerank(plan, teleport=teleport),
                personalized_pagerank(graph, teleport=teleport),
            )
            <= 1e-9
        )

    def test_trustrank_matches_inmemory(self, graph, store):
        seed = [f"d{i}.example" for i in range(6)]
        plan = compile_transition_store(graph, store, n_blocks=4)
        assert (
            _max_divergence(
                block_trustrank(plan, seed), trustrank(graph, seed)
            )
            <= 1e-9
        )

    def test_anti_trustrank_matches_inmemory(self, graph, store):
        seed = [f"d{i}.example" for i in range(50, 60)]
        plan = compile_transition_store(
            reverse_graph(graph), store, n_blocks=4
        )
        assert (
            _max_divergence(
                block_trustrank(plan, seed), anti_trustrank(graph, seed)
            )
            <= 1e-9
        )

    def test_serial_equals_parallel_bitwise(self, graph, store):
        teleport = {f"d{i}.example": 1.0 for i in range(0, 60, 5)}
        plan = compile_transition_store(graph, store, n_blocks=4)
        serial = block_personalized_pagerank(plan, teleport=teleport, jobs=1)
        parallel = block_personalized_pagerank(
            plan, teleport=teleport, jobs=2
        )
        assert serial == parallel  # identical floats, not just close

    def test_block_count_does_not_change_result(self, graph, store):
        one = compile_transition_store(graph, store, n_blocks=1, prefix="p1")
        many = compile_transition_store(graph, store, n_blocks=7, prefix="p7")
        assert block_personalized_pagerank(
            one
        ) == block_personalized_pagerank(many)


class TestEdgeCompile:
    def test_edges_match_graph_compile(self, graph, store):
        from_graph = compile_transition_store(
            graph, store, n_blocks=4, prefix="g"
        )
        from_edges = compile_transition_store_from_edges(
            store, *_edge_arrays(graph), n_blocks=4, prefix="e"
        )
        assert block_personalized_pagerank(
            from_graph
        ) == block_personalized_pagerank(from_edges)

    def test_float_weight_edges_equal_inmemory_trustrank(self, store):
        """One compile routine: float out-weights summed over 8+ links
        come out bit-equal in the block and in-memory paths."""
        rng = np.random.default_rng(23)
        graph = DirectedGraph()
        names = [f"f{i}.example" for i in range(40)]
        for i, name in enumerate(names):
            fanout = 12 if i % 4 == 0 else 3
            for j in rng.choice(len(names), size=fanout, replace=False):
                graph.add_edge(name, names[j], float(rng.random()) + 0.05)
        seed = names[:5]
        plan = compile_transition_store_from_edges(
            store, *_edge_arrays(graph), n_blocks=4
        )
        assert block_trustrank(plan, seed) == trustrank(graph, seed)

    def test_edgeless_nodes_are_all_dangling(self, store):
        plan = compile_transition_store_from_edges(
            store,
            ["a.example", "b.example"],
            np.asarray([], dtype=np.int64),
            np.asarray([], dtype=np.int64),
            np.asarray([], dtype=np.float64),
            n_blocks=2,
        )
        ranks = block_personalized_pagerank(plan)
        assert ranks["a.example"] == pytest.approx(0.5)

    def test_mismatched_edge_arrays_rejected(self, store):
        with pytest.raises(ValidationError):
            compile_transition_store_from_edges(
                store,
                ["a.example"],
                np.asarray([0]),
                np.asarray([0, 0]),
                np.asarray([1.0]),
                n_blocks=1,
            )

    def test_empty_nodes_rejected(self, store):
        with pytest.raises(GraphError):
            compile_transition_store_from_edges(
                store,
                [],
                np.asarray([]),
                np.asarray([]),
                np.asarray([]),
                n_blocks=1,
            )


class TestValidation:
    def test_bad_damping(self, graph, store):
        plan = compile_transition_store(graph, store, n_blocks=2)
        with pytest.raises(ValidationError):
            block_personalized_pagerank(plan, damping=1.0)

    def test_empty_trust_seed(self, graph, store):
        plan = compile_transition_store(graph, store, n_blocks=2)
        with pytest.raises(GraphError):
            block_trustrank(plan, ["unknown.example"])

    def test_scores_sum_to_one(self, graph, store):
        plan = compile_transition_store(graph, store, n_blocks=3)
        ranks = block_personalized_pagerank(plan)
        assert sum(ranks.values()) == pytest.approx(1.0)

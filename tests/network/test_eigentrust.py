"""Tests for EigenTrust."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.network.eigentrust import eigentrust
from repro.network.graph import DirectedGraph


def textbook_eigentrust(graph, pretrusted, alpha, max_iterations=100,
                        tolerance=1e-10):
    """Kamvar et al.'s recurrence, one peer at a time.

    ``t <- (1 - a) * C^T t + a * p`` from ``t = p``, where a peer with
    no trust statements hands its mass to ``p``; stops on the same L1
    test as :func:`eigentrust`.
    """
    nodes = list(graph.nodes())
    seed = {node for node in pretrusted if node in graph}
    p = {node: (1.0 / len(seed) if node in seed else 0.0) for node in nodes}
    t = dict(p)
    for _ in range(max_iterations):
        propagated = dict.fromkeys(nodes, 0.0)
        for i in nodes:
            statements = graph.successors(i)
            if not statements:
                for j in nodes:
                    propagated[j] += t[i] * p[j]
                continue
            total = sum(statements.values())
            for j, weight in statements.items():
                propagated[j] += t[i] * weight / total
        new_t = {j: (1 - alpha) * propagated[j] + alpha * p[j] for j in nodes}
        done = sum(abs(new_t[j] - t[j]) for j in nodes) < tolerance
        t = new_t
        if done:
            break
    return t


def weighted_trust_graph(seed=3, n_nodes=30):
    """Float-weight graph with some dangling peers."""
    rng = np.random.default_rng(seed)
    g = DirectedGraph()
    names = [f"peer{i}" for i in range(n_nodes)]
    for name in names:
        g.add_node(name)
    for i, name in enumerate(names):
        if i % 6 == 5:
            continue  # no trust statements
        for j in rng.choice(n_nodes, size=int(rng.integers(1, 10)),
                            replace=False):
            g.add_edge(name, names[j], float(rng.random()) + 0.05)
    return g, names


def trust_web():
    g = DirectedGraph()
    g.add_edge("p1", "p2")   # pre-trusted p1 vouches for p2
    g.add_edge("p2", "p3")
    g.add_edge("m1", "m2")   # malicious collective vouching for itself
    g.add_edge("m2", "m1")
    return g


class TestEigenTrust:
    def test_scores_sum_to_one(self):
        scores = eigentrust(trust_web(), ["p1"])
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_pretrusted_cluster_dominates(self):
        scores = eigentrust(trust_web(), ["p1"])
        good = scores["p1"] + scores["p2"] + scores["p3"]
        bad = scores["m1"] + scores["m2"]
        assert good > 0.9
        assert bad < 0.1

    def test_malicious_collective_starved(self):
        """The EigenTrust guarantee: a collusion ring with no inbound
        trust from the pre-trusted web gets (almost) no global trust."""
        scores = eigentrust(trust_web(), ["p1"])
        assert scores["m1"] == pytest.approx(0.0, abs=1e-9)
        assert scores["m2"] == pytest.approx(0.0, abs=1e-9)

    def test_trust_decays_along_chain(self):
        g = DirectedGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "d")
        scores = eigentrust(g, ["a"])
        assert scores["b"] > scores["c"] > scores["d"]

    def test_alpha_blends_toward_pretrust(self):
        g = trust_web()
        heavy_anchor = eigentrust(g, ["p1"], alpha=0.9)
        light_anchor = eigentrust(g, ["p1"], alpha=0.05)
        assert heavy_anchor["p1"] > light_anchor["p1"]

    def test_empty_graph_raises(self):
        with pytest.raises(GraphError):
            eigentrust(DirectedGraph(), ["x"])

    def test_disjoint_pretrust_raises(self):
        with pytest.raises(GraphError):
            eigentrust(trust_web(), ["ghost"])

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            eigentrust(trust_web(), ["p1"], alpha=1.0)

    def test_dangling_defers_to_pretrust(self):
        g = DirectedGraph()
        g.add_edge("seed", "sink")  # sink makes no trust statements
        scores = eigentrust(g, ["seed"])
        assert sum(scores.values()) == pytest.approx(1.0)
        assert scores["seed"] > 0

    def test_duplicate_pretrusted_peers_count_once(self):
        g = DirectedGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert eigentrust(g, ["a", "a", "b"]) == eigentrust(g, ["a", "b"])

    @pytest.mark.parametrize("alpha", [0.05, 0.15, 0.5])
    def test_matches_textbook_recurrence(self, alpha):
        g, names = weighted_trust_graph()
        pretrusted = names[:4]
        scores = eigentrust(g, pretrusted, alpha=alpha)
        oracle = textbook_eigentrust(g, pretrusted, alpha)
        assert max(abs(scores[n] - oracle[n]) for n in names) <= 1e-12

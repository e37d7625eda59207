"""PageRank by power iteration over a sparse transition matrix.

TrustRank (Gyöngyi et al. 2004) is biased PageRank: the teleport
distribution is concentrated on a trusted seed instead of being
uniform.  This module holds the one compile routine and the one power
loop that every ranker in :mod:`repro.network` runs on:

* :func:`compile_transition` turns flat ``(src, dst, weight)`` edge
  arrays into a dangling-node mask and CSR row blocks of the
  column-stochastic matrix ``P[dst, src] = w(src, dst) /
  out_weight(src)``.  The in-memory rankers compile one block; the
  block ranker (:mod:`repro.network.blockrank`) spills many.
* :func:`power_iterate` runs::

      rank' = damping * (P @ rank + dangling_mass * t) + (1 - damping) * t

  for any SpMV callable: one sparse product here, the serial or pooled
  block loop in :mod:`repro.network.blockrank`.

Uniform PageRank, TrustRank, Anti-TrustRank and EigenTrust all
delegate to :func:`personalized_pagerank`
(:func:`repro.perf.reference.reference_personalized_pagerank` keeps
the per-node loop form as the equivalence baseline).
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.devtools.contracts import check_probability_vector
from repro.exceptions import GraphError, ValidationError
from repro.network.graph import DirectedGraph

__all__ = [
    "compile_transition",
    "edge_arrays",
    "pagerank",
    "personalized_pagerank",
    "power_iterate",
    "teleport_vector",
]


def teleport_vector(
    index: Mapping[str, int],
    teleport: Mapping[str, float] | None,
) -> np.ndarray:
    """Normalized teleport distribution over the node order ``index``.

    Raises:
        ValidationError: on negative teleport entries.
        GraphError: when no positive mass lands on indexed nodes.
    """
    n = len(index)
    if teleport is None:
        return np.full(n, 1.0 / n)
    t = np.zeros(n)
    for node, mass in teleport.items():
        if mass < 0.0:
            raise ValidationError(
                f"teleport mass must be >= 0, got {mass} for {node!r}"
            )
        if node in index and mass > 0.0:
            t[index[node]] = mass
    total = t.sum()
    if total <= 0.0:
        raise GraphError("teleport vector has no mass on graph nodes")
    return t / total


def edge_arrays(
    graph: DirectedGraph,
) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
    """Node index plus flat ``(src, dst, weight)`` arrays of ``graph``.

    Nodes are indexed in insertion order; edges come source-major, in
    each node's successor order.
    """
    index = {node: i for i, node in enumerate(graph.nodes())}
    edges = [(index[s], index[d], w) for s, d, w in graph.edges()]
    src, dst, weight = zip(*edges) if edges else ((), (), ())
    return (
        index,
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        np.array(weight, dtype=np.float64),
    )


def compile_transition(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    offsets: Sequence[int],
) -> tuple[np.ndarray, Iterator[sp.csr_matrix]]:
    """Dangling mask and lazily built CSR row blocks of ``P``.

    ``src``/``dst`` index ``n`` nodes; parallel edges must already be
    folded.  Block ``b`` holds rows ``offsets[b]:offsets[b+1]``, cut
    from the same destination-sorted entries as every other block, so
    block SpMV results are bit-equal to the one-block ``(0, n)``
    product.  A caller that spills each block as it is yielded never
    holds the full matrix.

    Raises:
        ValidationError: when the edge arrays differ in shape.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    if not (src.shape == dst.shape == weight.shape):
        raise ValidationError("edge arrays must have identical shapes")
    out_weight = np.bincount(src, weights=weight, minlength=n)
    # A node is dangling iff it has no out-edges at all, so exact zero
    # is the intended test.
    dangling = out_weight == 0.0  # repro-lint: disable=R006
    if src.size:
        data = weight / out_weight[src]
        order = np.argsort(dst, kind="stable")
        src, dst, data = src[order], dst[order], data[order]
    else:
        data = weight
    bounds = np.searchsorted(dst, offsets)

    def blocks() -> Iterator[sp.csr_matrix]:
        for b in range(len(offsets) - 1):
            lo, hi = bounds[b], bounds[b + 1]
            yield sp.csr_matrix(
                (data[lo:hi], (dst[lo:hi] - offsets[b], src[lo:hi])),
                shape=(offsets[b + 1] - offsets[b], n),
                dtype=np.float64,
            )

    return dangling, blocks()


def power_iterate(
    spmv: Callable[[np.ndarray], np.ndarray],
    t: np.ndarray,
    dangling: np.ndarray,
    damping: float,
    max_iterations: int,
    tolerance: float,
) -> np.ndarray:
    """Power iteration from ``t`` until the L1 step is below ``tolerance``.

    ``spmv(rank)`` returns ``P @ rank``.  Dangling nodes redistribute
    their mass according to the teleport vector ``t`` (the standard
    TrustRank convention, which keeps trust from leaking to untrusted
    nodes through dead ends).
    """
    any_dangling = bool(dangling.any())
    rank = t.copy()
    for _ in range(max_iterations):
        new_rank = spmv(rank)
        if any_dangling:
            new_rank = new_rank + rank[dangling].sum() * t
        new_rank = damping * new_rank + (1.0 - damping) * t
        if np.abs(new_rank - rank).sum() < tolerance:
            return new_rank
        rank = new_rank
    return rank


@check_probability_vector()
def personalized_pagerank(
    graph: DirectedGraph,
    teleport: Mapping[str, float] | None = None,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> dict[str, float]:
    """Power-iteration PageRank with an arbitrary teleport distribution.

    Args:
        graph: the link graph.
        teleport: node -> probability; normalized internally.  ``None``
            means the uniform distribution (plain PageRank).
        damping: probability of following a link (α).
        max_iterations: iteration cap.
        tolerance: L1 convergence threshold.

    Returns:
        node -> score; scores sum to 1.

    Raises:
        GraphError: for an empty graph or an all-zero teleport vector.
        ValidationError: for an out-of-range damping factor or negative
            teleport entries.
    """
    if graph.n_nodes == 0:
        raise GraphError("cannot rank an empty graph")
    if not 0.0 < damping < 1.0:
        raise ValidationError(f"damping must be in (0, 1), got {damping}")

    index, src, dst, weight = edge_arrays(graph)
    t = teleport_vector(index, teleport)
    n = len(index)
    dangling, blocks = compile_transition(n, src, dst, weight, (0, n))
    (matrix,) = blocks
    rank = power_iterate(
        matrix.dot, t, dangling, damping, max_iterations, tolerance
    )
    return dict(zip(index, rank.tolist()))


def pagerank(
    graph: DirectedGraph,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> dict[str, float]:
    """Plain (uniform-teleport) PageRank."""
    return personalized_pagerank(
        graph,
        teleport=None,
        damping=damping,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )

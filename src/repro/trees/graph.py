"""kNN-graph construction — the downstream artifact the solvers feed.

The paper's motivating applications (§1: manifold learning,
hierarchical clustering, kernel machines) all consume the
all-nearest-neighbor result as a graph. This module turns a
:class:`~repro.core.neighbors.KnnResult` into a :mod:`networkx` graph
and provides the sanity metrics a graph consumer checks before running
spectral embeddings or label propagation on it. :mod:`networkx` is
the optional ``graph`` extra, imported only when a graph is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.neighbors import KnnResult
from ..errors import ConfigurationError, ValidationError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["knn_graph", "GraphStats", "graph_stats", "mutual_knn_graph"]


def _networkx():
    try:
        import networkx
    except ImportError:
        raise ConfigurationError(
            "kNN graph export needs networkx: install the 'graph' extra "
            "(pip install 'repro[graph]')"
        ) from None
    return networkx


def knn_graph(
    result: KnnResult,
    *,
    include_self: bool = False,
    weight: str = "distance",
) -> "nx.Graph":
    """Symmetrized kNN graph: an edge per (query, neighbor) pair.

    ``weight`` is ``"distance"`` (edge weight = the kernel's distance,
    squared for l2) or ``"similarity"`` (``1 / (1 + distance)``).
    Unfilled slots (id ``-1``) are skipped.
    """
    if weight not in ("distance", "similarity"):
        raise ValidationError(
            f"weight must be 'distance' or 'similarity', got {weight!r}"
        )
    graph = _networkx().Graph()
    graph.add_nodes_from(range(result.m))
    for i in range(result.m):
        for dist, j in zip(result.distances[i], result.indices[i]):
            j = int(j)
            if j < 0 or (j == i and not include_self):
                continue
            value = (
                float(dist)
                if weight == "distance"
                else 1.0 / (1.0 + float(dist))
            )
            graph.add_edge(i, j, weight=value)
    return graph


def mutual_knn_graph(result: KnnResult) -> "nx.Graph":
    """Mutual-kNN graph: edge (i, j) only if each lists the other.

    The sparser, noise-robust variant clustering pipelines prefer.
    """
    neighbor_sets = [
        {int(j) for j in row if j >= 0} for row in result.indices
    ]
    graph = _networkx().Graph()
    graph.add_nodes_from(range(result.m))
    for i in range(result.m):
        for dist, j in zip(result.distances[i], result.indices[i]):
            j = int(j)
            if j < 0 or j == i or j >= result.m:
                continue
            if i in neighbor_sets[j]:
                graph.add_edge(i, j, weight=float(dist))
    return graph


@dataclass(frozen=True)
class GraphStats:
    """Connectivity summary of a kNN graph."""

    n_nodes: int
    n_edges: int
    n_components: int
    min_degree: int
    median_degree: float
    max_degree: int
    largest_component_fraction: float


def graph_stats(graph: "nx.Graph") -> GraphStats:
    """The checks a graph consumer runs before trusting the graph."""
    if graph.number_of_nodes() == 0:
        raise ValidationError("cannot summarize an empty graph")
    degrees = np.array([deg for _, deg in graph.degree()])
    components = list(_networkx().connected_components(graph))
    largest = max(len(c) for c in components)
    return GraphStats(
        n_nodes=graph.number_of_nodes(),
        n_edges=graph.number_of_edges(),
        n_components=len(components),
        min_degree=int(degrees.min()),
        median_degree=float(np.median(degrees)),
        max_degree=int(degrees.max()),
        largest_component_fraction=largest / graph.number_of_nodes(),
    )

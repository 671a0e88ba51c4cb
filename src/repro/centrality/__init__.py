"""Centrality measures, exact references, and solution-quality metrics."""

from .closeness import closeness_from_matrix, closeness_from_row, rank_vertices
from .error import (
    closeness_error,
    distance_error,
    rank_correlation,
    top_k_overlap,
)
from .measures import (
    degree_centrality,
    eccentricity_from_matrix,
    eccentricity_from_row,
    exact_eccentricity,
    exact_harmonic,
    harmonic_from_matrix,
    harmonic_from_row,
    radius_diameter,
)
from .exact import (
    apsp_dijkstra,
    apsp_floyd_warshall,
    exact_closeness,
    sssp_dijkstra,
)

__all__ = [
    "closeness_from_matrix",
    "closeness_from_row",
    "rank_vertices",
    "apsp_dijkstra",
    "apsp_floyd_warshall",
    "exact_closeness",
    "sssp_dijkstra",
    "harmonic_from_row",
    "harmonic_from_matrix",
    "exact_harmonic",
    "eccentricity_from_row",
    "eccentricity_from_matrix",
    "exact_eccentricity",
    "radius_diameter",
    "degree_centrality",
    "distance_error",
    "closeness_error",
    "rank_correlation",
    "top_k_overlap",
]

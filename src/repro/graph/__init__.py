"""Graph substrate: dynamic graphs, generators, communities, IO, changes."""

from .changes import (
    ChangeBatch,
    ChangeStream,
    EdgeAddition,
    EdgeDeletion,
    EdgeReweight,
    VertexAddition,
    VertexDeletion,
    batch_from_subgraph,
    diff_graphs,
)
from .communities import louvain_communities, modularity
from .generators import (
    barabasi_albert,
    erdos_renyi,
    holme_kim,
    planted_partition,
    random_weights,
    watts_strogatz,
)
from .graph import CSR, CSRView, Graph
from .lfr import lfr_benchmark
from .io import (
    read_change_stream,
    read_edge_list,
    read_metis,
    read_pajek,
    write_change_stream,
    write_edge_list,
    write_metis,
    write_pajek,
)
from .validation import (
    connected_components,
    degree_histogram,
    is_connected,
    largest_component,
    powerlaw_exponent_estimate,
)
from .views import LocalSubgraph, extract_local_subgraph, induced_subgraph

__all__ = [
    "Graph",
    "CSR",
    "CSRView",
    "LocalSubgraph",
    "extract_local_subgraph",
    "induced_subgraph",
    "barabasi_albert",
    "holme_kim",
    "erdos_renyi",
    "watts_strogatz",
    "planted_partition",
    "lfr_benchmark",
    "random_weights",
    "louvain_communities",
    "modularity",
    "connected_components",
    "is_connected",
    "largest_component",
    "degree_histogram",
    "powerlaw_exponent_estimate",
    "ChangeBatch",
    "ChangeStream",
    "VertexAddition",
    "EdgeAddition",
    "EdgeDeletion",
    "EdgeReweight",
    "VertexDeletion",
    "batch_from_subgraph",
    "diff_graphs",
    "read_edge_list",
    "write_edge_list",
    "read_pajek",
    "write_pajek",
    "read_metis",
    "write_metis",
    "read_change_stream",
    "write_change_stream",
]

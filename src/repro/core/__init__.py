"""Core data structures: the uncertain graph and possible-world semantics."""

from repro.core.components import (
    guarantee_circles,
    reachable_from,
    strongly_connected_components,
    weakly_connected_components,
)
from repro.core.errors import (
    DatasetError,
    DuplicateEdgeError,
    ExperimentError,
    GraphError,
    NotFittedError,
    ProbabilityError,
    ReproError,
    SamplingError,
    UnknownNodeError,
)
from repro.core.eq1 import (
    apply_eq1,
    dag_default_probabilities,
    iterate_eq1,
    topological_order,
)
from repro.core.exact import exact_default_probabilities, exact_top_k
from repro.core.graph import CSRAdjacency, GraphStats, UncertainGraph, graph_from_mapping
from repro.core.propagation import (
    propagate_defaults_block,
    propagate_edge_list,
    ragged_positions,
)
from repro.core.topk import kth_largest, top_k_indices, top_k_labels, validate_k
from repro.core.worlds import (
    DEFAULT_BLOCK_WORLDS,
    DEFAULT_MAX_CHOICES,
    WorldBlock,
    enumerate_world_blocks,
)

__all__ = [
    "guarantee_circles",
    "reachable_from",
    "strongly_connected_components",
    "weakly_connected_components",
    "CSRAdjacency",
    "GraphStats",
    "UncertainGraph",
    "graph_from_mapping",
    "WorldBlock",
    "enumerate_world_blocks",
    "propagate_defaults_block",
    "propagate_edge_list",
    "ragged_positions",
    "DEFAULT_BLOCK_WORLDS",
    "DEFAULT_MAX_CHOICES",
    "exact_default_probabilities",
    "exact_top_k",
    "apply_eq1",
    "iterate_eq1",
    "dag_default_probabilities",
    "topological_order",
    "top_k_indices",
    "top_k_labels",
    "kth_largest",
    "validate_k",
    "ReproError",
    "GraphError",
    "UnknownNodeError",
    "DuplicateEdgeError",
    "ProbabilityError",
    "SamplingError",
    "NotFittedError",
    "DatasetError",
    "ExperimentError",
]

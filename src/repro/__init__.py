"""Top-k vulnerable nodes detection in uncertain graphs.

A production-quality reproduction of *"Efficient Top-k Vulnerable Nodes
Detection in Uncertain Graphs"* (Cheng, Chen, Wang, Xiang; ICDE 2022 /
arXiv:1912.12383): the uncertain-graph model, the five detection
algorithms (N, SN, SR, BSR, BSRBK), the bound/pruning machinery, the
bottom-k sketch early stop, synthetic stand-ins for every evaluation
dataset, and a harness regenerating every table and figure.

Quickstart
----------
>>> from repro import UncertainGraph, BottomKDetector
>>> g = UncertainGraph()
>>> for name in "ABCDE":
...     g.add_node(name, self_risk=0.2)
>>> for src, dst in [("A","B"),("A","C"),("B","D"),("B","E"),("C","E"),("D","E")]:
...     _ = g.add_edge(src, dst, probability=0.2)
>>> result = BottomKDetector(seed=7).detect(g, k=2)
>>> len(result.nodes)
2
"""

from repro.algorithms import (
    ALL_METHODS,
    BottomKDetector,
    BoundedSampleReverseDetector,
    DetectionResult,
    NaiveDetector,
    SampledNaiveDetector,
    SampleReverseDetector,
    VulnerableNodeDetector,
    make_detector,
)
from repro.bounds import (
    CandidateReduction,
    lower_bounds,
    reduce_candidates,
    upper_bounds,
)
from repro.core import (
    GraphError,
    ProbabilityError,
    ReproError,
    UncertainGraph,
    exact_default_probabilities,
    exact_top_k,
    graph_from_mapping,
)
from repro.metrics import precision_at_k, roc_auc
from repro.sampling import (
    ForwardSampler,
    IndexedReverseSampler,
    basic_sample_size,
    reduced_sample_size,
)
from repro.sketch import BottomKSketch
from repro.streaming import TopKMonitor

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "UncertainGraph",
    "graph_from_mapping",
    "exact_default_probabilities",
    "exact_top_k",
    "ReproError",
    "GraphError",
    "ProbabilityError",
    "ALL_METHODS",
    "DetectionResult",
    "VulnerableNodeDetector",
    "NaiveDetector",
    "SampledNaiveDetector",
    "SampleReverseDetector",
    "BoundedSampleReverseDetector",
    "BottomKDetector",
    "make_detector",
    "CandidateReduction",
    "lower_bounds",
    "upper_bounds",
    "reduce_candidates",
    "ForwardSampler",
    "IndexedReverseSampler",
    "TopKMonitor",
    "basic_sample_size",
    "reduced_sample_size",
    "BottomKSketch",
    "precision_at_k",
    "roc_auc",
]

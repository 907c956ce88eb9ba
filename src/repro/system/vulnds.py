"""VulnDS — the vulnerable-enterprise detection service of §5.

"VulnDS assess the self-risk of SME, the risk of guarantee
relationships, and detect the top-k vulnerable nodes by our methods."

The deployed system plugs HGAR [10] in for self-risk assessment and
p-wkNN [15] for guarantee-edge risk; both are pluggable callables here,
with feature-trained defaults from :mod:`repro.baselines.ml`.  Detection
itself is any configured detector (BSRBK by default, matching the
deployment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.algorithms.base import DetectionResult, VulnerableNodeDetector
from repro.algorithms.bsrbk import BottomKDetector
from repro.core.errors import ReproError
from repro.core.graph import UncertainGraph
from repro.streaming.events import UpdateEvent
from repro.streaming.monitor import TopKMonitor

__all__ = ["VulnDS", "PortfolioAssessment"]

#: Signature of a self-risk assessor: features -> probabilities.
SelfRiskAssessor = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PortfolioAssessment:
    """One monthly VulnDS run over the whole guarantee network.

    Attributes
    ----------
    detection:
        The raw top-k detection result.
    watch_list:
        Enterprise ids ranked most-vulnerable first.
    scores:
        Mapping enterprise id → estimated default probability for the
        watch-listed enterprises.
    """

    detection: DetectionResult
    watch_list: tuple[str, ...]
    scores: Mapping[str, float]

    def is_watched(self, enterprise_id: str) -> bool:
        """Whether the enterprise is on the current watch list."""
        return enterprise_id in self.scores

    def vulnerability(self, enterprise_id: str) -> float | None:
        """The enterprise's score, or ``None`` if not watch-listed."""
        return self.scores.get(enterprise_id)

    @classmethod
    def from_detection(cls, detection: DetectionResult) -> "PortfolioAssessment":
        """Wrap a raw detection as an assessment (watch list + scores).

        The single place the detection→assessment projection lives; used
        by :meth:`VulnDS.assess_portfolio` and by the serving layer when
        a tenant's answer arrives from a :class:`~repro.serving.service.
        RiskService` instead of an in-process detector.
        """
        watch_list = tuple(str(label) for label in detection.nodes)
        scores = {
            str(label): float(score)
            for label, score in detection.scores.items()
        }
        return cls(detection=detection, watch_list=watch_list, scores=scores)


class VulnDS:
    """The vulnerable-SME detection service.

    Parameters
    ----------
    graph:
        The bank's guarantee network (edge probabilities already set by
        the guarantee-risk model).
    detector:
        Top-k detector; defaults to BSRBK with the paper's settings.
    self_risk_assessor:
        Optional callable mapping a feature matrix (aligned with the
        graph's node order) to self-risk probabilities.  When provided,
        :meth:`refresh_self_risks` pushes new assessments into the graph
        — the monthly re-scoring step of the deployment.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        detector: VulnerableNodeDetector | None = None,
        self_risk_assessor: SelfRiskAssessor | None = None,
    ) -> None:
        if graph.num_nodes == 0:
            raise ReproError("VulnDS needs a non-empty guarantee network")
        self._graph = graph
        self._detector = detector or BottomKDetector(bk=16, seed=0)
        self._assessor = self_risk_assessor
        self._last_assessment: PortfolioAssessment | None = None
        self._monitor: TopKMonitor | None = None

    @property
    def graph(self) -> UncertainGraph:
        """The guarantee network the service scores."""
        return self._graph

    @property
    def last_assessment(self) -> PortfolioAssessment | None:
        """The most recent portfolio run, if any."""
        return self._last_assessment

    @property
    def monitor(self) -> TopKMonitor | None:
        """The attached streaming monitor, if streaming is enabled."""
        return self._monitor

    def enable_streaming(self, k: int, **monitor_kwargs) -> TopKMonitor:
        """Switch size-*k* assessments to incremental streaming detection.

        Attaches a :class:`~repro.streaming.monitor.TopKMonitor` to the
        service's graph.  From here on, :meth:`refresh_self_risks` and
        :meth:`apply_updates` route probability changes through the
        monitor, and :meth:`assess_portfolio` calls with this exact *k*
        are answered incrementally (other sizes still run the configured
        detector).  Keyword arguments are forwarded to the monitor
        (seed, epsilon, algorithm, …).

        Note the algorithm switch this implies: the monitor maintains
        the *BSR* pipeline with its own parameters/seed (defaults:
        epsilon 0.3, delta 0.1, seed 0), not whatever
        detector this service was constructed with — its bit-identity
        guarantee is against a fresh BSR detector built from the same
        monitor parameters.  Pass explicit keyword arguments here if
        the streamed watch list must match a particular configuration.
        """
        self._monitor = TopKMonitor(self._graph, k, **monitor_kwargs)
        return self._monitor

    def apply_updates(self, events: Iterable[UpdateEvent]) -> int:
        """Stream probability updates into the service; returns the count.

        Requires streaming to be enabled — the monitor is what tracks
        which parts of the cached assessment each update invalidates.
        """
        if self._monitor is None:
            raise ReproError(
                "streaming is not enabled; call enable_streaming(k) first"
            )
        return self._monitor.apply(events)

    def refresh_self_risks(self, features: np.ndarray) -> np.ndarray:
        """Re-assess every enterprise's self-risk from fresh features.

        Returns the new self-risk vector (also written into the graph).
        """
        if self._assessor is None:
            raise ReproError(
                "no self-risk assessor configured; construct VulnDS with "
                "self_risk_assessor=..."
            )
        risks = np.clip(
            np.asarray(self._assessor(features), dtype=np.float64),
            0.0,
            1.0,
        )
        if risks.shape != (self._graph.num_nodes,):
            raise ReproError(
                f"assessor returned shape {risks.shape}, expected "
                f"({self._graph.num_nodes},)"
            )
        if self._monitor is not None:
            # Route through the monitor so the re-scoring is tracked as
            # a (bulk) streaming update instead of silently staling the
            # cached assessment.
            self._monitor.set_all_self_risks(risks)
        else:
            self._graph.set_all_self_risks(risks)
        return risks

    def assess_portfolio(self, k: int) -> PortfolioAssessment:
        """Detect the top-*k* vulnerable enterprises (one monthly run).

        With streaming enabled and ``k`` equal to the monitor's size,
        the answer comes from the incremental monitor (bit-identical to
        a fresh BSR detection on the current graph); otherwise the
        configured detector runs from scratch.
        """
        if self._monitor is not None and k == self._monitor.k:
            detection = self._monitor.top_k()
        else:
            detection = self._detector.detect(self._graph, k)
        return self.adopt_assessment(detection)

    def adopt_assessment(self, detection: DetectionResult) -> PortfolioAssessment:
        """Record an externally computed detection as the current state.

        The serving path computes detections in a tenant monitor that
        lives outside this service (possibly in another process); this
        folds such an answer back in so :attr:`last_assessment` — and
        everything the risk-control centre derives from it — stays
        coherent regardless of where detection ran.
        """
        assessment = PortfolioAssessment.from_detection(detection)
        self._last_assessment = assessment
        return assessment

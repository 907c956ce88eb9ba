"""The risk-control centre: rules → VulnDS → evaluation (paper §5.1).

"The risk control center consists of three main parts: the rule engine,
vulnerable detection system and evaluation module. [...] All three steps
in the risk control center will be employed to evaluate all issued loans
regularly.  In our implementation, we detect all loans monthly by the
proposed VulnDS."

:class:`RiskControlCenter` wires the three stages together, keeps an
audit log, and implements the monthly re-evaluation batch over issued
loans.  Between the monthly batches the centre can run in *streaming*
mode (:meth:`RiskControlCenter.enable_streaming`): market updates —
re-scored self-risks, re-assessed guarantee strengths — are pushed
through :meth:`RiskControlCenter.apply_market_update`, which refreshes
the watch list incrementally instead of re-detecting from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable

from repro.core.errors import ReproError
from repro.streaming.events import UpdateEvent
from repro.streaming.monitor import TopKMonitor
from repro.system.evaluation import EvaluationModule
from repro.system.loans import Decision, LoanApplication, LoanDecision
from repro.system.rules import RuleEngine
from repro.system.vulnds import PortfolioAssessment, VulnDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.service import RiskService

__all__ = ["AuditRecord", "RiskControlCenter"]


@dataclass(frozen=True)
class AuditRecord:
    """One audited pipeline event (application decision or batch run)."""

    event: str
    detail: str


@dataclass
class RiskControlCenter:
    """End-to-end risk pipeline over one guarantee network.

    Parameters
    ----------
    rule_engine:
        Stage 1 — blacklist/whitelist/compliance checks.
    vulnds:
        Stage 2 — the top-k vulnerable detection service.
    evaluation:
        Stage 3 — pricing for approved loans.
    watch_fraction:
        Fraction of enterprises kept on the vulnerability watch list at
        each assessment (the deployed system's k).
    review_threshold:
        Watch-listed applicants whose estimated default probability is
        at or above this go to manual review instead of auto-approval.
    """

    rule_engine: RuleEngine
    vulnds: VulnDS
    evaluation: EvaluationModule = field(default_factory=EvaluationModule)
    watch_fraction: float = 0.1
    review_threshold: float = 0.5
    audit_log: list[AuditRecord] = field(default_factory=list)
    _service: "RiskService | None" = field(
        default=None, init=False, repr=False
    )
    _service_tenant: Hashable = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.watch_fraction <= 1.0:
            raise ReproError(
                f"watch fraction must be in (0, 1], got {self.watch_fraction}"
            )
        if not 0.0 <= self.review_threshold <= 1.0:
            raise ReproError(
                f"review threshold must be in [0, 1], got "
                f"{self.review_threshold}"
            )

    def _audit(self, event: str, detail: str) -> None:
        self.audit_log.append(AuditRecord(event=event, detail=detail))

    def _current_assessment(self) -> PortfolioAssessment:
        assessment = self.vulnds.last_assessment
        if assessment is None:
            assessment = self.run_monthly_assessment()
        return assessment

    @property
    def watch_k(self) -> int:
        """The deployed system's k: watch-listed enterprises per run."""
        return max(1, round(self.vulnds.graph.num_nodes * self.watch_fraction))

    def run_monthly_assessment(self) -> PortfolioAssessment:
        """Stage-2 batch: re-detect the vulnerable enterprises."""
        n = self.vulnds.graph.num_nodes
        k = self.watch_k
        assessment = self.vulnds.assess_portfolio(k)
        self._audit(
            "monthly-assessment",
            f"top-{k} of {n} enterprises watch-listed; "
            f"{assessment.detection.samples_used} worlds sampled, "
            f"{assessment.detection.k_verified} bound-verified",
        )
        return assessment

    def enable_streaming(self, **monitor_kwargs) -> TopKMonitor:
        """Serve the watch list incrementally between monthly batches.

        Attaches a streaming monitor sized to this centre's watch list
        (``watch_fraction`` of the portfolio); keyword arguments are
        forwarded to :class:`~repro.streaming.monitor.TopKMonitor`.
        """
        monitor = self.vulnds.enable_streaming(self.watch_k, **monitor_kwargs)
        self._audit(
            "streaming-enabled",
            f"incremental top-{monitor.k} monitor attached",
        )
        return monitor

    def attach_serving(
        self,
        service: "RiskService",
        tenant_id: Hashable | None = None,
        **monitor_kwargs,
    ) -> Hashable:
        """Serve this centre's watch list as one tenant of *service*.

        Many control centres (one per portfolio) can attach to the same
        :class:`~repro.serving.service.RiskService`, sharing its base
        graph buffers and worker pool.  The tenant's monitor is sized to
        this centre's watch list; keyword arguments configure it (seed,
        epsilon, algorithm, …).  After attaching,
        :meth:`apply_market_update` routes events through the service's
        ingestion queue instead of an in-process monitor — the tenant's
        copy-on-write view becomes the authoritative live state, while
        this centre's own graph stays at the shared snapshot.
        """
        if self._service is not None:
            raise ReproError("a serving tenant is already attached")
        base = service.pool.base_graph
        ours = self.vulnds.graph
        if base is not ours and (
            base.num_nodes != ours.num_nodes
            or base.num_edges != ours.num_edges
            or base.labels() != ours.labels()
        ):
            raise ReproError(
                "serving base snapshot does not match this centre's "
                f"network ({base.num_nodes}n/{base.num_edges}e vs "
                f"{ours.num_nodes}n/{ours.num_edges}e or labels differ); "
                "build the RiskService over the same graph"
            )
        if tenant_id is None:
            tenant_id = f"portfolio-{len(service.tenants())}"
        service.register_tenant(tenant_id, self.watch_k, **monitor_kwargs)
        self._service = service
        self._service_tenant = tenant_id
        self._audit(
            "serving-attached",
            f"tenant {tenant_id!r} registered (top-{self.watch_k}, "
            f"pool mode={service.pool.mode})",
        )
        return tenant_id

    def apply_market_update(
        self, events: Iterable[UpdateEvent]
    ) -> PortfolioAssessment:
        """Push market updates and refresh the watch list incrementally.

        The returned assessment is bit-identical to a from-scratch
        detection on the updated network — the monitor only reuses what
        it can prove unchanged.  Requires :meth:`enable_streaming` (or
        :meth:`attach_serving`, which routes the updates through the
        shared service's ingestion queue instead).
        """
        if self._service is not None:
            return self._apply_via_service(events)
        applied = self.vulnds.apply_updates(events)
        monitor = self.vulnds.monitor
        # refresh() yields *this* update's report even for a no-op batch
        # (a "clean" report); reading last_report after assess_portfolio
        # could attribute a previous refresh's telemetry to this update.
        report = monitor.refresh() if monitor is not None else None
        assessment = self.vulnds.assess_portfolio(self.watch_k)
        detail = f"{applied} updates applied"
        if (
            report is not None
            and monitor is not None
            and monitor.k == self.watch_k
        ):
            detail += (
                f"; refresh={report.mode}, sampling={report.sampling} "
                f"({report.worlds_repaired}/{report.samples} worlds), "
                f"{report.elapsed_seconds * 1e3:.1f}ms"
            )
        else:
            # The portfolio grew/shrank since streaming was enabled, so
            # the assessment fell back to the configured detector; do
            # not claim streaming telemetry for it.
            detail += "; served by full detection (watch size changed)"
        self._audit("market-update", detail)
        return assessment

    def _apply_via_service(
        self, events: Iterable[UpdateEvent]
    ) -> PortfolioAssessment:
        """Route one market update through the attached serving tenant."""
        service = self._service
        tenant_id = self._service_tenant
        assert service is not None
        applied = service.submit_updates(tenant_id, events)
        reports = service.flush()
        detection = service.query_topk(tenant_id, flush=False)
        assessment = self.vulnds.adopt_assessment(detection)
        detail = (
            f"{applied} updates submitted to serving tenant {tenant_id!r}"
        )
        report = reports.get(tenant_id)
        if report is not None:
            detail += (
                f"; refresh={report.mode}, sampling={report.sampling} "
                f"({report.worlds_repaired}/{report.samples} worlds), "
                f"{report.elapsed_seconds * 1e3:.1f}ms"
            )
        self._audit("market-update", detail)
        return assessment

    def process(self, application: LoanApplication) -> LoanDecision:
        """Run one application through all three stages."""
        check = self.rule_engine.check(application)
        if not check.passed:
            self._audit(
                "reject", f"{application.application_id}: {'; '.join(check.reasons)}"
            )
            return LoanDecision(
                application=application,
                decision=Decision.REJECT,
                reasons=check.reasons,
            )
        assessment = self._current_assessment()
        enterprise_id = application.enterprise.enterprise_id
        vulnerability = assessment.vulnerability(enterprise_id)
        if (
            not check.fast_tracked
            and vulnerability is not None
            and vulnerability >= self.review_threshold
        ):
            reasons = check.reasons + (
                f"vulnds: estimated default probability "
                f"{vulnerability:.3f} >= {self.review_threshold:.3f}",
            )
            self._audit("review", f"{application.application_id}: vulnerable")
            return LoanDecision(
                application=application,
                decision=Decision.REVIEW,
                reasons=reasons,
                vulnerability=vulnerability,
            )
        effective_risk = vulnerability if vulnerability is not None else 0.0
        terms = self.evaluation.price(application, effective_risk)
        self._audit(
            "approve",
            f"{application.application_id}: granted {terms.granted_amount:.0f} "
            f"at {terms.annual_interest_rate:.2%} for {terms.term_months} months",
        )
        return LoanDecision(
            application=application,
            decision=Decision.APPROVE,
            reasons=check.reasons,
            vulnerability=vulnerability,
            terms=terms,
        )

    def process_batch(
        self, applications: list[LoanApplication]
    ) -> list[LoanDecision]:
        """Process many applications against one fresh assessment."""
        self.run_monthly_assessment()
        return [self.process(application) for application in applications]

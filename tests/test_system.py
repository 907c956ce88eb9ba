"""Tests for the VulnDS risk-control system (paper §5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ReproError
from repro.datasets.registry import load_dataset
from repro.system.evaluation import EvaluationModule, TermSchedule
from repro.system.loans import (
    Decision,
    Enterprise,
    LoanApplication,
    LoanDecision,
    LoanTerms,
)
from repro.system.pipeline import RiskControlCenter
from repro.system.rules import (
    BlacklistRule,
    ExposureComplianceRule,
    RuleEngine,
    RuleOutcome,
    SectorComplianceRule,
    TermComplianceRule,
    WhitelistRule,
)
from repro.system.vulnds import VulnDS


def make_enterprise(enterprise_id="sme_00000", capital=1000.0, sector="retail"):
    return Enterprise(
        enterprise_id=enterprise_id,
        registered_capital=capital,
        sector=sector,
        credit_rating=0.6,
    )


def make_application(enterprise=None, amount=500.0, term=24, app_id="app-1"):
    return LoanApplication(
        application_id=app_id,
        enterprise=enterprise or make_enterprise(),
        amount=amount,
        term_months=term,
    )


class TestDomainObjects:
    def test_enterprise_validation(self):
        with pytest.raises(ReproError):
            Enterprise("x", registered_capital=-1.0)
        with pytest.raises(ReproError):
            Enterprise("x", registered_capital=1.0, credit_rating=1.5)

    def test_application_validation(self):
        with pytest.raises(ReproError):
            make_application(amount=0.0)
        with pytest.raises(ReproError):
            make_application(term=0)

    def test_terms_validation(self):
        with pytest.raises(ReproError):
            LoanTerms(granted_amount=-1, term_months=12, annual_interest_rate=0.05)
        with pytest.raises(ReproError):
            LoanTerms(granted_amount=10, term_months=12, annual_interest_rate=1.5)

    def test_decision_consistency(self):
        application = make_application()
        with pytest.raises(ReproError):
            LoanDecision(application=application, decision=Decision.APPROVE)
        terms = LoanTerms(100.0, 12, 0.05)
        with pytest.raises(ReproError):
            LoanDecision(
                application=application, decision=Decision.REJECT, terms=terms
            )


class TestRules:
    def test_blacklist(self):
        rule = BlacklistRule(["sme_00000"])
        assert rule.evaluate(make_application()).verdict == "reject"
        other = make_application(make_enterprise("sme_00001"))
        assert rule.evaluate(other).verdict == "pass"

    def test_whitelist(self):
        rule = WhitelistRule(["sme_00000"])
        assert rule.evaluate(make_application()).verdict == "fast_track"

    def test_exposure_compliance(self):
        rule = ExposureComplianceRule(max_capital_multiple=2.0)
        ok = make_application(amount=1500.0)  # capital 1000 -> cap 2000
        too_big = make_application(amount=2500.0, app_id="app-2")
        assert rule.evaluate(ok).verdict == "pass"
        assert rule.evaluate(too_big).verdict == "reject"

    def test_sector_compliance(self):
        rule = SectorComplianceRule(["Mining"])
        mining = make_application(make_enterprise(sector="mining"))
        assert rule.evaluate(mining).verdict == "reject"
        assert rule.evaluate(make_application()).verdict == "pass"

    def test_term_compliance(self):
        rule = TermComplianceRule(max_term_months=36)
        assert rule.evaluate(make_application(term=48)).verdict == "reject"
        assert rule.evaluate(make_application(term=36)).verdict == "pass"

    def test_rule_outcome_validation(self):
        with pytest.raises(ReproError):
            RuleOutcome("maybe")

    def test_engine_order_and_short_circuit(self):
        engine = RuleEngine(
            [
                WhitelistRule(["sme_00000"]),
                BlacklistRule(["sme_00000"]),  # never reached for whitelisted
            ]
        )
        check = engine.check(make_application())
        assert check.passed and check.fast_tracked

    def test_engine_reject_collects_reason(self):
        engine = RuleEngine([BlacklistRule(["sme_00000"])])
        check = engine.check(make_application())
        assert not check.passed
        assert "blacklisted" in check.reasons[0]

    def test_engine_needs_rules(self):
        with pytest.raises(ReproError):
            RuleEngine([])


class TestEvaluationModule:
    def test_riskless_borrower_gets_full_amount(self):
        module = EvaluationModule()
        terms = module.price(make_application(), vulnerability=0.0)
        assert terms.granted_amount == pytest.approx(500.0)
        assert terms.annual_interest_rate == pytest.approx(0.045)
        assert terms.term_months == 24

    def test_risky_borrower_pays_more_for_less(self):
        module = EvaluationModule()
        safe = module.price(make_application(), vulnerability=0.1)
        risky = module.price(make_application(), vulnerability=0.9)
        assert risky.granted_amount < safe.granted_amount
        assert risky.annual_interest_rate > safe.annual_interest_rate
        assert risky.term_months <= safe.term_months

    def test_vulnerability_validated(self):
        with pytest.raises(ReproError):
            EvaluationModule().price(make_application(), vulnerability=1.5)

    def test_schedule_validation(self):
        with pytest.raises(ReproError):
            TermSchedule(base_rate=0.0)
        with pytest.raises(ReproError):
            TermSchedule(amount_haircut=1.2)
        with pytest.raises(ReproError):
            TermSchedule(min_term_months=24, max_term_months=12)

    def test_term_never_below_minimum(self):
        module = EvaluationModule(TermSchedule(min_term_months=9))
        terms = module.price(make_application(term=60), vulnerability=1.0)
        assert terms.term_months == 9


@pytest.fixture(scope="module")
def loan_network():
    return load_dataset("guarantee", scale=0.01, seed=21)


class TestVulnDS:
    def test_assess_portfolio(self, loan_network):
        service = VulnDS(loan_network.graph)
        assessment = service.assess_portfolio(k=10)
        assert len(assessment.watch_list) == 10
        assert service.last_assessment is assessment
        top = assessment.watch_list[0]
        assert assessment.is_watched(top)
        assert assessment.vulnerability(top) is not None
        assert assessment.vulnerability("not-a-node") is None

    def test_refresh_self_risks(self, loan_network):
        graph = loan_network.graph.copy()
        service = VulnDS(
            graph,
            self_risk_assessor=lambda X: np.full(graph.num_nodes, 0.3),
        )
        features = np.zeros((graph.num_nodes, 4))
        risks = service.refresh_self_risks(features)
        assert np.allclose(risks, 0.3)
        assert np.allclose(graph.self_risk_array, 0.3)

    def test_refresh_without_assessor_rejected(self, loan_network):
        service = VulnDS(loan_network.graph)
        with pytest.raises(ReproError):
            service.refresh_self_risks(np.zeros((1, 1)))

    def test_assessor_shape_checked(self, loan_network):
        graph = loan_network.graph.copy()
        service = VulnDS(graph, self_risk_assessor=lambda X: np.zeros(3))
        with pytest.raises(ReproError):
            service.refresh_self_risks(np.zeros((graph.num_nodes, 2)))

    def test_empty_graph_rejected(self):
        from repro.core.graph import UncertainGraph

        with pytest.raises(ReproError):
            VulnDS(UncertainGraph())


class TestRiskControlCenter:
    @pytest.fixture
    def center(self, loan_network):
        labels = loan_network.graph.labels()
        engine = RuleEngine(
            [
                WhitelistRule([str(labels[1])]),
                BlacklistRule([str(labels[2])]),
                ExposureComplianceRule(max_capital_multiple=2.0),
                TermComplianceRule(max_term_months=60),
            ]
        )
        return RiskControlCenter(
            rule_engine=engine,
            vulnds=VulnDS(loan_network.graph),
            watch_fraction=0.2,
            review_threshold=0.4,
        )

    def test_blacklisted_rejected(self, center, loan_network):
        label = str(loan_network.graph.labels()[2])
        decision = center.process(
            make_application(make_enterprise(label), app_id="blk")
        )
        assert decision.decision is Decision.REJECT
        assert decision.terms is None

    def test_compliance_rejection(self, center):
        decision = center.process(
            make_application(amount=10_000.0, app_id="big")
        )
        assert decision.decision is Decision.REJECT

    def test_clean_applicant_approved_with_terms(self, center, loan_network):
        # Pick an enterprise not on the watch list.
        assessment = center.run_monthly_assessment()
        clean = next(
            str(label)
            for label in loan_network.graph.labels()
            if not assessment.is_watched(str(label))
        )
        decision = center.process(
            make_application(make_enterprise(clean), app_id="ok")
        )
        assert decision.decision is Decision.APPROVE
        assert decision.terms is not None
        assert decision.terms.granted_amount > 0

    def test_vulnerable_applicant_goes_to_review(self, center):
        assessment = center.run_monthly_assessment()
        risky = None
        for label in assessment.watch_list:
            if assessment.scores[label] >= center.review_threshold:
                risky = label
                break
        if risky is None:
            pytest.skip("no enterprise above the review threshold in this draw")
        decision = center.process(
            make_application(make_enterprise(risky), app_id="rsk")
        )
        assert decision.decision is Decision.REVIEW
        assert decision.vulnerability is not None

    def test_whitelisted_vulnerable_still_approved(self, center, loan_network):
        label = str(loan_network.graph.labels()[1])
        decision = center.process(
            make_application(make_enterprise(label), app_id="wht")
        )
        assert decision.decision is Decision.APPROVE

    def test_batch_runs_fresh_assessment(self, center):
        before = len(center.audit_log)
        decisions = center.process_batch(
            [make_application(app_id=f"b{i}") for i in range(3)]
        )
        assert len(decisions) == 3
        events = [rec.event for rec in center.audit_log[before:]]
        assert events[0] == "monthly-assessment"

    def test_configuration_validated(self, loan_network):
        engine = RuleEngine([TermComplianceRule()])
        with pytest.raises(ReproError):
            RiskControlCenter(
                rule_engine=engine,
                vulnds=VulnDS(loan_network.graph),
                watch_fraction=0.0,
            )
        with pytest.raises(ReproError):
            RiskControlCenter(
                rule_engine=engine,
                vulnds=VulnDS(loan_network.graph),
                review_threshold=1.5,
            )


class TestStreamingIntegration:
    def test_vulnds_streaming_assessment_matches_fresh_bsr(self, loan_network):
        from repro.algorithms.bsr import BoundedSampleReverseDetector
        from repro.streaming.replay import random_patch_stream

        graph = loan_network.graph.copy()
        service = VulnDS(graph)
        monitor = service.enable_streaming(8, seed=4)
        assert service.monitor is monitor
        first = service.assess_portfolio(8)
        assert len(first.watch_list) == 8
        for event in random_patch_stream(graph, 5, seed=2, drift=0.1):
            service.apply_updates([event])
            assessment = service.assess_portfolio(8)
            fresh = BoundedSampleReverseDetector(seed=4).detect(graph, 8)
            assert assessment.detection.nodes == fresh.nodes
            assert assessment.detection.scores == fresh.scores
        # Other sizes still run the configured (non-streaming) detector.
        other = service.assess_portfolio(3)
        assert other.detection.method != "BSR" or len(other.watch_list) == 3

    def test_vulnds_apply_updates_requires_streaming(self, loan_network):
        service = VulnDS(loan_network.graph)
        with pytest.raises(ReproError):
            service.apply_updates([])

    def test_refresh_self_risks_routes_through_monitor(self, loan_network):
        graph = loan_network.graph.copy()
        service = VulnDS(
            graph,
            self_risk_assessor=lambda X: np.full(graph.num_nodes, 0.25),
        )
        monitor = service.enable_streaming(5, seed=0)
        monitor.top_k()
        service.refresh_self_risks(np.zeros((graph.num_nodes, 4)))
        assert monitor.pending_updates > 0
        monitor.top_k()
        assert monitor.pending_updates == 0

    def test_center_streaming_market_updates(self, loan_network):
        from repro.streaming.events import SelfRiskUpdate
        from repro.system.rules import ExposureComplianceRule, RuleEngine

        graph = loan_network.graph.copy()
        center = RiskControlCenter(
            rule_engine=RuleEngine(
                [ExposureComplianceRule(max_capital_multiple=2.0)]
            ),
            vulnds=VulnDS(graph),
            watch_fraction=0.1,
        )
        monitor = center.enable_streaming(seed=1)
        assert monitor.k == center.watch_k
        label = graph.labels()[0]
        assessment = center.apply_market_update(
            [SelfRiskUpdate(label=label, value=0.9)]
        )
        assert len(assessment.watch_list) == center.watch_k
        events = [record.event for record in center.audit_log]
        assert "streaming-enabled" in events
        assert "market-update" in events
        detail = [
            record.detail
            for record in center.audit_log
            if record.event == "market-update"
        ][0]
        assert "1 updates applied" in detail and "refresh=" in detail

    def test_center_market_update_requires_streaming(self, loan_network):
        from repro.system.rules import ExposureComplianceRule, RuleEngine

        center = RiskControlCenter(
            rule_engine=RuleEngine(
                [ExposureComplianceRule(max_capital_multiple=2.0)]
            ),
            vulnds=VulnDS(loan_network.graph),
        )
        with pytest.raises(ReproError):
            center.apply_market_update([])

    def test_center_no_op_update_audits_clean_refresh(self, loan_network):
        from repro.streaming.events import SelfRiskUpdate
        from repro.system.rules import ExposureComplianceRule, RuleEngine

        graph = loan_network.graph.copy()
        center = RiskControlCenter(
            rule_engine=RuleEngine(
                [ExposureComplianceRule(max_capital_multiple=2.0)]
            ),
            vulnds=VulnDS(graph),
            watch_fraction=0.1,
        )
        center.enable_streaming(seed=1)
        label = graph.labels()[0]
        center.apply_market_update([SelfRiskUpdate(label=label, value=0.8)])
        # A batch that changes nothing must be audited as *this* update's
        # clean refresh, not the previous refresh's telemetry.
        center.apply_market_update(
            [SelfRiskUpdate(label=label, value=graph.self_risk(label))]
        )
        details = [
            record.detail
            for record in center.audit_log
            if record.event == "market-update"
        ]
        assert "refresh=clean" in details[-1]
        assert "refresh=clean" not in details[0]

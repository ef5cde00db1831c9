"""Unit tests for the overpayment ratio (Definition 11)."""

from __future__ import annotations

import pytest

from repro.metrics import overpayment_ratio, total_overpayment, total_real_cost
from repro.model import AuctionOutcome, SmartphoneProfile, TaskSchedule
from repro.simulation import Scenario


@pytest.fixture
def scenario():
    profiles = [
        SmartphoneProfile(phone_id=1, arrival=1, departure=2, cost=4.0),
        SmartphoneProfile(phone_id=2, arrival=1, departure=2, cost=6.0),
    ]
    schedule = TaskSchedule.from_counts([1, 1], value=10.0)
    return Scenario(profiles, schedule)


def _outcome(scenario, allocation, payments):
    return AuctionOutcome(
        bids=scenario.truthful_bids(),
        schedule=scenario.schedule,
        allocation=allocation,
        payments=payments,
    )


class TestDefinition11:
    def test_ratio(self, scenario):
        outcome = _outcome(
            scenario, {0: 1, 1: 2}, {1: 6.0, 2: 9.0}
        )
        # Overpayment = (6−4) + (9−6) = 5; real costs = 10.
        assert total_real_cost(outcome, scenario) == pytest.approx(10.0)
        assert total_overpayment(outcome, scenario) == pytest.approx(5.0)
        assert overpayment_ratio(outcome, scenario) == pytest.approx(0.5)

    def test_exact_cost_payment_gives_zero(self, scenario):
        outcome = _outcome(scenario, {0: 1}, {1: 4.0})
        assert overpayment_ratio(outcome, scenario) == pytest.approx(0.0)

    def test_none_when_nothing_allocated(self, scenario):
        outcome = _outcome(scenario, {}, {})
        assert overpayment_ratio(outcome, scenario) is None

    def test_unpaid_winner_counts_negative(self, scenario):
        """A winner that never got a payment entry is pure underpayment."""
        outcome = _outcome(scenario, {0: 1}, {})
        assert total_overpayment(outcome, scenario) == pytest.approx(-4.0)
        assert overpayment_ratio(outcome, scenario) == pytest.approx(-1.0)

    def test_payment_to_loser_is_pure_overpayment(self, scenario):
        outcome = _outcome(scenario, {0: 1}, {1: 4.0, 2: 3.0})
        assert total_overpayment(outcome, scenario) == pytest.approx(3.0)

    def test_zero_cost_winners_give_none_ratio(self):
        profiles = [
            SmartphoneProfile(phone_id=1, arrival=1, departure=1, cost=0.0)
        ]
        schedule = TaskSchedule.from_counts([1], value=10.0)
        scenario = Scenario(profiles, schedule)
        outcome = AuctionOutcome(
            bids=scenario.truthful_bids(),
            schedule=schedule,
            allocation={0: 1},
            payments={1: 2.0},
        )
        # Denominator is zero: the ratio is undefined, not infinite.
        assert overpayment_ratio(outcome, scenario) is None


class TestCost:
    def test_reads_the_payment_mapping_once(self, scenario, monkeypatch):
        """``AuctionOutcome.payments`` copies the mapping on every read;
        one read per winner made the call quadratic in winners."""
        outcome = _outcome(scenario, {0: 1, 1: 2}, {1: 6.0})
        reads = []
        copy_payments = AuctionOutcome.payments.fget
        monkeypatch.setattr(
            AuctionOutcome,
            "payments",
            property(lambda self: reads.append(1) or copy_payments(self)),
        )
        assert total_overpayment(outcome, scenario) == pytest.approx(-4.0)
        assert len(reads) == 1

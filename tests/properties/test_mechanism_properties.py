"""Property-based tests of the mechanisms' paper-claimed invariants."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mechanisms import (
    OfflineVCGMechanism,
    OnlineGreedyMechanism,
    StreamingGreedyEngine,
)
from repro.metrics import empirical_competitive_ratio
from repro.model import TaskSchedule
from tests.properties.strategies import MAX_SLOTS, bid_lists, instances

OFFLINE = OfflineVCGMechanism()
ONLINE = OnlineGreedyMechanism()


class TestStructuralInvariants:
    @given(instance=instances())
    @settings(max_examples=50, deadline=None)
    def test_online_outcome_well_formed(self, instance):
        bids, schedule = instance
        outcome = ONLINE.run(bids, schedule)
        # AuctionOutcome's constructor enforces the structural rules
        # (one task per phone, active windows); reaching here means they
        # hold.  Check payment coverage on top:
        for phone_id in outcome.winners:
            assert outcome.payment(phone_id) >= 0.0

    @given(instance=instances(max_phones=6))
    @settings(max_examples=40, deadline=None)
    def test_offline_outcome_well_formed(self, instance):
        bids, schedule = instance
        outcome = OFFLINE.run(bids, schedule)
        for phone_id in outcome.winners:
            assert outcome.payment(phone_id) >= 0.0

    @given(instance=instances())
    @settings(max_examples=50, deadline=None)
    def test_online_per_slot_cheapest(self, instance):
        """In each slot, winners are the cheapest available bids."""
        bids, schedule = instance
        run = StreamingGreedyEngine(bids, schedule).base_run
        allocated_before = set()
        for outcome in run.slots:
            winner_ids = {b.phone_id for b in outcome.winners}
            pool = [
                b
                for b in bids
                if b.is_active(outcome.slot)
                and b.phone_id not in allocated_before
            ]
            losers = [b for b in pool if b.phone_id not in winner_ids]
            if losers and outcome.winners:
                max_winner = max(b.cost for b in outcome.winners)
                min_loser = min(b.cost for b in losers)
                assert max_winner <= min_loser + 1e-9
            # If tasks went unserved the pool must have been exhausted.
            if outcome.unserved:
                assert len(pool) == len(winner_ids)
            allocated_before |= winner_ids

    @given(instance=instances(max_phones=6))
    @settings(max_examples=40, deadline=None)
    def test_offline_never_worse_than_online(self, instance):
        bids, schedule = instance
        offline_welfare = OFFLINE.run(bids, schedule).claimed_welfare
        online = OnlineGreedyMechanism(reserve_price=True)
        online_welfare = online.run(bids, schedule).claimed_welfare
        assert offline_welfare >= online_welfare - 1e-9


class TestPaymentInvariants:
    @given(instance=instances(max_phones=6))
    @settings(max_examples=40, deadline=None)
    def test_vcg_payment_at_least_claimed_cost(self, instance):
        bids, schedule = instance
        outcome = OFFLINE.run(bids, schedule)
        for phone_id in outcome.winners:
            assert (
                outcome.payment(phone_id)
                >= outcome.bid_of(phone_id).cost - 1e-9
            )

    @given(instance=instances())
    @settings(max_examples=50, deadline=None)
    def test_online_payment_at_least_claimed_cost(self, instance):
        bids, schedule = instance
        outcome = ONLINE.run(bids, schedule)
        for phone_id in outcome.winners:
            assert (
                outcome.payment(phone_id)
                >= outcome.bid_of(phone_id).cost - 1e-9
            )

    @given(instance=instances())
    @settings(max_examples=50, deadline=None)
    def test_losers_paid_nothing(self, instance):
        bids, schedule = instance
        for mechanism in (ONLINE, OnlineGreedyMechanism(reserve_price=True)):
            outcome = mechanism.run(bids, schedule)
            winner_ids = set(outcome.winners)
            for bid in bids:
                if bid.phone_id not in winner_ids:
                    assert outcome.payment(bid.phone_id) == pytest.approx(0.0)

    @given(instance=instances())
    @settings(max_examples=40, deadline=None)
    def test_online_payment_settled_at_departure(self, instance):
        bids, schedule = instance
        outcome = ONLINE.run(bids, schedule)
        for phone_id in outcome.winners:
            assert outcome.payment_slot(phone_id) == outcome.bid_of(
                phone_id
            ).departure


class TestTruthfulnessProperties:
    @given(
        bids=bid_lists(max_phones=6),
        deviant=st.integers(0, 5),
        factor=st.floats(0.3, 3.0),
        counts=st.lists(
            st.integers(0, 2), min_size=MAX_SLOTS, max_size=MAX_SLOTS
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_offline_cost_truthfulness(self, bids, deviant, factor, counts):
        """No unilateral cost misreport profits under offline VCG."""
        assume(deviant < len(bids))
        schedule = TaskSchedule.from_counts(counts, value=25.0)
        true_bid = bids[deviant]
        true_cost = true_bid.cost

        truthful_outcome = OFFLINE.run(bids, schedule)
        truthful_utility = truthful_outcome.payment(true_bid.phone_id) - (
            true_cost if truthful_outcome.is_winner(true_bid.phone_id) else 0.0
        )

        deviant_bids = [
            b if b.phone_id != true_bid.phone_id else b.with_cost(
                true_cost * factor
            )
            for b in bids
        ]
        deviant_outcome = OFFLINE.run(deviant_bids, schedule)
        deviant_utility = deviant_outcome.payment(true_bid.phone_id) - (
            true_cost if deviant_outcome.is_winner(true_bid.phone_id) else 0.0
        )
        assert deviant_utility <= truthful_utility + 1e-6

    @given(
        bids=bid_lists(max_phones=6),
        deviant=st.integers(0, 5),
        factor=st.floats(0.3, 3.0),
        counts=st.lists(
            st.integers(0, 2), min_size=MAX_SLOTS, max_size=MAX_SLOTS
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_online_exact_rule_cost_truthfulness(
        self, bids, deviant, factor, counts
    ):
        """Exact critical-value rule + reserve: no cost misreport
        profits, even in under-supplied instances."""
        assume(deviant < len(bids))
        schedule = TaskSchedule.from_counts(counts, value=25.0)
        mechanism = OnlineGreedyMechanism(
            reserve_price=True, payment_rule="exact"
        )
        true_bid = bids[deviant]
        true_cost = true_bid.cost

        truthful_outcome = mechanism.run(bids, schedule)
        truthful_utility = truthful_outcome.payment(true_bid.phone_id) - (
            true_cost if truthful_outcome.is_winner(true_bid.phone_id) else 0.0
        )

        deviant_bids = [
            b if b.phone_id != true_bid.phone_id else b.with_cost(
                true_cost * factor
            )
            for b in bids
        ]
        deviant_outcome = mechanism.run(deviant_bids, schedule)
        deviant_utility = deviant_outcome.payment(true_bid.phone_id) - (
            true_cost if deviant_outcome.is_winner(true_bid.phone_id) else 0.0
        )
        assert deviant_utility <= truthful_utility + 1e-6

    @given(
        bids=bid_lists(max_phones=6),
        deviant=st.integers(0, 5),
        factor=st.floats(0.3, 1.0),
        counts=st.lists(
            st.integers(0, 2), min_size=MAX_SLOTS, max_size=MAX_SLOTS
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_online_monotonicity_in_cost(self, bids, deviant, factor, counts):
        """Definition 10 (cost axis): lowering a winning claim keeps it
        winning."""
        assume(deviant < len(bids))
        schedule = TaskSchedule.from_counts(counts, value=25.0)
        outcome = ONLINE.run(bids, schedule)
        winner = bids[deviant]
        assume(outcome.is_winner(winner.phone_id))

        lowered = [
            b if b.phone_id != winner.phone_id else b.with_cost(
                winner.cost * factor
            )
            for b in bids
        ]
        assert ONLINE.run(lowered, schedule).is_winner(winner.phone_id)


class TestCompetitiveRatioProperty:
    @given(instance=instances(max_phones=7))
    @settings(max_examples=50, deadline=None)
    def test_theorem6_with_dominant_value(self, instance):
        """ω_apx / ω_opt >= 1/2 whenever ν exceeds every claimed cost."""
        bids, schedule = instance
        assume(len(schedule) > 0 and bids)
        max_cost = max(b.cost for b in bids)
        boosted = TaskSchedule.from_counts(
            schedule.counts, value=max_cost + 10.0
        )
        ratio = empirical_competitive_ratio(bids, boosted)
        if ratio is not None:
            assert ratio >= 0.5 - 1e-9

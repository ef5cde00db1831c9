"""Integration: the incremental platform reproduces the batch mechanism.

The online mechanism is specified slot-by-slot (Section V); the cold
batch oracle (``tests/online_oracle.py``) and the event-driven platform
must be *extensionally equal* — same allocation, same payments, same
settlement slots — on any workload.  This is the strongest internal-consistency check in the
suite: it exercises arrival handling, pool maintenance, reserve prices,
both payment rules, and payment timing at once.
"""

from __future__ import annotations

import pytest

from repro.auction import replay_scenario
from repro.simulation import WorkloadConfig
from tests.online_oracle import online_outcome

WORKLOADS = [
    WorkloadConfig(
        num_slots=12,
        phone_rate=3.0,
        task_rate=2.0,
        mean_cost=10.0,
        mean_active_length=3,
        task_value=15.0,
    ),
    WorkloadConfig(
        num_slots=20,
        phone_rate=1.0,
        task_rate=3.0,  # under-supplied
        mean_cost=8.0,
        mean_active_length=2,
        task_value=12.0,
    ),
    WorkloadConfig(
        num_slots=8,
        phone_rate=8.0,
        task_rate=1.0,  # over-supplied
        mean_cost=20.0,
        mean_active_length=4,
        task_value=25.0,
    ),
]


@pytest.mark.parametrize("workload_index", range(len(WORKLOADS)))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "reserve,rule",
    [(False, "paper"), (True, "paper"), (True, "exact")],
)
def test_platform_equals_batch(workload_index, seed, reserve, rule):
    scenario = WORKLOADS[workload_index].generate(seed=seed)
    incremental, _ = replay_scenario(
        scenario, reserve_price=reserve, payment_rule=rule
    )
    batch = online_outcome(
        scenario.truthful_bids(),
        scenario.schedule,
        reserve_price=reserve,
        payment_rule=rule,
    )

    assert incremental.allocation == batch.allocation
    assert set(incremental.payments) == set(batch.payments)
    for phone_id, amount in batch.payments.items():
        assert incremental.payment(phone_id) == pytest.approx(amount)
        assert incremental.payment_slot(phone_id) == batch.payment_slot(
            phone_id
        )


def test_platform_welfare_equals_batch_on_default_workload():
    scenario = WorkloadConfig.paper_default().replace(num_slots=20).generate(
        seed=3
    )
    incremental, events = replay_scenario(scenario)
    batch = online_outcome(scenario.truthful_bids(), scenario.schedule)
    assert incremental.claimed_welfare == pytest.approx(
        batch.claimed_welfare
    )
    assert incremental.total_payment == pytest.approx(batch.total_payment)
    assert len(events) > 0

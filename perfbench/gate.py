"""The correctness gate every timed round passes through, untimed.

A round fails when it raises, when ``sanitize_outcome`` reports a
violation, when a cross-path check disagrees, or when its canonical
digest differs from the expected one.  At the default seed the expected
digests are the ones stored in ``digests.json``, and a missing file or
key fails the round.  At other seeds the expected digest is the one the
same input produced the first time it ran in this process, so there the
cross-path checks (``reference_problems``) are what ties the outcome to
an independent path.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Callable, Dict, List, Optional

from repro.analysis.sanitizer import sanitize_outcome

#: The seed whose digests ``digests.json`` stores.
DEFAULT_SEED = 0

DIGESTS_PATH = pathlib.Path(__file__).resolve().parent / "digests.json"

#: How many problem descriptions a run keeps for its error report.
MAX_PROBLEMS = 20


def outcome_digest(outcome) -> str:
    """SHA-256 (first 16 hex digits) of the allocation, payments and
    payment slots, each as exact ``repr`` of its sorted items."""
    payments = sorted(outcome.payments.items())
    canonical = repr(
        (
            sorted(outcome.allocation.items()),
            payments,
            [(phone, outcome.payment_slot(phone)) for phone, _ in payments],
        )
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def sanitizer_problems(outcome, mechanism) -> List[str]:
    """The sanitizer's violations, as strings."""
    return [str(v) for v in sanitize_outcome(outcome, mechanism)]


class Gate:
    """Counts attempted and failed rounds and checks digests.

    With ``stored=True`` every key must have an expected digest in
    ``expected``; otherwise an unknown key's first digest becomes its
    expected one.
    """

    def __init__(
        self, expected: Optional[Dict[str, str]] = None, stored: bool = False
    ) -> None:
        self.expected: Dict[str, str] = dict(expected or {})
        self.stored = stored
        self.references: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @classmethod
    def for_run(cls, workload: str, seed: int) -> "Gate":
        """The gate of one run: stored digests at the default seed."""
        if seed != DEFAULT_SEED:
            return cls()
        stored = {}
        if DIGESTS_PATH.is_file():
            stored = json.loads(DIGESTS_PATH.read_text()).get(workload, {})
        return cls(stored, stored=True)

    def digest_problems(self, key: str, outcome) -> List[str]:
        digest = outcome_digest(outcome)
        want = self.expected.get(key)
        if want is None:
            if self.stored:
                return [f"{key}: no stored digest"]
            want = self.expected[key] = digest
        if want == digest:
            return []
        return [f"{key}: digest {digest} != expected {want}"]

    def reference_problems(
        self, key: str, outcome, reference: Callable[[], object]
    ) -> List[str]:
        """Compare ``outcome`` with ``reference()``, an outcome of the
        same bids by another path; the reference runs once per key."""
        want = self.references.get(key)
        if want is None:
            want = self.references[key] = outcome_digest(reference())
        digest = outcome_digest(outcome)
        if want == digest:
            return []
        return [f"{key}: digest {digest} != reference {want}"]

    def record(self, key: str, problems: List[str]) -> None:
        """Count one attempted round; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(f"{key}: {p}" for p in problems[:room])

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

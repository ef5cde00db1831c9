"""The write-ahead journal: an auction-event codec over the record log.

A round's journal is one file, ``segment-00000001.jsonl``, in its
directory, written through :mod:`repro.durability.recordlog` (framing,
hash chain, fsync policy, crash hook, torn-tail contract).  The payload
of a record is ``{"event": <event dict>, "kind": kind}``, so a line is::

    {"event": {...}, "hash": h_n, "kind": "command"|"event",
     "prev": h_{n-1}, "seq": n}

A directory holding a second segment file was written by a build that
rotated segments, and is refused with a :class:`~repro.errors.JournalError`
naming the extra file.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.auction.events import AuctionEvent, event_from_dict
from repro.durability import recordlog
from repro.durability.recordlog import FSYNC_BATCH, ScanResult, canonical_json
from repro.errors import EventDecodeError, JournalError

#: Record kinds: a *command* is journaled before the platform mutation
#: it describes (the redo log proper); an *event* is a derived
#: observation the platform emitted while applying the last command
#: (journaled after the fact, verified during replay).
KIND_COMMAND = "command"
KIND_EVENT = "event"
_KINDS = (KIND_COMMAND, KIND_EVENT)

#: The journal's one file inside its directory.
SEGMENT_NAME = "segment-00000001.jsonl"


def record_hash(
    seq: int, prev: str, kind: str, event_payload: Mapping[str, Any]
) -> str:
    """The SHA-256 chaining hash of one record body."""
    return recordlog.record_hash(
        {"event": dict(event_payload), "kind": kind}, prev, seq
    )


@dataclasses.dataclass(frozen=True)
class JournalRecord:
    """One decoded, verified journal record."""

    seq: int
    prev: str
    kind: str
    event: AuctionEvent
    hash: str

    def to_line(self) -> str:
        """The record's canonical JSONL line (without the newline)."""
        return canonical_json(
            {
                "event": self.event.to_dict(),
                "hash": self.hash,
                "kind": self.kind,
                "prev": self.prev,
                "seq": self.seq,
            }
        )


def make_record(
    seq: int, prev: str, kind: str, event: AuctionEvent
) -> JournalRecord:
    """Build (and hash) a record from its parts."""
    _check_kind(kind, seq)
    digest = record_hash(seq, prev, kind, event.to_dict())
    return JournalRecord(
        seq=seq, prev=prev, kind=kind, event=event, hash=digest
    )


def _check_kind(kind: Any, seq: int) -> None:
    if kind not in _KINDS:
        raise JournalError(f"unknown record kind {kind!r}", sequence=seq)


def _decode(
    fields: Dict[str, Any], seq: int, prev: str, digest: str
) -> JournalRecord:
    """The journal's payload decoder (see :data:`recordlog.Decoder`)."""
    kind = fields.get("kind")
    _check_kind(kind, seq)
    try:
        event = event_from_dict(fields["event"])
    except (KeyError, EventDecodeError) as exc:
        raise JournalError(
            f"record {seq} carries an undecodable event: {exc}",
            sequence=seq,
        ) from exc
    return JournalRecord(
        seq=seq, prev=prev, kind=kind, event=event, hash=digest
    )


def decode_line(line: str) -> JournalRecord:
    """Decode one JSONL line into a record whose own hash verifies.

    Raises :class:`~repro.errors.JournalError` for a malformed, tampered
    or undecodable line; the chain is the scanner's job.
    """
    return _decode(*recordlog.parse_record(line.encode("utf-8"), JournalError))


def segment_paths(directory: "os.PathLike[str]") -> List[pathlib.Path]:
    """The segment files in a journal directory, in name order."""
    return sorted(pathlib.Path(directory).glob("segment-*.jsonl"))


def _journal_file(directory: "os.PathLike[str]") -> pathlib.Path:
    """The journal's file; refuses a directory of several segments."""
    root = pathlib.Path(directory)
    extra = [p for p in segment_paths(root) if p.name != SEGMENT_NAME]
    if extra:
        raise JournalError(
            f"{root} holds segment file {extra[0].name} next to "
            f"{SEGMENT_NAME}; a journal is one file, so a rotated "
            f"multi-segment journal cannot be read"
        )
    return root / SEGMENT_NAME


def scan_journal(directory: "os.PathLike[str]") -> ScanResult:
    """Verify a journal directory (read-only); see :func:`recordlog.scan`."""
    return recordlog.scan(_journal_file(directory), _decode, JournalError)


class Journal:
    """An open write-ahead journal (recovered on open, append-only after).

    ``directory`` is created if missing (one journal per round);
    ``fsync`` (``"always"`` / ``"batch"`` / ``"off"``) and
    ``crash_hook`` (a :class:`~repro.faults.crash.CrashController`) are
    the record log's, see :mod:`repro.durability.recordlog`.
    """

    def __init__(
        self,
        directory: "os.PathLike[str]",
        fsync: str = FSYNC_BATCH,
        crash_hook: Optional[Any] = None,
    ) -> None:
        self._directory = pathlib.Path(directory)
        with obs.span("journal.open", directory=str(self._directory)) as tel:
            self._log = recordlog.RecordLog(
                _journal_file(self._directory),
                _decode,
                JournalError,
                fsync=fsync,
                crash_hook=crash_hook,
            )
            recovered = self._log.recovered
            self._records: List[JournalRecord] = list(recovered.records)
            obs.counter("journal.recovered_records", len(self._records))
            tel.set_attribute("recovered_records", len(self._records))
            tel.set_attribute("truncated_bytes", recovered.truncated_bytes)

    @property
    def directory(self) -> pathlib.Path:
        """The journal directory."""
        return self._directory

    @property
    def records(self) -> Tuple[JournalRecord, ...]:
        """Every record currently in the journal, in order."""
        return tuple(self._records)

    @property
    def last_seq(self) -> int:
        """Sequence number of the last record (0 when empty)."""
        return self._log.last_seq

    def append(self, kind: str, event: AuctionEvent) -> JournalRecord:
        """Append one record; returns it once durable per the policy."""
        _check_kind(kind, self._log.last_seq + 1)
        seq, prev, digest = self._log.append(
            {"event": event.to_dict(), "kind": kind}
        )
        record = JournalRecord(
            seq=seq, prev=prev, kind=kind, event=event, hash=digest
        )
        self._records.append(record)
        obs.counter("journal.appends")
        return record

    def sync(self) -> None:
        """fsync the journal file (a no-op when ``off``)."""
        self._log.sync()

    def close(self) -> None:
        """fsync and close the journal (idempotent)."""
        self.sync()
        self._log.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Journal({str(self._directory)!r}, records={len(self._records)})"
        )

"""The append-only, hash-chained record log under both strict logs.

The write-ahead journal (:mod:`repro.durability.journal`) and the shard
checkpoints (:mod:`repro.experiments.sharding`) are payload codecs over
this one primitive.  A log is one file of canonical-JSON records (sorted
keys, no whitespace), one per line::

    {<payload fields>, "hash": h_n, "prev": h_{n-1}, "seq": n}

with ``h_n = sha256(canonical(payload ∪ {prev, seq}))``, ``prev`` of
record 1 the genesis hash (64 zeros), and ``seq`` counting from 1, so
any truncation, reordering, duplication or bit flip breaks a record's
own hash or its chain.  The contract every client inherits:

* **Torn tail.**  A bad *final* line (undecodable, hash- or
  chain-failing, rejected by the client's decoder, or missing its
  newline) is what a crash mid-append leaves: :func:`recover`, run
  whenever a log is opened for appending, truncates it; :func:`scan`
  only reports it.
* **Mid-log corruption.**  A bad line with a record after it cannot come
  from a crash of an append-only writer: both raise the client's typed
  error naming the record, and leave the file as it is.
* **fsync policy.**  ``"always"`` fsyncs every record, ``"batch"`` every
  :data:`FSYNC_BATCH_RECORDS` records and on close, ``"off"`` never.
  Every record reaches the OS before :meth:`RecordLog.append` returns.
* **Crash hook.**  A :class:`~repro.faults.crash.CrashController`:
  ``mutate(seq, data) -> bytes`` rewrites a record's bytes before they
  are written, ``after_append(seq)`` runs after and may raise to
  simulate death, after which the log refuses further appends.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

from repro import obs
from repro.errors import RecordLogError
from repro.obs.clock import perf_seconds
from repro.utils.retry import RetryPolicy, call_with_retry

#: ``prev`` hash of the first record.
GENESIS_HASH = "0" * 64

FSYNC_ALWAYS = "always"
FSYNC_BATCH = "batch"
FSYNC_OFF = "off"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_BATCH, FSYNC_OFF)

#: Records per fsync under the ``"batch"`` policy.
FSYNC_BATCH_RECORDS = 8

#: Retry schedule of a record write that raised ``OSError``.
WRITE_RETRY = RetryPolicy(retries=2, backoff=0.01)

_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: A client's payload decoder, ``(fields, seq, prev, hash) -> record``;
#: it raises the client's error class for a payload it cannot decode.
Decoder = Callable[[Dict[str, Any], int, str, str], Any]


def canonical_json(payload: Any) -> str:
    """Canonical JSON (sorted keys, no whitespace): what hashes cover."""
    return _ENCODE(payload)


def checksum_text(text: str) -> str:
    """SHA-256 hex digest of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_hash(fields: Mapping[str, Any], prev: str, seq: int) -> str:
    """The chaining hash of one record's payload at ``(prev, seq)``."""
    return checksum_text(canonical_json({**fields, "prev": prev, "seq": seq}))


def check_fsync_policy(
    policy: str, error: Type[Exception] = RecordLogError
) -> None:
    """Raise ``error`` unless ``policy`` is one of :data:`FSYNC_POLICIES`."""
    if policy not in FSYNC_POLICIES:
        raise error(
            f"unknown fsync policy {policy!r}; expected one of "
            f"{FSYNC_POLICIES}"
        )


def frame(fields: Mapping[str, Any], prev: str, seq: int) -> Tuple[str, bytes]:
    """``(hash, line)`` of one record; the line ends in a newline."""
    digest = record_hash(fields, prev, seq)
    record = {**fields, "hash": digest, "prev": prev, "seq": seq}
    return digest, (canonical_json(record) + "\n").encode("utf-8")


def parse_record(
    line: bytes, error: Type[RecordLogError] = RecordLogError
) -> Tuple[Dict[str, Any], int, str, str]:
    """``(fields, seq, prev, hash)`` of one line whose own hash verifies.

    Raises ``error`` for a line that is not a JSON object, misses a
    framing field, or fails its hash; the chain is :func:`scan`'s job.
    """
    try:
        fields = json.loads(line)
    except ValueError as exc:
        raise error(f"record is not valid JSON: {exc}") from exc
    if not isinstance(fields, dict):
        raise error("record is not a JSON object")
    for name in ("hash", "prev", "seq"):
        if name not in fields:
            raise error(f"record misses field {name!r}")
    digest, seq = fields.pop("hash"), fields["seq"]
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise error(f"record seq must be an int, got {seq!r}")
    expected = checksum_text(canonical_json(fields))
    if digest != expected:
        raise error(
            f"record {seq} checksum mismatch: recorded {digest!r}, "
            f"recomputed {expected!r}",
            sequence=seq,
        )
    prev = fields.pop("prev")
    del fields["seq"]
    return fields, seq, prev, digest


@dataclasses.dataclass(frozen=True)
class ScanResult:
    """What a scan of one log file found.

    ``records`` are the client-decoded good records; ``last_seq`` /
    ``last_hash`` the chain position after them.  When the final line
    was bad, ``torn_offset`` is where it starts, ``torn_reason`` why it
    was rejected, and ``truncated_bytes`` how many bytes a repair cuts.
    """

    records: Tuple[Any, ...]
    path: pathlib.Path
    last_seq: int = 0
    last_hash: str = GENESIS_HASH
    torn_offset: Optional[int] = None
    torn_reason: Optional[str] = None
    truncated_bytes: int = 0

    @property
    def torn(self) -> bool:
        """Whether the final line was bad."""
        return self.torn_offset is not None


def scan(
    path: "os.PathLike[str]",
    decode: Decoder,
    error: Type[RecordLogError] = RecordLogError,
) -> ScanResult:
    """Verify a log file record by record without modifying it.

    A missing file is an empty log.  A bad final line is reported on the
    result; an earlier one raises ``error`` naming its sequence and line.
    """
    target = pathlib.Path(path)
    try:
        data = target.read_bytes()
    except FileNotFoundError:
        data = b""
    lines = data.split(b"\n")
    final = max((i for i, line in enumerate(lines) if line), default=-1)
    records: List[Any] = []
    last_seq, last_hash, offset = 0, GENESIS_HASH, 0
    with obs.span("recordlog.scan", path=str(target)) as tel:
        for index, line in enumerate(lines):
            start, offset = offset, offset + len(line) + 1
            if not line:
                continue
            try:
                fields, seq, prev, digest = parse_record(line, error)
                if (seq, prev) != (last_seq + 1, last_hash):
                    raise error(
                        f"record {seq} breaks the chain: expected seq "
                        f"{last_seq + 1} after hash {last_hash!r}",
                        sequence=last_seq + 1,
                    )
                record = decode(fields, seq, prev, digest)
                if index == len(lines) - 1:
                    # Appending after a line whose newline never landed
                    # would corrupt it, so the record is redone.
                    raise error(
                        f"record {seq} is missing its trailing newline",
                        sequence=seq,
                    )
            except error as exc:
                sequence = exc.sequence or last_seq + 1
                if index != final:
                    raise error(
                        f"{target}: mid-log corruption at sequence "
                        f"{sequence} (line {index + 1}): {exc}; a crash "
                        f"only tears the final record, so the log is "
                        f"left as it is",
                        sequence=sequence,
                    ) from exc
                return ScanResult(
                    tuple(records), target, last_seq, last_hash,
                    torn_offset=start, torn_reason=str(exc),
                    truncated_bytes=len(data) - start,
                )
            records.append(record)
            last_seq, last_hash = seq, digest
        tel.set_attribute("records", len(records))
    return ScanResult(tuple(records), target, last_seq, last_hash)


def recover(
    path: "os.PathLike[str]",
    decode: Decoder,
    error: Type[RecordLogError] = RecordLogError,
) -> ScanResult:
    """:func:`scan`, then truncate a torn tail so appends continue cleanly."""
    result = scan(path, decode, error)
    if result.torn:
        with open(result.path, "r+b") as handle:
            handle.truncate(result.torn_offset)
        obs.counter("recordlog.torn_tails")
        obs.counter("recordlog.truncated_bytes", result.truncated_bytes)
    return result


class RecordLog:
    """One log file, recovered on open and append-only after.

    ``decode`` and ``error`` are the client's payload decoder and error
    class; ``fsync`` and ``crash_hook`` are described in the module
    docstring.  :attr:`recovered` holds the open-time scan.
    """

    def __init__(
        self,
        path: "os.PathLike[str]",
        decode: Decoder,
        error: Type[RecordLogError] = RecordLogError,
        fsync: str = FSYNC_BATCH,
        crash_hook: Optional[Any] = None,
    ) -> None:
        check_fsync_policy(fsync, error)
        self._error = error
        self._fsync = fsync
        self._crash_hook = crash_hook
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.recovered = recover(self.path, decode, error)
        self.last_seq = self.recovered.last_seq
        self.last_hash = self.recovered.last_hash
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        self._size = os.fstat(self._fd).st_size
        self._unsynced = 0
        self._dead = False
        self._closed = False

    def append(self, fields: Mapping[str, Any]) -> Tuple[int, str, str]:
        """Append one record; returns its ``(seq, prev, hash)``."""
        if self._closed:
            raise self._error(f"{self.path} is closed")
        if self._dead:
            raise self._error(
                f"{self.path} observed a simulated crash; no further appends"
            )
        seq, prev = self.last_seq + 1, self.last_hash
        digest, data = frame(fields, prev, seq)
        if self._crash_hook is not None:
            data = self._crash_hook.mutate(seq, data)
        call_with_retry(
            lambda: self._write(data), WRITE_RETRY, retry_on=(OSError,)
        )
        self._unsynced += 1
        if self._fsync == FSYNC_ALWAYS or (
            self._fsync == FSYNC_BATCH
            and self._unsynced >= FSYNC_BATCH_RECORDS
        ):
            self.sync()
        if self._crash_hook is not None:
            try:
                self._crash_hook.after_append(seq)
            except BaseException:
                self._dead = True
                raise
        self.last_seq, self.last_hash = seq, digest
        return seq, prev, digest

    def _write(self, data: bytes) -> None:
        """Write all of ``data``; a failed attempt is cut off again."""
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(self._fd, view) :]
        except OSError:
            os.ftruncate(self._fd, self._size)
            raise
        self._size += len(data)

    def sync(self) -> None:
        """fsync unsynced records (a no-op under ``"off"``).

        A failed fsync is not retried: the kernel may already have
        dropped the dirty pages, so a second call could report success
        for data that never reached the disk.
        """
        if self._fsync != FSYNC_OFF and self._unsynced:
            start = perf_seconds()
            os.fsync(self._fd)
            obs.observe("recordlog.fsync.seconds", perf_seconds() - start)
        self._unsynced = 0

    def close(self) -> None:
        """fsync unsynced records and close the file (idempotent)."""
        if self._closed:
            return
        try:
            self.sync()
        finally:
            os.close(self._fd)
            self._closed = True

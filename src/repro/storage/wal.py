"""Crash-recoverable append-only log.

The paper's Paxos logged delivered values with Berkeley DB so a server's
committed state could be recovered from disk.  This module provides the
equivalent: an append-only log of byte records, each framed as::

    [4-byte length][4-byte payload CRC32][4-byte header CRC32][payload]

where the header CRC covers the eight bytes before it.  Recovery replays
records until the file ends or a torn tail is found — a header cut
short, a CRC-valid length that runs past the end of the file, or a last
frame whose payload fails its CRC — and truncates that tail (standard
WAL semantics: a torn final record means the write never committed).
Everything else is corruption of acknowledged data, and recovery raises
:class:`~repro.errors.StorageError` instead of silently dropping every
later record: a complete header that fails its own CRC (a flipped bit in
a length would otherwise read as a torn tail), or a payload that fails
its CRC with further bytes *after* it.

``path=None`` gives an in-memory log with the same interface, which the
simulation uses so experiments stay filesystem-free.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

from repro.errors import StorageError

#: Length and payload CRC; the header CRC that follows covers them.
_HEAD = struct.Struct(">II")
_HEADER = _HEAD.size + 4


def _frame(record: bytes) -> bytes:
    head = _HEAD.pack(len(record), zlib.crc32(record))
    return head + zlib.crc32(head).to_bytes(4, "big") + record


class WriteAheadLog:
    """Append-only record log with CRC-checked recovery."""

    def __init__(self, path: str | os.PathLike | None = None, fsync: bool = False) -> None:
        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self._records: list[bytes] = []
        self._file = None
        if self.path is not None:
            self._recover()
            self._file = open(self.path, "ab")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        assert self.path is not None
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return
        valid_bytes = 0
        with open(self.path, "rb") as fh:
            data = fh.read()
        offset = 0
        while offset + _HEADER <= len(data):
            head = data[offset : offset + _HEAD.size]
            head_crc = int.from_bytes(data[offset + _HEAD.size : offset + _HEADER], "big")
            if zlib.crc32(head) != head_crc:
                raise StorageError(
                    f"{self.path}: record LSN {len(self._records)} at byte "
                    f"offset {offset} has a header that fails its CRC; refusing "
                    "to read its length or truncate acknowledged records"
                )
            length, crc = _HEAD.unpack(head)
            end = offset + _HEADER + length
            if end > len(data):
                break  # torn tail
            payload = data[offset + _HEADER : end]
            if zlib.crc32(payload) != crc:
                if end < len(data):
                    raise StorageError(
                        f"{self.path}: record LSN {len(self._records)} at byte "
                        f"offset {offset} fails its CRC with {len(data) - end} "
                        "bytes after it; refusing to truncate acknowledged records"
                    )
                break  # torn last frame
            self._records.append(payload)
            offset = end
            valid_bytes = end
        if valid_bytes < len(data):
            # Truncate the torn tail so future appends are clean.
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_bytes)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def append(self, record: bytes) -> int:
        """Durably append ``record``; returns its log sequence number."""
        if not isinstance(record, (bytes, bytearray)):
            raise StorageError(f"WAL records must be bytes, got {type(record).__name__}")
        record = bytes(record)
        self._records.append(record)
        if self._file is not None:
            self._file.write(_frame(record))
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
        return len(self._records) - 1

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, lsn: int) -> bytes:
        return self._records[lsn]

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._records)

    def rewrite(self, records: list[bytes]) -> None:
        """Atomically replace the log's contents (checkpoint compaction).

        File-backed logs are rewritten via a temporary file + rename so a
        crash mid-compaction leaves either the old or the new log intact.
        """
        records = [bytes(record) for record in records]
        if self.path is not None:
            if self._file is not None:
                self._file.close()
            temp_path = self.path.with_suffix(self.path.suffix + ".compact")
            with open(temp_path, "wb") as fh:
                for record in records:
                    fh.write(_frame(record))
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            os.replace(temp_path, self.path)
            self._file = open(self.path, "ab")
        self._records = records

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

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

A file-backed log keeps no record in memory, only an index: each
record's byte offset, 8 bytes a record, counted as frames are written
rather than asked of the file.  Iterating or indexing reads records back
from the file with recovery's CRC checks, so a record damaged since it
was written is a ``StorageError``, never a wrong value.  ``path=None``
gives an in-memory log with the same interface, which the simulation
uses so experiments stay filesystem-free.
"""

from __future__ import annotations

import os
import struct
import zlib
from array import array
from pathlib import Path
from typing import BinaryIO, Iterator

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
        #: An in-memory log's records.
        self._records: list[bytes] = []
        #: A file-backed log's index: each record's frame offset, by LSN,
        #: and the offset the next frame is written at.
        self._offsets = array("q")
        self._end = 0
        self._file = None
        if self.path is not None:
            self._recover()
            self._file = open(self.path, "ab")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _check_head(self, head: bytes, lsn: int, offset: int) -> tuple[int, int]:
        """``(length, payload CRC)`` of a complete frame header, refused
        before its length is believed if it fails its own CRC."""
        if zlib.crc32(head[: _HEAD.size]) != int.from_bytes(head[_HEAD.size :], "big"):
            raise StorageError(
                f"{self.path}: record LSN {lsn} at byte offset {offset} has a header "
                "that fails its CRC; refusing to read its length or truncate "
                "acknowledged records"
            )
        return _HEAD.unpack_from(head)

    def _recover(self) -> None:
        assert self.path is not None
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        offset = 0
        while offset + _HEADER <= len(data):
            lsn = len(self._offsets)
            length, crc = self._check_head(data[offset : offset + _HEADER], lsn, offset)
            end = offset + _HEADER + length
            if end > len(data):
                break  # torn tail
            if zlib.crc32(memoryview(data)[offset + _HEADER : end]) != crc:
                if end < len(data):
                    raise StorageError(
                        f"{self.path}: record LSN {lsn} at byte offset {offset} fails "
                        f"its CRC with {len(data) - end} bytes after it; refusing to "
                        "truncate acknowledged records"
                    )
                break  # torn last frame
            self._offsets.append(offset)
            offset = end
        self._end = offset
        if offset < len(data):
            # Truncate the torn tail so future appends are clean.
            with open(self.path, "r+b") as fh:
                fh.truncate(offset)

    def _read(self, fh: BinaryIO, lsn: int) -> bytes:
        """Record ``lsn`` read back from ``fh``, checked as recovery checks it."""
        offset = self._offsets[lsn]
        fh.seek(offset)
        head = fh.read(_HEADER)
        if len(head) < _HEADER:
            raise StorageError(f"{self.path}: record LSN {lsn} at byte offset {offset} is cut short")
        length, crc = self._check_head(head, lsn, offset)
        payload = fh.read(length)
        if len(payload) < length or zlib.crc32(payload) != crc:
            raise StorageError(
                f"{self.path}: record LSN {lsn} at byte offset {offset} is cut short "
                "or fails its CRC since it was written"
            )
        return payload

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def append(self, record: bytes) -> int:
        """Durably append ``record``; returns its log sequence number."""
        if not isinstance(record, (bytes, bytearray)):
            raise StorageError(f"WAL records must be bytes, got {type(record).__name__}")
        if self.path is None:
            self._records.append(bytes(record))
            return len(self._records) - 1
        if self._file is None:
            raise StorageError(f"{self.path}: append to a closed log")
        frame = _frame(record)
        self._file.write(frame)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self._offsets.append(self._end)
        self._end += len(frame)
        return len(self._offsets) - 1

    def __len__(self) -> int:
        return len(self._records) if self.path is None else len(self._offsets)

    def __getitem__(self, lsn: int) -> bytes:
        if self.path is None:
            return self._records[lsn]
        with open(self.path, "rb") as fh:
            return self._read(fh, range(len(self._offsets))[lsn])

    def __iter__(self) -> Iterator[bytes]:
        if self.path is None:
            return iter(self._records)
        return self._read_back(len(self._offsets))

    def _read_back(self, count: int) -> Iterator[bytes]:
        assert self.path is not None
        with open(self.path, "rb") as fh:
            for lsn in range(count):
                yield self._read(fh, lsn)

    def rewrite(self, records: list[bytes]) -> None:
        """Atomically replace the log's contents (checkpoint compaction).

        File-backed logs are rewritten via a temporary file + rename so a
        crash mid-compaction leaves either the old or the new log intact.
        """
        if self.path is None:
            self._records = [bytes(record) for record in records]
            return
        if self._file is not None:
            self._file.close()
        temp_path = self.path.with_suffix(self.path.suffix + ".compact")
        offsets = array("q")
        end = 0
        with open(temp_path, "wb") as fh:
            for record in records:
                frame = _frame(bytes(record))
                fh.write(frame)
                offsets.append(end)
                end += len(frame)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(temp_path, self.path)
        self._file = open(self.path, "ab")
        self._offsets, self._end = offsets, end

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

"""Unit tests for the write-ahead log (including crash recovery)."""

import pytest

from repro.errors import StorageError
from repro.storage.wal import _HEADER, WriteAheadLog


class TestInMemory:
    def test_append_and_iterate(self):
        log = WriteAheadLog()
        assert log.append(b"one") == 0
        assert log.append(b"two") == 1
        assert list(log) == [b"one", b"two"]
        assert log[1] == b"two"
        assert len(log) == 2

    def test_rejects_non_bytes(self):
        with pytest.raises(StorageError):
            WriteAheadLog().append("text")  # type: ignore[arg-type]


class TestFileBacked:
    def test_recovery_replays_records(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append(b"alpha")
            log.append(b"beta")
        recovered = WriteAheadLog(path)
        assert list(recovered) == [b"alpha", b"beta"]
        recovered.close()

    def test_append_after_recovery_continues(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append(b"first")
        with WriteAheadLog(path) as log:
            log.append(b"second")
        with WriteAheadLog(path) as log:
            assert list(log) == [b"first", b"second"]

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append(b"complete")
            log.append(b"will-be-torn")
        # Simulate a crash mid-write: chop bytes off the last record.
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        recovered = WriteAheadLog(path)
        assert list(recovered) == [b"complete"]
        recovered.append(b"after-recovery")
        recovered.close()
        final = WriteAheadLog(path)
        assert list(final) == [b"complete", b"after-recovery"]
        final.close()

    def test_corrupt_crc_truncates_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append(b"good")
            log.append(b"evil")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(data))
        recovered = WriteAheadLog(path)
        assert list(recovered) == [b"good"]
        recovered.close()

    def test_mid_file_corruption_refuses_to_start(self, tmp_path):
        """A CRC failure with intact frames after it is not a torn write:
        truncating there would drop acknowledged records."""
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append(b"first")
            log.append(b"evil")
            log.append(b"third")
        data = bytearray(path.read_bytes())
        evil_offset = _HEADER + len(b"first")
        data[evil_offset + _HEADER] ^= 0xFF  # first payload byte of record 1
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match=rf"LSN 1 at byte offset {evil_offset}\b"):
            WriteAheadLog(path)
        assert path.read_bytes() == bytes(data)  # nothing was truncated

    @pytest.mark.parametrize("byte", [0, 3], ids=["past-eof", "inside-the-file"])
    def test_corrupt_length_refuses_to_start(self, tmp_path, byte):
        """A flipped bit in a length field is not a torn tail, wherever
        the bad length points: the header's own CRC catches it before the
        length is believed (a length past EOF used to truncate there,
        dropping the record and every acknowledged one after it)."""
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            for payload in (b"first", b"second", b"third", b"fourth"):
                log.append(payload)
        data = bytearray(path.read_bytes())
        second = _HEADER + len(b"first")
        data[second + byte] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match=rf"LSN 1 at byte offset {second}\b.*header"):
            WriteAheadLog(path)
        assert path.read_bytes() == bytes(data)  # nothing was truncated

    def test_short_header_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append(b"kept")
            log.append(b"torn")
        data = path.read_bytes()
        path.write_bytes(data[: _HEADER + len(b"kept") + _HEADER - 1])
        with WriteAheadLog(path) as recovered:
            assert list(recovered) == [b"kept"]
        assert len(path.read_bytes()) == _HEADER + len(b"kept")

    def test_empty_and_missing_files(self, tmp_path):
        missing = WriteAheadLog(tmp_path / "sub" / "new.log")
        assert len(missing) == 0
        missing.close()
        empty_path = tmp_path / "empty.log"
        empty_path.touch()
        empty = WriteAheadLog(empty_path)
        assert len(empty) == 0
        empty.close()

    def test_binary_payloads_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        blob = bytes(range(256)) * 3
        with WriteAheadLog(path) as log:
            log.append(blob)
        recovered = WriteAheadLog(path)
        assert recovered[0] == blob
        recovered.close()

    def test_fsync_mode_works(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log", fsync=True) as log:
            log.append(b"durable")
        assert list(WriteAheadLog(tmp_path / "wal.log")) == [b"durable"]


class TestNoRecordInMemory:
    """A file-backed log holds an 8-byte offset per record, not the record."""

    def test_ten_thousand_appends_keep_under_100_kib_of_heap(self, tmp_path):
        import tracemalloc

        record = bytes(350)  # about one framed two-key projection
        with WriteAheadLog(tmp_path / "wal.log") as log:
            tracemalloc.start()
            try:
                for _ in range(10_000):
                    log.append(record)
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Mirroring the payloads would hold over 3.5 MB.
            assert held < 100 * 1024, held
            assert len(log) == 10_000 and log[-1] == record
            assert sum(1 for _ in log) == 10_000

    def test_a_record_damaged_after_it_was_written_is_refused_on_read(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append(b"first")
            log.append(b"second")
            data = bytearray(path.read_bytes())
            data[_HEADER] ^= 0xFF  # first payload byte of record 0
            path.write_bytes(bytes(data))
            assert log[1] == b"second"
            with pytest.raises(StorageError, match=r"LSN 0 at byte offset 0\b"):
                log[0]
            with pytest.raises(StorageError, match=r"LSN 0"):
                list(log)


class TestRewrite:
    def test_in_memory_rewrite(self):
        log = WriteAheadLog()
        for payload in (b"a", b"b", b"c"):
            log.append(payload)
        log.rewrite([b"b", b"c"])
        assert list(log) == [b"b", b"c"]
        log.append(b"d")
        assert list(log) == [b"b", b"c", b"d"]

    def test_file_backed_rewrite_survives_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            for payload in (b"one", b"two", b"three"):
                log.append(payload)
            log.rewrite([b"three"])
            log.append(b"four")
        reopened = WriteAheadLog(path)
        assert list(reopened) == [b"three", b"four"]
        reopened.close()

    def test_rewrite_to_empty(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append(b"gone")
            log.rewrite([])
        reopened = WriteAheadLog(path)
        assert len(reopened) == 0
        reopened.close()

    def test_no_leftover_temp_file(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append(b"x")
            log.rewrite([b"x"])
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".compact"]
        assert leftovers == []

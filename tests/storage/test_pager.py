"""Slotted page file: allocation, CRC, catalog, reopen."""

import struct

import pytest

from repro.storage import PageCorruptionError, Pager


class TestAllocation:
    def test_fresh_file_has_header_only(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        assert pager.page_count == 1  # page 0 is the header
        assert pager.free_head == 0
        pager.close()

    def test_allocate_extends_file(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        a = pager.allocate_run(1)[0]
        b = pager.allocate_run(1)[0]
        assert (a, b) == (1, 2)
        assert pager.page_count == 3
        pager.close()


class TestReadWrite:
    def test_payload_round_trip(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        pid = pager.allocate_run(1)[0]
        pager.write(pid, b"hello world", next_page=7)
        payload, next_page = pager.read(pid)
        assert payload == b"hello world"
        assert next_page == 7
        pager.close()

    def test_oversized_payload_rejected(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        pid = pager.allocate_run(1)[0]
        with pytest.raises(ValueError):
            pager.write(pid, b"x" * (pager.capacity + 1))
        pager.close()

    def test_out_of_range_page_id_rejected(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        with pytest.raises(ValueError):
            pager.read(5)
        pager.close()

    def test_io_is_metered(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        writes_before = pager.stats.page_writes
        pid = pager.allocate_run(1)[0]
        pager.write(pid, b"abc")
        pager.read(pid)
        assert pager.stats.page_writes > writes_before
        assert pager.stats.page_reads >= 1
        pager.close()


class TestDurability:
    def test_state_survives_reopen(self, tmp_path):
        path = tmp_path / "p.db"
        pager = Pager(path, page_size=512)
        pid = pager.allocate_run(1)[0]
        pager.write(pid, b"persisted")
        pager.catalog_put("heap", {"head": pid, "count": 1})
        pager.close()
        reopened = Pager(path, page_size=512)
        assert reopened.page_count == 2
        assert reopened.read(pid) == (b"persisted", 0)
        assert reopened.catalog_get("heap") == {"head": pid, "count": 1}
        reopened.close()

    def test_reopen_uses_on_disk_page_size(self, tmp_path):
        path = tmp_path / "p.db"
        Pager(path, page_size=1024).close()
        reopened = Pager(path, page_size=4096)  # wrong guess: file wins
        assert reopened.page_size == 1024
        reopened.close()


class TestCorruption:
    def test_flipped_byte_fails_page_crc(self, tmp_path):
        path = tmp_path / "p.db"
        pager = Pager(path, page_size=512)
        pid = pager.allocate_run(1)[0]
        pager.write(pid, b"x" * 100)
        pager.close()
        raw = bytearray(path.read_bytes())
        raw[pid * 512 + 50] ^= 0xFF  # inside the payload
        path.write_bytes(bytes(raw))
        reopened = Pager(path, page_size=512)
        with pytest.raises(PageCorruptionError):
            reopened.read(pid)
        reopened.close()

    def test_corrupt_header_rejected_on_open(self, tmp_path):
        path = tmp_path / "p.db"
        Pager(path, page_size=512).close()
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF  # inside the header body, CRC no longer matches
        path.write_bytes(bytes(raw))
        with pytest.raises(PageCorruptionError):
            Pager(path, page_size=512)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "p.db"
        Pager(path, page_size=512).close()
        raw = bytearray(path.read_bytes())
        struct.pack_into("<8s", raw, 4, b"NOTAPAGE")
        path.write_bytes(bytes(raw))
        with pytest.raises(PageCorruptionError):
            Pager(path, page_size=512)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "p.db"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(PageCorruptionError):
            Pager(path, page_size=512)

"""Heap record files: append-order iteration, page spanning, reopen."""

import pytest

from repro.storage import Pager, RecordHeap


@pytest.fixture
def pager(tmp_path):
    p = Pager(tmp_path / "heap.db", page_size=512)
    yield p
    p.close()


class TestAppendRead:
    def test_round_trip_preserves_order(self, pager):
        heap = RecordHeap(pager, "h")
        records = [f"record-{i}".encode() for i in range(50)]
        heap.append_many(records)
        assert heap.read_all() == records
        assert len(heap.read_all()) == 50

    def test_empty_heap(self, pager):
        heap = RecordHeap(pager, "h")
        assert heap.read_all() == []
        assert len(heap.read_all()) == 0

    def test_empty_record_round_trips(self, pager):
        heap = RecordHeap(pager, "h")
        heap.append(b"")
        heap.append(b"after-empty")
        assert heap.read_all() == [b"", b"after-empty"]

    def test_record_larger_than_one_page_spans(self, pager):
        heap = RecordHeap(pager, "h")
        big = bytes(range(256)) * 8  # 2 KiB >> 512-byte pages
        heap.append(big)
        heap.append(b"tail")
        assert heap.read_all() == [big, b"tail"]

    def test_generator_input_is_consumed_once(self, pager):
        heap = RecordHeap(pager, "h")
        heap.append_many(bytes([i]) for i in range(10))
        assert len(heap.read_all()) == 10

    def test_two_heaps_do_not_interfere(self, pager):
        a = RecordHeap(pager, "a")
        b = RecordHeap(pager, "b")
        a.append(b"from-a")
        b.append(b"from-b")
        a.append(b"also-a")
        assert a.read_all() == [b"from-a", b"also-a"]
        assert b.read_all() == [b"from-b"]


class TestDurability:
    def test_records_survive_reopen(self, tmp_path):
        path = tmp_path / "heap.db"
        pager = Pager(path, page_size=512)
        RecordHeap(pager, "h").append_many([b"one", b"two", b"three"])
        pager.close()
        reopened = Pager(path, page_size=512)
        assert RecordHeap(reopened, "h").read_all() == [b"one", b"two", b"three"]
        reopened.close()

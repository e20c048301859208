"""Heap/sequential record files over page chains.

A :class:`RecordHeap` is an append-only sequence of byte records — the
storage shape of the sensor registry and the cached-readings section of
a checkpoint.  Records are length-prefixed (``u32 len | bytes``) and
streamed across a chain of pages; a record freely spans page
boundaries, so page capacity never constrains record size.

The heap's head/tail/count live in the pager catalog under
``heap:<name>``; re-opening a pager re-opens its heaps by name.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator

from repro.storage.pager import PageCorruptionError, Pager

_LEN = struct.Struct("<I")


class RecordHeap:
    """An append-only record file inside a page file."""

    def __init__(self, pager: Pager, name: str) -> None:
        self.pager = pager
        self.name = name
        self._key = f"heap:{name}"
        # A heap enters the catalog on its first append, so opening one
        # to read never writes.
        entry = pager.catalog_get(self._key) or {
            "head": 0,
            "tail": 0,
            "count": 0,
            "tail_used": 0,
        }
        self._head = int(entry["head"])
        self._tail = int(entry["tail"])
        self._count = int(entry["count"])
        self._tail_used = int(entry["tail_used"])

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, record: bytes) -> None:
        self.append_many([record])

    def append_many(self, records: Iterable[bytes]) -> None:
        """Append records as one frame stream: the whole page run is
        allocated at once and the header written once, by the catalog
        update."""
        records = list(records)
        if not records:
            return
        data = b"".join(_LEN.pack(len(r)) + r for r in records)
        capacity = self.pager.capacity
        # Refill the partially-used tail page, then spill into fresh
        # pages.
        if self._head:
            tail_payload, _ = self.pager.read(self._tail)
            if len(tail_payload) != self._tail_used:
                raise PageCorruptionError(
                    f"heap {self.name!r}: tail page holds {len(tail_payload)} B, "
                    f"catalog says {self._tail_used}"
                )
            buffer = tail_payload + data
            pages = [self._tail]
        else:
            buffer = data
            pages = []
        n_pages = max(1, -(-len(buffer) // capacity))
        pages += self.pager.allocate_run(n_pages - len(pages))
        if not self._head:
            self._head = pages[0]
        for i, page_id in enumerate(pages):
            next_id = pages[i + 1] if i + 1 < len(pages) else 0
            self.pager.write(page_id, buffer[i * capacity : (i + 1) * capacity], next_id)
        self._tail = pages[-1]
        self._tail_used = len(buffer) - (n_pages - 1) * capacity
        self._count += len(records)
        self._save()

    def _save(self) -> None:
        self.pager.catalog_put(
            self._key,
            {
                "head": self._head,
                "tail": self._tail,
                "count": self._count,
                "tail_used": self._tail_used,
            },
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def records(self) -> Iterator[bytes]:
        """Every record in append order."""
        if self._head == 0:
            return
        stream = bytearray()
        page_id = self._head
        emitted = 0
        while page_id:
            payload, page_id = self.pager.read(page_id)
            stream.extend(payload)
            # Emit every complete frame accumulated so far.
            while emitted < self._count:
                if len(stream) < _LEN.size:
                    break
                (length,) = _LEN.unpack_from(stream)
                if len(stream) < _LEN.size + length:
                    break
                yield bytes(stream[_LEN.size : _LEN.size + length])
                del stream[: _LEN.size + length]
                emitted += 1
        if emitted != self._count:
            raise PageCorruptionError(
                f"heap {self.name!r}: {emitted} records decoded, "
                f"catalog says {self._count}"
            )

    def read_all(self) -> list[bytes]:
        return list(self.records())

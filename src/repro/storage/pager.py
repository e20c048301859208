"""The slotted page file.

One file, fixed-size pages, every page CRC-checksummed so a torn or
corrupted write is *detected* on read instead of silently served.

Layout
------
Page 0 is the header page::

    u32 crc | 8s magic | u32 page_size | u32 page_count
            | u32 free_head | u32 catalog_len | catalog JSON

The catalog maps structure names (record heaps) to their head page
ids and metadata — the page file's "system tables".  Data pages (ids
>= 1) are::

    u32 crc | u32 next | u32 used | payload (used bytes)

``next`` chains pages into streams (heap files) and threads the
free-list; 0 terminates (page 0 can never be a
data page).  The CRC covers everything after the checksum field, over
the full page, so a short write at the tail of the file is equally
detected.

The pager is deliberately *not* crash-safe on its own: callers that
need atomicity write fresh files and flip a manifest
(:mod:`repro.storage.engine`).  What the pager guarantees is
detection —
:class:`PageCorruptionError` instead of garbage.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

from repro import failpoints
from repro.storage.stats import StorageStats

MAGIC = b"COLRPG1\x00"
# The page size a new file is written at; an existing file is read at
# the size its header records.
PAGE_SIZE = 4096
_HEADER_FIXED = struct.Struct("<I8sIIII")  # crc, magic, page_size, count, free, cat_len
_DATA_FIXED = struct.Struct("<III")  # crc, next, used
DATA_HEADER_SIZE = _DATA_FIXED.size


class PageCorruptionError(RuntimeError):
    """A page failed its CRC or structural validation."""


class Pager:
    """A page file with a free-list and a named-structure catalog."""

    def __init__(
        self,
        path: str | Path,
        page_size: int = PAGE_SIZE,
        stats: StorageStats | None = None,
    ) -> None:
        self.path = Path(path)
        self.stats = stats if stats is not None else StorageStats()
        self._closed = False
        self._written = False  # a reader's close writes nothing
        if self.path.exists() and self.path.stat().st_size > 0:
            self._file = open(self.path, "r+b")
            self._load_header(page_size)
        else:
            self.page_size = page_size
            self.page_count = 1
            self.free_head = 0
            self.catalog: dict[str, dict] = {}
            self._file = open(self.path, "w+b")
            self._flush_header()

    # ------------------------------------------------------------------
    # Header + catalog
    # ------------------------------------------------------------------
    def _load_header(self, expected_page_size: int) -> None:
        self._file.seek(0)
        raw = self._file.read(expected_page_size)
        self.stats.page_reads += 1
        if len(raw) < _HEADER_FIXED.size:
            raise PageCorruptionError(f"{self.path}: truncated header page")
        crc, magic, page_size, count, free_head, cat_len = _HEADER_FIXED.unpack_from(
            raw
        )
        if magic != MAGIC:
            raise PageCorruptionError(f"{self.path}: bad magic {magic!r}")
        if page_size != expected_page_size:
            # Not an error: the file knows its own page size.
            self._file.seek(0)
            raw = self._file.read(page_size)
        if len(raw) < page_size:
            raise PageCorruptionError(f"{self.path}: short header page")
        if crc != zlib.crc32(raw[4:page_size]):
            raise PageCorruptionError(f"{self.path}: header page CRC mismatch")
        body_start = _HEADER_FIXED.size
        if cat_len > page_size - body_start:
            raise PageCorruptionError(f"{self.path}: catalog length out of range")
        self.page_size = page_size
        self.page_count = count
        self.free_head = free_head
        try:
            self.catalog = json.loads(
                raw[body_start : body_start + cat_len].decode("utf-8")
            ) if cat_len else {}
        except ValueError as exc:
            raise PageCorruptionError(f"{self.path}: malformed catalog") from exc

    def _flush_header(self) -> None:
        body = json.dumps(self.catalog, sort_keys=True).encode("utf-8")
        if _HEADER_FIXED.size + len(body) > self.page_size:
            raise ValueError(
                f"catalog too large for one {self.page_size}-byte header page"
            )
        page = bytearray(self.page_size)
        _HEADER_FIXED.pack_into(
            page, 0, 0, MAGIC, self.page_size, self.page_count, self.free_head,
            len(body),
        )
        page[_HEADER_FIXED.size : _HEADER_FIXED.size + len(body)] = body
        struct.pack_into("<I", page, 0, zlib.crc32(bytes(page[4:])))
        failpoints.hit("page.write")
        self._file.seek(0)
        self._file.write(bytes(page))
        self._written = True
        self.stats.page_writes += 1

    def catalog_get(self, name: str) -> dict | None:
        entry = self.catalog.get(name)
        return dict(entry) if entry is not None else None

    def catalog_put(self, name: str, entry: dict) -> None:
        self.catalog[name] = dict(entry)
        self._flush_header()

    # ------------------------------------------------------------------
    # Page I/O
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Payload bytes one data page holds."""
        return self.page_size - DATA_HEADER_SIZE

    def allocate_run(self, count: int) -> list[int]:
        """``count`` data page ids for the caller to write: free-list
        pages first, then fresh pages past the end of the file.  The
        header is not rewritten here — the caller's next
        :meth:`catalog_put` (or :meth:`sync`) records the new count and
        free-list head once for the whole run."""
        ids: list[int] = []
        while self.free_head and len(ids) < count:
            ids.append(self.free_head)
            _, self.free_head = self.read(self.free_head)
        fresh = count - len(ids)
        ids.extend(range(self.page_count, self.page_count + fresh))
        self.page_count += fresh
        return ids

    def write(self, page_id: int, payload: bytes, next_page: int = 0) -> None:
        self._check_id(page_id, allow_new=True)
        if len(payload) > self.capacity:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds page capacity "
                f"{self.capacity}"
            )
        page = bytearray(self.page_size)
        _DATA_FIXED.pack_into(page, 0, 0, next_page, len(payload))
        page[DATA_HEADER_SIZE : DATA_HEADER_SIZE + len(payload)] = payload
        struct.pack_into("<I", page, 0, zlib.crc32(bytes(page[4:])))
        failpoints.hit("page.write")
        self._file.seek(page_id * self.page_size)
        self._file.write(bytes(page))
        self._written = True
        self.stats.page_writes += 1

    def read(self, page_id: int) -> tuple[bytes, int]:
        """One page's ``(payload, next)``; raises on CRC mismatch."""
        self._check_id(page_id)
        self._file.seek(page_id * self.page_size)
        raw = self._file.read(self.page_size)
        self.stats.page_reads += 1
        if len(raw) < self.page_size:
            raise PageCorruptionError(
                f"{self.path}: short read of page {page_id} (torn tail)"
            )
        crc, next_page, used = _DATA_FIXED.unpack_from(raw)
        if crc != zlib.crc32(raw[4:]):
            raise PageCorruptionError(f"{self.path}: CRC mismatch on page {page_id}")
        if used > self.capacity:
            raise PageCorruptionError(
                f"{self.path}: page {page_id} claims {used} payload bytes"
            )
        return raw[DATA_HEADER_SIZE : DATA_HEADER_SIZE + used], next_page

    def _check_id(self, page_id: int, allow_new: bool = False) -> None:
        limit = self.page_count if not allow_new else self.page_count + 1
        if not 1 <= page_id < max(limit, 2):
            raise ValueError(f"page id {page_id} out of range (count {self.page_count})")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def sync(self, fsync: bool = True) -> None:
        """Flush the header and OS buffers to stable storage (nothing to
        do for a pager that has not written)."""
        if not self._written:
            return
        self._flush_header()
        self._file.flush()
        failpoints.hit("page.fsync")
        if fsync:
            os.fsync(self._file.fileno())

    def close(self, fsync: bool = True) -> None:
        if self._closed:
            return
        self.sync(fsync=fsync)
        self._file.close()
        self._closed = True

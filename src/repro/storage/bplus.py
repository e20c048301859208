"""A paged B+-tree.

The relational layer's tables spill here: each table maps to one named
B+-tree inside a shared page file, keyed by the encoded primary key.
Nodes are pickled and stored on page chains (a node larger than one
page simply spans several), and the node's *head page id* is its stable
identity — rewriting a node reuses its chain, so parent pointers never
go stale.

Keys and values are opaque byte strings; the tree only needs a
consistent total order, and bytes compare consistently.  Deletion is
lazy (no rebalancing): an underfull node is tolerated, which keeps the
on-disk format append-friendly and is fine for the portal's
workload — registrations vastly outnumber withdrawals.
"""

from __future__ import annotations

import pickle
import struct
from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.storage.pager import PageCorruptionError, Pager

_LEN = struct.Struct("<I")

_LEAF = "L"
_INNER = "I"


class BPlusTree:
    """A named B+-tree of byte keys/values inside a page file."""

    def __init__(self, pager: Pager, name: str, order: int = 64) -> None:
        if order < 4:
            raise ValueError("order must be >= 4")
        self.pager = pager
        self.name = name
        self._key = f"bplus:{name}"
        entry = pager.catalog_get(self._key)
        if entry is None:
            root = self._write_node(0, (_LEAF, [], [], 0))
            entry = {"root": root, "count": 0, "order": order}
            pager.catalog_put(self._key, entry)
        self.root = int(entry["root"])
        self.count = int(entry["count"])
        self.order = int(entry["order"])

    def __len__(self) -> int:
        return self.count

    # ------------------------------------------------------------------
    # Node I/O: a pickled node on a page chain headed by its id
    # ------------------------------------------------------------------
    def _read_node(self, head: int) -> tuple:
        stream = bytearray()
        page_id = head
        total: int | None = None
        while page_id:
            payload, page_id = self.pager.read(page_id)
            stream.extend(payload)
            if total is None and len(stream) >= _LEN.size:
                (total,) = _LEN.unpack_from(stream)
            if total is not None and len(stream) >= _LEN.size + total:
                break
        if total is None or len(stream) < _LEN.size + total:
            raise PageCorruptionError(
                f"bplus {self.name!r}: node {head} chain is incomplete"
            )
        return pickle.loads(bytes(stream[_LEN.size : _LEN.size + total]))

    def _chain_ids(self, head: int) -> list[int]:
        ids = []
        page_id = head
        while page_id:
            ids.append(page_id)
            _, page_id = self.pager.read(page_id)
        return ids

    def _write_node(self, head: int, node: tuple) -> int:
        """Write a node over its chain (allocating/freeing as needed);
        returns the head page id (freshly allocated when ``head`` is 0)."""
        blob = pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL)
        data = _LEN.pack(len(blob)) + blob
        capacity = self.pager.capacity
        chunks = [data[i : i + capacity] for i in range(0, len(data), capacity)]
        ids = self._chain_ids(head) if head else []
        while len(ids) < len(chunks):
            ids.append(self.pager.allocate())
        for surplus in ids[len(chunks) :]:
            self.pager.free(surplus)
        ids = ids[: len(chunks)]
        for i, chunk in enumerate(chunks):
            next_id = ids[i + 1] if i + 1 < len(ids) else 0
            self.pager.write(ids[i], chunk, next_id)
        return ids[0]

    def _free_node(self, head: int) -> None:
        self.pager.free_chain(head)

    def _save(self) -> None:
        self.pager.catalog_put(
            self._key, {"root": self.root, "count": self.count, "order": self.order}
        )

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> bytes | None:
        node = self._read_node(self._find_leaf(key))
        keys = node[1]
        idx = bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            return node[2][idx]
        return None

    def put(self, key: bytes, value: bytes) -> None:
        path = self._root_to_leaf(key)
        leaf_id = path[-1][0]
        kind, keys, values, next_leaf = self._read_node(leaf_id)
        assert kind == _LEAF
        idx = bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            values[idx] = value
            self._write_node(leaf_id, (_LEAF, keys, values, next_leaf))
            return
        keys.insert(idx, key)
        values.insert(idx, value)
        self.count += 1
        if len(keys) <= self.order:
            self._write_node(leaf_id, (_LEAF, keys, values, next_leaf))
            self._save()
            return
        # Split the leaf; the right sibling takes the upper half and the
        # separator is its first key.
        mid = len(keys) // 2
        right_id = self._write_node(
            0, (_LEAF, keys[mid:], values[mid:], next_leaf)
        )
        self._write_node(leaf_id, (_LEAF, keys[:mid], values[:mid], right_id))
        self._insert_into_parent(path[:-1], leaf_id, keys[mid], right_id)
        self._save()

    def delete(self, key: bytes) -> bool:
        """Remove a key; returns whether it was present.  Lazy: no
        rebalancing, empty leaves persist as chain links."""
        leaf_id = self._find_leaf(key)
        kind, keys, values, next_leaf = self._read_node(leaf_id)
        assert kind == _LEAF
        idx = bisect_left(keys, key)
        if idx >= len(keys) or keys[idx] != key:
            return False
        del keys[idx]
        del values[idx]
        self._write_node(leaf_id, (_LEAF, keys, values, next_leaf))
        self.count -= 1
        self._save()
        return True

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Every (key, value) in key order via the leaf chain."""
        node = self._read_node(self.root)
        while node[0] == _INNER:
            node = self._read_node(node[2][0])
        while True:
            _, keys, values, next_leaf = node
            yield from zip(keys, values)
            if not next_leaf:
                return
            node = self._read_node(next_leaf)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find_leaf(self, key: bytes) -> int:
        node_id = self.root
        node = self._read_node(node_id)
        while node[0] == _INNER:
            node_id = node[2][bisect_right(node[1], key)]
            node = self._read_node(node_id)
        return node_id

    def _root_to_leaf(self, key: bytes) -> list[tuple[int, tuple]]:
        """Root-to-leaf path as (node_id, node) pairs."""
        path = []
        node_id = self.root
        node = self._read_node(node_id)
        path.append((node_id, node))
        while node[0] == _INNER:
            node_id = node[2][bisect_right(node[1], key)]
            node = self._read_node(node_id)
            path.append((node_id, node))
        return path

    def _insert_into_parent(
        self,
        ancestors: list[tuple[int, tuple]],
        left_id: int,
        separator: bytes,
        right_id: int,
    ) -> None:
        if not ancestors:
            self.root = self._write_node(
                0, (_INNER, [separator], [left_id, right_id])
            )
            return
        parent_id, node = ancestors[-1]
        kind, keys, children = node
        assert kind == _INNER
        idx = children.index(left_id)
        keys.insert(idx, separator)
        children.insert(idx + 1, right_id)
        if len(keys) <= self.order:
            self._write_node(parent_id, (_INNER, keys, children))
            return
        mid = len(keys) // 2
        up = keys[mid]
        right = self._write_node(0, (_INNER, keys[mid + 1 :], children[mid + 1 :]))
        self._write_node(parent_id, (_INNER, keys[:mid], children[: mid + 1]))
        self._insert_into_parent(ancestors[:-1], parent_id, up, right)


class PagedTableBacking:
    """Write-through persistence of one relational table.

    ``Table`` keeps serving reads from its in-memory rows; every store /
    erase mirrors into the B+-tree, and a reopened database reloads the
    rows from here before serving.
    """

    def __init__(self, tree: BPlusTree) -> None:
        self.tree = tree

    @staticmethod
    def _encode_key(key: tuple) -> bytes:
        return pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)

    def store(self, key: tuple, row: dict) -> None:
        self.tree.put(
            self._encode_key(key),
            pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def erase(self, key: tuple) -> None:
        self.tree.delete(self._encode_key(key))

    def rows(self) -> list[dict]:
        """Every persisted row (order: encoded-key byte order)."""
        return [pickle.loads(value) for _, value in self.tree.items()]

    def clear(self) -> None:
        """Drop every persisted row (table drop)."""
        for key, _ in list(self.tree.items()):
            self.tree.delete(key)

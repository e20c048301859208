"""Shared teardown: no test in this package may orphan a worker.

Every test runs inside a fixture that checks
``multiprocessing.active_children()`` afterwards — a portal that was
not closed, or a ``close()`` that lost track of a worker, fails the test
that caused it (and the stragglers are killed so it fails only that
one).
"""

from __future__ import annotations

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def assert_no_orphan_workers():
    yield
    orphans = multiprocessing.active_children()
    for child in orphans:
        child.kill()
        child.join()
    assert orphans == [], "test left worker processes running"

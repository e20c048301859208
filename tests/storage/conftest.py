"""Shared fixtures and teardown for the storage suite.

Like the suite-wide orphan-worker check: no test here may leak
scratch directories into the system temp dir — every data directory
must live under pytest's ``tmp_path`` (reaped by pytest) or be removed
by the code under test.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest


def _scratch_entries() -> set[str]:
    tmp = Path(tempfile.gettempdir())
    return {p.name for p in tmp.glob("colr-*")}


@pytest.fixture(autouse=True)
def assert_no_leaked_scratch_dirs():
    before = _scratch_entries()
    yield
    leaked = _scratch_entries() - before
    assert not leaked, f"test leaked scratch dirs in system tmp: {sorted(leaked)}"

"""A crash at every fail point of a scripted durable workload reopens
consistent (the sweep and its checks: ``crash_sweep.py``)."""

import pytest

from repro import failpoints

from tests.storage.crash_sweep import sweep


def test_crash_at_every_fail_point_reopens_consistent(tmp_path):
    ref = sweep(tmp_path)
    # The workload reaches every registered point, so none is dead.
    assert set(ref.points) == set(failpoints.POINTS)


def test_points_are_noops_unless_armed_and_names_are_checked():
    failpoints.hit("no.such.point")  # unarmed: nothing happens
    seen = []
    with failpoints.armed(seen.append):
        failpoints.hit("wal.write")
        with pytest.raises(KeyError):
            failpoints.hit("no.such.point")
        with failpoints.armed(lambda name: None):
            failpoints.hit("wal.fsync")  # the inner hook
    failpoints.hit("wal.fsync")  # disarmed again
    assert seen == ["wal.write"]

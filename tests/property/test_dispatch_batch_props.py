"""Batch-per-instant dispatch is the per-event loop, observable for
observable.

``ProbeDispatcher._run`` takes every run of same-instant dispatch events
off the queue as one batch (one outcome draw, one pass over the
connection slots, one counter update).
``tests/transport/reference_dispatch.py`` keeps the loop it replaced.
Both are driven over random scripts — overlapping submits at shared and
distinct instants, partial drains that leave events queued, retries with
jittered backoff, latency jitter, timeouts, cooldown, dedup tables,
small connection pools, whole-fleet rounds whose readings overrun the
streaming chunk — and after every step
everything either can be asked must be equal: every ``ProbeRound`` field,
``NetworkStats``, ``TransportStats``, the availability history, the
order and content of every flush into the trees, the tables, the
connection pool, the event queue, and the state of both RNGs.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AvailabilityModel, SensorNetwork
from repro.geometry import GeoPoint
from repro.sensors.sensor import Sensor
from repro.transport import ProbeDispatcher, ProbeRound, TransportConfig
from repro.transport.dispatcher import _DISPATCH, _OK, _TIMED_OUT, STREAM_CHUNK
from tests.transport.reference_dispatch import ReferenceDispatcher

# A whole-fleet round yields about half the fleet in readings (the mean
# of AVAILABILITY), which must overrun one streaming chunk so the
# mid-round flushes are compared too.
N_SENSORS = 160
assert N_SENSORS // 2 > STREAM_CHUNK
AVAILABILITY = (1.0, 0.9, 0.5, 0.2, 0.0)


class _RecordingTree:
    """Stands in for the owning ``COLRTree``: logs each streamed flush
    into the world's one log, so the order across trees is pinned too."""

    def __init__(self, name: int, log: list) -> None:
        self.name = name
        self.log = log

    def insert_readings_batch(self, readings, fetched_at: float) -> int:
        self.log.append((self.name, tuple(readings), fetched_at))
        return len(readings) % 3  # some maintenance work to account for


class _World:
    def __init__(self, dispatcher_cls, knobs: dict) -> None:
        sensors = [
            Sensor(
                sensor_id=i,
                location=GeoPoint(float(i), float(i)),
                expiry_seconds=60.0 + 10.0 * i,
                availability=AVAILABILITY[i % len(AVAILABILITY)],
            )
            for i in range(N_SENSORS)
        ]
        self.model = AvailabilityModel()
        self.network = SensorNetwork(
            sensors,
            availability_model=self.model,
            rtt_seconds=0.2,
            parallelism=knobs["parallelism"],
            latency_jitter=knobs["latency_jitter"],
            timeout_seconds=knobs["timeout_seconds"],
            seed=knobs["network_seed"],
        )
        self.dispatcher = dispatcher_cls(
            self.network,
            TransportConfig(
                max_retries=knobs["max_retries"],
                inflight_ttl=knobs["inflight_ttl"],
                cooldown_seconds=knobs["cooldown_seconds"],
                overlap_enabled=knobs["overlap_enabled"],
                seed=knobs["transport_seed"],
            ),
        )
        self.flushes: list = []
        self.trees = [_RecordingTree(k, self.flushes) for k in range(2)]
        self.rounds: list[ProbeRound] = []

    def step(self, now: float, submits: list, drain: str) -> None:
        d = self.dispatcher
        fresh = [
            d.submit(
                ids,
                now,
                tree=None if tree is None else self.trees[tree],
                max_staleness=staleness,
            )
            for ids, staleness, tree in submits
        ]
        self.rounds.extend(fresh)
        if not d.config.overlap_enabled and drain != "none":
            # Without overlap a round runs on a queue of its own, so a
            # waiter drained before the round that owns its contact has
            # nothing to run (both loops raise alike).  Callers drain in
            # submission order; so does the script.
            drain = "all"
        if drain == "all":
            d.drain()
        elif drain == "these":
            d.drain(fresh)
        elif drain == "last":
            d.drain(fresh[-1:])

    def observe(self) -> dict:
        d, stats = self.dispatcher, self.network.stats
        return {
            "rounds": [_round_view(r) for r in self.rounds],
            "network_stats": stats,
            "per_sensor_order": list(stats.per_sensor_probes),
            "transport_stats": d.stats,
            "history": [
                (sid, h.successes, h.failures)
                for sid, h in self.model._history.items()
            ],
            "flushes": self.flushes,
            "network_rng": self.network._rng.bit_generator.state,
            "transport_rng": d._rng.bit_generator.state,
            "inflight": [
                (sid, p.now, p.attempts, [self.rounds.index(r) for r in p.rounds])
                for sid, p in d._inflight.items()
            ],
            "recent": list(d._recent.items()),
            "cooldown": list(d._cooldown_ends.items()),
            "unresolved": [self.rounds.index(r) for r in d._unresolved],
            "connections": sorted(d._conn),
            "queue": sorted(_event_view(e) for e in d._events),
        }


def _round_view(rnd: ProbeRound) -> dict:
    view = {name: getattr(rnd, name) for name in ProbeRound.__slots__}
    view["tree"] = None if rnd.tree is None else rnd.tree.name
    # Dict fields: insertion order is observable to callers that iterate.
    view["readings"] = list(rnd.readings.items())
    view["retries_by_sensor"] = list(rnd.retries_by_sensor.items())
    return view


def _event_view(event) -> tuple:
    """One queued event in a form both loops share: the reference's
    completions carry a ``ProbeAttempt``, the dispatcher's encode the
    outcome in the event kind."""
    t, seq, kind, payload = event
    if kind == _DISPATCH:
        return (t, seq, payload.sensor_id, "dispatch")
    if isinstance(payload, tuple):
        pending, attempt = payload
        ok, timed_out = attempt.ok, attempt.timed_out
    else:
        pending, ok, timed_out = payload, kind == _OK, kind == _TIMED_OUT
    outcome = "ok" if ok else "timed_out" if timed_out else "unavailable"
    return (t, seq, pending.sensor_id, outcome)


KNOBS = st.fixed_dictionaries(
    {
        "parallelism": st.sampled_from([1, 3, 64]),
        "latency_jitter": st.sampled_from([0.0, 0.3]),
        # rtt is 0.2: 0.25 times out only jittered contacts, 0.15 every one.
        "timeout_seconds": st.sampled_from([None, 0.25, 0.15]),
        "network_seed": st.integers(0, 2**16),
        "max_retries": st.integers(0, 3),
        "inflight_ttl": st.sampled_from([0.0, 60.0]),
        "cooldown_seconds": st.sampled_from([0.0, 300.0]),
        "overlap_enabled": st.booleans(),
        "transport_seed": st.integers(0, 2**16),
    }
)

SUBMIT = st.tuples(
    st.one_of(
        st.lists(st.integers(0, N_SENSORS - 1), max_size=30),  # repeats allowed
        st.just(list(range(N_SENSORS))),
    ),
    st.sampled_from([math.inf, 30.0, 0.0]),
    st.sampled_from([None, 0, 1]),
)

STEP = st.tuples(
    # 0.0 keeps the instant (rounds of two steps share a batch); 0.2 and
    # 0.5 land on completion and backoff instants; the rest cross the
    # dedup ttl and the cooldown.
    st.sampled_from([0.0, 0.05, 0.2, 0.5, 20.0, 90.0, 400.0]),
    st.lists(SUBMIT, min_size=1, max_size=4),
    st.sampled_from(["all", "these", "last", "none"]),
)


@settings(max_examples=250, deadline=None)
@given(knobs=KNOBS, script=st.lists(STEP, min_size=1, max_size=6))
def test_batch_dispatch_equals_per_event_dispatch(knobs, script):
    batch = _World(ProbeDispatcher, knobs)
    reference = _World(ReferenceDispatcher, knobs)
    now = 10.0
    for advance, submits, drain in script + [(0.0, [([], math.inf, None)], "all")]:
        now += advance
        batch.step(now, submits, drain)
        reference.step(now, submits, drain)
        got, want = batch.observe(), reference.observe()
        for key in want:
            assert got[key] == want[key], key
    assert not batch.dispatcher._events and not batch.dispatcher._unresolved
    assert all(r.resolved for r in batch.rounds)

"""The probe-transport dispatcher.

``ProbeDispatcher`` sits between every probe issuer (the batch executor,
``COLRTree.probe_and_cache``) and ``SensorNetwork``, replacing the
single synchronous ``network.probe`` call per tree with scheduled
per-sensor *attempts* on a simulated-time event queue:

* **In-flight / recently-probed table** — a sensor with a logical probe
  already in flight gets its requester attached as a waiter; a sensor
  resolved less than ``inflight_ttl`` ago is served from the table (a
  success subject to the requester's staleness bound, a failure
  unconditionally), so overlapping ticks and back-to-back queries never
  contact a sensor twice within its freshness window.
* **Retry / backoff / cooldown** — a failed attempt is retried up to
  ``max_retries`` times with exponential backoff (:data:`BACKOFF_BASE`
  seconds, times :data:`BACKOFF_MULTIPLIER` per further attempt) plus
  :data:`BACKOFF_JITTER` relative jitter drawn from the dispatcher's own
  RNG (the network RNG stream is untouched), and a sensor whose logical
  probe fails while its historical availability estimate is below
  :data:`COOLDOWN_THRESHOLD` is not contacted again for
  ``cooldown_seconds``.
* **Overlapping rounds** — all rounds share one pool of
  ``network.parallelism`` connections and one event queue, so multiple
  trees' probe rounds interleave in simulated wall time; a round's
  latency is its own makespan, not its place in a sequential sum.
* **A round at a time** — the collector's connections work in
  parallel, and so does the simulation of them: every run of dispatch
  events that share an instant leaves the queue as one batch (one
  outcome draw from the network, one pass over the connection slots,
  one counter update), which is the order, and the RNG stream, of
  taking them singly.
* **Streaming ingestion** — completed readings are flushed into the
  owning round's ``COLRTree.insert_readings_batch`` in completion order,
  every :data:`STREAM_CHUNK` completions, instead of waiting for the
  round's slowest probe.

With ``TransportConfig.parity()`` (no retries, no overlap, no tables)
the dispatcher degenerates to ``sample_attempts`` + ``complete_batch``
per round — bit-identical to ``network.probe``, which the property
tests pin.

Availability-model contract: outcomes are recorded exactly once per
*logical* probe, at resolution — an eventually-successful probe records
one success regardless of how many attempts it took.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.sensors.network import SensorNetwork
from repro.sensors.sensor import Reading
from repro.transport.config import TransportConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tree import COLRTree

# Retry delay before attempt ``k + 1`` (simulated seconds):
# ``BACKOFF_BASE * BACKOFF_MULTIPLIER**(k - 1)``, scaled by
# ``1 + U(-BACKOFF_JITTER, +BACKOFF_JITTER)``.
BACKOFF_BASE = 0.5
BACKOFF_MULTIPLIER = 2.0
BACKOFF_JITTER = 0.1
# A failed sensor whose availability estimate is below this enters
# cooldown (when ``TransportConfig.cooldown_seconds`` is positive).
COOLDOWN_THRESHOLD = 0.5
# Completed readings are flushed into the round's tree every this-many
# completions (and at round end).
STREAM_CHUNK = 64

# Event kinds.  A completion's kind is its wire outcome, so the payload
# of every event is just the ``_Pending``.
_DISPATCH = 0
_OK = 1
_UNAVAILABLE = 2
_TIMED_OUT = 3


@dataclass
class TransportStats:
    """Cumulative dispatcher accounting.  The wire-level outcomes
    (successes, timeouts, unavailable answers) are ``NetworkStats``'."""

    rounds: int = 0
    # Equal to ``NetworkStats.probes_attempted``; kept because the e2e
    # harness reads both names.
    attempts: int = 0
    retries: int = 0
    dedup_inflight: int = 0
    dedup_recent: int = 0
    cooldown_skips: int = 0
    streamed_readings: int = 0
    stream_flushes: int = 0
    maintenance_ops: int = 0
    overlapped_rounds: int = 0

    @property
    def dedup_hits(self) -> int:
        return self.dedup_inflight + self.dedup_recent


class _Pending:
    """One logical probe in flight: a sensor contact plus every round
    waiting on its outcome (``rounds[0]`` is the owner, whose tree
    receives the streamed reading)."""

    __slots__ = ("sensor_id", "now", "rounds", "attempts")

    def __init__(self, sensor_id: int, now: float, owner: "ProbeRound") -> None:
        self.sensor_id = sensor_id
        self.now = now
        self.rounds: list[ProbeRound] = [owner]
        self.attempts = 0


class ProbeRound:
    """One submitted probe round and, after :meth:`ProbeDispatcher.drain`,
    its outcome.  Mirrors ``ProbeResult`` (``readings`` / ``unavailable``
    / ``timed_out`` / ``latency_seconds``) plus the transport-only
    fields: ``deduped`` (requests served from the tables without
    traffic), ``cooldown_skipped`` (requests dropped in cooldown),
    ``retries_by_sensor``, ``attempts`` (wire contacts charged to this
    round) and ``maintenance_ops`` (streamed-ingestion trigger work)."""

    __slots__ = (
        "tree",
        "now",
        "requested",
        "contacted",
        "readings",
        "unavailable",
        "timed_out",
        "deduped",
        "cooldown_skipped",
        "retries_by_sensor",
        "attempts",
        "latency_seconds",
        "maintenance_ops",
        "resolved",
        "outstanding",
        "finish_time",
        "_stream_buffer",
    )

    def __init__(self, requested: list[int], now: float, tree: "COLRTree | None") -> None:
        self.tree = tree
        self.now = now
        self.requested: tuple[int, ...] = tuple(requested)
        self.contacted: list[int] = []
        self.readings: dict[int, Reading] = {}
        self.unavailable: list[int] = []
        self.timed_out: list[int] = []
        self.deduped: list[int] = []
        self.cooldown_skipped: list[int] = []
        self.retries_by_sensor: dict[int, int] = {}
        self.attempts = 0
        self.latency_seconds = 0.0
        self.maintenance_ops = 0
        self.resolved = False
        self.outstanding: set[int] = set()
        self.finish_time = now
        self._stream_buffer: list[Reading] = []

    @property
    def retries(self) -> int:
        return sum(self.retries_by_sensor.values())

    @property
    def deduped_set(self) -> frozenset[int]:
        return frozenset(self.deduped)


class ProbeDispatcher:
    """Schedules logical probes for one ``SensorNetwork``.

    Usage: ``submit()`` one round per tree (registering contacts and
    consulting the dedup/cooldown tables), then ``drain()`` to run the
    shared event queue until every submitted round resolves.
    ``collect()`` is the submit-and-drain convenience for sequential
    callers (``probe_and_cache``).
    """

    def __init__(
        self,
        network: SensorNetwork,
        config: TransportConfig | None = None,
    ) -> None:
        self.network = network
        self.config = config if config is not None else TransportConfig()
        self.stats = TransportStats()
        self._seq = itertools.count()
        self._rng = np.random.default_rng(self.config.seed)
        self._inflight: dict[int, _Pending] = {}
        # sensor id -> (anchor instant, reading-or-None).  A None reading
        # caches a failure: within the ttl the sensor is reported failed
        # without traffic.
        self._recent: dict[int, tuple[float, Reading | None]] = {}
        self._cooldown_ends: dict[int, float] = {}
        # Submitted rounds not yet resolved, in submission order (a dict
        # for its ordered keys: a round leaves the moment it resolves).
        self._unresolved: dict[ProbeRound, None] = {}
        # Shared connection pool (overlap mode): free-at instants of the
        # collector's `parallelism` connections.
        self._conn: list[float] = [0.0] * max(1, int(network.parallelism))
        heapq.heapify(self._conn)
        self._events: list[tuple[float, int, int, _Pending]] = []

    # ------------------------------------------------------------------
    # Mode predicates
    # ------------------------------------------------------------------
    @property
    def _sync_rounds(self) -> bool:
        """True when rounds run as single ``complete_batch`` calls (the
        bit-identical-to-``probe`` execution shape)."""
        return not self.config.overlap_enabled and self.config.max_retries == 0

    @property
    def streams_ingestion(self) -> bool:
        """True when the dispatcher ingests completed readings itself
        (event-queue modes); callers must then not re-ingest."""
        return not self._sync_rounds

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        sensor_ids: Iterable[int],
        now: float,
        tree: "COLRTree | None" = None,
        max_staleness: float = math.inf,
    ) -> ProbeRound:
        """Register a probe round at simulated instant ``now``.

        Every requested sensor is classified: attached to an in-flight
        logical probe, served from the recently-probed table, skipped in
        cooldown, or scheduled for contact.  The round resolves during
        :meth:`drain` (immediately if nothing needs contacting).
        """
        ids = list(sensor_ids)
        rnd = ProbeRound(ids, now, tree)
        self.stats.rounds += 1
        cfg = self.config
        seen: set[int] = set()
        contacts: list[_Pending] = []
        overlapping = bool(self._inflight)
        for sid in ids:
            if sid in seen:
                continue
            seen.add(sid)
            pending = self._inflight.get(sid)
            if pending is not None:
                pending.rounds.append(rnd)
                rnd.outstanding.add(sid)
                rnd.deduped.append(sid)
                self.stats.dedup_inflight += 1
                continue
            until = self._cooldown_ends.get(sid)
            if until is not None:
                if now < until:
                    rnd.cooldown_skipped.append(sid)
                    self.stats.cooldown_skips += 1
                    continue
                del self._cooldown_ends[sid]
            if cfg.inflight_ttl > 0:
                entry = self._recent.get(sid)
                if entry is not None and now - entry[0] < cfg.inflight_ttl:
                    anchor, reading = entry
                    if reading is None:
                        # Recently-failed sensor: report the failure
                        # again without re-contacting it.
                        rnd.unavailable.append(sid)
                        rnd.deduped.append(sid)
                        self.stats.dedup_recent += 1
                        continue
                    if reading.expires_at > now and reading.timestamp >= now - max_staleness:
                        rnd.readings[sid] = reading
                        rnd.deduped.append(sid)
                        self.stats.dedup_recent += 1
                        continue
                    # Cached success too stale for this requester:
                    # fall through to a fresh contact.
            rnd.contacted.append(sid)
            rnd.outstanding.add(sid)
            self._inflight[sid] = pending = _Pending(sid, now, rnd)
            contacts.append(pending)
        if rnd.outstanding:
            if overlapping and contacts:
                self.stats.overlapped_rounds += 1
            self._unresolved[rnd] = None
            if cfg.overlap_enabled:
                for pending in contacts:
                    self._push(self._events, now, _DISPATCH, pending)
        else:
            rnd.resolved = True
        return rnd

    def collect(
        self,
        sensor_ids: Iterable[int],
        now: float,
        tree: "COLRTree | None" = None,
        max_staleness: float = math.inf,
    ) -> ProbeRound:
        """Submit one round and drain it to resolution."""
        rnd = self.submit(sensor_ids, now, tree=tree, max_staleness=max_staleness)
        if not rnd.resolved:
            self.drain([rnd])
        return rnd

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def drain(self, rounds: list[ProbeRound] | None = None) -> None:
        """Run submitted rounds to resolution.

        ``rounds=None`` drains everything outstanding.  In overlap mode
        the shared event queue is processed until every target round
        resolves (other rounds' events are processed as encountered —
        that is the overlap); otherwise rounds run one at a time in
        submission order, and a target waiting on another round's
        in-flight probe has that owner round run first.
        """
        targets = [
            r
            for r in (self._unresolved if rounds is None else rounds)
            if not r.resolved
        ]
        if not targets:
            return
        if self.config.overlap_enabled:
            self._run(self._events, self._conn, targets)
        else:
            wanted = set(targets)  # rounds hash by identity
            # Only the owner's run contacts a sensor a waiter attached to
            # (a dedup still outstanding); owners were submitted first, so
            # they run first below.
            stack = list(targets)
            while stack:
                rnd = stack.pop()
                for sid in rnd.deduped:
                    if sid in rnd.outstanding:
                        owner = self._inflight[sid].rounds[0]
                        if owner not in wanted:
                            wanted.add(owner)
                            stack.append(owner)
            for rnd in [r for r in self._unresolved if r in wanted]:
                if rnd.resolved:
                    continue
                if self._sync_rounds:
                    self._resolve_sync(rnd)
                else:
                    self._run_isolated(rnd)

    # ------------------------------------------------------------------
    # Event machinery
    # ------------------------------------------------------------------
    def _push(self, events: list, t: float, kind: int, pending: _Pending) -> None:
        heapq.heappush(events, (t, next(self._seq), kind, pending))

    def _run(self, events: list, conn: list[float], targets: list[ProbeRound]) -> None:
        """Process events in ``(instant, sequence)`` order until every
        target resolves.

        A run of dispatches sharing an instant is taken off the queue as
        one batch.  That is the per-event order: a dispatch resolves no
        round, and every completion it schedules carries a fresh sequence
        number, so it sorts after the rest of the batch.  Completions are
        handled one at a time, because the loop must stop on the very
        event that resolves the last target; whether it did is looked at
        only when a round finishes."""
        pop = heapq.heappop
        done = all(r.resolved for r in targets)
        while not done:
            if not events:  # pragma: no cover - invariant guard
                raise RuntimeError("event queue empty with unresolved rounds")
            t, _, kind, pending = pop(events)
            if kind == _DISPATCH:
                batch = [pending]
                while events and events[0][2] == _DISPATCH and events[0][0] == t:
                    batch.append(pop(events)[3])
                self._dispatch_batch(events, conn, t, batch)
            elif self._complete(events, t, kind, pending):
                done = all(r.resolved for r in targets)

    def _run_isolated(self, rnd: ProbeRound) -> None:
        """Retry-enabled but non-overlapping: the round gets its own
        event queue and its own connection pool anchored at its start."""
        events: list[tuple[float, int, int, _Pending]] = []
        conn = [rnd.now] * max(1, int(self.network.parallelism))
        heapq.heapify(conn)
        for sid in rnd.contacted:
            self._push(events, rnd.now, _DISPATCH, self._inflight[sid])
        self._run(events, conn, [rnd])

    def _dispatch_batch(
        self, events: list, conn: list[float], t: float, batch: list[_Pending]
    ) -> None:
        """Put the contacts due at instant ``t`` on the wire: one draw of
        their outcomes, a connection slot and a completion event each,
        one update of the counters."""
        net = self.network
        outcomes = net.sample_attempts([p.sensor_id for p in batch], columns=True)
        seq = self._seq
        push, replace_min = heapq.heappush, heapq.heapreplace
        retries = 0
        for pending, ok, timed_out, latency in zip(batch, *outcomes):
            free = conn[0]
            finish = (free if free > t else t) + latency
            replace_min(conn, finish)
            pending.attempts += 1
            if pending.attempts > 1:
                retries += 1
            pending.rounds[0].attempts += 1
            kind = _OK if ok else _TIMED_OUT if timed_out else _UNAVAILABLE
            push(events, (finish, next(seq), kind, pending))
        net.stats.probes_attempted += len(batch)
        self.stats.attempts += len(batch)
        self.stats.retries += retries

    def _complete(self, events: list, t: float, kind: int, pending: _Pending) -> bool:
        """One contact came back (or was abandoned) at instant ``t``.
        True when that finished a round."""
        net = self.network
        if kind == _OK:
            net.stats.probes_succeeded += 1
            net.record_outcome(pending.sensor_id, True)
            reading = net.build_reading(pending.sensor_id, pending.now)
            return self._resolve(pending, t, reading, False)
        timed_out = kind == _TIMED_OUT
        if timed_out:
            net.stats.probes_timed_out += 1
        else:
            net.stats.probes_unavailable += 1
        if pending.attempts <= self.config.max_retries:
            self._push(events, t + self._backoff(pending.attempts), _DISPATCH, pending)
            return False
        net.record_outcome(pending.sensor_id, False)
        return self._resolve(pending, t, None, timed_out)

    def _backoff(self, failed_attempts: int) -> float:
        delay = BACKOFF_BASE * BACKOFF_MULTIPLIER ** (failed_attempts - 1)
        return delay * (1.0 + BACKOFF_JITTER * float(self._rng.uniform(-1.0, 1.0)))

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve(
        self, pending: _Pending, at: float, reading: Reading | None, timed_out: bool
    ) -> bool:
        """Deliver a logical probe's outcome to every round waiting on
        it.  True when that finished a round."""
        sid = pending.sensor_id
        finished = False
        del self._inflight[sid]
        cfg = self.config
        if cfg.inflight_ttl > 0:
            self._recent[sid] = (pending.now, reading)
        if reading is None and cfg.cooldown_seconds > 0:
            model = self.network.availability_model
            if model is not None and model.estimate(sid) < COOLDOWN_THRESHOLD:
                self._cooldown_ends[sid] = pending.now + cfg.cooldown_seconds
        for i, rnd in enumerate(pending.rounds):
            rnd.outstanding.discard(sid)
            if pending.attempts > 1:
                rnd.retries_by_sensor[sid] = pending.attempts - 1
            if reading is not None:
                rnd.readings[sid] = reading
                if i == 0 and rnd.tree is not None:
                    rnd._stream_buffer.append(reading)
                    if len(rnd._stream_buffer) >= STREAM_CHUNK:
                        self._flush(rnd)
            elif timed_out:
                rnd.timed_out.append(sid)
            else:
                rnd.unavailable.append(sid)
            if at > rnd.finish_time:
                rnd.finish_time = at
            if not rnd.outstanding and not rnd.resolved:
                self._finish_round(rnd)
                finished = True
        return finished

    def _mark_resolved(self, rnd: ProbeRound) -> None:
        rnd.resolved = True
        del self._unresolved[rnd]

    def _finish_round(self, rnd: ProbeRound) -> None:
        self._mark_resolved(rnd)
        rnd.latency_seconds = max(0.0, rnd.finish_time - rnd.now)
        self._flush(rnd)
        if rnd.contacted:
            self.network.stats.batches += 1
            self.network.stats.total_latency_seconds += rnd.latency_seconds

    def _flush(self, rnd: ProbeRound) -> None:
        buf = rnd._stream_buffer
        if not buf or rnd.tree is None:
            return
        rnd._stream_buffer = []
        ops = rnd.tree.insert_readings_batch(buf, fetched_at=rnd.now)
        rnd.maintenance_ops += ops
        self.stats.streamed_readings += len(buf)
        self.stats.stream_flushes += 1
        self.stats.maintenance_ops += ops

    # ------------------------------------------------------------------
    # Synchronous (parity) rounds
    # ------------------------------------------------------------------
    def _resolve_sync(self, rnd: ProbeRound) -> None:
        """One ``complete_batch`` call per round: the exact accounting,
        RNG consumption and result shape of ``network.probe``."""
        net = self.network
        if rnd.contacted:
            attempts = net.sample_attempts(rnd.contacted)
            result = net.complete_batch(rnd.contacted, attempts, rnd.now)
            rnd.attempts += len(rnd.contacted)
            self.stats.attempts += len(rnd.contacted)
            cfg = self.config
            timed_set = set(result.timed_out)
            for sid in rnd.contacted:
                pending = self._inflight.pop(sid)
                reading = result.readings.get(sid)
                if cfg.inflight_ttl > 0:
                    self._recent[sid] = (pending.now, reading)
                if reading is None and cfg.cooldown_seconds > 0:
                    model = net.availability_model
                    if model is not None and model.estimate(sid) < COOLDOWN_THRESHOLD:
                        self._cooldown_ends[sid] = pending.now + cfg.cooldown_seconds
                for waiter in pending.rounds:
                    waiter.outstanding.discard(sid)
                    if waiter is rnd:
                        continue
                    if reading is not None:
                        waiter.readings[sid] = reading
                    elif sid in timed_set:
                        waiter.timed_out.append(sid)
                    else:
                        waiter.unavailable.append(sid)
                    if not waiter.outstanding and not waiter.resolved:
                        self._mark_resolved(waiter)
            rnd.readings.update(result.readings)
            rnd.unavailable.extend(result.unavailable)
            rnd.timed_out.extend(result.timed_out)
            rnd.latency_seconds = result.latency_seconds
        rnd.outstanding.clear()
        self._mark_resolved(rnd)

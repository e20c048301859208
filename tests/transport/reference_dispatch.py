"""The per-event dispatch loop, kept as a differential oracle.

``ProbeDispatcher._run`` used to take one event at a time off the
queue: a dispatch event drew one ``sample_attempts([sensor_id])``,
popped and pushed one connection slot, bumped every counter by one and
pushed one completion carrying a ``ProbeAttempt``; the "are the targets
resolved" question was asked before every event.  The dispatcher now
takes a run of same-instant dispatches as one batch.  This subclass
keeps the old loop, unchanged, so
``tests/property/test_dispatch_batch_props.py`` can drive both over the
same scripts and require every observable — rounds, counters, tables,
flush order, both RNG states — to be equal.

Only the event loop differs: submission, the tables, resolution,
streaming flushes and the synchronous (parity) rounds are inherited.
"""

from __future__ import annotations

import heapq

from repro.sensors.network import ProbeAttempt
from repro.transport import ProbeDispatcher
from repro.transport.dispatcher import _DISPATCH, _Pending

# Any kind other than ``_DISPATCH``; only this loop reads it back.
_COMPLETE = 1


class ReferenceDispatcher(ProbeDispatcher):
    """``ProbeDispatcher`` with the one-contact-at-a-time event loop."""

    def _run(self, events, conn, targets) -> None:
        while any(not r.resolved for r in targets):
            if not events:  # pragma: no cover - invariant guard
                raise RuntimeError("event queue empty with unresolved rounds")
            t, _, kind, payload = heapq.heappop(events)
            if kind == _DISPATCH:
                self._handle_dispatch(events, conn, t, payload)
            else:
                pending, attempt = payload
                self._handle_complete(events, t, pending, attempt)

    def _handle_dispatch(self, events, conn, t: float, pending: _Pending) -> None:
        free = heapq.heappop(conn)
        start = max(t, free)
        attempt = self.network.sample_attempts([pending.sensor_id])[0]
        finish = start + attempt.latency_seconds
        heapq.heappush(conn, finish)
        pending.attempts += 1
        self.network.stats.probes_attempted += 1
        self.stats.attempts += 1
        pending.rounds[0].attempts += 1
        if pending.attempts > 1:
            self.stats.retries += 1
        self._push(events, finish, _COMPLETE, (pending, attempt))

    def _handle_complete(
        self, events, t: float, pending: _Pending, attempt: ProbeAttempt
    ) -> None:
        net = self.network
        if attempt.ok:
            net.stats.probes_succeeded += 1
            net.record_outcome(pending.sensor_id, True)
            self._resolve(pending, t, net.build_reading(pending.sensor_id, pending.now), False)
            return
        if attempt.timed_out:
            net.stats.probes_timed_out += 1
        else:
            net.stats.probes_unavailable += 1
        if pending.attempts <= self.config.max_retries:
            self._push(events, t + self._backoff(pending.attempts), _DISPATCH, pending)
            return
        net.record_outcome(pending.sensor_id, False)
        self._resolve(pending, t, None, attempt.timed_out)

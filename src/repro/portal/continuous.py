"""Continuous queries: standing viewports refreshed on a schedule.

A SensorMap user keeps a map open; the portal periodically re-executes
the viewport's query and pushes *changes* to the front end rather than
re-sending the whole result.  ``ContinuousQueryManager`` implements
that loop over the simulated clock: subscriptions carry a refresh
interval (defaulting to the query's staleness bound — data older than
that is no longer acceptable anyway), ``tick()`` runs everything due,
and each run produces a :class:`ResultDelta` of appeared / changed /
departed sensors plus the aggregate drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.portal.portal import PortalResult, SensorMapPortal
from repro.portal.query import SensorQuery


@dataclass(frozen=True, slots=True)
class ResultDelta:
    """What changed between two executions of a standing query."""

    appeared: tuple[int, ...]
    departed: tuple[int, ...]
    changed: tuple[int, ...]
    aggregate_before: float | None
    aggregate_after: float | None

DeltaCallback = Callable[["Subscription", ResultDelta, PortalResult], None]


@dataclass
class Subscription:
    """One standing query."""

    subscription_id: int
    query: SensorQuery
    refresh_seconds: float
    callback: DeltaCallback | None = None
    phase_seconds: float = 0.0
    created_at: float = 0.0
    last_executed_at: float | None = None
    last_result: PortalResult | None = None
    _last_values: dict[int, float] = field(default_factory=dict)
    executions: int = 0

    def due_at(self) -> float:
        """Next execution instant (the first run waits out the phase
        offset; with no offset that is the creation instant)."""
        if self.last_executed_at is None:
            return self.created_at + self.phase_seconds
        return self.last_executed_at + self.refresh_seconds


# Fractional part of the golden ratio: consecutive multiples mod 1 are
# maximally spread over [0, 1), so auto-assigned phases never cluster.
_PHASE_GOLDEN = 0.6180339887498949


class ContinuousQueryManager:
    """Drives standing queries against one portal.

    ``portal`` may equally be a
    :class:`~repro.federation.federated.FederatedPortal` — the manager
    only relies on ``clock`` / ``execute_batch`` (and
    ``execute_streaming`` when a gather deadline is set), which the
    coordinator mirrors.

    When ``stagger_seconds`` is set, each new subscription gets an
    automatic first-run phase offset (golden-ratio spaced over
    ``[0, stagger_seconds)``) so a thundering herd of same-interval
    subscriptions spreads across ticks instead of all firing at once.
    Once offset, subscriptions keep their relative phases forever —
    each next run is ``last_executed_at + refresh_seconds``.  Probes
    shared by viewports that still land on the same tick are absorbed
    by the transport dispatcher's in-flight/recently-probed tables.
    """

    def __init__(
        self,
        portal: SensorMapPortal,
        stagger_seconds: float | None = None,
        gather_deadline_seconds: float | None = None,
    ) -> None:
        """``gather_deadline_seconds`` opts ticks into streaming
        gathers when the portal offers them (``FederatedPortal`` on
        either backend): each due subscription publishes the
        partial-but-monotone answer available at the deadline instead
        of waiting out the slowest shard, and late shard answers simply
        ride the next refresh.  ``None`` (the default) keeps the
        synchronous gather.  Unsharded portals ignore the deadline —
        there is no gather to stream."""
        # Negated conjunctions, as in ``Rect``: a NaN fails every
        # comparison, so it is rejected too (a NaN stagger would make
        # every subscription's ``due_at()`` NaN, never due).
        if stagger_seconds is not None and not 0 <= stagger_seconds < math.inf:
            raise ValueError("stagger_seconds must be finite and non-negative")
        if gather_deadline_seconds is not None and not gather_deadline_seconds > 0:
            raise ValueError("gather_deadline_seconds must be positive or None")
        self.portal = portal
        self.stagger_seconds = stagger_seconds
        self.gather_deadline_seconds = gather_deadline_seconds
        self._subscriptions: dict[int, Subscription] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # Subscription lifecycle
    # ------------------------------------------------------------------
    def subscribe(
        self,
        query: SensorQuery,
        refresh_seconds: float | None = None,
        callback: DeltaCallback | None = None,
        phase_seconds: float | None = None,
    ) -> Subscription:
        """Register a standing query.

        The refresh interval defaults to the query's staleness bound —
        by then the previous answer has aged out of acceptability.
        ``phase_seconds`` delays the first run; when omitted it is 0,
        or golden-ratio auto-staggered when the manager was built with
        ``stagger_seconds``.
        """
        interval = (
            refresh_seconds if refresh_seconds is not None else query.staleness_seconds
        )
        if interval <= 0:
            raise ValueError("refresh interval must be positive")
        if phase_seconds is None:
            phase = 0.0
            if self.stagger_seconds:
                phase = (self._next_id * _PHASE_GOLDEN) % 1.0 * self.stagger_seconds
        elif phase_seconds < 0:
            raise ValueError("phase_seconds must be non-negative")
        else:
            phase = float(phase_seconds)
        subscription = Subscription(
            subscription_id=self._next_id,
            query=query,
            refresh_seconds=float(interval),
            callback=callback,
            phase_seconds=phase,
            created_at=self.portal.clock.now(),
        )
        self._subscriptions[subscription.subscription_id] = subscription
        self._next_id += 1
        return subscription

    def subscriptions(self) -> list[Subscription]:
        return [self._subscriptions[i] for i in sorted(self._subscriptions)]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def tick(self) -> list[tuple[Subscription, ResultDelta]]:
        """Execute every subscription due at the portal's current time.

        The due subscriptions form a natural batch — one tick, one
        clock instant, many overlapping viewports — so they run through
        :meth:`SensorMapPortal.execute_batch` (shared traversals, each
        sensor probed at most once this tick, a type-less query's
        per-tree probe rounds overlapping).

        Returns the (subscription, delta) pairs that ran, in
        subscription order.  Callbacks fire after each run.
        """
        now = self.portal.clock.now()
        due = [s for s in self.subscriptions() if s.due_at() <= now]
        if not due:
            return []
        if self.gather_deadline_seconds is not None and hasattr(
            self.portal, "execute_streaming"
        ):
            # Streaming gathers run per subscription (no cross-query
            # batching — each standing viewport publishes at its own
            # deadline).  The published result is the deadline answer;
            # a deferred shard's late readings arrive with the next
            # refresh, so the front end only ever gains sensors.
            out = []
            for subscription in due:
                gather = self.portal.execute_streaming(
                    subscription.query, self.gather_deadline_seconds
                )
                out.append(
                    (subscription, self._apply_result(subscription, gather.first))
                )
            return out
        batch = self.portal.execute_batch([s.query for s in due])
        return [
            (subscription, self._apply_result(subscription, result))
            for subscription, result in zip(due, batch.results)
        ]

    def _apply_result(
        self, subscription: Subscription, result: PortalResult
    ) -> ResultDelta:
        """Fold one execution's result into the subscription: compute
        the delta against the previous run, update the baseline, and
        fire the callback."""
        new_values: dict[int, float] = {}
        for answer in result.answers:
            for reading in list(answer.probed_readings) + list(answer.cached_readings):
                new_values[reading.sensor_id] = reading.value
        old_values = subscription._last_values
        appeared = tuple(sorted(set(new_values) - set(old_values)))
        departed = tuple(sorted(set(old_values) - set(new_values)))
        changed = tuple(
            sorted(
                sid
                for sid in set(new_values) & set(old_values)
                if new_values[sid] != old_values[sid]
            )
        )
        try:
            agg_after: float | None = result.aggregate()
        except ValueError:
            agg_after = None
        agg_before: float | None = None
        if subscription.last_result is not None:
            try:
                agg_before = subscription.last_result.aggregate()
            except ValueError:
                agg_before = None
        delta = ResultDelta(
            appeared=appeared,
            departed=departed,
            changed=changed,
            aggregate_before=agg_before,
            aggregate_after=agg_after,
        )
        subscription.last_executed_at = self.portal.clock.now()
        subscription.last_result = result
        subscription._last_values = new_values
        subscription.executions += 1
        if subscription.callback is not None:
            subscription.callback(subscription, delta, result)
        return delta

"""The process backend: one forked worker per shard, reached over a
socket pair.

:class:`ProcessBackend` answers the same operations as
:class:`repro.federation.backend.InProcessBackend` and holds sockets and
pids, no portals — each worker builds (or recovers) its shard from the
``ShardSpec`` it is forked with, and owns the shard's storage engine
(one writer per WAL), so a SIGKILLed worker is a genuine crash and its
respawn a genuine recovery.

- ``call`` ships one ``("op", seq, op, args, now)`` envelope and reads
  the reply that echoes ``seq`` (:mod:`repro.parallel.wire` says what a
  reply frame holds); a broken pipe — or a reply out of step — surfaces
  as :class:`~repro.federation.backend.ShardDownError`, so a crashed
  worker degrades exactly like a killed in-process shard (flagged
  partial answer, retry budget, cooldown).
- ``attempt`` pipelines one attempt at a scatter round: every routed
  worker receives its frame *before* any reply is read, so the shards'
  Python work genuinely overlaps on the wall clock; every reply sent
  for is read, whatever the others said.

Retry, backoff, cooldown, recovery charges and failure accounting are
not here: the coordinator's one ``_scatter_calls`` loop drives either
backend's ``attempt``, so coordinator counters and modeled seconds are
the same code on both.
"""

from __future__ import annotations

import multiprocessing
import socket
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.federation.backend import ShardDownError
from repro.federation.federated import FederatedPortal
from repro.parallel.framing import recv_frame, recv_frame_sized, send_frame
from repro.parallel.wire import unpack
from repro.parallel.worker import worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.backend import ShardSpec
    from repro.sensors.clock import SimClock
    from repro.sensors.sensor import Sensor

__all__ = ["ParallelFederatedPortal", "ProcessBackend"]


@dataclass
class _Worker:
    """Coordinator-side handle of one shard process.

    ``sensors`` is the spawning spec's fleet by id, held by reference:
    the table unpacked answers resolve display centers through, as an
    in-process answer does through its tree's.  ``pending`` holds the
    ``(seq, args)`` of every op sent and not yet answered, oldest first.
    """

    process: multiprocessing.process.BaseProcess
    sock: socket.socket
    sensors: "dict[int, Sensor]"
    alive: bool = True
    seq: int = 0
    pending: "deque[tuple[int, tuple]]" = field(default_factory=deque)


class ProcessBackend:
    """One worker process per shard."""

    def __init__(self, clock: "SimClock") -> None:
        self.clock = clock
        # fork: the spec and socket pair are inherited by the worker
        # instead of pickled.
        self._mp = multiprocessing.get_context("fork")
        self._workers: dict[int, _Worker] = {}
        #: Payload bytes of every op reply read so far (deterministic
        #: for a seed; the parallel bench reports it).
        self.reply_bytes = 0

    def portals(self) -> list:
        return []

    def pid(self, shard_id: int) -> int | None:
        """The live worker's pid (tests crash it out-of-band)."""
        worker = self._workers.get(shard_id)
        if worker is None or not worker.alive:
            return None
        return worker.process.pid

    # ------------------------------------------------------------------
    # Spawn / stop
    # ------------------------------------------------------------------
    def build_all(self, specs: Sequence["ShardSpec"]) -> list[float]:
        return [self._spawn(spec) for spec in specs]

    def _spawn(self, spec: "ShardSpec", primed: Sequence[tuple] = ()) -> float:
        """Fork one worker, built with the ``primed`` cache entries, and
        wait for its bootstrap acknowledgement.  Returns the modeled
        recovery seconds the worker reported (a respawn over a warm data
        directory)."""
        shard_id = spec.shard_id
        parent_sock, child_sock = socket.socketpair()
        process = self._mp.Process(
            target=worker_main,
            args=(child_sock, parent_sock, spec, self.clock.now(), primed),
            daemon=True,
            name=f"colr-shard-{shard_id}",
        )
        process.start()
        child_sock.close()
        # Made while the worker builds its trees, so it costs no set-up.
        sensors = {sensor.sensor_id: sensor for sensor in spec.sensors}
        try:
            _, kind, payload = recv_frame(parent_sock)
        except (EOFError, OSError) as exc:
            parent_sock.close()
            raise RuntimeError(f"shard {shard_id} worker died during bootstrap") from exc
        if kind != "ok":
            parent_sock.close()
            raise RuntimeError(f"shard {shard_id} worker bootstrap failed:\n{payload}")
        self._workers[shard_id] = _Worker(
            process=process, sock=parent_sock, sensors=sensors
        )
        return float(payload["recovery_seconds"])

    def kill(self, shard_id: int) -> None:
        """SIGKILL the shard process, not just a flag: the coordinator
        degrades exactly as for a real worker crash."""
        worker = self._workers.get(shard_id)
        if worker is None or not worker.alive:
            return
        worker.alive = False
        try:
            worker.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()

    def revive(self, spec: "ShardSpec") -> float:
        """Restart a dead worker.  Without storage the shard rebuilds
        from its spec — like a real node restart, its cache state starts
        cold.  With storage the respawned worker recovers from the
        shard's data directory (WAL replay, caches re-installed)."""
        worker = self._workers.get(spec.shard_id)
        if worker is None or not worker.alive:
            return self._spawn(spec)
        return 0.0

    def _shutdown(self, shard_id: int) -> None:
        """Gracefully stop one worker (flushes its WAL) and drop its
        handle."""
        worker = self._workers.pop(shard_id, None)
        if worker is None:
            return
        if worker.alive:
            try:
                send_frame(worker.sock, ("shutdown",))
                recv_frame(worker.sock)
            except (EOFError, OSError):
                pass
        try:
            worker.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join()
        else:
            worker.process.join()

    def close(self) -> None:
        for shard_id in list(self._workers):
            self._shutdown(shard_id)

    # ------------------------------------------------------------------
    # Membership change
    # ------------------------------------------------------------------
    def stage(self, spec: "ShardSpec", primed: Sequence[tuple] = ()) -> tuple:
        """Nothing to build ahead of the commit: the old worker keeps
        serving until it, and the new one builds itself."""
        return spec, list(primed)

    def commit(self, staged: Mapping[int, tuple], drop: Sequence[int] = ()) -> dict[int, float]:
        """Only the affected shards cycle: their workers shut down
        cleanly (WAL flushed), their durable directories are wiped to
        the new sensor sets, and new workers spawn — each forked with
        its migrated cache entries, which it builds in (and, with
        storage attached, writes as its first checkpoint), so moved
        sensors stay probe-free."""
        for shard_id in sorted(set(staged) | set(drop)):
            self._shutdown(shard_id)
        recovered: dict[int, float] = {}
        for shard_id in sorted(staged):
            spec, primed = staged[shard_id]
            if spec.storage is not None:
                from repro.storage.engine import wipe_data_dir

                wipe_data_dir(spec.storage.path)
            recovered[shard_id] = self._spawn(spec, primed)
        return recovered

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _send(self, shard_id: int, op: str, args: tuple) -> None:
        worker = self._workers.get(shard_id)
        if worker is None or not worker.alive:
            raise ShardDownError(f"shard {shard_id} worker is not running")
        try:
            send_frame(worker.sock, ("op", worker.seq + 1, op, args, self.clock.now()))
        except OSError as exc:
            self.kill(shard_id)
            raise ShardDownError(f"shard {shard_id} worker died: {exc}") from exc
        worker.seq += 1
        worker.pending.append((worker.seq, args))

    def _recv(self, shard_id: int) -> object:
        """The reply to the oldest unanswered op.  A worker's ``err``
        raises ``RuntimeError`` with the pipe still in step; a reply
        that does not echo the op's sequence number is never handed
        out — the worker is killed instead."""
        worker = self._workers[shard_id]
        seq, args = worker.pending.popleft()
        try:
            (echoed, kind, payload), size = recv_frame_sized(worker.sock)
        except (EOFError, OSError) as exc:
            self.kill(shard_id)
            raise ShardDownError(f"shard {shard_id} worker died: {exc}") from exc
        if echoed != seq:
            self.kill(shard_id)
            raise ShardDownError(
                f"shard {shard_id} worker answered op {echoed}, not op {seq}"
            )
        if kind == "err":
            raise RuntimeError(f"shard {shard_id} worker error:\n{payload}")
        self.reply_bytes += size
        return unpack(kind, payload, worker.sensors, args)

    def call(self, shard_id: int, op: str, *args: object) -> object:
        self._send(shard_id, op, args)
        return self._recv(shard_id)

    def attempt(self, calls: Sequence[tuple[int, str, tuple]]) -> dict[int, object]:
        """Send every frame of the round before reading any reply, so
        all routed workers compute concurrently; a worker that cannot be
        reached, or dies before replying, is absent from the result.  A
        worker's error is raised only once every reply has been read."""
        sent: list[int] = []
        for shard_id, op, args in calls:
            try:
                self._send(shard_id, op, args)
            except ShardDownError:
                continue
            sent.append(shard_id)
        answered: dict[int, object] = {}
        error: RuntimeError | None = None
        for shard_id in sent:
            try:
                answered[shard_id] = self._recv(shard_id)
            except ShardDownError:
                pass
            except RuntimeError as exc:
                error = error or exc
        if error is not None:
            raise error
        return answered


class ParallelFederatedPortal(FederatedPortal):
    # kept for the e2e TRACE_POINTS table; ROADMAP item 6(e) deletes it
    def rebuild_index(self) -> None:
        super().rebuild_index()

    def kill_shard(self, shard_id: int) -> None:
        super().kill_shard(shard_id)

    def revive_shard(self, shard_id: int) -> float:
        return super().revive_shard(shard_id)

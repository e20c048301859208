"""The process-execution federation backend.

``ParallelFederatedPortal`` subclasses the in-process
:class:`~repro.federation.federated.FederatedPortal` and overrides
exactly the two shard-interaction hooks:

- :meth:`_shard_op` ships one ``(op, args)`` envelope over the worker's
  socket and unpickles the reply; a broken pipe surfaces as
  :class:`~repro.federation.federated.ShardDownError`, so a crashed
  worker degrades exactly like a killed in-process shard (flagged
  partial answer, retry budget, cooldown).
- :meth:`_attempt_calls` pipelines one attempt at a scatter round: every
  routed worker receives its frame *before* any reply is read, so the
  shards' Python work genuinely overlaps on the wall clock.

Retry, backoff, cooldown, recovery charges and failure accounting are
not here: the coordinator's one ``_scatter_calls`` loop drives either
backend's ``_attempt_calls``, so coordinator counters and modeled
seconds are the same code on both.

The coordinator also keeps the in-process shard portals it built during
``rebuild_index()``.  They serve three jobs: they are the source the
shared-memory segments are published from, the build-time snapshot that
read-only introspection (``stats``/``explain``) falls back to when a
worker is down, and the verification reference each worker checks its
adopted arrays against.
"""

from __future__ import annotations

import multiprocessing
import socket
from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.flat import auto_tile_nodes
from repro.federation.federated import FederatedPortal, ShardDownError
from repro.parallel.config import ParallelConfig
from repro.parallel.framing import recv_frame, send_frame
from repro.parallel.shm import SegmentManifest, SegmentRegistry
from repro.parallel.worker import WorkerBootstrap, worker_main

__all__ = ["ParallelFederatedPortal"]


@dataclass
class _Worker:
    """Coordinator-side handle of one shard process."""

    process: multiprocessing.process.BaseProcess
    sock: socket.socket
    alive: bool = True


class ParallelFederatedPortal(FederatedPortal):
    """One worker process per shard over shared-memory flat kernels."""

    def __init__(self, *args, parallel: ParallelConfig | None = None, **kwargs) -> None:
        kwargs.pop("parallel", None)
        super().__init__(*args, **kwargs)
        self.parallel = parallel if parallel is not None else ParallelConfig()
        # Workers classify in cache-sized tiles; the coordinator's own
        # snapshot shards get the same config so worker-side kernels
        # verify cleanly against them.
        if self.config.classify_tile_nodes is None:
            tile = (
                self.parallel.tile_nodes
                if self.parallel.tile_nodes is not None
                else auto_tile_nodes()
            )
            self.config = replace(self.config, classify_tile_nodes=tile)
        # fork: the bootstrap payload and socket pair are inherited by
        # the workers instead of pickled.
        self._mp = multiprocessing.get_context("fork")
        self._registry = SegmentRegistry()
        self._manifests: dict[int, dict[str, SegmentManifest]] = {}
        self._workers: dict[int, _Worker] = {}
        self._clock_start = self.clock.now()

    # ------------------------------------------------------------------
    # Index lifecycle: build → publish → spawn
    # ------------------------------------------------------------------
    def rebuild_index(self) -> None:
        """Rebuild the shards, republish their kernels and respawn every
        worker against the fresh segments.

        Old segments are unlinked *before* the rebuild and old workers
        torn down with them — a respawn is the invalidation of the
        worker-side kernel maps (a fresh process maps only the new
        segments; the old mappings die with the old process).
        """
        self._teardown_workers()
        self._registry.close()
        self._registry.reopen()
        self._manifests = {}
        super().rebuild_index()
        self._clock_start = self.clock.now()
        for shard_id in range(len(self._shards)):
            self._publish_shard(shard_id)
            self._spawn(shard_id)

    def _shard_storage(self, shard_id: int) -> None:
        """Shard storage engines live in the worker processes (one
        writer per WAL); the coordinator's snapshot shards stay purely
        in-memory."""
        return None

    def _bootstrap(self, shard_id: int) -> WorkerBootstrap:
        return WorkerBootstrap(
            shard_id=shard_id,
            sensors=self._groups[shard_id],
            config=self.config,
            cost_model=self.cost_model,
            value_fn=self._value_fn,
            network_seed=self._network_seed + shard_id,
            max_sensors_per_query=self.max_sensors_per_query,
            transport=self.transport_config,
            network_options=dict(self._network_options),
            clock_start=self._clock_start,
            manifests=self._manifests.get(shard_id, {}),
            verify_adoption=self.parallel.verify_adoption,
            storage=super()._shard_storage(shard_id),
        )

    def _spawn(self, shard_id: int) -> float:
        """Fork one worker and wait for its bootstrap acknowledgement.
        Returns the modeled recovery seconds the worker reported (a
        respawn over a warm data directory), already charged to the
        shard's next gather."""
        parent_sock, child_sock = socket.socketpair()
        process = self._mp.Process(
            target=worker_main,
            args=(child_sock, parent_sock, self._bootstrap(shard_id)),
            daemon=True,
            name=f"colr-shard-{shard_id}",
        )
        process.start()
        child_sock.close()
        try:
            kind, payload = recv_frame(parent_sock)
        except (EOFError, OSError) as exc:
            parent_sock.close()
            raise RuntimeError(f"shard {shard_id} worker died during bootstrap") from exc
        if kind != "ok":
            parent_sock.close()
            raise RuntimeError(f"shard {shard_id} worker bootstrap failed:\n{payload}")
        self._workers[shard_id] = _Worker(process=process, sock=parent_sock)
        return self._charge_recovery(shard_id, float(payload["recovery_seconds"]))

    # ------------------------------------------------------------------
    # Worker health
    # ------------------------------------------------------------------
    def _mark_worker_dead(self, shard_id: int) -> None:
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

    def kill_shard(self, shard_id: int) -> None:
        """Kill the shard *process* (SIGKILL), not just the flag: the
        coordinator degrades exactly as for a real worker crash."""
        super().kill_shard(shard_id)
        self._mark_worker_dead(shard_id)

    def revive_shard(self, shard_id: int) -> float:
        """Restart the worker and remap the current segments.  Without
        storage the revived shard rebuilds from bootstrap — like a real
        node restart, its runtime cache state starts cold.  With storage
        the respawned worker recovers from the shard's data directory
        (WAL replay, caches re-installed) and the modeled recovery
        seconds — returned here — are charged to its next gather."""
        super().revive_shard(shard_id)
        worker = self._workers.get(shard_id)
        if worker is None or not worker.alive:
            return self._spawn(shard_id)
        return 0.0

    def worker_pid(self, shard_id: int) -> int | None:
        """The live worker's pid (tests crash it out-of-band)."""
        worker = self._workers.get(shard_id)
        if worker is None or not worker.alive:
            return None
        return worker.process.pid

    # ------------------------------------------------------------------
    # Live rebalancing: segment republish on membership change
    # ------------------------------------------------------------------
    def _shutdown_worker(self, shard_id: int) -> None:
        """Gracefully stop one worker (flushes its WAL), dropping its
        handle so a later :meth:`_spawn` starts fresh."""
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

    def _publish_shard(self, shard_id: int) -> None:
        """Publish (or republish) one shard's kernels as fresh segments."""
        shard = self._shards[shard_id]
        manifests: dict[str, SegmentManifest] = {}
        for sensor_type in shard.sensor_types():
            kernel = shard.tree(sensor_type).kernel
            manifests[sensor_type] = self._registry.publish(
                kernel.shared_arrays(), tag=f"s{shard_id}-{sensor_type}"
            )
        self._manifests[shard_id] = manifests

    def rebalance_apply(
        self,
        changes,
        primed=None,
        drop=(),
        on_staged=None,
    ) -> None:
        """Membership change with per-shard segment republish.

        Only the *affected* shards cycle: their workers shut down
        cleanly (WAL flushed), their stale segments unlink, their
        durable directories are wiped to the new sensor sets, fresh
        kernels publish, and new workers spawn — unaffected workers
        keep serving their mapped segments untouched throughout.
        Migrated cache entries ship to the new workers over the op pipe
        (followed by a checkpoint when storage is attached), so moved
        sensors stay probe-free without any coordinator-side engine."""
        self._ensure_index()
        primed = dict(primed or {})
        staged = {
            shard_id: self._build_shard(shard_id, group)
            for shard_id, group in sorted(changes.items())
        }
        if on_staged is not None:
            on_staged()
        affected = sorted(set(changes) | set(drop))
        for shard_id in affected:
            self._shutdown_worker(shard_id)
        if self.storage_config is not None:
            from repro.storage.engine import wipe_data_dir

            for shard_id in affected:
                wipe_data_dir(self.storage_config.for_shard(shard_id).path)
        for shard_id in affected:
            for manifest in self._manifests.pop(shard_id, {}).values():
                self._registry.unpublish(manifest)
        self._commit_membership(staged, changes, drop)
        for shard_id in sorted(changes):
            self._publish_shard(shard_id)
            self._spawn(shard_id)
            entries = list(primed.get(shard_id, ()))
            if entries:
                self._shard_op(shard_id, "install_cache_entries", entries)
            if self.storage_config is not None and not self._states[shard_id].killed:
                self._shard_op(shard_id, "checkpoint")

    # ------------------------------------------------------------------
    # Shard interaction hooks
    # ------------------------------------------------------------------
    def _send_op(self, shard_id: int, op: str, args: tuple) -> None:
        worker = self._workers.get(shard_id)
        if worker is None or not worker.alive:
            raise ShardDownError(f"shard {shard_id} worker is not running")
        try:
            send_frame(worker.sock, ("op", op, args, self.clock.now()))
        except OSError as exc:
            self._mark_worker_dead(shard_id)
            raise ShardDownError(f"shard {shard_id} worker died: {exc}") from exc

    def _recv_reply(self, shard_id: int) -> object:
        try:
            kind, payload = recv_frame(self._workers[shard_id].sock)
        except (EOFError, OSError) as exc:
            self._mark_worker_dead(shard_id)
            raise ShardDownError(f"shard {shard_id} worker died: {exc}") from exc
        if kind == "ok":
            return payload
        raise RuntimeError(f"shard {shard_id} worker error:\n{payload}")

    def _shard_op(self, shard_id: int, op: str, *args: object) -> object:
        worker = self._workers.get(shard_id)
        if (worker is None or not worker.alive) and op in ("stats", "explain"):
            # Read-only introspection of a down shard answers from the
            # coordinator's build-time snapshot.
            return getattr(self._shards[shard_id], op)(*args)
        self._send_op(shard_id, op, args)
        return self._recv_reply(shard_id)

    def _attempt_calls(
        self, calls: Sequence[tuple[int, str, tuple]]
    ) -> dict[int, object]:
        """Send every frame of the round before reading any reply, so
        all routed workers compute concurrently; a worker that cannot be
        reached, or dies before replying, is absent from the result."""
        sent: list[int] = []
        for shard_id, op, args in calls:
            try:
                self._send_op(shard_id, op, args)
            except ShardDownError:
                continue
            sent.append(shard_id)
        answered: dict[int, object] = {}
        for shard_id in sent:
            try:
                answered[shard_id] = self._recv_reply(shard_id)
            except ShardDownError:
                pass
        return answered

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _teardown_workers(self) -> None:
        for shard_id in list(self._workers):
            self._shutdown_worker(shard_id)

    def close(self) -> None:
        """Shut every worker down and unlink all published segments."""
        self._teardown_workers()
        self._registry.close()

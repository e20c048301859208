"""The shard worker process.

Each worker owns one full ``SensorMapPortal``: it *rebuilds* the shard
deterministically from the bootstrap payload (same sensors, same config,
same ``network_seed`` → the identical tree and RNG stream the in-process
backend would hold), then swaps the rebuilt kernels' static arrays for
the coordinator's shared-memory views via
:meth:`~repro.core.flat.FlatKernel.adopt_arrays` — optionally verifying
them element-for-element first.  From then on the loop is a plain
request/reply server over one socket:

``("op", name, args, now)``
    Advance the worker clock to ``now`` (the coordinator's simulated
    time travels inside every envelope so freshness bounds agree), run
    ``portal.<name>(*args)``, reply ``("ok", result)`` or
    ``("err", traceback_text)``.
``("shutdown",)``
    Reply ``("ok", None)`` and exit 0.

A crash of any kind simply drops the socket; the coordinator sees
``EOFError`` and degrades the shard like a timeout.
"""

from __future__ import annotations

import socket
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.parallel.framing import recv_frame, send_frame
from repro.parallel.shm import SegmentManifest, attach
from repro.portal.portal import SensorMapPortal
from repro.sensors.clock import SimClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import COLRTreeConfig
    from repro.core.stats import ProcessingCostModel
    from repro.sensors.sensor import Sensor
    from repro.storage.config import StorageConfig
    from repro.transport.config import TransportConfig

__all__ = ["WorkerBootstrap", "worker_main"]


@dataclass
class WorkerBootstrap:
    """Everything one worker needs to reconstruct its shard.

    ``clock_start`` is the coordinator's simulated time at index
    (re)build, so the worker portal is constructed at the same logical
    instant as the in-process backend's shard.  ``value_fn`` crosses the
    fork boundary by inheritance, so module-level functions and ``None``
    both work.
    """

    shard_id: int
    sensors: "list[Sensor]"
    config: "COLRTreeConfig"
    cost_model: "ProcessingCostModel"
    value_fn: object
    network_seed: int
    max_sensors_per_query: int | None
    transport: "TransportConfig | None"
    network_options: dict[str, object] = field(default_factory=dict)
    clock_start: float = 0.0
    manifests: dict[str, SegmentManifest] = field(default_factory=dict)
    verify_adoption: bool = True
    # The worker — not the coordinator — owns the shard's storage
    # engine (one writer per WAL), so a SIGKILLed worker is a genuine
    # crash and its respawn a genuine recovery.
    storage: "StorageConfig | None" = None


def build_portal(bootstrap: WorkerBootstrap) -> SensorMapPortal:
    """Deterministically rebuild the shard portal and map the published
    kernels over it."""
    portal = SensorMapPortal(
        config=bootstrap.config,
        cost_model=bootstrap.cost_model,
        value_fn=bootstrap.value_fn,
        network_seed=bootstrap.network_seed,
        clock=SimClock(bootstrap.clock_start),
        max_sensors_per_query=bootstrap.max_sensors_per_query,
        transport=bootstrap.transport,
        network_options=dict(bootstrap.network_options),
        storage=bootstrap.storage,
    )
    portal.register_all(list(bootstrap.sensors))
    portal.rebuild_index()
    # Swap each type tree's kernel arrays for the shared views.  The
    # SharedMemory handles must outlive the kernels, so they ride on the
    # portal instance.
    handles = []
    for sensor_type, manifest in bootstrap.manifests.items():
        shm, views = attach(manifest)
        kernel = portal.tree(sensor_type).kernel
        kernel.adopt_arrays(views, verify=bootstrap.verify_adoption)
        handles.append(shm)
    portal._parallel_shm_handles = handles  # noqa: SLF001 - lifetime anchor
    return portal


def worker_main(
    sock: socket.socket,
    peer_sock: socket.socket | None,
    bootstrap: WorkerBootstrap,
) -> None:
    """Entry point of the forked worker process.

    ``peer_sock`` is the coordinator's end inherited across the fork —
    closed here so an EOF on ``sock`` really means the coordinator went
    away (and vice versa).
    """
    if peer_sock is not None:
        peer_sock.close()
    try:
        portal = build_portal(bootstrap)
    except BaseException:
        try:
            send_frame(sock, ("err", traceback.format_exc()))
        finally:
            sock.close()
        raise SystemExit(1)
    # The bootstrap ack carries the worker-side recovery cost so the
    # coordinator can charge a respawn-over-a-warm-directory to the
    # shard's next gather.
    send_frame(
        sock,
        (
            "ok",
            {
                "shard_id": bootstrap.shard_id,
                "recovery_seconds": portal.recovery_seconds,
            },
        ),
    )
    while True:
        try:
            frame = recv_frame(sock)
        except (EOFError, OSError):
            break
        if not isinstance(frame, tuple) or not frame:
            send_frame(sock, ("err", f"malformed frame: {frame!r}"))
            continue
        if frame[0] == "shutdown":
            send_frame(sock, ("ok", None))
            break
        if frame[0] != "op":
            send_frame(sock, ("err", f"unknown frame kind: {frame[0]!r}"))
            continue
        _, op, args, now = frame
        try:
            portal.clock.advance_to(now)
            result = getattr(portal, op)(*args)
            reply = ("ok", result)
        except BaseException:
            reply = ("err", traceback.format_exc())
        send_frame(sock, reply)
    sock.close()
    # A clean exit (coordinator shutdown or EOF) flushes the WAL; a
    # SIGKILL never reaches this line — that is the crash being modeled.
    portal.close()

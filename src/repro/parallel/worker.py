"""The shard worker process.

Each worker owns one full ``SensorMapPortal``, built deterministically
from the :class:`~repro.federation.backend.ShardSpec` it was forked with
(same sensors, same config, same ``network_seed`` → the identical tree
and RNG stream the in-process backend would hold).  From then on the
loop is a plain request/reply server over one socket:

``("op", seq, name, args, now)``
    Advance the worker clock to ``now`` (the coordinator's simulated
    time travels inside every envelope so freshness bounds agree), run
    ``portal.<name>(*args)``, reply ``(seq, kind, payload)``: the
    result as :func:`repro.parallel.wire.pack` frames it, or
    ``(seq, "err", traceback_text)``.  ``seq`` is the coordinator's
    per-worker op counter, echoed so a reply can never be taken for
    another op's.
``("shutdown",)``
    Reply ``(None, "ok", None)`` and exit 0.

Every frame a worker sends is such a triple; the bootstrap
acknowledgement and replies to frames that are not ops carry ``None``
for ``seq``.

A crash of any kind simply drops the socket; the coordinator sees
``EOFError`` and degrades the shard like a timeout.
"""

from __future__ import annotations

import socket
import traceback
from typing import Sequence

from repro.federation.backend import ShardSpec, build_portal
from repro.parallel.framing import FrameTooLargeError, recv_frame, send_frame
from repro.parallel.wire import pack
from repro.sensors.clock import SimClock

__all__ = ["worker_main"]


def worker_main(
    sock: socket.socket,
    peer_sock: socket.socket | None,
    spec: ShardSpec,
    clock_now: float,
    primed: Sequence[tuple] = (),
) -> None:
    """Entry point of the forked worker process.

    ``peer_sock`` is the coordinator's end inherited across the fork —
    closed here so an EOF on ``sock`` really means the coordinator went
    away (and vice versa).  ``clock_now`` is the coordinator's simulated
    time at the fork, where the worker's own clock starts.  ``primed``
    are the migrated cache entries a restaged shard is built with,
    inherited like the spec.
    """
    if peer_sock is not None:
        peer_sock.close()
    try:
        portal = build_portal(spec, SimClock(clock_now), primed)
    except BaseException:
        try:
            send_frame(sock, (None, "err", traceback.format_exc()))
        finally:
            sock.close()
        raise SystemExit(1)
    # The bootstrap ack carries the worker-side recovery cost so the
    # coordinator can charge a respawn-over-a-warm-directory to the
    # shard's next gather.
    send_frame(
        sock,
        (
            None,
            "ok",
            {
                "shard_id": spec.shard_id,
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
            send_frame(sock, (None, "err", f"malformed frame: {frame!r}"))
            continue
        if frame[0] == "shutdown":
            send_frame(sock, (None, "ok", None))
            break
        if frame[0] != "op":
            send_frame(sock, (None, "err", f"unknown frame kind: {frame[0]!r}"))
            continue
        _, seq, op, args, now = frame
        try:
            portal.clock.advance_to(now)
            reply = (seq, *pack(getattr(portal, op)(*args), args))
        except Exception:
            reply = (seq, "err", traceback.format_exc())
        try:
            send_frame(sock, reply)
        except FrameTooLargeError:
            # Nothing was written: the pipe is in step, so say so and
            # stay up rather than look like a crash.
            send_frame(sock, (seq, "err", traceback.format_exc()))
    sock.close()
    # A clean exit (coordinator shutdown or EOF) flushes the WAL; a
    # SIGKILL never reaches this line — that is the crash being modeled.
    portal.close()

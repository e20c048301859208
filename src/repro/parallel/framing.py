"""Length-prefixed pickle framing over a socket pair.

The coordinator and each worker speak a trivially debuggable wire
format: a 4-byte big-endian payload length followed by a pickle
(highest protocol).  This module is the transport only: *what* a reply
frame holds — packed columns for the hot replies, the object itself for
the rest — is :mod:`repro.parallel.wire`'s business.  The index never
crosses the pipe (each worker builds its own), but answers do, and a
batch tick's reply runs to megabytes.
"""

from __future__ import annotations

import pickle
import socket
import struct

__all__ = ["FrameTooLargeError", "recv_frame", "recv_frame_sized", "send_frame"]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload, enforced on both sides: the
#: sender refuses before writing a byte (so the pipe stays in step and
#: the peer stays up), the receiver turns a corrupted header into a
#: clean error instead of an absurd allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FrameTooLargeError(ValueError):
    """An object pickles past ``MAX_FRAME_BYTES``; nothing was sent."""


def send_frame(sock: socket.socket, obj: object) -> None:
    """Pickle ``obj`` and write it as one length-prefixed frame."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError("peer closed the frame stream")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame_sized(sock: socket.socket) -> tuple[object, int]:
    """Read one frame; returns the unpickled object and its payload
    size.  Raises ``EOFError`` when the peer is gone (worker crash /
    coordinator shutdown) or the header is not a frame's."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise EOFError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return pickle.loads(_recv_exact(sock, length)), length


def recv_frame(sock: socket.socket) -> object:
    """Read one frame and unpickle it (see :func:`recv_frame_sized`)."""
    return recv_frame_sized(sock)[0]

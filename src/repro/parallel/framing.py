"""Length-prefixed pickle framing over a socket pair.

The coordinator and each worker speak a trivially debuggable wire
format: a 4-byte big-endian payload length followed by a pickle
(highest protocol).  Frames are small by construction — query
descriptors outbound, answers/stats inbound — because the index never
crosses the pipe: each worker builds its own.
"""

from __future__ import annotations

import pickle
import socket
import struct

__all__ = ["recv_frame", "send_frame"]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload.  Answers are O(answer), so 256
#: MiB is generous; the bound turns a corrupted header into a clean
#: error instead of an absurd allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024


def send_frame(sock: socket.socket, obj: object) -> None:
    """Pickle ``obj`` and write it as one length-prefixed frame."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
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


def recv_frame(sock: socket.socket) -> object:
    """Read one frame and unpickle it.  Raises ``EOFError`` when the
    peer is gone (worker crash / coordinator shutdown)."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise EOFError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return pickle.loads(_recv_exact(sock, length))

"""The op pipe's wire format: length-prefixed pickle frames."""

from __future__ import annotations

import socket

import pytest

from repro.parallel.framing import MAX_FRAME_BYTES, recv_frame, send_frame


class _SocketPair:
    def __enter__(self):
        self.a, self.b = socket.socketpair()
        return self.a, self.b

    def __exit__(self, *exc):
        self.a.close()
        self.b.close()


class TestFraming:
    def test_roundtrip(self):
        with _SocketPair() as (a, b):
            payload = ("op", "execute", ({"k": [1, 2, 3]},), 17.5)
            send_frame(a, payload)
            assert recv_frame(b) == payload

    def test_multiple_frames_in_order(self):
        with _SocketPair() as (a, b):
            for i in range(5):
                send_frame(a, ("seq", i))
            assert [recv_frame(b)[1] for _ in range(5)] == list(range(5))

    def test_closed_peer_raises_eof(self):
        with _SocketPair() as (a, b):
            a.close()
            with pytest.raises(EOFError):
                recv_frame(b)

    def test_oversize_frame_rejected(self):
        with _SocketPair() as (a, b):
            # Hand-craft a header claiming an absurd length.
            b.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(EOFError):
                recv_frame(a)

"""The op pipe's wire format: length-prefixed pickle frames."""

from __future__ import annotations

import socket

import pytest

from repro.parallel import framing
from repro.parallel.framing import (
    MAX_FRAME_BYTES,
    FrameTooLargeError,
    recv_frame,
    recv_frame_sized,
    send_frame,
)


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

    def test_sized_read_reports_the_payload_bytes(self):
        with _SocketPair() as (a, b):
            send_frame(a, b"x" * 1000)
            obj, size = recv_frame_sized(b)
            assert obj == b"x" * 1000 and 1000 < size < 1100

    def test_oversize_frame_rejected(self):
        with _SocketPair() as (a, b):
            # Hand-craft a header claiming an absurd length.
            b.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(EOFError):
                recv_frame(a)

    def test_oversize_frame_refused_before_any_byte_is_sent(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 64)
        with _SocketPair() as (a, b):
            with pytest.raises(FrameTooLargeError, match="exceeds the 64 cap"):
                send_frame(a, b"x" * 100)
            # The stream is still in step: the next frame is the next read.
            send_frame(a, "small")
            assert recv_frame(b) == "small"

"""Length-prefixed frame codec for the TCP backend.

A frame is ``MAGIC (4) | length (4, big-endian) | body (length bytes)``.
TCP is a byte stream: one ``write()`` may arrive split across many reads
or coalesced with its neighbours, so the decoder is an incremental state
machine — feed it arbitrary chunks, collect whole frame bodies.

Hardening (the paper's §2.2 threat model reaches the wire here):

* a frame announcing a body larger than ``max_frame_bytes`` is rejected
  *before* any allocation proportional to the claim — a Byzantine peer
  cannot balloon our memory with a 4 GiB length prefix;
* a bad magic means the stream is desynchronised (or the peer is not
  speaking our protocol); there is no resynchronisation heuristic — the
  connection must be dropped and re-established;
* truncated frames simply stay buffered: TCP delivers the rest or the
  connection dies, and a half frame is never exposed to the payload layer.
"""

from __future__ import annotations

import struct

#: Also names the datagram format inside the body: a peer speaking another
#: format fails the magic check and is dropped as a bad stream.
MAGIC = b"RPN2"
HEADER_SIZE = len(MAGIC) + 4
_HEADER = struct.Struct(">4sI")
#: Default ceiling on one frame's body. Queue-state snapshots are the
#: largest payloads in the system; 16 MiB leaves headroom over the 4 MiB
#: default MessageQueue bound while still refusing absurd claims.
DEFAULT_MAX_FRAME = 16 << 20


class FrameError(ValueError):
    """The byte stream is not a valid frame sequence (drop the connection)."""


def encode_frame(body: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME) -> bytes:
    """One wire frame around ``body``. Oversize bodies refuse to encode —
    the sender must fail loudly rather than emit a frame every correct
    receiver rejects."""
    if len(body) > max_frame_bytes:
        raise FrameError(
            f"frame body {len(body)} bytes exceeds limit {max_frame_bytes}"
        )
    return _HEADER.pack(MAGIC, len(body)) + body


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary read chunking.

    Whole frames are sliced straight out of the read that carries them;
    only a trailing partial frame is copied into the buffer, and a buffered
    frame is reassembled once, when the read that completes it arrives.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        # Buffered bytes needed before the next frame can complete.
        self._need = HEADER_SIZE
        self.frames_decoded = 0

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb one read's bytes; return every frame body completed by it.

        Raises :class:`FrameError` on bad magic or an oversize length
        claim; the caller must treat the stream as dead afterwards.
        """
        if self._buffer:
            self._buffer += data
            if len(self._buffer) < self._need:
                return []
            data = bytes(self._buffer)
            self._buffer.clear()
        elif type(data) is not bytes:
            data = bytes(data)
        frames: list[bytes] = []
        pos, size = 0, len(data)
        while True:
            if size - pos < HEADER_SIZE:
                self._need = HEADER_SIZE
                break
            magic, length = _HEADER.unpack_from(data, pos)
            if magic != MAGIC:
                raise FrameError(f"bad frame magic {magic!r}")
            if length > self.max_frame_bytes:
                raise FrameError(
                    f"frame claims {length} bytes, limit {self.max_frame_bytes}"
                )
            end = pos + HEADER_SIZE + length
            if end > size:
                self._need = HEADER_SIZE + length
                break  # truncated: wait for more bytes
            frames.append(data[pos + HEADER_SIZE : end])
            pos = end
        if pos < size:
            self._buffer += memoryview(data)[pos:]
        self.frames_decoded += len(frames)
        return frames

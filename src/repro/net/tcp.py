"""The asyncio TCP transport: real sockets under the protocol stack.

One :class:`AsyncioTransport` serves one OS process. It listens on the
process's own topology address and keeps one outbound link per peer. The
per-frame path is callbacks, not tasks: inbound bytes go from
``asyncio.Protocol.data_received`` straight into the frame decoder and
:meth:`AsyncioTransport._handle_frame`, and an outbound frame is written
at once to its link's socket.

* **framing** — every datagram is one length-prefixed frame
  (:mod:`repro.net.framing`) whose body is an addressed, wire-encoded
  payload (:mod:`repro.net.wire`);
* **reconnect** — outbound links dial eagerly and redial on loss with
  capped exponential backoff; a frame written into a link that turns out
  to be dying is retried on the new connection (no reorder,
  at-least-once — protocol layers dedup);
* **backpressure** — each link owns a bounded send queue, used only while
  the link is dialing or while its socket write buffer is over
  :data:`WRITE_BUFFER_HIGH`. When the queue is full the *newest* frame is
  dropped and counted. Dropping (rather than blocking the single-threaded
  protocol loop) is exactly the wire's §2.2 contract: loss is allowed,
  retransmission is the protocol's job;
* **hardening** — inbound streams that desynchronise, claim oversize
  frames, or carry undecodable datagrams are dropped at the frame layer
  with a counter; a Byzantine peer cannot crash the reader.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable

from repro.net.faults import NetFaultInjector
from repro.net.framing import DEFAULT_MAX_FRAME, FrameDecoder, FrameError, encode_frame
from repro.net.transport import Transport
from repro.net.wire import WireCodecError, decode_datagram, encode_datagram

#: Reconnect backoff: BASE * 2^attempt, capped.
RECONNECT_BASE = 0.05
RECONNECT_CAP = 2.0
#: A link's socket write buffer above this many bytes pauses direct writes;
#: frames then wait in the link's bounded queue until it drains.
WRITE_BUFFER_HIGH = 64 * 1024


class _PeerLink(asyncio.Protocol):
    """One outbound connection: direct writes, a bounded queue, redial."""

    def __init__(
        self, transport: "AsyncioTransport", pid: str, host: str, port: int
    ) -> None:
        self.transport = transport
        self.pid = pid
        self.host = host
        self.port = port
        self.queue: deque[bytes] = deque()
        self.connected = asyncio.Event()
        self.sock: asyncio.WriteTransport | None = None
        self.paused = False
        self.closed = False
        self._ever_connected = False
        self.task = transport.loop.create_task(self._dial(), name=f"link:{pid}")

    async def _dial(self) -> None:
        attempt = 0
        while True:
            try:
                await self.transport.loop.create_connection(
                    lambda: self, self.host, self.port
                )
                return
            except OSError:
                delay = min(RECONNECT_BASE * (2**attempt), RECONNECT_CAP)
                attempt += 1
                await asyncio.sleep(delay)

    # -- asyncio.Protocol callbacks ----------------------------------------

    def connection_made(self, sock: asyncio.BaseTransport) -> None:
        sock.set_write_buffer_limits(high=WRITE_BUFFER_HIGH)
        if self._ever_connected:
            self.transport.stats["reconnects"] += 1
        self._ever_connected = True
        self.sock = sock
        self.paused = False
        self.connected.set()
        self._flush()

    def connection_lost(self, exc: Exception | None) -> None:
        self.sock = None
        self.connected.clear()
        if not self.closed:
            self.task = self.transport.loop.create_task(
                self._dial(), name=f"link:{self.pid}"
            )

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self._flush()

    # -- sending ------------------------------------------------------------

    def _write(self, frame: bytes) -> bool:
        """Hand ``frame`` to the socket; False if the link is dying."""
        sock = self.sock
        sock.write(frame)
        if sock.is_closing():
            # Peer gone (EOF or a failed send): keep the frame for the
            # connection the redial will make.
            return False
        stats = self.transport.stats
        stats["frames_sent"] += 1
        stats["bytes_sent"] += len(frame)
        return True

    def _flush(self) -> None:
        queue = self.queue
        while queue and not self.paused and self.sock is not None:
            if not self._write(queue[0]):
                return
            queue.popleft()

    def enqueue(self, frame: bytes) -> bool:
        if self.sock is not None and not self.paused and not self.queue:
            if self._write(frame):
                return True
        if len(self.queue) >= self.transport.queue_limit:
            return False
        self.queue.append(frame)
        return True

    def close(self) -> None:
        self.closed = True
        self.task.cancel()
        if self.sock is not None:
            self.sock.abort()


class _InboundStream(asyncio.Protocol):
    """One accepted connection: bytes → frames → datagrams, in the callback."""

    def __init__(self, transport: "AsyncioTransport") -> None:
        self.transport = transport
        self.decoder = FrameDecoder(max_frame_bytes=transport.max_frame_bytes)
        self.sock: asyncio.BaseTransport | None = None

    def connection_made(self, sock: asyncio.BaseTransport) -> None:
        self.sock = sock
        self.transport._inbound.add(sock)

    def connection_lost(self, exc: Exception | None) -> None:
        self.transport._inbound.discard(self.sock)

    def data_received(self, data: bytes) -> None:
        transport = self.transport
        transport.stats["bytes_received"] += len(data)
        try:
            frames = self.decoder.feed(data)
        except FrameError:
            # Desynchronised or hostile stream: kill the connection; the
            # peer's link will redial with a fresh decoder.
            transport.stats["recv_dropped_bad_frame"] += 1
            self.sock.abort()
            return
        for body in frames:
            transport._handle_frame(body)


class AsyncioTransport(Transport):
    """Length-prefixed GIOP/SMIOP traffic over asyncio TCP streams."""

    def __init__(
        self,
        own_pid: str,
        address_book: dict[str, tuple[str, int]],
        loop: asyncio.AbstractEventLoop,
        on_deliver: Callable[[str, Any], None],
        faults: NetFaultInjector | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME,
        queue_limit: int = 1024,
    ) -> None:
        self.own_pid = own_pid
        self.address_book = dict(address_book)
        self.loop = loop
        self.on_deliver = on_deliver
        self.faults = faults
        self.max_frame_bytes = max_frame_bytes
        self.queue_limit = queue_limit
        self._links: dict[str, _PeerLink] = {}
        self._server: asyncio.base_events.Server | None = None
        self._inbound: set[asyncio.BaseTransport] = set()
        self.stats: dict[str, int] = {
            "frames_sent": 0,
            "frames_received": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
            "sends_dropped_queue_full": 0,
            "sends_dropped_unknown_peer": 0,
            "sends_dropped_fault": 0,
            "recv_dropped_bad_frame": 0,
            "recv_dropped_misrouted": 0,
            "reconnects": 0,
        }

    # -- server side --------------------------------------------------------

    async def start(self) -> None:
        host, port = self.address_book[self.own_pid]
        self._server = await self.loop.create_server(
            lambda: _InboundStream(self), host, port
        )

    def _handle_frame(self, body: bytes) -> None:
        try:
            src, dst, payload = decode_datagram(body)
        except WireCodecError:
            self.stats["recv_dropped_bad_frame"] += 1
            return
        if dst != self.own_pid:
            self.stats["recv_dropped_misrouted"] += 1
            return
        self.stats["frames_received"] += 1
        self.on_deliver(src, payload)

    # -- client side --------------------------------------------------------

    def _link_for(self, dst: str) -> _PeerLink | None:
        link = self._links.get(dst)
        if link is None:
            address = self.address_book.get(dst)
            if address is None:
                return None
            link = _PeerLink(self, dst, address[0], address[1])
            self._links[dst] = link
        return link

    def transmit(
        self,
        src: str,
        dst: str,
        payload: Any,
        size: int,
        extra_delay: float,
        wire: bytes | None = None,
    ) -> None:
        frame = encode_frame(
            encode_datagram(src, dst, payload, wire), max_frame_bytes=self.max_frame_bytes
        )
        delay = extra_delay
        if self.faults is not None:
            verdict, fault_delay = self.faults.verdict(src, dst)
            if verdict == "drop":
                self.stats["sends_dropped_fault"] += 1
                return
            delay += fault_delay
        if delay > 0:
            self.loop.call_later(delay, self._enqueue, dst, frame)
        else:
            self._enqueue(dst, frame)

    def transmit_encoded(
        self, src: str, dst: str, payload: Any, size: int, wire: bytes
    ) -> None:
        self.transmit(src, dst, payload, size, 0.0, wire)

    def _enqueue(self, dst: str, frame: bytes) -> None:
        link = self._link_for(dst)
        if link is None:
            # Receiver unknown (e.g. expelled and deregistered): drop
            # silently, as IP would.
            self.stats["sends_dropped_unknown_peer"] += 1
            return
        if not link.enqueue(frame):
            self.stats["sends_dropped_queue_full"] += 1

    # -- readiness & shutdown ----------------------------------------------

    async def ensure_links(self, peers: list[str], timeout: float = 30.0) -> None:
        """Dial every peer and wait until all links are up (cluster barrier).

        Raises ``TimeoutError`` if any peer stays unreachable — the
        launcher treats that as a failed deployment, not a protocol fault.
        """
        links = [self._link_for(pid) for pid in peers if pid != self.own_pid]
        waits = [link.connected.wait() for link in links if link is not None]
        if waits:
            await asyncio.wait_for(asyncio.gather(*waits), timeout=timeout)

    async def ensure_quorum(
        self, peers: list[str], minimum: int, timeout: float = 30.0
    ) -> None:
        """Dial every peer; wait until at least ``minimum`` links are up.

        The client-side barrier: a voter needs 2f+1 live replicas, not all
        3f+1 — a cluster already missing a (tolerated) crashed node must
        still accept new clients.
        """
        links = [
            link
            for pid in peers
            if pid != self.own_pid
            if (link := self._link_for(pid)) is not None
        ]
        minimum = min(minimum, len(links))

        async def poll() -> None:
            while sum(1 for link in links if link.connected.is_set()) < minimum:
                await asyncio.sleep(0.02)

        await asyncio.wait_for(poll(), timeout=timeout)

    @property
    def links_up(self) -> int:
        return sum(1 for link in self._links.values() if link.connected.is_set())

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, close links and inbound streams."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for link in self._links.values():
            link.close()
        for sock in list(self._inbound):
            sock.abort()
        tasks = [link.task for link in self._links.values()]
        self._links.clear()
        await asyncio.gather(*tasks, return_exceptions=True)
        if server is not None:
            await server.wait_closed()
        # Let the aborted sockets' connection_lost callbacks run.
        await asyncio.sleep(0)

    def close(self) -> None:
        """Sync best-effort close (Transport interface); prefer ``stop``."""
        if self.loop.is_running():
            self.loop.create_task(self.stop())

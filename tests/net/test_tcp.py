"""AsyncioTransport over real loopback sockets: delivery, hardening, reconnect."""

import asyncio
import socket

import pytest

from repro.bft import messages as bft
from repro.net.faults import LinkFault, NetFaultInjector
from repro.net.framing import FrameError
from repro.net.tcp import AsyncioTransport


def free_ports(count):
    sockets, ports = [], []
    for _ in range(count):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        sockets.append(probe)
        ports.append(probe.getsockname()[1])
    for probe in sockets:
        probe.close()
    return ports


def make_pair(loop, faults=None, **kwargs):
    port_a, port_b = free_ports(2)
    book = {"a": ("127.0.0.1", port_a), "b": ("127.0.0.1", port_b)}
    inbox_a, inbox_b = [], []
    a = AsyncioTransport("a", book, loop,
                        lambda src, p: inbox_a.append((src, p)),
                        faults=faults, **kwargs)
    b = AsyncioTransport("b", book, loop,
                        lambda src, p: inbox_b.append((src, p)))
    return a, b, inbox_a, inbox_b, book


async def eventually(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.01)


def test_transmit_delivers_protocol_messages():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, _ = make_pair(loop)
        await a.start()
        await b.start()
        message = bft.PrepareMsg(
            view=0, seq=1, request_digest=b"\x01" * 16,
            sender="a", auth={"b": b"\x02" * 8},
        )
        a.transmit("a", "b", message, 0, 0.0)
        a.transmit("a", "b", b"raw-bytes", 0, 0.0)
        await eventually(lambda: len(inbox_b) == 2)
        await a.stop()
        await b.stop()
        return a, b, inbox_b, message

    a, b, inbox_b, message = asyncio.run(scenario())
    assert inbox_b == [("a", message), ("a", b"raw-bytes")]
    assert a.stats["frames_sent"] == 2
    assert b.stats["frames_received"] == 2
    assert b.stats["bytes_received"] > 0


def test_ensure_links_barrier_and_counters():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, _ib, _ = make_pair(loop)
        await a.start()
        await b.start()
        await a.ensure_links(["b"], timeout=5.0)
        up = a.links_up
        await a.stop()
        await b.stop()
        return up

    assert asyncio.run(scenario()) == 1


def test_unknown_peer_drops_silently():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, _ib, _ = make_pair(loop)
        await a.start()
        a.transmit("a", "stranger", b"x", 0, 0.0)
        dropped = a.stats["sends_dropped_unknown_peer"]
        await a.stop()
        return dropped

    assert asyncio.run(scenario()) == 1


def test_oversize_payload_refuses_to_send():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, _ib, _ = make_pair(loop, max_frame_bytes=128)
        with pytest.raises(FrameError):
            a.transmit("a", "b", b"z" * 1024, 0, 0.0)
        await a.stop()

    asyncio.run(scenario())


def test_garbage_stream_cannot_crash_the_reader():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, book = make_pair(loop)
        await a.start()
        await b.start()
        # A hostile peer writes junk straight at b's listening socket.
        _reader, writer = await asyncio.open_connection(*book["b"])
        writer.write(b"THIS IS NOT A FRAME " * 10)
        await writer.drain()
        writer.close()
        await eventually(lambda: b.stats["recv_dropped_bad_frame"] == 1)
        # b still accepts well-formed traffic afterwards.
        a.transmit("a", "b", b"still-alive", 0, 0.0)
        await eventually(lambda: len(inbox_b) == 1)
        await a.stop()
        await b.stop()
        return inbox_b

    assert asyncio.run(scenario()) == [("a", b"still-alive")]


def test_misrouted_datagram_is_dropped():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, book = make_pair(loop)
        await b.start()
        # a deliberately frames a datagram addressed to someone else and
        # sends it down b's pipe (address-book confusion / hostile relay).
        book_lying = dict(book)
        book_lying["c"] = book["b"]
        liar = AsyncioTransport("a", book_lying, loop, lambda s, p: None)
        liar.transmit("a", "c", b"not-for-b", 0, 0.0)
        await eventually(lambda: b.stats["recv_dropped_misrouted"] == 1)
        await liar.stop()
        await b.stop()
        return inbox_b

    assert asyncio.run(scenario()) == []


def test_reconnect_redelivers_across_server_restart():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, book = make_pair(loop)
        await a.start()
        await b.start()
        a.transmit("a", "b", b"one", 0, 0.0)
        await eventually(lambda: len(inbox_b) == 1)
        await b.stop()  # peer crashes
        await asyncio.sleep(0.1)  # let the link fail and start redialing
        # Peer restarts on the same address (fresh transport, same inbox).
        b2 = AsyncioTransport("b", book, loop,
                             lambda src, p: inbox_b.append((src, p)))
        await b2.start()
        # The wire is at-least-once-with-loss: a frame written into a
        # just-died socket may vanish. Retransmit like the protocol does
        # until the reborn peer hears us.
        deadline = loop.time() + 10.0
        while len(inbox_b) < 2:
            assert loop.time() < deadline, "link never recovered"
            a.transmit("a", "b", b"two", 0, 0.0)
            await asyncio.sleep(0.05)
        reconnects = a.stats["reconnects"]
        await a.stop()
        await b2.stop()
        return inbox_b, reconnects

    inbox_b, reconnects = asyncio.run(scenario())
    assert inbox_b[0] == ("a", b"one")
    assert inbox_b[1] == ("a", b"two")
    assert reconnects >= 1


def test_fault_injector_gates_sends():
    async def scenario():
        loop = asyncio.get_running_loop()
        faults = NetFaultInjector()
        faults.set_link("a", "b", LinkFault(drop_probability=1.0))
        a, b, _ia, inbox_b, _ = make_pair(loop, faults=faults)
        await a.start()
        await b.start()
        a.transmit("a", "b", b"doomed", 0, 0.0)
        await asyncio.sleep(0.1)
        dropped = a.stats["sends_dropped_fault"]
        await a.stop()
        await b.stop()
        return inbox_b, dropped

    inbox_b, dropped = asyncio.run(scenario())
    assert inbox_b == []
    assert dropped == 1


def test_queue_full_drops_newest():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, _ib, _ = make_pair(loop, queue_limit=2)
        # Never start the server: the link cannot drain, the queue fills.
        for _ in range(5):
            a.transmit("a", "b", b"x", 0, 0.0)
        dropped = a.stats["sends_dropped_queue_full"]
        await a.stop()
        return dropped

    assert asyncio.run(scenario()) >= 2


def test_peer_that_never_reads_is_bounded_by_backpressure():
    """Direct writes stop at the socket write-buffer bound; the excess
    waits in the bounded queue and then drops newest, counted."""
    from repro.net.tcp import WRITE_BUFFER_HIGH

    offered, payload, queue_limit = 2000, b"x" * 8192, 8

    async def scenario():
        loop = asyncio.get_running_loop()
        # Accepts, never reads; small kernel buffers fill fast.
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        listener.setblocking(False)
        book = {"a": ("127.0.0.1", free_ports(1)[0]), "b": listener.getsockname()}
        a = AsyncioTransport("a", book, loop, lambda s, p: None, queue_limit=queue_limit)
        await a.ensure_links(["b"], timeout=5.0)
        silent, _ = await loop.sock_accept(listener)
        link = a._links["b"]
        frame_size = None
        worst = 0
        for _ in range(offered):
            a.transmit("a", "b", payload, 0, 0.0)
            frame_size = frame_size or a.stats["bytes_sent"]
            buffered = link.sock.get_write_buffer_size() + sum(map(len, link.queue))
            worst = max(worst, buffered)
        queued = len(link.queue)
        stats = dict(a.stats)
        await a.stop()
        silent.close()
        listener.close()
        return stats, queued, worst, frame_size

    stats, queued, worst, frame_size = asyncio.run(scenario())
    assert worst <= WRITE_BUFFER_HIGH + (1 + queue_limit) * frame_size
    assert queued == queue_limit
    assert stats["sends_dropped_queue_full"] > 0
    assert stats["frames_sent"] + queued + stats["sends_dropped_queue_full"] == offered

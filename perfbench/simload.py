"""The simulator workloads: every element and every client in one process.

Each simulated client is a closed loop: it submits its next request only
after the voted reply to the previous one arrives, one outstanding request
per virtual connection (PAPER.md §3.6). All clients share one thread, the
simulator's. A request's latency is the host wall time from its
submission to its voted reply; the simulated (cost-model) latency is kept
beside it and is never compared with wall time.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable

from ledger import COUNTERS, Session, layer_delta
from repro.workloads import build_calc_system, build_read_heavy_system, mix_90_10

#: Seed of the deployment itself (key material, platform mix). It is fixed,
#: so the workload seed changes only the generated inputs.
SYSTEM_SEED = 7
#: Largest operand; sums of two stay exact in every platform's float model.
OPERAND_LIMIT = 1 << 20
#: A session whose window has not drained this long after its deadline
#: has lost a request; the outstanding ones count as failed.
DRAIN_LIMIT_S = 60.0


class OrderedCalls:
    """Ordered ``calc.add(a, b)`` with seeded integral operands."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def first(self) -> tuple[str, tuple, Any]:
        return self.next()

    def next(self) -> tuple[str, tuple, Any]:
        a = float(self.rng.randrange(OPERAND_LIMIT))
        b = float(self.rng.randrange(OPERAND_LIMIT))
        return "add", (a, b), a + b


class ReadMix:
    """90/10 ``get``/``put`` on the client's own key.

    The key belongs to one closed-loop client, so every read must return
    that client's last written value: a voted reply covers at least f+1
    elements that executed the write, so 2f+1 matching fast-path replies
    cannot all predate it.
    """

    def __init__(self, rng: random.Random, key: str) -> None:
        self.rng = rng
        self.key = key
        self.value = ""
        self.plan: list[str] = []

    def _put(self) -> tuple[str, tuple, Any]:
        self.value = f"v{self.rng.randrange(1 << 30)}"
        return "put", (self.key, self.value), None

    def first(self) -> tuple[str, tuple, Any]:
        return self._put()

    def next(self) -> tuple[str, tuple, Any]:
        if not self.plan:
            self.plan = mix_90_10(self.rng, 100)
        if self.plan.pop() == "write":
            return self._put()
        return "get", (self.key,), self.value


class ClientLoop:
    """One closed-loop client driving the shared simulator."""

    def __init__(self, fleet: "Fleet", client, calls) -> None:
        self.fleet = fleet
        self.client = client
        self.calls = calls

    def submit(self, plan: tuple[str, tuple, Any]) -> None:
        operation, args, expected = plan
        fleet = self.fleet
        network = fleet.system.network
        started_wall = time.perf_counter()
        started_sim = network.now

        def on_result(value: Any) -> None:
            session = fleet.session
            if fleet.measuring:
                session.latencies_s.append(time.perf_counter() - started_wall)
                session.model_latencies_s.append(network.now - started_sim)
                session.results.append(value)
                session.attempted += 1
            if value != expected:
                session.failed += 1
                session.notes.append(f"{operation}{args}: {value!r} != {expected!r}")
            if fleet.measuring and fleet.keep_going(self):
                # Off the reply path, as a caller's next statement would be.
                network.scheduler.schedule(0.0, lambda: self.submit(self.calls.next()))
            else:
                fleet.active -= 1

        self.client.async_invoke(fleet.ref, operation, args, on_result)


class Fleet:
    """The clients of one session and the state of its window."""

    def __init__(self, system, ref, session: Session) -> None:
        self.system = system
        self.ref = ref
        self.session = session
        self.loops: list[ClientLoop] = []
        self.active = 0  # clients with a request outstanding or about to be
        self.measuring = False
        self.keep_going: Callable[[ClientLoop], bool] = lambda loop: False

    def run_until_idle(self, give_up: float = float("inf")) -> None:
        self.system.network.run(
            stop_when=lambda: not self.active or time.perf_counter() > give_up
        )


WORKLOADS = {
    # name: (build, domain, object key, clients, calls factory)
    "sim-ordered-8c": (
        lambda: build_calc_system(f=1, seed=SYSTEM_SEED),
        "calc",
        b"calc",
        8,
        lambda rng, index: OrderedCalls(rng),
    ),
    "sim-readmix-2c": (
        lambda: build_read_heavy_system(f=1, seed=SYSTEM_SEED, readers=1),
        "kv",
        b"kv",
        2,
        lambda rng, index: ReadMix(rng, f"key-{index}"),
    ),
}


def _counters(system) -> dict[str, int]:
    elements = list(system.elements.values())
    connections = [
        connection
        for client in system.clients.values()
        for connection in client.endpoint.connections.values()
    ]
    return {
        "messages": system.network.stats.messages_sent,
        "events": system.network.scheduler.events_executed,
        "frames": 0,
        "bytes": 0,
        "preprepares": sum(e.messages_sent.get("PrePrepareMsg", 0) for e in elements),
        "ordered": max(len(e.executions) for e in elements),
        "reads": sum(c.reads_sent for c in connections),
        "read_hits": sum(c.read_fastpath_hits for c in connections),
    }


def run_session(
    workload: str,
    rng: random.Random,
    seconds: float,
    tracer=None,
    requests_per_client: int | None = None,
) -> Session:
    """Set one system up, then measure a closed-loop window.

    The window lasts ``seconds`` of wall time, or, when
    ``requests_per_client`` is given, exactly that many requests per
    client (a deterministic run, for the self-test).
    """
    build, domain, object_key, clients, make_calls = WORKLOADS[workload]
    session = Session(backend="sim")
    started = time.perf_counter()
    system = build()
    fleet = Fleet(system, system.ref(domain, object_key), session)
    fleet.loops = [
        ClientLoop(
            fleet,
            system.add_client(f"client-{index}"),
            make_calls(random.Random(rng.randrange(1 << 63)), index),
        )
        for index in range(clients)
    ]
    system.settle(1.0)  # the GM coin bootstrap
    fleet.active = clients
    for loop in fleet.loops:
        loop.submit(loop.calls.first())  # each session's Figure 3 handshake
    fleet.run_until_idle()
    session.setup_s = time.perf_counter() - started
    if session.failed or fleet.active:
        session.attempted += clients
        session.failed = max(session.failed, 1)
        return session

    deadline = time.perf_counter() + seconds
    if requests_per_client is None:
        fleet.keep_going = lambda loop: time.perf_counter() < deadline
    else:
        budget = {id(loop): requests_per_client for loop in fleet.loops}

        def more(loop: ClientLoop) -> bool:
            budget[id(loop)] -= 1
            return budget[id(loop)] > 0

        fleet.keep_going = more

    before = _counters(system)
    layers_before = tracer.snapshot() if tracer else None
    cpu_before = time.process_time_ns()
    wall_before = time.perf_counter()
    fleet.measuring = True
    fleet.active = clients
    for loop in fleet.loops:
        loop.submit(loop.calls.next())
    fleet.run_until_idle(give_up=deadline + DRAIN_LIMIT_S)
    session.wall_s = time.perf_counter() - wall_before
    session.cpu_ns = time.process_time_ns() - cpu_before
    after = _counters(system)
    session.counters = {key: after[key] - before[key] for key in COUNTERS}
    if tracer:
        session.layers = layer_delta(layers_before, tracer.snapshot())
        session.unreached = tracer.unreached()
    if fleet.active:
        session.attempted += fleet.active
        session.failed += fleet.active
        session.notes.append(f"{fleet.active} request(s) never got a voted reply")
    return session

"""A Byzantine client orders a deeply nested payload into a domain.

Every element parses each ordered payload as the head of its replicated
message queue (§1, the message-queue state machine), so a payload the
parser cannot judge would stall the whole domain. The payload here is
1,000 nested lists around ``None``: far past the codec's nesting bound, and
deep enough to exhaust the interpreter stack of a plain recursive parser.
Every honest element must drop it as a :class:`PayloadError`, all with the
same verdict, and the next honest request must still be voted.
"""

import struct

from repro.itdos import group_manager, replica
from repro.workloads.scenarios import build_calc_system


def nested_payload(levels: int = 1000) -> bytes:
    raw = b"N"
    for _ in range(levels):
        body = struct.pack(">I", 1) + raw
        raw = b"L" + struct.pack(">I", len(body)) + body
    return raw


JAM = nested_payload()


def watch_parses(monkeypatch, module) -> tuple[dict[str, list[str]], list[str]]:
    """Record what ``module.parse_payload`` made of JAM, per element.

    Returns ``(verdicts, current)``: callers push the pid of the element
    whose handler is running onto ``current``.
    """
    verdicts: dict[str, list[str]] = {}
    current: list[str] = []
    real = module.parse_payload

    def parse_payload(raw):
        outcome = "accepted"
        try:
            return real(raw)
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            if raw == JAM:
                verdicts.setdefault(current[-1] if current else None, []).append(outcome)

    monkeypatch.setattr(module, "parse_payload", parse_payload)
    return verdicts, current


def running_as(current: list[str], pid: str, fn):
    def wrapper(*args, **kwargs):
        current.append(pid)
        try:
            return fn(*args, **kwargs)
        finally:
            current.pop()

    return wrapper


def test_nested_payload_ordered_into_server_domain_is_dropped(monkeypatch):
    verdicts, current = watch_parses(monkeypatch, replica)
    system = build_calc_system(seed=3)
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(2.0, 3.0) == 5.0
    elements = system.domain_elements("calc")
    for element in elements:
        element._pump = running_as(current, element.pid, element._pump)

    acks = []
    client.endpoint.engine_for("calc").invoke(JAM, acks.append)
    system.run_until(lambda: bool(acks))
    system.settle(1.0)

    assert verdicts == {element.pid: ["PayloadError"] for element in elements}
    for element in elements:
        assert all(item.payload != JAM for item in element.queue.items)
    assert stub.add(1.0, 1.0) == 2.0


def test_nested_payload_ordered_into_group_manager_is_dropped(monkeypatch):
    verdicts, current = watch_parses(monkeypatch, group_manager)
    system = build_calc_system(seed=3)
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(2.0, 3.0) == 5.0
    executed: dict[str, list[bytes]] = {}
    for gm in system.gm_elements:
        execute = running_as(current, gm.pid, gm.execute_fn)

        def record(payload, *rest, _pid=gm.pid, _execute=execute):
            result = _execute(payload, *rest)
            if payload == JAM:
                executed.setdefault(_pid, []).append(result)
            return result

        gm.execute_fn = record

    results = []
    client.endpoint.gm_engine.invoke(JAM, results.append)
    system.run_until(lambda: bool(results))
    system.settle(1.0)

    assert results == [b"BAD"]
    pids = [gm.pid for gm in system.gm_elements]
    assert verdicts == {pid: ["PayloadError"] for pid in pids}
    assert executed == {pid: [b"BAD"] for pid in pids}
    # A new client needs the Group Manager to open its connection.
    newcomer = system.add_client("bob")
    assert newcomer.stub(system.ref("calc", b"calc")).add(1.0, 1.0) == 2.0
    assert stub.add(1.0, 1.0) == 2.0

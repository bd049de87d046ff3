"""``Network(check_wire=True)`` over the read tier, sharding and recovery.

Each run is a short simulator session in which every payload crossing the
transport seam is round-tripped through the wire codec (``check_wire``) and
recorded, down to the registered messages nested inside it. Together with
the calculator session in ``test_transport_seam.py`` the runs must reach
every registered wire type, except the ones named below with the reason
they do not cross the seam here.
"""

import dataclasses

import pytest

from repro.itdos.bootstrap import ItdosSystem
from repro.itdos.faults import LyingElement
from repro.net.transport import Transport
from repro.net.wire import registered_wire_types
from repro.workloads.scenarios import (
    CalculatorServant,
    build_calc_system,
    build_read_heavy_system,
    build_sharded_kv_system,
    router_for,
    standard_repository,
)

NAMES = {cls: name for name, cls in registered_wire_types().items()}

#: Registered types these runs do not put on the seam as objects.
UNREACHED = {
    # Carried as bytes inside ClientRequest.payload (``to_payload()``).
    "SmiopRequest": "inside ClientRequest.payload",
    "OpenRequest": "inside ClientRequest.payload",
    "ChangeRequest": "inside ClientRequest.payload",
    "ProofItem": "inside ChangeRequest, itself inside ClientRequest.payload",
    "ReadmitRequest": "inside ClientRequest.payload",
    "RejoinPetition": "inside ClientRequest.payload",
    "CoinMessage": "inside ClientRequest.payload",
    "RekeyTick": "inside ClientRequest.payload",
    # Need a fault these short runs do not inject.
    "BodyRequest": "large-reply digest voting on the ordered path",
    "BodyReply": "large-reply digest voting on the ordered path",
    "FillMsg": "a replica lagging inside the watermark window",
    "StateRequestMsg": "a replica lagging past a stable checkpoint",
    "StateResponseMsg": "a replica lagging past a stable checkpoint",
    "PreparedCertificate": "a view change over a prepared, uncommitted request",
}


class RecordingTransport(Transport):
    """Forwards to the simulator transport, recording registered types."""

    def __init__(self, inner):
        self.inner = inner
        self.seen: set[str] = set()

    def transmit(self, src, dst, payload, size, extra_delay):
        self._walk(payload)
        self.inner.transmit(src, dst, payload, size, extra_delay)

    def _walk(self, value):
        name = NAMES.get(type(value))
        if name is not None:
            self.seen.add(name)
            for f in dataclasses.fields(value):
                self._walk(getattr(value, f.name))
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._walk(item)
        elif isinstance(value, dict):
            for item in value.values():
                self._walk(item)


def checked(system) -> RecordingTransport:
    system.network.check_wire = True
    recorder = RecordingTransport(system.network.transport)
    system.network.transport = recorder
    return recorder


def run_calc():
    system = build_calc_system(f=1, seed=3)
    recorder = checked(system)
    stub = system.add_client("client-0").stub(system.ref("calc", b"calc"))
    assert stub.add(2.0, 3.0) == 5.0
    system.settle(2.0)
    return recorder.seen


def run_read_tier():
    system = build_read_heavy_system(f=1, seed=3, readers=1)
    recorder = checked(system)
    stub = system.add_client("alice").stub(system.ref("kv", b"kv"))
    for i in range(3):
        stub.put(f"k{i}", f"v{i}")
    assert stub.get("k1") == "v1"  # the read fast path
    [reader] = system.read_tier("kv")
    reader.restart()  # catches up through read-tier state sync
    stub.put("k3", "v3")
    system.settle(2.0)
    assert reader.syncs_completed >= 1
    return recorder.seen


def run_cross_shard():
    system, shard_map = build_sharded_kv_system(shards=2, f=1, seed=3)
    recorder = checked(system)
    client = system.add_client("alice")
    system.settle(1.0)

    def key_on(shard):
        n = 0
        while shard_map.shard_of(f"t.{n}") != shard:
            n += 1
        return f"t.{n}"

    router = router_for(system, client, shard_map)
    assert router.transact([key_on(0), key_on(1)], ["v0", "v1"]) == 1
    return recorder.seen


def run_readmission():
    system = ItdosSystem(seed=7, repository=standard_repository(), checkpoint_interval=4)
    system.add_server_domain(
        "calc",
        f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={2: LyingElement},
    )
    recorder = checked(system)
    stub = system.add_client("alice").stub(system.ref("calc", b"calc"))
    stub.add(2.0, 3.0)  # the liar is caught and expelled
    system.settle(3.0)
    for i in range(5):
        stub.add(float(i), 1.0)
    liar = system.elements["calc-e2"]
    liar.repaired = True
    verdicts, done = [], []
    liar.recover_membership(callback=verdicts.append, on_complete=done.append)
    system.run_until(lambda: bool(done))
    assert verdicts == [b"READMITTED"]
    assert liar.recovery.transfers_completed == 1
    system.elements["calc-e0"].crash()  # the primary: a view change follows
    assert stub.add(1.0, 2.0) == 3.0
    return recorder.seen


RUNS = {
    "read_tier": run_read_tier,
    "cross_shard": run_cross_shard,
    "readmission": run_readmission,
}


@pytest.fixture(scope="module")
def seen():
    return {name: run() for name, run in {**RUNS, "calc": run_calc}.items()}


@pytest.mark.parametrize(
    "run,expected",
    [
        ("read_tier", {"ReadRequest", "ReadReply", "CommitFeed", "ReadSyncRequest", "ReadSyncResponse"}),
        ("cross_shard", {"CheckpointMsg", "PrePrepareMsg", "BftReply"}),
        ("readmission", {"QueueStateRequest", "QueueStateResponse", "ViewChangeMsg", "NewViewMsg"}),
    ],
)
def test_run_crosses_its_own_message_types(seen, run, expected):
    assert expected <= seen[run]


def test_runs_cover_the_wire_registry(seen):
    registry = set(registered_wire_types())
    assert set(UNREACHED) <= registry
    reached = set().union(*seen.values())
    assert registry - reached <= set(UNREACHED), "registered types no run reached"

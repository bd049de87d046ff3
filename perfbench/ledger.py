"""What one measured session records, and how sessions become metrics.

A run is a few sessions. Each session sets a system up from scratch, then
measures a closed-loop window; only requests submitted inside the window
count. The end-to-end metrics combine the sessions as ``end_to_end``
says; the per-layer metrics divide summed layer totals by the voted
requests.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.net.bench import percentile

#: Counters every session reports as window deltas, summed over processes.
COUNTERS = (
    "messages",  # protocol messages handed to the network (sim or wire)
    "events",  # simulator events executed (0 on the wire)
    "frames",  # TCP frames sent (0 in the simulator)
    "bytes",  # TCP frame bytes sent (0 in the simulator)
    "preprepares",  # PBFT pre-prepares sent by the application domain
    "ordered",  # requests the application domain executed in order
    "reads",  # fast-path reads the clients sent
    "read_hits",  # fast-path reads decided without falling back to ordering
)


@dataclass
class Session:
    """One set-up plus one measured closed-loop window."""

    backend: str
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_ns: int = 0
    latencies_s: list[float] = field(default_factory=list)
    model_latencies_s: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)  # voted values, in reply order
    counters: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    layers: dict[str, list[int]] | None = None
    unreached: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies_s)


def layer_delta(
    before: dict[str, list[int]], after: dict[str, list[int]]
) -> dict[str, list[int]]:
    return {k: [after[k][0] - before[k][0], after[k][1] - before[k][1]] for k in after}


def add_layers(into: dict[str, list[int]], more: dict[str, list[int]]) -> dict[str, list[int]]:
    for key, (ns, calls) in more.items():
        total = into.setdefault(key, [0, 0])
        total[0] += ns
        total[1] += calls
    return into


def _totals(sessions: list[Session]) -> tuple[int, float, int, list[float]]:
    completed = sum(s.completed for s in sessions)
    wall = sum(s.wall_s for s in sessions)
    cpu = sum(s.cpu_ns for s in sessions)
    latencies = [x for s in sessions for x in s.latencies_s]
    return completed, wall, cpu, latencies


def _window_metrics(sessions: list[Session]) -> dict[str, float]:
    completed, wall, cpu, latencies = _totals(sessions)
    if completed == 0 or wall <= 0:
        raise RuntimeError("no voted request completed in the measured window")
    return {
        "throughput_rps": completed / wall,
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
        "cpu_us_per_req": cpu / 1e3 / completed,
    }


def session_metrics(session: Session) -> dict[str, float]:
    """The five end-to-end metrics of one session's window."""
    return {**_window_metrics([session]), "setup_s": session.setup_s}


def better_quartile(values: list[float], higher_is_better: bool) -> float:
    """The quartile of ``values`` on the better side (the value itself if
    there is only one)."""
    if len(values) < 2:
        return values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return high if higher_is_better else low


def end_to_end(sessions: list[Session]) -> dict[str, float]:
    """The end-to-end metrics of a run.

    The host is shared: other tenants slow this machine's instructions by
    up to half, in spells of seconds to minutes. How a run's sessions are
    combined was chosen on recorded runs (LEDGER.md, "Host noise"):

    * sim: one thread, slowed in proportion. The windows of every session
      are pooled: throughput is all voted requests over all window time,
      the percentiles are taken over every request.
    * wire: nine processes keep the two cores about 85% busy, so a slow
      spell lengthens the run queues and the latency tail grows out of
      proportion. Each timed metric is the better quartile of the
      per-session figures, the figure of the least-contended sessions.

    ``setup_s`` is the median of the sessions' set-up times.
    """
    measured = [s for s in sessions if s.completed]
    if not measured:
        raise RuntimeError("no voted request completed in any measured window")
    if measured[0].backend == "sim":
        timed = _window_metrics(measured)
    else:
        per_session = [_window_metrics([s]) for s in measured]
        timed = {
            name: better_quartile([m[name] for m in per_session], name == "throughput_rps")
            for name in per_session[0]
        }
    return {**timed, "setup_s": statistics.median(s.setup_s for s in sessions)}


def per_layer(traced: list[Session], untraced: list[Session]) -> dict[str, float]:
    """Per-layer metrics of a traced pass, against an untraced pass."""
    completed, _, cpu, _ = _totals(traced)
    if completed == 0 or any(s.layers is None for s in traced):
        raise RuntimeError("the traced pass recorded no voted request or no layer totals")
    layers: dict[str, list[int]] = {}
    counters = dict.fromkeys(COUNTERS, 0)
    for session in traced:
        add_layers(layers, session.layers)
        for key in COUNTERS:
            counters[key] += session.counters[key]

    def us(layer: str) -> float:
        return layers[layer][0] / 1e3 / completed

    def per_req(value: float) -> float:
        return value / completed

    cpu_us = cpu / 1e3 / completed
    model = [x for s in traced for x in s.model_latencies_s]
    metrics = {
        "net.wire.encode_calls_per_req": per_req(layers["net.wire.encode"][1]),
        "net.wire.encode_us_per_req": us("net.wire.encode"),
        "net.wire.decode_us_per_req": us("net.wire.decode"),
        "net.tcp.transmit_us_per_req": us("net.tcp.transmit"),
        "net.tcp.receive_us_per_req": us("net.tcp.receive"),
        "net.tcp.frames_per_req": per_req(counters["frames"]),
        "net.tcp.bytes_per_req": per_req(counters["bytes"]),
        "net.world.us_per_req": us("net.world"),
        "crypto.rsa.ops_per_req": per_req(layers["crypto.rsa"][1]),
        "crypto.rsa.us_per_req": us("crypto.rsa"),
        "crypto.symmetric.us_per_req": us("crypto.symmetric"),
        "crypto.encoding.calls_per_req": per_req(layers["crypto.encoding"][1]),
        "crypto.encoding.us_per_req": us("crypto.encoding"),
        "crypto.digests.us_per_req": us("crypto.digests"),
        "bft.replica.us_per_req": us("bft.replica"),
        "bft.client.us_per_req": us("bft.client"),
        "bft.msgs_per_req": per_req(counters["messages"]),
        "bft.requests_per_preprepare": (
            counters["ordered"] / counters["preprepares"] if counters["preprepares"] else 0.0
        ),
        "itdos.replica.us_per_req": us("itdos.replica"),
        "itdos.gm.us_per_req": us("itdos.gm"),
        "itdos.sockets.us_per_req": us("itdos.sockets"),
        "itdos.voter.us_per_req": us("itdos.voter"),
        "itdos.read.fastpath_hit_ratio": (
            counters["read_hits"] / counters["reads"] if counters["reads"] else 0.0
        ),
        "orb.marshal_us_per_req": us("orb.marshal"),
        "orb.unmarshal_us_per_req": us("orb.unmarshal"),
        "orb.dispatch_us_per_req": us("orb.dispatch"),
        "sim.scheduler.us_per_req": us("sim.scheduler"),
        "sim.network.us_per_req": us("sim.network"),
        "sim.events_per_req": per_req(counters["events"]),
        "sim.model_latency_p50_ms": percentile(model, 0.50) * 1e3,
        "unattributed.us_per_req": cpu_us - sum(ns for ns, _ in layers.values()) / 1e3 / completed,
        "trace.overhead_ratio": cpu_us / end_to_end(untraced)["cpu_us_per_req"],
    }
    return metrics

"""E18 drivers: the same workload over the sim backend and the real wire.

The simulator certifies protocol *logic*; E18 certifies that the deployable
artifact carries the same protocol over TCP and measures what reality
costs. Both drivers run the identical ordered echo workload (sequential
``add(i, 1000)`` invocations against an f=1 calculator domain behind the
Group Manager) and report request throughput and latency:

* **sim** — one in-process world; latency is simulated seconds per
  request, throughput is how fast the host executes the simulation;
* **wire** — 9 OS processes (4 GM + 4 replicas + 1 client) over loopback
  TCP via :class:`~repro.net.launcher.ClusterLauncher`; latency is real
  seconds per voted reply, measured at the client stub.
"""

from __future__ import annotations

import os
import socket
import tempfile
import time

from repro.net.config import TopologyConfig
from repro.net.launcher import ClusterLauncher


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


#: Where :func:`pick_base_port` draws from: above the privileged and
#: well-known service ports, within the 16-bit port space.
PORT_FLOOR = 20000
PORT_CEILING = 65535
#: The kernel's ephemeral range when it cannot be read: Linux's default
#: (32768-60999) joined with the IANA dynamic range (49152-65535).
DEFAULT_EPHEMERAL_RANGE = (32768, 65535)


def ephemeral_port_range() -> tuple[int, int]:
    """The inclusive range the kernel assigns outbound connections from."""
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range", encoding="ascii") as handle:
            low, high = (int(field) for field in handle.read().split())
        return low, high
    except (OSError, ValueError):
        return DEFAULT_EPHEMERAL_RANGE


def pick_base_port(count: int, attempts: int = 64) -> int:
    """A base port with ``count`` consecutive free TCP ports above it.

    The range never overlaps the kernel's ephemeral range: a node's
    outbound dial takes its local port from there, and could otherwise
    take a port of the range before the node meant to listen on it binds.
    Raciness with other programs remains (another process can grab a port
    between probe and bind); the launcher surfaces that as a node failing
    to come ready, and callers retry with a fresh range.
    """
    import random

    low, high = ephemeral_port_range()
    # Candidate bases below the ephemeral range, then above it.
    bases = [
        *range(PORT_FLOOR, min(low, PORT_CEILING + 1) - count + 1),
        *range(max(high + 1, PORT_FLOOR), PORT_CEILING + 1 - count + 1),
    ]
    if not bases:
        raise RuntimeError(
            f"no range of {count} ports outside the ephemeral range {low}-{high}"
        )
    rng = random.Random(os.getpid() ^ int(time.time() * 1000))
    for _ in range(attempts):
        base = rng.choice(bases)
        sockets = []
        try:
            for offset in range(count):
                probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                probe.bind(("127.0.0.1", base + offset))
                sockets.append(probe)
            return base
        except OSError:
            continue
        finally:
            for probe in sockets:
                probe.close()
    raise RuntimeError(f"no free range of {count} loopback ports found")


def run_sim_benchmark(requests: int = 40, seed: int = 7) -> dict:
    """The E18 workload on the discrete-event backend."""
    from repro.workloads.scenarios import build_calc_system

    system = build_calc_system(f=1, seed=seed)
    client = system.add_client("client-0")
    stub = client.stub(system.ref("calc", b"calc"))
    system.settle(1.0)  # GM coin bootstrap off the measured path
    sim_latencies: list[float] = []
    started_wall = time.perf_counter()
    for index in range(requests):
        started_sim = system.network.now
        result = stub.add(float(index), 1000.0)
        assert result == float(index) + 1000.0
        sim_latencies.append(system.network.now - started_sim)
    elapsed = time.perf_counter() - started_wall
    return {
        "backend": "sim",
        "requests": requests,
        "completed": requests,
        "wall_seconds": elapsed,
        "requests_per_second": requests / elapsed if elapsed > 0 else 0.0,
        "latency_p50": percentile(sim_latencies, 0.50),
        "latency_p99": percentile(sim_latencies, 0.99),
        "latency_unit": "simulated seconds",
        "messages_sent": system.network.stats.messages_sent,
        "bytes_sent": system.network.stats.bytes_sent,
    }


def run_wire_benchmark(
    requests: int = 40,
    seed: int = 7,
    base_port: int | None = None,
    work_dir: str | None = None,
    telemetry: bool = False,
    keep_dir: bool = False,
    shards: int = 1,
) -> dict:
    """The E18 workload on a real 9-process loopback cluster.

    ``shards > 1`` switches to the sharded kv topology (E20): one
    replication domain per shard, the client routing every key to its home
    shard — 4 more processes per extra shard.
    """
    config = TopologyConfig(
        seed=seed,
        requests=requests,
        telemetry=telemetry,
        workload="kv" if shards > 1 else "calc",
        domain="kv" if shards > 1 else "calc",
        shards=shards,
    )
    config.base_port = (
        base_port if base_port is not None else pick_base_port(len(config.node_ids()))
    )
    owns_dir = work_dir is None
    if owns_dir:
        work_dir = tempfile.mkdtemp(prefix="repro-net-bench-")
    started_wall = time.perf_counter()
    with ClusterLauncher(config, work_dir) as cluster:
        cluster.start_servers()
        barrier_seconds = time.perf_counter() - started_wall
        report = cluster.run_client()
        codes = cluster.shutdown()
        stats = {
            pid: cluster.stats_of(pid)
            for pid in (*config.gm_ids, *config.element_ids)
        }
    elapsed = time.perf_counter() - started_wall
    latencies = report["latencies"]
    busy = sum(latencies)
    frames = sum(
        (s or {}).get("transport", {}).get("frames_sent", 0)
        for s in stats.values()
    )
    wire_bytes = sum(
        (s or {}).get("transport", {}).get("bytes_sent", 0)
        for s in stats.values()
    )
    result = {
        "backend": "wire",
        "shards": shards,
        "processes": len(config.node_ids()),
        "requests": report["requests"],
        "completed": report["completed"],
        "okay": report["okay"],
        "errors": report["errors"],
        "wall_seconds": elapsed,
        "barrier_seconds": barrier_seconds,
        "requests_per_second": (
            report["completed"] / busy if busy > 0 else 0.0
        ),
        "latency_p50": percentile(latencies, 0.50),
        "latency_p99": percentile(latencies, 0.99),
        "latency_unit": "real seconds",
        "frames_sent": frames,
        "bytes_sent": wire_bytes,
        "server_exit_codes": {
            pid: code for pid, code in codes.items() if code != 0
        },
        "work_dir": work_dir if (keep_dir or not owns_dir) else None,
    }
    if owns_dir and not keep_dir:
        import shutil

        shutil.rmtree(work_dir, ignore_errors=True)
    return result


def run_comparison(requests: int = 40, seed: int = 7, **wire_kwargs) -> dict:
    """Sim and wire back to back — the BENCH_E18.json payload."""
    sim = run_sim_benchmark(requests=requests, seed=seed)
    wire = run_wire_benchmark(requests=requests, seed=seed, **wire_kwargs)
    return {
        "experiment": "E18",
        "title": "sim vs real-wire execution backend",
        "workload": f"{requests} sequential voted add() invocations, f=1",
        "sim": sim,
        "wire": wire,
    }

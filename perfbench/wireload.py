"""The wire workload: the shipped 9-process loopback cluster over real TCP.

4 Group Manager elements, 4 calculator replicas and 1 client session,
each its own OS process started through
:class:`~repro.net.launcher.ClusterLauncher` at topology defaults. The
client is the shipped ``repro serve`` closed loop (one outstanding ordered
``add`` at a time); ``node.py`` wraps every process to mark the measured
window and, on a traced pass, to time its layers.

Failures are loud: a cluster that fails to boot (the ``pick_base_port``
race) is retried on a fresh port range and the retry is recorded; a node
exiting nonzero, a delivery error, a timeout or a wrong voted value each
count as failed operations.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time

from ledger import COUNTERS, Session, add_layers, layer_delta
from repro.net.bench import pick_base_port
from repro.net.config import TopologyConfig
from repro.net.launcher import ClusterLauncher

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space for topology files and node logs, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Seed of the deployment itself (key material); the workload seed only
#: changes the generated operands.
SYSTEM_SEED = 7
OPERAND_LIMIT = 1 << 20
#: Request rate assumed for a session before any has been measured.
FIRST_RATE_RPS = 100.0
BOOT_ATTEMPTS = 3


class ProbedLauncher(ClusterLauncher):
    """Starts every node through ``node.py`` instead of ``-m repro``."""

    def __init__(self, config, work_dir: str, trace: bool, inputs_path: str) -> None:
        super().__init__(config, work_dir)
        self.trace = trace
        self.inputs_path = inputs_path

    def spawn(self, node_id: str, rejoin: bool = False) -> subprocess.Popen:
        argv = [sys.executable, os.path.join(HERE, "node.py"), "--trace", str(int(self.trace))]
        if node_id in self.config.clients:
            argv += ["--inputs", self.inputs_path]
        argv += ["--", "--config", self.topology_path, "--node", node_id, "--out", self.out_dir]
        log = open(  # noqa: SIM115 - closed by shutdown()
            os.path.join(self.out_dir, f"{node_id}.log"), "ab"
        )
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env)
        proc._repro_log = log  # type: ignore[attr-defined]
        self.procs[node_id] = proc
        return proc


def _read_json(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def run_session(
    rng: random.Random, seconds: float, trace: bool = False, rate: float | None = None
) -> Session:
    """Boot a cluster, run one client session sized to ``seconds``, tear down."""
    session = Session(backend="wire")
    requests = 1 + max(20, round((rate or FIRST_RATE_RPS) * seconds))
    inputs = [
        [float(rng.randrange(OPERAND_LIMIT)), float(rng.randrange(OPERAND_LIMIT))]
        for _ in range(requests)
    ]
    session.attempted = requests
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="session-", dir=WORK_ROOT)
    try:
        inputs_path = os.path.join(work_dir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as handle:
            json.dump(inputs, handle)
        _run_cluster(session, work_dir, inputs_path, requests, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return session


def _run_cluster(session, work_dir, inputs_path, requests, seconds, trace) -> None:
    for attempt in range(1, BOOT_ATTEMPTS + 1):
        config = TopologyConfig(seed=SYSTEM_SEED, requests=requests)
        config.base_port = pick_base_port(len(config.node_ids()))
        cluster_dir = os.path.join(work_dir, f"attempt-{attempt}")
        started = time.monotonic()
        launcher = ProbedLauncher(config, cluster_dir, trace, inputs_path)
        try:
            try:
                launcher.start_servers()
            except (RuntimeError, TimeoutError) as exc:
                # The survivors wait in the cluster barrier, deaf to SIGTERM
                # until it times out: kill them so the retry starts at once.
                for node_id in list(launcher.procs):
                    launcher.kill(node_id)
                session.notes.append(f"boot retry {attempt}: ...{str(exc)[-200:]}")
                continue
            try:
                report = launcher.run_client(timeout=seconds + 120.0)
            except (RuntimeError, TimeoutError) as exc:
                report = None
                session.notes.append(f"client failed: {exc}")
        finally:
            codes = launcher.shutdown()
        _collect(session, launcher, config, report, codes, started)
        return
    session.failed = requests
    session.notes.append(f"cluster did not boot in {BOOT_ATTEMPTS} attempts")


def _collect(session, launcher, config, report, codes, started) -> None:
    requests = session.attempted
    if report is None:
        session.failed += requests
        return
    session.failed += requests - report["okay"]
    session.notes.extend(report["errors"][:10])
    for node_id, code in codes.items():
        if code != 0:
            session.failed += 1
            session.notes.append(f"{node_id} exited with code {code}")
    benches = {}
    for node_id in config.node_ids():
        stats = launcher.stats_of(node_id) or {}
        errors = stats.get("world", {}).get("delivery_errors", 0)
        if errors:
            session.failed += errors
            session.notes.append(f"{node_id}: {errors} delivery errors")
        bench = _read_json(os.path.join(launcher.out_dir, f"{node_id}.bench.json"))
        if bench is None or not {"start", "end"} <= set(bench["marks"]):
            session.failed += 1
            session.notes.append(f"{node_id}: measured window not marked")
            continue
        benches[node_id] = bench
    if len(benches) != len(config.node_ids()):
        return
    client = benches[config.clients[0]]["marks"]
    session.setup_s = client["start"]["wall"] - started
    session.wall_s = client["end"]["wall"] - client["start"]["wall"]
    session.latencies_s = report["latencies"][1:]
    counters = dict.fromkeys(COUNTERS, 0)
    for bench in benches.values():
        start, end = bench["marks"]["start"], bench["marks"]["end"]
        session.cpu_ns += end["cpu_ns"] - start["cpu_ns"]
        for key in COUNTERS:
            delta = end["counters"][key] - start["counters"][key]
            # Every replica executes every ordered request once.
            counters[key] = max(counters[key], delta) if key == "ordered" else counters[key] + delta
        if start["layers"] is not None:
            delta = layer_delta(start["layers"], end["layers"])
            session.layers = add_layers(session.layers or {}, delta)
    session.counters = counters
    if session.layers is not None:
        reached_nowhere = set.intersection(*(set(b["unreached"]) for b in benches.values()))
        session.unreached = sorted(reached_nowhere)

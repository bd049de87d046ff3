"""One wire node with the benchmark's probes, then ``repro serve`` as shipped.

    python3 perfbench/node.py --trace 0|1 [--inputs PATH] -- --config T --node ID --out DIR

With ``--trace 1`` the layer wrappers are installed before anything is
built; either way the node then runs :func:`repro.net.node.main`
unchanged. SIGUSR1 and SIGUSR2 mark the start and the end of the measured
window. At exit the node writes ``<out>/<node>.bench.json`` with its
process CPU time, layer totals and protocol counters at both marks.

The client session (``--inputs``) sends the marks itself: the start just
before its second request (the first carries the Figure 3 handshake), the
end after its last voted reply. It draws its ``add`` operands from the
generated inputs instead of its built-in sequence; the shipped client loop
still checks every voted result against the expected sum.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

import layers


class Probe:
    """Window marks of one node process."""

    def __init__(self, tracer: layers.Tracer | None) -> None:
        self.tracer = tracer
        self.harness = None
        self.marks: dict[str, dict] = {}

    def counters(self) -> dict[str, int]:
        harness = self.harness
        element = harness.element
        replica = harness.role == "replica"
        connections = getattr(getattr(element, "endpoint", None), "connections", {})
        return {
            "messages": harness.world.stats.messages_sent,
            "events": 0,
            "frames": harness.transport.stats["frames_sent"],
            "bytes": harness.transport.stats["bytes_sent"],
            "preprepares": element.messages_sent.get("PrePrepareMsg", 0) if replica else 0,
            "ordered": len(element.executions) if replica else 0,
            "reads": sum(c.reads_sent for c in connections.values()),
            "read_hits": sum(c.read_fastpath_hits for c in connections.values()),
        }

    def mark(self, name: str) -> None:
        if self.harness is None or self.harness.world is None:
            return  # signalled before the node was built: no window
        self.marks[name] = {
            "cpu_ns": time.process_time_ns(),
            "wall": time.monotonic(),
            "layers": self.tracer.snapshot() if self.tracer else None,
            "counters": self.counters(),
        }

    def signal_servers(self, signum: int) -> None:
        harness = self.harness
        config = harness.config
        for node_id in (*config.gm_ids, *config.element_ids, *config.read_only_ids):
            path = os.path.join(harness.out_dir, f"{node_id}.ready")
            with open(path, encoding="utf-8") as handle:
                os.kill(int(handle.read()), signum)

    def write(self, out_dir: str, node_id: str, role: str) -> None:
        payload = {
            "node": node_id,
            "role": role,
            "marks": self.marks,
            "unreached": self.tracer.unreached() if self.tracer else [],
        }
        path = os.path.join(out_dir, f"{node_id}.bench.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def hook_client(NodeHarness, probe: Probe, inputs: list[list[float]]) -> None:
    """Generated operands and window marks for the shipped client loop."""
    run_workload = NodeHarness._run_workload

    def request_plan(self, index: int, written: int):
        if index == 1:
            probe.signal_servers(signal.SIGUSR1)
            probe.mark("start")
        a, b = inputs[index]
        return "add", (a, b), a + b

    async def measured_workload(self):
        report = await run_workload(self)
        probe.mark("end")
        probe.signal_servers(signal.SIGUSR2)
        return report

    NodeHarness._request_plan = request_plan
    NodeHarness._run_workload = measured_workload


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, serve_argv = argv[:split], argv[split + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs")
    args = parser.parse_args(own)
    serve = argparse.ArgumentParser(add_help=False)
    serve.add_argument("--node", required=True)
    serve.add_argument("--out", required=True)
    where, _ = serve.parse_known_args(serve_argv)

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    from repro.net import node as net_node

    probe = Probe(tracer)
    build = net_node.NodeHarness._build

    def build_probed(self, loop):
        build(self, loop)
        probe.harness = self

    net_node.NodeHarness._build = build_probed
    if args.inputs:
        with open(args.inputs, encoding="utf-8") as handle:
            hook_client(net_node.NodeHarness, probe, json.load(handle))
    else:
        signal.signal(signal.SIGUSR1, lambda *_: probe.mark("start"))
        signal.signal(signal.SIGUSR2, lambda *_: probe.mark("end"))
    code = net_node.main(serve_argv)
    role = probe.harness.role if probe.harness is not None else "unbuilt"
    probe.write(where.out, where.node, role)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

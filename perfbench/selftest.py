"""Self-test of the benchmark's tracing: it is inert and it is complete.

    python3 perfbench/selftest.py

Runs each simulator workload for a fixed number of requests per client,
first untraced and then with the layer wrappers installed, on the same
seed. Tracing must leave the voted results, their simulated latencies,
``bft.msgs_per_req`` and ``sim.events_per_req`` identical. Every wrapped entry point outside
``repro.net`` must be reached by one of the two simulator workloads, and a
short traced wire session must reach every ``repro.net`` entry point; an
entry point no workload reaches is a wrapper the program bypasses. Exits 1
on any violation.
"""

from __future__ import annotations

import random
import sys

from run import SRC

REQUESTS_PER_CLIENT = 12
SEED = 5


def main() -> int:
    sys.path.insert(0, str(SRC))
    import layers
    import simload
    import wireload

    workloads = list(simload.WORKLOADS)
    plain = {
        w: simload.run_session(w, random.Random(SEED), 0, requests_per_client=REQUESTS_PER_CLIENT)
        for w in workloads
    }
    tracer = layers.Tracer()
    layers.install(tracer)
    traced = {
        w: simload.run_session(
            w, random.Random(SEED), 0, tracer=tracer, requests_per_client=REQUESTS_PER_CLIENT
        )
        for w in workloads
    }
    problems = []
    for w in workloads:
        a, b = plain[w], traced[w]
        if a.failed or b.failed:
            problems.append(f"{w}: failed requests {a.failed} untraced, {b.failed} traced")
        if a.results != b.results:
            problems.append(f"{w}: tracing changed the voted results")
        if a.model_latencies_s != b.model_latencies_s:
            problems.append(f"{w}: tracing changed the simulated latencies")
        for key, metric in (("messages", "bft.msgs_per_req"), ("events", "sim.events_per_req")):
            if a.counters[key] != b.counters[key]:
                problems.append(
                    f"{w}: tracing changed {metric}: "
                    f"{a.counters[key]} != {b.counters[key]} over {a.completed} requests"
                )
    for target in tracer.unreached():
        if target not in layers.WIRE_ONLY:
            problems.append(f"no simulator workload reached {target}")
    wire = wireload.run_session(random.Random(SEED), 1.0, trace=True)
    if wire.failed:
        problems.append(f"wire session failed: {wire.notes}")
    for target in wire.unreached:
        if target in layers.WIRE_ONLY:
            problems.append(f"the wire workload never reached {target}")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(f"selftest: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

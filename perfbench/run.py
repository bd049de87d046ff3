"""ITDOS performance ledger: wall-clock and CPU cost of a voted request.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all closed loops; see BENCHMARK.json for why each is here):

* ``wire-ordered-1c``: the 9-process loopback cluster (4 GM elements,
  4 replicas, 1 client session) over real TCP, ordered ``calc.add``;
* ``sim-ordered-8c``: the simulator, 8 clients, ordered ``calc.add``;
* ``sim-readmix-2c``: the simulator with the read fast path and one
  read-tier element, 2 clients at 90/10 ``get``/``put``.

With ``--trace 0`` the run sets the system up six times, measures
``S/6`` seconds after each set-up and prints the end-to-end metrics of
the six sessions combined as ``ledger.end_to_end`` describes. With
``--trace 1`` it measures one untraced and one traced session of ``S/2``
seconds each and prints the per-layer metrics (see ``layers.py``). Every
voted result is checked against the generated inputs. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (units from ``BENCHMARK.json``); the line before it names
the backend and clock of every metric and details each session. The run
exits 2 when the program's sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("wire-ordered-1c", "sim-ordered-8c", "sim-readmix-2c")
SESSIONS = 6

CLOCKS = {
    "throughput_rps": "wall",
    "latency_p50_ms": "wall",
    "latency_p95_ms": "wall",
    "cpu_us_per_req": "cpu",
    "setup_s": "wall",
}


def clock_of(name: str) -> str:
    """The clock a metric is read from; counts and ratios have none."""
    if name in CLOCKS:
        return CLOCKS[name]
    if name.endswith("us_per_req"):
        return "thread-cpu"
    return "simulated" if name == "sim.model_latency_p50_ms" else "none"


def _run(workload: str, seed: int, seconds: float, trace: bool):
    import layers
    import ledger

    if workload.startswith("wire-"):
        import wireload

        def session(rng, length, tracer=None, estimate=None):
            return wireload.run_session(rng, length, trace=tracer is not None, rate=estimate)
    else:
        import simload

        def session(rng, length, tracer=None, estimate=None):
            return simload.run_session(workload, rng, length, tracer=tracer)

    rng = random.Random(seed)
    if not trace:
        sessions = []
        for _ in range(SESSIONS):
            sessions.append(session(rng, seconds / SESSIONS, estimate=_rate(sessions)))
        return sessions, ledger.end_to_end(sessions)
    untraced = [session(rng, seconds / 2)]
    tracer = layers.Tracer()
    if workload.startswith("sim-"):
        layers.install(tracer)
    traced = [session(rng, seconds / 2, tracer=tracer, estimate=_rate(untraced))]
    return untraced + traced, ledger.per_layer(traced, untraced)


def _rate(sessions) -> float | None:
    completed = sum(s.completed for s in sessions)
    wall = sum(s.wall_s for s in sessions)
    return completed / wall if completed and wall > 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ledger

    # Unwind on SIGTERM too, so a wire session's cluster is shut down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    sessions, metrics = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    backend = "wire" if args.workload.startswith("wire-") else "sim"
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    detail = {
        "workload": args.workload,
        "backend": backend,
        "sessions": [
            {
                "window_s": s.wall_s,
                "completed": s.completed,
                "failed": s.failed,
                "metrics": ledger.session_metrics(s) if s.completed else None,
                "notes": s.notes[:10],
                "unreached": s.unreached,
            }
            for s in sessions
        ],
        "metrics": {name: {"backend": backend, "clock": clock_of(name)} for name in metrics},
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One round of one workload in a fresh process.

Usage (from the repository root, with src on PYTHONPATH):
    python3 perfbench/worker.py WORKLOAD SEED ROUND LAUNCH TRACE [SPANS]

LAUNCH is the parent's time.monotonic() just before it started this
process (the clock is shared by all processes on Linux), so set-up runs
from process launch until maxclass is imported and the presets are
built.  Prints one JSON object.
"""
import random
import sys
import time
from fractions import Fraction

import oracle


def host_seconds() -> float:
    """Time of a fixed piece of the oracle's own work: a Fraction rank and
    an l1 differential, the kinds of work the workloads do.  The oracle
    does not change with maxclass, so this times the host's speed."""
    rng = random.Random(0)
    rows = [[rng.randint(-9, 9) for _ in range(32)] for _ in range(32)]
    cochain = {m: Fraction(rng.randint(1, 5)) for m in oracle.monomials(4, 40)}
    start = time.perf_counter()
    oracle.fraction_rank(rows)
    oracle.differential("l1", cochain)
    return time.perf_counter() - start


def main() -> int:
    workload, seed, round_no, launch, trace = sys.argv[1:6]
    import maxclass
    import workloads

    algebras = workloads.presets()
    setup_s = time.monotonic() - float(launch)

    import json
    import resource

    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    run, check = workloads.WORKLOADS[workload]
    calls = workloads.Calls()
    host_before = host_seconds()
    outputs = run(algebras, random.Random(f"{workload}:{seed}:{round_no}"), calls)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    host_after = host_seconds()
    failed, problems = check(outputs)
    result = {
        "setup_s": setup_s,
        "wall_s": sum(calls.seconds),
        "slowest_call_s": max(calls.seconds),
        "peak_rss_mb": peak_kb / 1024,
        "host_s": (host_before + host_after) / 2,
        "attempted": len(calls.seconds),
        "failed": failed,
        "problems": problems[:20],
        "backend": maxclass.BACKEND,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if len(sys.argv) > 6:
            tracer.write_spans(sys.argv[6])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for maxclass: Betti tables over Q and F_p, class extraction,
and a per-layer trace.

Usage, from the repository root:
    python3 perfbench/run.py --workload betti-qq --seed 1 --seconds 36 --trace 0

A run repeats whole rounds of the workload until --seconds have passed.
Each round is a fresh single-threaded worker process (perfbench/worker.py),
because a command-line user pays for cold caches on every invocation;
rounds run one after another.  A shared host changes speed for minutes
at a time, so each round also times a fixed piece of the oracle's work
before and after its calls (host_s), and every time of the round is
scaled by HOST_REFERENCE_S / host_s: seconds at the reference machine's
speed.  Every metric is the mean over the rounds that measure it.
With --trace 0 no wrapper is installed and the rounds give the
end-to-end metrics.  With --trace 1 the rounds alternate untraced and
traced; the traced rounds give the per-layer metrics, and
trace.overhead_s is the mean traced wall time minus the mean untraced
one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record, with the
environment and every round, is written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("betti-qq", "betti-fp", "classes-qq")
END_TO_END = {"setup_s": "s", "wall_s": "s", "slowest_call_s": "s", "peak_rss_mb": "MB"}
ROUND_TIMEOUT_S = 150
# a typical host_s on the machine described in perfbench/README.md; it only
# fixes the speed that reported times refer to
HOST_REFERENCE_S = 0.13


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_cell"):
        return "ratio"
    return "count"


def run_round(workload, seed, round_no, trace, spans_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(round_no)]
    launch = time.monotonic()
    proc = subprocess.run(argv + [repr(launch), str(trace)] + ([str(spans_path)] if trace else []),
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round {round_no} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_reference_speed(result: dict) -> None:
    """Scale every time of a round by HOST_REFERENCE_S / host_s, in place."""
    factor = HOST_REFERENCE_S / result["host_s"]
    for name in ("setup_s", "wall_s", "slowest_call_s"):
        result[name] *= factor
    for name in result.get("layers", {}):
        if name.endswith("_s"):
            result["layers"][name] *= factor


def src_lines() -> int:
    """Lines of source under src/, leaving out the generated _gauss.c."""
    total = 0
    for path in SRC.rglob("*"):
        if path.suffix in (".py", ".pyx", ".pxd", ".c", ".h") and path.name != "_gauss.c" \
                and "__pycache__" not in path.parts:
            total += len(path.read_text().splitlines())
    return total


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(backend) -> dict:
    return {"python": platform.python_version(), "backend": backend,
            "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "src_lines": src_lines()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "maxclass" / "__init__.py").is_file():
        print(f"no maxclass sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    rounds = []
    start = time.monotonic()
    while True:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        try:
            result = run_round(args.workload, args.seed, len(rounds), int(traced), spans_path)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            print(f"{args.workload}: {exc}", file=sys.stderr)
            return 1
        result["traced"] = traced
        at_reference_speed(result)
        rounds.append(result)
        if time.monotonic() - start >= args.seconds and len(rounds) >= 1 + args.trace:
            break

    if args.trace:
        plain = [r for r in rounds if not r["traced"]]
        traced = [r for r in rounds if r["traced"]]
        values = {name: statistics.fmean(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.fmean(r["wall_s"] for r in traced)
                                      - statistics.fmean(r["wall_s"] for r in plain))
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        metrics = {name: {"value": statistics.fmean(r[name] for r in rounds), "unit": unit}
                   for name, unit in END_TO_END.items()}
    problems = [p for r in rounds for p in r["problems"]]
    summary = {"correct": not problems,
               "attempted": sum(r["attempted"] for r in rounds),
               "failed": sum(r["failed"] for r in rounds),
               "metrics": metrics}

    env = environment(rounds[0]["backend"])
    record = {"args": vars(args), "environment": env, "rounds": rounds, **summary}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems[:20]:
        print(f"WRONG: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{summary['attempted']} operations, {summary['failed']} failed")
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

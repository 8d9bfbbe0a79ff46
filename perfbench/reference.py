"""Reference figures that stay out of the gated metrics.

Usage, from the repository root:
    python3 perfbench/reference.py

Prints, and writes to perfbench/out/reference.json:
- the wall time of each `maxclass verify <suite>` at its defaults, each
  in a fresh process, with its exit code;
- the wall time of the Tier-1 test command;
- reach: the largest weight k for which every l1 cell with q <= 3 and
  weight <= k is certified over Q (b^q_k against Goncharova's
  pentagonal weights) within 60 s, in a fresh process.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITES = ("euler", "goncharova", "gf", "dixmier", "laplacian", "bordemann",
          "fibonacci", "charp")
REACH_BUDGET_S = 60.0

REACH = """
import sys, time
start = time.monotonic()
from maxclass import preset, betti
budget = float(sys.argv[1])
l1 = preset("l1")
reach = -1
for k in range(0, 10 ** 6):
    for q in range(1, 4):
        want = 1 if k in ((3 * q * q - q) // 2, (3 * q * q + q) // 2) else 0
        if betti(l1, q, k) != want:
            print("wrong at", q, k)
            sys.exit(1)
    if time.monotonic() - start > budget:
        break
    reach = k
print(reach)
"""


def timed(argv, env):
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    return time.monotonic() - start, proc


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    out = {"verify": {}}
    for suite in SUITES:
        seconds, proc = timed([sys.executable, "-m", "maxclass.cli", "verify", suite], env)
        out["verify"][suite] = {"seconds": round(seconds, 2), "exit": proc.returncode}
        print(f"verify {suite:11s} {seconds:7.2f} s  exit {proc.returncode}", flush=True)
    seconds, proc = timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], env)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    out["tier1"] = {"seconds": round(seconds, 2), "summary": summary}
    print(f"tier-1 {seconds:7.2f} s  {summary}", flush=True)
    seconds, proc = timed([sys.executable, "-c", REACH, str(REACH_BUDGET_S)], env)
    out["reach"] = {"budget_s": REACH_BUDGET_S, "l1_kmax_q3": int(proc.stdout.split()[-1])
                    if proc.returncode == 0 else None, "seconds": round(seconds, 2)}
    print(f"reach  l1 q<=3 over Q in {REACH_BUDGET_S:g} s: k = {out['reach']['l1_kmax_q3']}")
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    (ROOT / "perfbench" / "out" / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Median seconds that each dependency adds to ``import twostep_cbo``.

    python3 tools/import_cost.py [-n 10] [STEP ...]

Each of N fresh interpreters imports the steps in order and times each one,
so a step is charged only for the modules that no earlier step loaded. A
step is a module or a comma-separated group of modules. The default steps
are numpy, scipy, and then the package itself, which is charged for
whatever it loads beyond them: of scipy.optimize, scipy.linalg and
scipy.special it loads only the compiled modules it calls (L-BFGS-B, SLSQP,
LAPACK and the special ufuncs; _scipy_routines), not the packages, on any
code path: its inverse normal CDF is its own. The package is imported from
``src/`` of this repository, with BLAS pinned to one thread as
``perfbench/run.py`` pins it. The table gives each step's median
and quartiles over the N interpreters, then the total, and lists the scipy
subpackages whose own package was imported once every step has run; a
module loaded from its file alone does not list its package.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_STEPS = ("numpy", "scipy", "twostep_cbo")

CHILD = """
import importlib, sys, time
times = []
for step in sys.argv[1:]:
    start = time.perf_counter()
    for name in step.split(","):
        importlib.import_module(name)
    times.append(time.perf_counter() - start)
names = [m.split(".") for m in sys.modules]
scipy_subpackages = sorted(n[1] for n in names if len(n) == 2 and n[0] == "scipy" and n[1][0] != "_")
import json  # after the steps, which may time it
print(json.dumps({"times": times, "scipy": scipy_subpackages}))
"""


def measure(steps: list[str], runs: int) -> tuple[list[list[float]], list[str]]:
    """Per-step times of each fresh interpreter, and the scipy subpackages
    the last one had imported."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    samples, loaded = [], []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", CHILD, *steps], env=env, capture_output=True, text=True, check=True
        )
        record = json.loads(out.stdout)
        samples.append(record["times"])
        loaded = record["scipy"]
    return samples, loaded


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-n", "--runs", type=int, default=10, help="fresh interpreters (default 10)")
    ap.add_argument("steps", nargs="*", default=list(DEFAULT_STEPS), metavar="STEP")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    samples, loaded = measure(args.steps, args.runs)
    rows = [(step, [run[i] for run in samples]) for i, step in enumerate(args.steps)]
    rows.append(("total", [sum(run) for run in samples]))
    width = max(len(name) for name, _ in rows)
    print(f"{'step':<{width}}  median_s     q1_s     q3_s   (n = {args.runs})")
    for name, times in rows:
        q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(f"{name:<{width}}  {statistics.median(times):8.3f} {q1:8.3f} {q3:8.3f}")
    print("scipy subpackages loaded:", ", ".join(loaded) or "none")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

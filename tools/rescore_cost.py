"""Time and peak memory of a default-size re-score, one fresh process per bundle.

    python3 tools/rescore_cost.py [--workload acq_p3_q2 ...] [--samples N]
    python3 tools/rescore_cost.py --optimize [--workload ...]

The re-score is what ``lookahead.optimize`` runs last: ``estimate_value`` on
3 stacked batches, all on one seed, with ``n_final_value_samples`` fantasies
each (``--samples`` overrides it) at the default ``TwoStepConfig``. The
batches are three seeded Latin-hypercube batches of the workload's q. With
``--optimize`` the process runs default-config ``optimize`` instead and also
prints its batch and value in full, so two trees can be compared bit for bit.

Each workload's bundle is the one ``perfbench/workloads.py`` builds, and each
runs in a fresh interpreter with BLAS pinned to one thread, so the peak
resident memory (``ru_maxrss``) is that of one operation. The process's CPU
time and wall time are taken around the operation alone; ``rss_before_mb`` is
the peak before it started.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLES = ("acq_p1_q1", "acq_p3_q2")
SEED = 1  # of the batches, the fantasies and optimize

CHILD = """
import json, resource, sys, time
import numpy as np
import workloads
from twostep_cbo import lookahead
from twostep_cbo.sampling import latin_hypercube

name, seed, samples = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
run_optimize = sys.argv[4] == "1"
state = workloads.WORKLOADS[name].build()
bundle, bounds, q = state["bundle"], state["problem"].bounds, state["q"]
config = lookahead.TwoStepConfig()
samples = samples or config.n_final_value_samples
d = bounds.shape[0]
X = latin_hypercube(3 * q, bounds, np.random.SeedSequence((seed, 7))).reshape(3, q, d)
seeds = [np.random.SeedSequence((seed, 29))] * 3
rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
cpu, wall = time.process_time(), time.perf_counter()
if run_optimize:
    result = lookahead.optimize(bundle, bounds, q, config, seed)
    out = {"batch": result.batch.points.tolist(), "value": repr(float(result.value)),
           "se": repr(float(result.se))}
else:
    values, ses = lookahead.estimate_value(bundle, X, bounds, config, seeds, samples)
    out = {"values": [repr(float(v)) for v in values], "ses": [repr(float(s)) for s in ses]}
out.update(
    workload=name,
    cpu_s=round(time.process_time() - cpu, 2),
    wall_s=round(time.perf_counter() - wall, 2),
    rss_before_mb=round(rss_before, 1),
    peak_rss_mb=round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
)
print(json.dumps(out))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=BUNDLES, help="default: both")
    ap.add_argument("--samples", type=int, default=0, help="default: n_final_value_samples")
    ap.add_argument("--optimize", action="store_true", help="run default-config optimize instead")
    return ap.parse_args(argv)


def measure(workload: str, samples: int, run_optimize: bool) -> dict:
    """One operation in a fresh interpreter; its JSON line as a dict. samples
    0 takes the default config's n_final_value_samples."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    args = [workload, str(SEED), str(samples), "1" if run_optimize else "0"]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    for workload in args.workload or BUNDLES:
        print(json.dumps(measure(workload, args.samples, args.optimize)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

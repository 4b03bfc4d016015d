"""Run-to-run spread of the end-to-end metrics, as the acceptance check computes it.

    python3 perfbench/spread.py --workload acq_p1_q1 [--out FILE]

Runs the benchmark once per seed 1-10, one run at a time, and prints each run's
metrics and wall time (``run_s``). Then, for each end-to-end metric of
BENCHMARK.json, it prints the median and quartiles of the values
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound. The
per-run results and the summary go to ``--out`` (default
``perfbench/out/spread-<workload>.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = args.out or HERE / "out" / f"spread-{args.workload}.json"

    runs = []
    for seed in SEEDS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        run_s = time.perf_counter() - t0
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            return 1
        runs.append({"seed": seed, "run_s": run_s,
                     **{k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.6g}" for k, v in runs[-1].items() if k != "seed"),
              flush=True)

    summary = {}
    for metric in manifest["end_to_end"]:
        name, bound = metric["name"], metric.get("bound")
        s = summarize([r[name] for r in runs])
        summary[name] = {**s, "bound": bound}
        flag = "" if s["spread"] < bound / 3 else "  (above a third of the bound)"
        print(f"{name:14s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
              f"spread={s['spread']:.4f} bound={bound}{flag}")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary},
                              indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired benchmark runs of a parent and a change revision, written to one JSON record.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --pairs acq_p3_q2=1-10 --pairs acq_p1_q1=1-4 --out BENCH_6.json

Each revision is extracted with ``git archive`` into a directory of its own,
so a run sees only committed files and each side runs the benchmark code of
its own tree. For every listed workload and seed the collector
runs ``perfbench/run.py --trace 0`` once on each side for the
``run_seconds`` that ``BENCHMARK.json`` sets, one pair after the other; the
side that runs first alternates from pair to pair, so a drift of the host's
speed does not favour either side. The record holds both git
revisions, the command, and for every run its environment line, its summary
line (the last line ``perfbench/run.py`` prints) and its exit code, plus, per
workload and metric, the medians, the quartiles and the pairs the change
won, the parent's interquartile spread, and the largest relative change of
``answer_value`` within a pair (0.0 when every answer is bit-identical). A
claimed gain can be read from the record: the change wins at least nine of
ten pairs, and the medians differ by more than the parent's spread, in the
direction the change won. ``gain_shown`` applies that rule.

The runs are sequential, one process at a time; BLAS threads are pinned by
``perfbench/run.py`` itself.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """'1-4' -> [1, 2, 3, 4]; '1,3,5' -> [1, 3, 5]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument(
        "--pairs",
        action="append",
        required=True,
        metavar="WORKLOAD=SEEDS",
        help="a workload and its seeds, e.g. acq_p3_q2=1-10; repeat for more workloads",
    )
    ap.add_argument("--out", required=True, help="JSON record to write")
    return ap.parse_args(argv)


def extract(rev: str, dest: Path) -> str:
    """Write the committed tree of rev into dest; return its full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def run_args(workload, seed, seconds) -> list[str]:
    return ["--workload", str(workload), "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", *run_args(workload, seed, seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        summary = None
    return {"exit": proc.returncode, "env": env, "summary": summary}


def metric(run: dict, name: str) -> float | None:
    summary = run["summary"]
    if summary is None or name not in summary["metrics"]:
        return None
    return summary["metrics"][name]["value"]


def rel_change(a: float, b: float) -> float:
    """|b - a| / |a|: 0.0 when the two are bit-identical, inf when only a is 0."""
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def quartiles(values: list[float]) -> list[float]:
    """The three quartiles of values, the median among them, by the
    inclusive method; a single value is its own quartiles."""
    if len(values) == 1:
        return list(values) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def digest(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and end-to-end metric: each side's median and quartiles,
    the parent's interquartile spread (its third quartile minus its first)
    and the pairs in which the change reads better (ties count for neither
    side); for answer_value also the largest relative change between the
    two sides of a pair, so a record shows whether answers moved. gain_shown
    is the gain rule: the change wins at least nine tenths of the pairs and
    its median is better than the parent's by more than parent_iqr."""
    out = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        out[workload] = {}
        for name, direction in better.items():
            values = [(metric(p["parent"], name), metric(p["change"], name)) for p in rows]
            values = [(a, b) for a, b in values if a is not None and b is not None]
            if not values:
                continue
            sign = 1.0 if direction == "lower" else -1.0
            parent_q = quartiles([a for a, _ in values])
            parent_median = statistics.median(a for a, _ in values)
            change_median = statistics.median(b for _, b in values)
            wins = sum(sign * (a - b) > 0 for a, b in values)
            out[workload][name] = {
                "parent_median": parent_median,
                "change_median": change_median,
                "parent_quartiles": parent_q,
                "change_quartiles": quartiles([b for _, b in values]),
                "parent_iqr": parent_q[2] - parent_q[0],
                "change_better": wins,
                "pairs": len(values),
                "gain_shown": 10 * wins >= 9 * len(values)
                and sign * (parent_median - change_median) > parent_q[2] - parent_q[0],
            }
            if name == "answer_value":
                out[workload][name]["max_rel_change"] = max(rel_change(a, b) for a, b in values)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    plan = []
    for item in args.pairs:
        workload, _, seeds = item.partition("=")
        plan.extend((workload, seed) for seed in seed_list(seeds))
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    seconds = manifest["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        trees = {"parent": Path(work) / "parent", "change": Path(work) / "change"}
        revs = {side: extract(rev, trees[side])
                for side, rev in (("parent", args.parent), ("change", args.change))}
        pairs = []
        for i, (workload, seed) in enumerate(plan):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: exit {pair[side]['exit']}, "
                      f"op_s {metric(pair[side], 'op_s')}", flush=True)
            pairs.append(pair)
    record = {
        "parent": {"ref": args.parent, "rev": revs["parent"]},
        "change": {"ref": args.change, "rev": revs["change"]},
        "command": [*manifest["command"], *run_args("W", "S", seconds)],
        "digest": digest(pairs, better),
        "pairs": pairs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(p[s]["exit"] == 0 for p in pairs for s in ("parent", "change")) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

- Manifest: layers.py maps exactly the per-layer metrics of BENCHMARK.json,
  and an untraced run prints exactly its end-to-end metrics.
- Determinism: on each acquisition workload, two traced runs with the same
  seed give identical counts and ratios and bit-identical answers; a run with
  another seed receives different inputs.
- Coverage: on every workload, the tracer leaves no package name unwrapped,
  every per-layer metric is non-zero on the workloads it should move, and the
  loop and oracle workloads make no lookahead calls. Each traced operation has
  one outermost span, the workload's entry point, which covers the operation's
  measured time; its own self time stays under ROOT_SELF_MAX of it, so work
  that no span covers shows up.

Runs go two at a time; the whole test takes a few minutes. Exit code 0 when
every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from layers import MAY_BE_ZERO, MOVES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
RUN_TIMEOUT_S = 300
TIMED_UNITS = {"s", "1/s"}
ROOTS = {
    "acq_p1_q1": "lookahead.optimize",
    "acq_p3_q2": "lookahead.optimize",
    "loop_p1_eic": "loop.run",
    "oracle_p3": "problems.constrained_optimum_oracle",
}
# The outermost span may miss this much of the measured operation: the
# workload's call into the entry point and the wrapper's own bookkeeping.
ROOT_COVER_SLACK_S = 2e-3
# Share of the outermost span's time that its own code, outside every child
# span, may take; measured at 0.1-0.4% on the four workloads.
ROOT_SELF_MAX = 0.05


def run(workload: str, seed: int, trace: int) -> dict:
    """The `detail` record and the final JSON result of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    detail = next((json.loads(x[len("detail "):]) for x in lines if x.startswith("detail ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return {"returncode": proc.returncode, "detail": detail, "result": result,
            "stderr": proc.stderr[-2000:]}


def check_manifest(untraced: dict) -> list[str]:
    errors = []
    if [m["name"] for m in MANIFEST["per_layer"]] != list(MOVES):
        errors.append("layers.MOVES does not map exactly the per_layer metrics of BENCHMARK.json")
    printed = untraced["result"].get("metrics", {})
    for metric in MANIFEST["end_to_end"]:
        got = printed.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            errors.append(f"untraced run lacks end-to-end metric {metric['name']}")
        elif not got["value"]:
            errors.append(f"end-to-end metric {metric['name']} reads zero")
    if set(printed) != {m["name"] for m in MANIFEST["end_to_end"]}:
        errors.append("untraced run prints metrics BENCHMARK.json does not list")
    return errors


def check_determinism(workload: str, a: dict, b: dict, other: dict) -> list[str]:
    errors = []
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for metric in MANIFEST["per_layer"]:
        name = metric["name"]
        if metric["unit"] in TIMED_UNITS or name.startswith("trace."):
            continue
        if ma[name]["value"] != mb[name]["value"]:
            errors.append(f"{workload}: {name} differs between same-seed runs: "
                          f"{ma[name]['value']} vs {mb[name]['value']}")
    for key in ("answers_plain", "answers_traced"):
        if a["detail"][key] != b["detail"][key]:
            errors.append(f"{workload}: {key} not bit-identical between same-seed runs")
    if a["detail"]["inputs"] == other["detail"]["inputs"]:
        errors.append(f"{workload}: another seed gave the same inputs")
    return errors


def check_coverage(workload: str, traced: dict) -> list[str]:
    errors = []
    metrics = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    if traced["detail"].get("unwrapped_bindings"):
        errors.append(f"{workload}: unwrapped: {traced['detail']['unwrapped_bindings']}")
    for name, (_, on) in MOVES.items():
        if workload in on and name not in MAY_BE_ZERO and not metrics[name]:
            errors.append(f"{workload}: {name} reads zero")
        if workload in ("loop_p1_eic", "oracle_p3") and name.startswith("lookahead.") and metrics[name]:
            errors.append(f"{workload}: {name} = {metrics[name]}, expected no lookahead work")
    roots = traced["detail"]["roots"]
    op_times = traced["detail"]["op_s_traced"]
    if [r["run"] for r in roots] != list(range(len(op_times))):
        errors.append(f"{workload}: expected one outermost span per traced operation, got "
                      f"{[(r['run'], r['name']) for r in roots]}")
        return errors
    for r, op_s in zip(roots, op_times):
        if r["name"] != ROOTS[workload]:
            errors.append(f"{workload}: outermost span is {r['name']}, not {ROOTS[workload]}")
        if r["span_s"] < op_s - ROOT_COVER_SLACK_S:
            errors.append(f"{workload}: {r['name']} spans {r['span_s']:.4f} s of the "
                          f"{op_s:.4f} s operation")
        if r["self_s"] > ROOT_SELF_MAX * r["span_s"]:
            errors.append(f"{workload}: {r['self_s']:.4f} s of {r['name']}'s {r['span_s']:.4f} s "
                          "lie outside every child span")
    return errors


def main() -> int:
    s = SEED
    jobs = {
        "p1_a": ("acq_p1_q1", s, 1), "p1_b": ("acq_p1_q1", s, 1), "p1_other": ("acq_p1_q1", s + 1, 1),
        "p3_a": ("acq_p3_q2", s, 1), "p3_b": ("acq_p3_q2", s, 1), "p3_other": ("acq_p3_q2", s + 1, 1),
        "loop": ("loop_p1_eic", s, 1), "oracle": ("oracle_p3", s, 1), "untraced": ("acq_p3_q2", s, 0),
    }
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {key: pool.submit(run, *job) for key, job in jobs.items()}
        runs = {key: f.result() for key, f in futures.items()}

    errors = []
    for key, r in runs.items():
        if r["returncode"] != 0 or not r["result"].get("correct"):
            errors.append(f"{key}: run failed (exit {r['returncode']}): {r['stderr']}")
    if not errors:
        errors += check_manifest(runs["untraced"])
        errors += check_determinism("acq_p1_q1", runs["p1_a"], runs["p1_b"], runs["p1_other"])
        errors += check_determinism("acq_p3_q2", runs["p3_a"], runs["p3_b"], runs["p3_other"])
        for key, workload in (("p1_a", "acq_p1_q1"), ("p3_a", "acq_p3_q2"),
                              ("loop", "loop_p1_eic"), ("oracle", "oracle_p3")):
            errors += check_coverage(workload, runs[key])
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "passed", f"({len(runs)} runs)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

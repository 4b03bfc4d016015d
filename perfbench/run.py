"""Benchmark of twostep_cbo: one workload per invocation, in one process.

    python3 perfbench/run.py --workload acq_p1_q1 --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``. BLAS is
pinned to one thread before numpy loads. An untraced run cycles the workload's
operation over its sub-seeds for about ``--seconds`` of operation time, at
least once, checking every output. Between its first operations it times
three fresh interpreters from launch until each has built the workload's
inputs; ``setup_s`` is their median.

Other tenants slow the host by up to 2x in phases from seconds to minutes
long, so every time is taken with ``hostclock.HostClock``: wall time scaled
by the speed of a probe, run every 25 ms, that slows as the workload's code
does; the result is in seconds of a reference host.

With ``--trace 0`` the result carries the end-to-end metrics:

- ``op_s``: time of one operation, the mean over sub-seeds of the median of
  each sub-seed's repetitions; the mean evens out how the work depends on the
  seed. It is ``acq_s`` on the acquisition workloads, ``rep_s`` on the loop
  workload and ``oracle_s`` on the oracle workload.
- ``answer_value``: the answer's quality, higher is better, the mean over
  sub-seeds. ``acq_value`` (``TwoStepResult.value``) on the acquisition
  workloads, minus the final ``f_score`` on the loop workload and minus the
  oracle's minimum on the oracle workload.
- ``setup_s`` and ``peak_rss_mb`` (the process's peak resident memory).

``fail_frac`` (failed over attempted operations; an exception or any failed
output check is a failure) is printed and carried as ``failed``/``attempted``.

With ``--trace 1`` each sub-seed's operation runs once untraced and then once
with the tracer installed, whatever ``--seconds`` says; the result carries the
``per_layer`` metrics of BENCHMARK.json, among them the tracing overhead
``trace.overhead_frac`` (traced over untraced operation time, minus one).
Spans go to ``perfbench/out``.

The last line of standard output is the JSON result. The exit code is 0 when
every check passed, 1 when one failed, and 2 when the package is missing.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostclock import HostClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("acq_p1_q1", "acq_p3_q2", "loop_p1_eic", "oracle_p3")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(reference, wall) seconds from launching a fresh interpreter until it has
    built the inputs. The fresh interpreter times itself with a HostClock from
    the moment it has loaded numpy, which the clock needs; the whole wall time
    is scaled by that clock's reading over its own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    proc = None
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        wall_s = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc is not None:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    words = line.split()
    if proc.returncode != 0 or words[:1] != ["ready"]:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    probe_wall_s, probe_ref_s = map(float, words[1:])
    return wall_s * probe_ref_s / probe_wall_s, wall_s


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Times and checks one workload's operations; counts attempts and failures."""

    def __init__(self, wl, state, subs):
        self.wl, self.state, self.subs = wl, state, subs
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, k: int, clock):
        """(clock, answer or None) of one operation on sub-seed k, timed by `clock`."""
        self.attempted += 1
        try:
            with clock:
                result = self.wl.op(self.state, self.subs[k])
        except Exception:
            traceback.print_exc()
            self.failures.append(f"op {k}: exception")
            return clock, None
        failed = self.wl.check(self.state, result)
        if failed:
            self.failures.append(f"op {k}: {', '.join(failed)}")
            return clock, None
        return clock, self.wl.answer(result)


class WallClock:
    """Plain wall time, for the traced run: ``HostClock``'s probes would land in spans."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.t0
        return False


def measure(runner: Runner, seconds: float, probe) -> dict:
    """Full cycles over the sub-seeds while the next cycle's operations are
    predicted to end within `seconds` of wall time; at least one cycle. The
    SETUP_PROBES set-up probes run before the first operations, one before
    each, and any left after the last."""
    n_sub = len(runner.subs)
    clocks: list[list[HostClock]] = [[] for _ in range(n_sub)]
    answers: list[float | None] = [None] * n_sub
    setups: list[tuple[float, float]] = []
    cycles = 0
    while cycles == 0 or sum(c.wall_s for cs in clocks for c in cs) * (cycles + 1) / cycles <= seconds:
        for k in range(n_sub):
            if len(setups) < SETUP_PROBES:
                setups.append(probe())
            clock, answer = runner.run_op(k, HostClock(runner.wl.probe))
            clocks[k].append(clock)
            if cycles == 0:
                answers[k] = answer
        cycles += 1
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    return {
        "op_ref_s": [[c.ref_s for c in cs] for cs in clocks],
        "op_wall_s": [[c.wall_s for c in cs] for cs in clocks],
        "answers": answers,
        "ops": cycles * n_sub,
        "setup_ref_s": [ref for ref, _ in setups],
        "setup_wall_s": [wall for _, wall in setups],
    }


def trace(runner: Runner, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass over the sub-seeds. Each traced
    operation follows an untraced one on the same sub-seed, which gives the
    tracing overhead."""
    from tracing import Tracer

    n_sub = len(runner.subs)
    tracer = Tracer()
    plain, traced, leftovers = [], [], []
    for k in range(n_sub):
        clock, answer = runner.run_op(k, WallClock())
        plain.append((clock.wall_s, answer))
        tracer.run_id = k
        tracer.install()
        try:
            leftovers += tracer.leftover_bindings()
            clock, answer = runner.run_op(k, WallClock())
            traced.append((clock.wall_s, answer))
        finally:
            tracer.uninstall()
    for k, ((_, a), (_, b)) in enumerate(zip(plain, traced)):
        if a is not None and b is not None and a != b:
            runner.failures.append(f"op {k}: tracing changed the answer")
    raw = tracer.per_op_metrics(n_sub)
    raw["trace.overhead_frac"] = (
        statistics.fmean(t for t, _ in traced) / statistics.fmean(t for t, _ in plain) - 1.0
    )
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: (float(raw.get(m["name"], 0.0)), m["unit"]) for m in per_layer}
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    detail = {
        "answers_plain": [a for _, a in plain],
        "answers_traced": [a for _, a in traced],
        "op_s_plain": [t for t, _ in plain],
        "op_s_traced": [t for t, _ in traced],
        "roots": tracer.roots(),
        "unwrapped_bindings": leftovers,
        "n_spans": len(tracer.span_start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "all_counters": raw,
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twostep_cbo" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        with HostClock() as clock:
            import workloads

            wl = workloads.WORKLOADS[args.workload]
            wl.build()
            workloads.sub_seeds(args.seed, wl.n_sub)
        print(f"ready {clock.wall_s!r} {clock.ref_s!r}", flush=True)
        return 0
    import workloads

    wl = workloads.WORKLOADS[args.workload]

    state = wl.build()
    subs = workloads.sub_seeds(args.seed, wl.n_sub)
    env = environment(args.workload, args.seed)
    inputs = workloads.fingerprint(state, subs)
    print("env " + json.dumps(env))
    print(f"inputs {inputs} sub_seeds={subs}")
    runner = Runner(wl, state, subs)

    if args.trace:
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.csv.gz"
        metrics, detail = trace(runner, spans_path)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    else:
        m = measure(runner, args.seconds, lambda: probe_setup(args.workload, args.seed))
        answers = [a for a in m["answers"] if a is not None]
        metrics = {
            "setup_s": (statistics.median(m["setup_ref_s"]), "s"),
            "op_s": (statistics.fmean(map(statistics.median, m["op_ref_s"])), "s"),
            "answer_value": (statistics.fmean(answers) if answers else float("nan"), "objective"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        answer_label = {"acq_s": "acq_value", "rep_s": "-f_score", "oracle_s": "-oracle_value"}
        print(f"setup_s = {metrics['setup_s'][0]:.4f} s (median of {SETUP_PROBES} set-ups)")
        print(f"{wl.op_label} = {metrics['op_s'][0]:.4f} s (op_s; mean over {wl.n_sub} "
              f"sub-seeds of each one's median repetition, {m['ops']} operations)")
        print(f"{answer_label[wl.op_label]} = {metrics['answer_value'][0]!r} objective "
              f"(answer_value; mean over {len(answers)} sub-seeds)")
        print(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB")
        detail = {k: v for k, v in m.items() if k != "ops"}

    failed = len(runner.failures)
    print(f"fail_frac = {failed / runner.attempted:.4g} ({failed} of {runner.attempted} "
          "operations failed)")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    record = {"env": env, "inputs": inputs, "sub_seeds": subs, "trace": args.trace,
              "failures": runner.failures, **detail,
              "metrics": {name: value for name, (value, _) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("detail " + json.dumps(record))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if runner.failures else 0


if __name__ == "__main__":
    sys.exit(main())

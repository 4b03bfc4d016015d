"""Benchmark harness: configs, experiment execution, aggregation, diagnostics.

Experiments are described by an INI file with a [run] section (problem,
policy, budget, replication count, seeding, scoring mode) and an optional
[twostep] section overriding TwoStepConfig fields. Replications run in a
process pool, are reassembled in replication order, and are written as a
versioned CSV plus a JSON metadata sidecar carrying the resolved config and
the oracle provenance, so aggregation can refuse to mix incompatible runs.
Ground-truth optima are cached in an INI file keyed by problem, oracle kind,
resolution, polish count and seed.

The bytes of results.csv rest on the seeds, the host, the BLAS build and the
C library: the GP's row terms keep their bits whatever rows share a call only
up to 31 data points on the OpenBLAS build measured (the row contract in gp),
and past that they are held only to a relative 1e-6 of the signal variance
(ROW_RTOL in tests/oracle_utils.py); the fantasies' normals take libm's log
(sampling._ndtri). meta.json records numpy's and scipy's versions, their BLAS
versions, the C library and the CPU count, so a byte comparison across builds
can be refused rather than failed.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import json
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import loop
from .acquisition import PosteriorBundle, batch_eic_mc
from .gp import GPModel, KernelParams
from .lookahead import TwoStepConfig
from .problems import (
    OracleResult,
    constrained_optimum_oracle,
    domain_max_oracle,
    get_problem,
)

RESULTS_HEADER = [
    "replication",
    "n",
    "points",
    "f_values",
    "g_values",
    "feasible",
    "recommendation",
    "rec_objective",
    "rec_feasible",
    "f_score",
    "utility_gap",
    "flags",
]
# Wall-clock times live in a sidecar so results.csv stays byte-reproducible.
TIMINGS_HEADER = ["replication", "n", "acq_seconds"]
SCHEMA_VERSION = "v1"
GAP_FLOOR = 1e-12


class MissingOracleError(RuntimeError):
    """Requested ground-truth value is absent from the cache."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one experiment."""

    problem: str = "p1"
    policy: str = "eic"
    budget: int = 40
    batch: int = 1
    n_replications: int = 50
    n_init: int = 3
    score_mode: str = "best_feasible_fallback"
    base_seed: int = 1000
    output_dir: str = "results/run"
    oracle_resolution: int = 800
    oracle_polish: int = 20
    oracle_seed: int = 0
    oracle_cache: str = "oracle_cache.ini"
    twostep: TwoStepConfig = field(default_factory=TwoStepConfig)


def write_config(config: RunConfig, path) -> None:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # step_a and step_A must stay distinct
    cp["run"] = {
        f.name: str(getattr(config, f.name)) for f in fields(config) if f.name != "twostep"
    }
    cp["twostep"] = {f.name: str(getattr(config.twostep, f.name)) for f in fields(TwoStepConfig)}
    with open(path, "w") as fh:
        cp.write(fh)


def read_config(path) -> RunConfig:
    """The RunConfig of an INI file. A missing [run] section, or a section or
    key that names no RunConfig or TwoStepConfig field, is a ValueError."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    found = cp.read(path)
    if not found:
        raise FileNotFoundError(path)
    if not cp.has_section("run"):
        raise ValueError(f"{path} has no [run] section")
    defaults = {
        "run": {f.name: f.default for f in fields(RunConfig) if f.name != "twostep"},
        "twostep": {f.name: f.default for f in fields(TwoStepConfig)},
    }
    values = {"run": {}, "twostep": {}}
    for section in cp.sections():
        if section not in defaults:
            raise ValueError(f"unknown section [{section}] in {path}")
        for key, raw in cp[section].items():
            if key not in defaults[section]:
                raise ValueError(f"unknown key {key!r} in [{section}] of {path}")
            values[section][key] = _coerce(raw, defaults[section][key])
    return RunConfig(**values["run"], twostep=TwoStepConfig(**values["twostep"]))


def _coerce(raw: str, default):
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


# -- oracle cache ---------------------------------------------------------------


def _oracle_key(problem: str, kind: str, resolution: int, n_polish: int, seed: int) -> str:
    return f"{problem}/{kind}/res{resolution}/polish{n_polish}/seed{seed}"


def cached_oracle(
    problem_name: str,
    kind: str,
    cache_path,
    resolution: int,
    n_polish: int,
    seed: int,
    compute: bool = True,
) -> OracleResult:
    """Fetch an oracle value from the cache, computing and storing on a miss.

    With compute=False a miss raises instead, so experiment runs cannot
    silently pay for a grid scan they did not ask for.
    """
    cp = configparser.ConfigParser()
    cache_path = Path(cache_path)
    if cache_path.exists():
        cp.read(cache_path)
    key = _oracle_key(problem_name, kind, resolution, n_polish, seed)
    if cp.has_section(key):
        sec = cp[key]
        return OracleResult(
            float(sec["value"]),
            np.array([float(v) for v in sec["point"].split()]),
            json.loads(sec["provenance"]),
        )
    if not compute:
        raise MissingOracleError(
            f"no cached entry {key!r} in {cache_path}; run "
            f"`twostep-cbo oracle --problem {problem_name} --kind {kind} "
            f"--resolution {resolution} --polish {n_polish} --seed {seed} "
            f"--cache {cache_path}` first, or pass --compute-oracle"
        )
    problem = get_problem(problem_name)
    if kind == "constrained_optimum":
        result = constrained_optimum_oracle(problem, resolution, n_polish, seed)
    elif kind == "domain_max":
        result = domain_max_oracle(problem, resolution, n_polish)
    else:
        raise ValueError(f"unknown oracle kind {kind!r}")
    cp[key] = {
        "value": format(result.value, ".17g"),
        "point": " ".join(format(v, ".17g") for v in result.point),
        "provenance": json.dumps(result.provenance, sort_keys=True),
    }
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    with open(cache_path, "w") as fh:
        cp.write(fh)
    return result


# -- experiment execution --------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v) -> str:
    return " ".join(_fmt(x) for x in np.atleast_1d(v))


def _fmt_rows(M) -> str:
    return ";".join(_fmt_vec(row) for row in np.atleast_2d(M))


def _record_to_row(rep: int, r: loop.IterationRecord) -> list[str]:
    return [
        str(rep),
        str(r.n),
        _fmt_rows(r.points),
        _fmt_vec(r.f_values),
        _fmt_rows(r.g_values),
        ";".join(str(int(b)) for b in np.atleast_1d(r.feasible)),
        "" if r.recommendation is None else _fmt_vec(r.recommendation),
        _fmt(r.rec_objective),
        str(int(r.rec_feasible)),
        _fmt(r.f_score),
        _fmt(r.utility_gap),
        ";".join(r.flags),
    ]


def _run_replication(args) -> tuple[int, list]:
    (config, rep, f_star, domain_max) = args
    problem = get_problem(config.problem)
    records = loop.run(
        problem,
        config.policy,
        config.budget,
        config.batch,
        config.n_init,
        seed=config.base_seed + rep,
        f_star=f_star,
        score_mode=config.score_mode,
        domain_max=domain_max,
        ts_config=config.twostep,
    )
    return rep, records


def resolve_workers(cli_value: int | None = None) -> int:
    """The worker count: cli_value when positive, else the CPUs this process
    may run on (its affinity mask, which a taskset narrows; os.cpu_count()
    counts the host's, where the platform reports no mask)."""
    if cli_value is not None and cli_value > 0:
        return cli_value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def environment() -> dict:
    """The build record of meta.json: numpy's and scipy's versions, their
    BLAS versions, the C library whose libm gives the normal draws' log
    (platform.libc_ver, e.g. "glibc 2.36") and the CPU count
    (resolve_workers)."""

    def blas_version(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(np),
        "scipy_blas": blas_version(scipy),
        "libc": " ".join(platform.libc_ver()),
        "cpus": resolve_workers(),
    }


def run_experiment(
    config: RunConfig,
    workers: int | None = None,
    force: bool = False,
    compute_oracle: bool = False,
) -> Path:
    """Execute every replication and write results.csv, config.ini, meta.json.

    Refuses to overwrite an existing results.csv unless force is set, and
    refuses to run without a cached oracle entry unless compute_oracle is set.
    Output is sorted by (replication, n) and uses 17-significant-digit floats,
    so a repeat run with the same config is byte-identical; per-iteration
    wall-clock times go to timings.csv, the one file exempt from that
    guarantee. Replications that abort on a numeric error are kept as partial
    records and listed under "failures" in meta.json.

    Replications run in `workers` processes. BLAS threads follow the
    environment the run starts in: the workers inherit the BLAS library the
    parent has already loaded, so with several workers set
    OPENBLAS_NUM_THREADS=1 (or OMP_NUM_THREADS=1) before starting the run.
    """
    out = Path(config.output_dir)
    results_path = out / "results.csv"
    if results_path.exists() and not force:
        raise FileExistsError(f"{results_path} exists; pass force to overwrite")
    oracle = cached_oracle(
        config.problem,
        "constrained_optimum",
        config.oracle_cache,
        config.oracle_resolution,
        config.oracle_polish,
        config.oracle_seed,
        compute=compute_oracle,
    )
    domain_max = None
    meta_oracles = {"constrained_optimum": dataclasses.asdict(_jsonable(oracle))}
    if config.score_mode == "domain_max_penalty":
        dm = cached_oracle(
            config.problem,
            "domain_max",
            config.oracle_cache,
            config.oracle_resolution,
            config.oracle_polish,
            config.oracle_seed,
            compute=compute_oracle,
        )
        domain_max = dm.value
        meta_oracles["domain_max"] = dataclasses.asdict(_jsonable(dm))
    out.mkdir(parents=True, exist_ok=True)

    n_workers = resolve_workers(workers)
    jobs = [(config, rep, oracle.value, domain_max) for rep in range(config.n_replications)]
    t0 = time.perf_counter()
    results: dict[int, list] = {}
    if n_workers == 1:
        for job in jobs:
            rep, records = _run_replication(job)
            results[rep] = records
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            for rep, records in pool.map(_run_replication, jobs):
                results[rep] = records
    elapsed = time.perf_counter() - t0

    failures = []
    with open(results_path, "w", newline="") as fh, open(
        out / "timings.csv", "w", newline=""
    ) as th:
        writer = csv.writer(fh)
        timings = csv.writer(th)
        writer.writerow(RESULTS_HEADER)
        timings.writerow(TIMINGS_HEADER)
        for rep in sorted(results):
            for r in results[rep]:
                writer.writerow(_record_to_row(rep, r))
                timings.writerow([str(rep), str(r.n), _fmt(r.acq_seconds)])
                for flag in r.flags:
                    if flag.startswith("aborted:"):
                        failures.append({"replication": rep, "error": flag})
    write_config(config, out / "config.ini")
    meta = {
        "schema": SCHEMA_VERSION,
        "problem": config.problem,
        "policy": config.policy,
        "f_star": oracle.value,
        "oracles": meta_oracles,
        "n_replications": config.n_replications,
        "failures": failures,
        "wall_seconds": elapsed,
        "environment": environment(),
    }
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return results_path


def _jsonable(result: OracleResult) -> OracleResult:
    return OracleResult(result.value, list(map(float, result.point)), result.provenance)


def read_results(run_dir) -> tuple[dict, list[dict]]:
    """Metadata and parsed rows of one run directory; rejects unknown schemas."""
    run_dir = Path(run_dir)
    with open(run_dir / "meta.json") as fh:
        meta = json.load(fh)
    if meta.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported results schema {meta.get('schema')!r} in {run_dir}")
    rows = []
    with open(run_dir / "results.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != RESULTS_HEADER:
            raise ValueError(f"unsupported results header in {run_dir}")
        for raw in reader:
            row = dict(zip(RESULTS_HEADER, raw))
            row["replication"] = int(row["replication"])
            row["n"] = int(row["n"])
            row["utility_gap"] = float(row["utility_gap"])
            rows.append(row)
    return meta, rows


# -- aggregation -----------------------------------------------------------------


def aggregate(run_dirs, out_path, n_boot: int = 10000, seed: int = 0) -> Path:
    """Combine runs of one problem into a tidy per-(policy, n) summary.

    Utility gaps are floored at 1e-12 before taking log10; medians and means
    across replications get bootstrap 95% bands (seeded, percentile method).
    All runs must agree on the problem and on the true-optimum value.
    """
    per_policy: dict[str, dict[int, dict[int, float]]] = {}
    problem, f_star = None, None
    for run_dir in run_dirs:
        meta, rows = read_results(run_dir)
        if problem is None:
            problem, f_star = meta["problem"], meta["f_star"]
        elif meta["problem"] != problem or meta["f_star"] != f_star:
            raise ValueError("aggregate refuses to mix problems or oracle values")
        pol = per_policy.setdefault(meta["policy"], {})
        for row in rows:
            if not np.isfinite(row["utility_gap"]):
                continue  # partial-record marker of an aborted replication
            pol.setdefault(row["n"], {})[_rep_key(run_dir, row)] = row["utility_gap"]
    out_rows = []
    for p_idx, policy in enumerate(sorted(per_policy)):
        by_n = per_policy[policy]
        for n in sorted(by_n):
            gaps = np.array(list(by_n[n].values()))
            floored = np.maximum(gaps, GAP_FLOOR)
            n_floored = int(np.sum(gaps < GAP_FLOOR))
            rng = np.random.default_rng(np.random.SeedSequence((seed, 43, p_idx, n)))
            idx = rng.integers(0, len(floored), size=(n_boot, len(floored)))
            med_bs = np.log10(np.median(floored[idx], axis=1))
            mean_bs = np.log10(np.mean(floored[idx], axis=1))
            out_rows.append(
                [
                    policy,
                    str(n),
                    str(len(gaps)),
                    str(n_floored),
                    _fmt(np.log10(np.median(floored))),
                    _fmt(np.percentile(med_bs, 2.5)),
                    _fmt(np.percentile(med_bs, 97.5)),
                    _fmt(np.log10(np.mean(floored))),
                    _fmt(np.percentile(mean_bs, 2.5)),
                    _fmt(np.percentile(mean_bs, 97.5)),
                ]
            )
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "policy",
                "n",
                "n_replications",
                "n_floored",
                "log10_median",
                "log10_median_lo",
                "log10_median_hi",
                "log10_mean",
                "log10_mean_lo",
                "log10_mean_hi",
            ]
        )
        writer.writerows(out_rows)
    return out_path


def _rep_key(run_dir, row) -> tuple:
    return (str(run_dir), row["replication"])


# -- SAA discontinuity diagnostic --------------------------------------------------


@dataclass(frozen=True)
class SaaSurface:
    n_base_samples: int
    grid: np.ndarray
    values: np.ndarray
    n_jumps: int
    max_jump: float


def _saa_bundle() -> PosteriorBundle:
    """Fixed 1-d instance: dip in the objective overlapping a constraint crossing."""
    X = np.array([[0.6], [2.4], [3.6], [5.4]])
    f = np.array([0.3, -0.6, -1.8, 0.5])
    g = np.array([-1.5, -0.4, 0.9, 1.8])
    objective = GPModel.fit(X, f, KernelParams(1.0, np.array([0.9])))
    constraint = GPModel.fit(X, g, KernelParams(1.5, np.array([1.2])))
    return PosteriorBundle.from_models(objective, [constraint])


def saa_discontinuity_diagnostic(
    seed: int = 0, sample_counts=(1, 256), grid_size: int = 2001
) -> list[SaaSurface]:
    """Sample-average surfaces of the one-step improvement term on a 1-d grid.

    For each base-sample count M the surface is batch_eic_mc at every grid
    point, each a batch of one, with M fantasies: the mean of f0* - f1* =
    (f0* - y_f)^+ 1{y_g <= 0}. The stacked call draws one set of normals
    for the whole grid, which makes every indicator flip a genuine jump of
    order 1/M. Jumps are detected as adjacent differences exceeding five
    times the local median difference.
    """
    bundle = _saa_bundle()
    grid = np.linspace(0.0, 6.0, grid_size)
    out = []
    for count in sample_counts:
        seed_m = np.random.SeedSequence((seed, 5, count))
        values, _ = batch_eic_mc(bundle, grid.reshape(-1, 1, 1), n_samples=count, seed=seed_m)
        n_jumps, max_jump = _detect_jumps(values)
        out.append(SaaSurface(count, grid, values, n_jumps, max_jump))
    return out


def _detect_jumps(values: np.ndarray, window: int = 101) -> tuple[int, float]:
    diffs = np.abs(np.diff(values))
    half = window // 2
    padded = np.pad(diffs, half, mode="reflect")
    sliding = np.lib.stride_tricks.sliding_window_view(padded, window)
    local_med = np.median(sliding, axis=1)
    jumps = diffs > np.maximum(5.0 * local_med, GAP_FLOOR)
    n = int(np.sum(jumps))
    max_jump = float(np.max(diffs[jumps])) if n else 0.0
    return n, max_jump


def write_saa_csv(surfaces: list[SaaSurface], out_path) -> Path:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_base_samples", "x1", "value"])
        for s in surfaces:
            for x, v in zip(s.grid, s.values):
                writer.writerow([str(s.n_base_samples), _fmt(x), _fmt(v)])
    return out_path

"""Command line interface.

Subcommands: run (execute an experiment config), aggregate (summarize run
directories), oracle (compute or fetch cached ground truth), diagnose-saa
(sample-average discontinuity surfaces), selftest (fast invariant checks).
Exit codes: 0 success, 1 failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness
from .problems import problem_names


def _cmd_run(args) -> int:
    config = harness.read_config(args.config)
    path = harness.run_experiment(
        config, workers=args.threads, force=args.force, compute_oracle=args.compute_oracle
    )
    print(f"wrote {path}")
    import json

    with open(path.parent / "meta.json") as fh:
        failures = json.load(fh).get("failures", [])
    for failure in failures:
        print(f"replication {failure['replication']} aborted: {failure['error']}")
    return 0


def _cmd_aggregate(args) -> int:
    out = harness.aggregate(args.run_dirs, args.out, n_boot=args.bootstrap, seed=args.seed)
    print(f"wrote {out}")
    return 0


def _cmd_oracle(args) -> int:
    result = harness.cached_oracle(
        args.problem, args.kind, args.cache, args.resolution, args.polish, args.seed
    )
    point = " ".join(format(v, ".12g") for v in np.atleast_1d(result.point))
    print(f"{args.problem} {args.kind}: value={result.value:.12g} point=({point})")
    return 0


def _cmd_diagnose_saa(args) -> int:
    counts = tuple(int(tok) for tok in args.samples.split(","))
    surfaces = harness.saa_discontinuity_diagnostic(seed=args.seed, sample_counts=counts)
    for s in surfaces:
        print(
            f"n_base_samples={s.n_base_samples}: jumps={s.n_jumps} max_jump={s.max_jump:.6g}"
        )
    if args.out:
        path = harness.write_saa_csv(surfaces, args.out)
        print(f"wrote {path}")
    return 0


def _cmd_selftest(args) -> int:
    failures = selftest(verbose=True)
    return 0 if failures == 0 else 1


def selftest(verbose: bool = False) -> int:
    """Fast invariant checks; returns the number of failures."""
    from . import acquisition, gp, lookahead
    from .problems import get_problem

    failures = 0

    def check(name, ok):
        nonlocal failures
        if not ok:
            failures += 1
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'} {name}")

    rng = np.random.default_rng(0)
    X = rng.random((6, 2)) * 4.0
    y = np.sin(X[:, 0]) + X[:, 1]
    params = gp.KernelParams(1.5, np.array([0.8, 1.1]))
    model = gp.GPModel.fit(X, y, params)
    K = model.rows(X)["K"]
    check("kernel symmetric", np.allclose(K, K.T))
    check("kernel psd", np.min(np.linalg.eigvalsh(K)) > -1e-9)
    mu, var = model.posterior_many(X)
    check("interpolation", np.max(np.abs(mu - y)) < 1e-5 and np.max(var) < 1e-5)

    x0 = np.array([1.3, 2.1])
    _, _, dmu, dsig, _ = model.posterior_grads(x0)
    h = 1e-6
    for j, (dm, ds) in enumerate(zip(dmu, dsig)):
        e = np.zeros(2)
        e[j] = h
        mp, vp = model.posterior(x0 + e)
        mm, vm = model.posterior(x0 - e)
        check(f"posterior grad fd dim {j}", abs((mp - mm) / (2 * h) - dm) < 1e-4)
        check(
            f"sigma grad fd dim {j}",
            abs((np.sqrt(vp) - np.sqrt(vm)) / (2 * h) - ds) < 1e-4,
        )

    check("ei at (0,1)", abs(acquisition.ei(0.0, 1.0) - 1.0 / np.sqrt(2 * np.pi)) < 1e-12)
    check("pf at (0,1)", abs(acquisition.pf(0.0, 1.0) - 0.5) < 1e-12)
    check("ei zero variance", acquisition.ei(-1.0, 0.0) == 0.0 and acquisition.ei(2.0, 0.0) == 2.0)

    problem = get_problem("p1")
    f, g = problem.evaluate(np.array([1.0, 2.0]))
    check(
        "p1 values",
        abs(f - (np.cos(2.0) * np.cos(2.0) + np.sin(1.0))) < 1e-12
        and abs(g[0] - (np.cos(1.0) * np.cos(2.0) - np.sin(1.0) * np.sin(2.0) + 0.5)) < 1e-12,
    )

    con = gp.GPModel.fit(X, X[:, 0] - 3.0, gp.KernelParams(1.0, np.array([1.0, 1.0])))
    bundle = acquisition.PosteriorBundle.from_models(model, [con])
    X1 = np.array([[2.0, 2.0]])
    engine = lookahead.FantasyEngine(bundle, X1)
    batch = engine.sample(2000, seed=2)
    score = engine.score(batch)
    se = score.std(axis=0, ddof=1) / np.sqrt(batch.n)
    check("score identity", np.all(np.abs(score.mean(axis=0)) < 5 * se + 1e-12))
    x2 = np.array([1.0, 1.0])
    fantasy = engine.sample(4, seed=1)
    a_ref = lookahead.alpha(bundle, X1, x2, fantasy.Y[0][0], [Y[0] for Y in fantasy.Y[1:]])
    a_eng = float(engine.alpha_rows(x2.reshape(1, -1), np.array([0]), fantasy)[0])
    check("alpha engine vs reference", abs(a_ref - a_eng) < 1e-8)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="twostep-cbo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment described by an INI config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes; BLAS threads follow the environment, so with several "
        "workers set OPENBLAS_NUM_THREADS=1",
    )
    p_run.add_argument("--force", action="store_true", help="overwrite existing results")
    p_run.add_argument(
        "--compute-oracle",
        action="store_true",
        help="compute missing ground-truth cache entries instead of refusing",
    )
    p_run.set_defaults(func=_cmd_run)

    p_agg = sub.add_parser("aggregate", help="summarize one or more run directories")
    p_agg.add_argument("run_dirs", nargs="+")
    p_agg.add_argument("--out", required=True)
    p_agg.add_argument("--bootstrap", type=int, default=10000)
    p_agg.add_argument("--seed", type=int, default=0)
    p_agg.set_defaults(func=_cmd_aggregate)

    p_oracle = sub.add_parser("oracle", help="compute or fetch a cached ground-truth value")
    p_oracle.add_argument("--problem", required=True, choices=problem_names())
    p_oracle.add_argument(
        "--kind", default="constrained_optimum", choices=["constrained_optimum", "domain_max"]
    )
    p_oracle.add_argument("--resolution", type=int, default=800)
    p_oracle.add_argument("--polish", type=int, default=20)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--cache", default="oracle_cache.ini")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_saa = sub.add_parser("diagnose-saa", help="sample-average discontinuity surfaces")
    p_saa.add_argument("--samples", default="1,256", help="comma-separated base sample counts")
    p_saa.add_argument("--seed", type=int, default=0)
    p_saa.add_argument("--out", default=None, help="optional CSV output path")
    p_saa.set_defaults(func=_cmd_diagnose_saa)

    p_self = sub.add_parser("selftest", help="run fast invariant checks")
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

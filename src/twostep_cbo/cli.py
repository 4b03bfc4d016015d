"""Command line interface.

Subcommands: run (execute an experiment config), aggregate (summarize run
directories), oracle (compute or fetch cached ground truth) and diagnose-saa
(sample-average discontinuity surfaces). Exit codes: 0 success, 1 failure,
2 usage error.
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

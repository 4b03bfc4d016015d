"""Timing wrappers installed around calls into the twostep_cbo layers.

A Tracer replaces selected functions and methods with wrappers that record a
span (name, start, end, parent span, run id) per call, plus per-call counters
such as query rows or grid cells. Every module namespace of the package that
binds a wrapped function gets the wrapper, so calls made through names imported
with ``from .gp import kernel_matrix`` are counted too. Spans stay in memory
until ``write_spans``; ``per_op_metrics`` turns them into the per-layer
metrics, each averaged over the traced operations.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np
from scipy import linalg

from twostep_cbo import acquisition, gp, lookahead, loop, problems, sampling

PACKAGE = "twostep_cbo"


def _rows_and_grads(counts, args, kwargs, out):
    counts["lookahead.FantasyEngine.alpha_rows.rows"] += len(np.atleast_2d(args[1]))
    if kwargs.get("grads", args[4] if len(args) > 4 else False):
        counts["lookahead.alpha_rows.grad_rows"] += len(np.atleast_2d(args[1]))


def _stage1_rows(counts, args, kwargs, out):
    counts["lookahead.FantasyEngine._stage1.rows"] += len(args[2])


def _kernel_elems(counts, args, kwargs, out):
    counts["gp.kernel_matrix.elems"] += out.size


def _inner_fantasies(counts, args, kwargs, out):
    degenerate = out[2]
    counts["lookahead.FantasyEngine.solve_inner_batch.fantasies"] += len(degenerate)
    counts["lookahead.inner.degenerate"] += int(np.count_nonzero(degenerate))


def _jitter_escalations(counts, args, kwargs, out):
    first = gp.JITTER_INITIAL * args[1]
    counts["gp.jittered_cholesky.escalations"] += round(math.log10(out[1] / first))


def _grid_cells(counts, args, kwargs, out):
    problem, resolution = args[0], args[1]
    counts["problems._grid_scan.cells"] += resolution**problem.dim


# (span name, owner, attribute, counter hook). The owner is a module or a
# class; module functions are replaced in every package namespace binding them.
SPANS = [
    ("lookahead.optimize", lookahead, "optimize", None),
    ("lookahead.estimate_value", lookahead, "estimate_value", None),
    ("lookahead.FantasyEngine.__init__", lookahead.FantasyEngine, "__init__", None),
    ("lookahead.FantasyEngine.alpha_rows", lookahead.FantasyEngine, "alpha_rows", _rows_and_grads),
    ("lookahead.FantasyEngine._stage1", lookahead.FantasyEngine, "_stage1", _stage1_rows),
    (
        "lookahead.FantasyEngine.solve_inner_batch",
        lookahead.FantasyEngine,
        "solve_inner_batch",
        _inner_fantasies,
    ),
    ("lookahead.FantasyEngine.lr_gradients", lookahead.FantasyEngine, "lr_gradients", None),
    ("lookahead.FantasyEngine.score", lookahead.FantasyEngine, "score", None),
    ("gp.kernel_matrix", gp, "kernel_matrix", _kernel_elems),
    ("gp.kernel_grad_first_from", gp, "kernel_grad_first_from", None),
    ("gp.jittered_cholesky", gp, "jittered_cholesky", _jitter_escalations),
    ("gp.fit_hyperparameters", gp, "fit_hyperparameters", None),
    ("gp._nll_and_grad", gp, "_nll_and_grad", None),
    ("gp.GPModel.fit", gp.GPModel, "fit", None),
    ("gp.GPModel.posterior_many", gp.GPModel, "posterior_many", None),
    ("gp.GPModel.posterior_grads", gp.GPModel, "posterior_grads", None),
    ("acquisition.maximize_eic", acquisition, "maximize_eic", None),
    ("acquisition.eic_grad", acquisition, "eic_grad", None),
    ("acquisition.greedy_batch_eic", acquisition, "greedy_batch_eic", None),
    ("acquisition.batch_eic_mc", acquisition, "batch_eic_mc", None),
    ("loop.run", loop, "run", None),
    ("loop.recommend", loop, "recommend", None),
    ("loop.fit_bundle", loop, "fit_bundle", None),
    ("loop.select_batch", loop, "select_batch", None),
    ("problems.constrained_optimum_oracle", problems, "constrained_optimum_oracle", None),
    ("problems._grid_scan", problems, "_grid_scan", _grid_cells),
    # scipy's minimize as the oracle calls it (the SLSQP polish); no per-layer
    # metric of its own, but it keeps the polish out of the oracle's self time
    ("problems.minimize", problems, "minimize", None),
    ("sampling.halton_design", sampling, "halton_design", None),
    ("sampling.sobol_normal", sampling, "sobol_normal", None),
    ("sampling.latin_hypercube", sampling, "latin_hypercube", None),
]

# Call counters without spans: these run inside the spans above, and a span
# each would add more overhead than the calls themselves.
COUNTED = [("scipy.linalg." + name, linalg, name) for name in ("solve_triangular", "cho_solve", "cholesky")]


class Tracer:
    """Records spans and counters while installed; restores every name on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.run_id = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._originals: list[object] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        for name, owner, attr, hook in SPANS:
            self._replace(owner, attr, lambda fn, name=name, hook=hook: self._span(name, fn, hook))
        for name, owner, attr in COUNTED:
            self._replace(owner, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._originals.clear()

    def _replace(self, owner, attr, make):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            else:
                wrapped = make(original)
            self._set(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        self._originals.append(original)
        for module in [owner, *package_bindings(original)]:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def leftover_bindings(self) -> list[str]:
        """Package names still bound to an unwrapped original (empty when installed)."""
        return [
            f"{module.__name__}.{key}"
            for original in self._originals
            for module in package_bindings(original)
            for key, value in vars(module).items()
            if value is original
        ]

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- wrappers ---------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span(self, name, fn, hook):
        nid = self._intern(name)
        stack, counts = self._stack, self.counts
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = start
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        key = name + ".calls"
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------------

    def span_arrays(self):
        """(name id, parent, run, duration, self time) arrays over all spans."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        run = np.frombuffer(self.span_run, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, run, dur, dur - child

    def per_op_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics, each averaged over n_ops traced operations."""
        name, parent, _, dur, self_time = self.span_arrays()
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=self_time, minlength=n_names)
        sums = {key: float(value) for key, value in self.counts.items()}
        for nid, label in enumerate(self.names):
            sums[label + ".calls"] = float(calls[nid])
            sums[label + ".s"] = float(total[nid])
            sums[label + ".self_s"] = float(own[nid])

        def child_time(root: str, children: tuple[str, ...]) -> float:
            if root not in self.name_ids:
                return 0.0
            rid = self.name_ids[root]
            ids = [self.name_ids[c] for c in children if c in self.name_ids]
            roots = np.flatnonzero(name == rid)
            under = np.isin(parent, roots) & np.isin(name, ids)
            return float(dur[roots].sum() - dur[under].sum())

        sums["lookahead.sga_s"] = child_time(
            "lookahead.optimize",
            ("lookahead.estimate_value", "acquisition.maximize_eic", "acquisition.greedy_batch_eic"),
        )
        sums["problems.polish_s"] = child_time(
            "problems.constrained_optimum_oracle", ("problems._grid_scan",)
        )
        metrics = {key: value / n_ops for key, value in sums.items()}
        metrics["lookahead.alpha_rows.rows_per_call"] = _ratio(
            sums.get("lookahead.FantasyEngine.alpha_rows.rows", 0),
            sums.get("lookahead.FantasyEngine.alpha_rows.calls", 0),
        )
        metrics["lookahead.alpha_rows.grad_row_frac"] = _ratio(
            sums.get("lookahead.alpha_rows.grad_rows", 0),
            sums.get("lookahead.FantasyEngine.alpha_rows.rows", 0),
        )
        metrics["lookahead.inner.degenerate_frac"] = _ratio(
            sums.get("lookahead.inner.degenerate", 0),
            sums.get("lookahead.FantasyEngine.solve_inner_batch.fantasies", 0),
        )
        metrics["problems.grid_cells_per_s"] = _ratio(
            sums.get("problems._grid_scan.cells", 0), sums.get("problems._grid_scan.s", 0)
        )
        return metrics

    def roots(self) -> list[dict]:
        """Name, run id, duration and self time of every outermost span."""
        name, parent, run, dur, self_time = self.span_arrays()
        return [
            {"name": self.names[name[i]], "run": int(run[i]), "span_s": float(dur[i]),
             "self_s": float(self_time[i])}
            for i in np.flatnonzero(parent < 0)
        ]

    def write_spans(self, path):
        """Gzipped CSV, one row per span, times in seconds from the first span's start."""
        name, parent, run, _, _ = self.span_arrays()
        start = np.frombuffer(self.span_start)
        end = np.frombuffer(self.span_end)
        t0 = start.min() if len(start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,run,name,start_s,end_s\n")
            for i in range(len(start)):
                fh.write(
                    f"{i},{parent[i]},{run[i]},{self.names[name[i]]},"
                    f"{start[i] - t0:.9f},{end[i] - t0:.9f}\n"
                )


def package_bindings(fn) -> list:
    """The package's modules that bind fn under some name."""
    mods = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
    return [m for m in mods if any(v is fn for v in vars(m).values())]


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0

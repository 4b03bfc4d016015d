"""What each per-layer metric of the traced run should move, and where.

``MOVES`` maps every ``per_layer`` metric of BENCHMARK.json (which holds its
unit and direction) to the end-to-end figure it should move and the workloads
it should move it on. ``acq_s``, ``rep_s`` and ``oracle_s`` are the ``op_s``
figure of the acquisition, loop and oracle workloads, and ``acq_value`` is
``answer_value`` on the acquisition workloads. Every metric must read non-zero
on its workloads, except those in ``MAY_BE_ZERO``, whose zero is a legitimate
reading. Metric values are per timed operation.
"""

from __future__ import annotations

P1 = ("acq_p1_q1",)
P3 = ("acq_p3_q2",)
ACQ = P1 + P3
LOOP = ("loop_p1_eic",)
ORACLE = ("oracle_p3",)


def _stats(prefix: str, stats: str, moves: str, on: tuple[str, ...]) -> dict:
    return {f"{prefix}.{stat}": (moves, on) for stat in stats.split()}


MOVES = {
    # lookahead: per-call overhead of the inner solve (batched restarts, merged formulas)
    **_stats("lookahead.FantasyEngine.alpha_rows", "calls rows self_s", "acq_s", P1),
    "lookahead.alpha_rows.rows_per_call": ("acq_s", P1),
    **_stats("lookahead.FantasyEngine.solve_inner_batch", "calls s fantasies", "acq_s", P1),
    **_stats("lookahead.FantasyEngine.__init__", "calls s", "acq_s", P1),
    # lookahead and gp: arithmetic in the stage-1 moments (affine moments, cached factors)
    **_stats("lookahead.FantasyEngine._stage1", "calls rows self_s", "acq_s", P3),
    **_stats("gp.kernel_matrix", "calls s elems", "acq_s", P3),
    **_stats("gp.kernel_grad_first_from", "calls s", "acq_s", P3),
    **_stats("lookahead.estimate_value", "calls s", "acq_s", P3),
    "lookahead.sga_s": ("acq_s", ACQ),
    # lookahead: the LR gradient (a better estimator moves the value, not the time)
    **_stats("lookahead.FantasyEngine.lr_gradients", "calls s", "acq_value", ACQ),
    **_stats("lookahead.FantasyEngine.score", "calls s", "acq_value", ACQ),
    # useful-to-attempted ratios that should hold steady
    "lookahead.inner.degenerate_frac": ("acq_value", ACQ),
    "lookahead.alpha_rows.grad_row_frac": ("acq_s", ACQ),
    # factorizations and triangular solves that cached factors would replace
    **_stats("scipy.linalg.solve_triangular", "calls", "acq_s", ACQ),
    **_stats("scipy.linalg.cho_solve", "calls", "acq_s", ACQ),
    **_stats("scipy.linalg.cholesky", "calls", "acq_s", ACQ),
    # sampling: designs rebuilt on every inner solve
    **_stats("sampling.halton_design", "calls s", "acq_s", ACQ),
    **_stats("sampling.sobol_normal", "calls s", "acq_s", ACQ),
    **_stats("sampling.latin_hypercube", "calls s", "acq_s", ACQ),
    # gp: hyperparameter fitting (setup_s on the acquisition workloads)
    **_stats("gp.fit_hyperparameters", "calls s", "rep_s", LOOP),
    **_stats("gp._nll_and_grad", "calls", "rep_s", LOOP),
    **_stats("gp.GPModel.fit", "calls s", "rep_s", LOOP),
    **_stats("gp.jittered_cholesky", "calls escalations", "acq_s", ACQ),
    # loop and the myopic acquisition
    **_stats("loop.recommend", "calls s", "rep_s", LOOP),
    **_stats("loop.fit_bundle", "s", "rep_s", LOOP),
    **_stats("loop.select_batch", "s", "rep_s", LOOP),
    **_stats("gp.GPModel.posterior_many", "calls s", "rep_s", LOOP),
    **_stats("gp.GPModel.posterior_grads", "calls s", "rep_s", LOOP),
    **_stats("acquisition.maximize_eic", "calls s", "rep_s", LOOP),
    **_stats("acquisition.eic_grad", "calls", "rep_s", LOOP),
    **_stats("acquisition.greedy_batch_eic", "calls s", "acq_s", P3),
    **_stats("acquisition.batch_eic_mc", "calls s", "acq_s", P3),
    # problems: the oracle's grid scan and SLSQP polish
    **_stats("problems._grid_scan", "s cells", "oracle_s", ORACLE),
    "problems.grid_cells_per_s": ("oracle_s", ORACLE),
    "problems.polish_s": ("oracle_s", ORACLE),
    # the tracer itself: traced over untraced operation time, minus one
    "trace.overhead_frac": ("op_s", ()),
}

# Zero is a legitimate reading here: no fantasy came back degenerate, or no
# factorization needed more than the initial jitter.
MAY_BE_ZERO = {"lookahead.inner.degenerate_frac", "gp.jittered_cholesky.escalations"}

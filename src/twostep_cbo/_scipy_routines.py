"""scipy 1.17's private compiled routines that the package calls, each loaded
from its file without the init of its scipy package, and the drivers that
replay scipy's loops over them, iterates bit for bit.

The inits cost: scipy.optimize loads sparse, spatial, fft, linalg and special
among others and lifts a process holding this package from 35 to 77 MB;
scipy.linalg and scipy.special load numpy.f2py, numpy.testing and numpy.ma
(about 0.3 s by tools/import_cost.py). load takes a module from its file, or
the one in sys.modules: these single-phase extensions put themselves there,
so their package, imported later, takes the same module.

- scipy/optimize/_lbfgsb: setulb, run by lbfgsb
  (test_lbfgsb_driver_matches_scipy_minimize_bit_for_bit).
- scipy/optimize/_slsqplib: slsqp, run by the driver slsqp and loaded on
  its first call (test_slsqp_driver_matches_scipy_minimize_bit_for_bit).
- scipy/linalg/_flapack: dpotrf, dpotrs and dtrtrs, which gp calls as
  scipy.linalg's cholesky, cho_solve and solve_triangular call them.
- scipy/special/_special_ufuncs: ndtr, scipy.special.ndtr itself.
- scipy/stats/_sobol_direction_numbers.npz, read by sampling (scipy_file;
  test_sobol_unit_matches_scipy_bit_for_bit).

pyproject.toml pins scipy 1.17, whose private signatures and state layouts
the drivers replay. Tests of the loading and of the modules' functions:
test_scipy_optimize_and_the_fit_share_one_copy_of_lbfgsb,
test_package_import_leaves_scipy_stats_unloaded and
test_loop_and_two_step_acquisition_leave_scipy_optimize_unloaded.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np
import scipy


def scipy_file(*parts: str) -> str:
    """The path of parts below the installed scipy's directory."""
    return os.path.join(os.path.dirname(scipy.__file__), *parts)


def load(name: str):
    """The compiled scipy module name: the one in sys.modules if any, else
    loaded from its file; ModuleNotFoundError if there is none."""
    if name in sys.modules:
        return sys.modules[name]
    stem = scipy_file(*name.split(".")[1:])
    paths = [stem + suffix for suffix in EXTENSION_SUFFIXES if os.path.exists(stem + suffix)]
    if not paths:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec = spec_from_file_location(name, paths[0])
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


setulb = load("scipy.optimize._lbfgsb").setulb
_flapack = load("scipy.linalg._flapack")
dpotrf, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs
ndtr = load("scipy.special._special_ufuncs").ndtr


def lbfgsb(fun, x0, lo, hi):
    """Minimize fun, which returns (value, gradient), over the finite box
    [lo, hi] from x0 clipped into it, with L-BFGS-B; returns the last
    iterate. It is the loop of minimize(fun, x0, jac=True, method="L-BFGS-B",
    bounds=...) over setulb with minimize's defaults, and gives its iterates
    bit for bit. fun gets a copy of each theta setulb asks for."""
    m, maxiter, maxfun, maxls = 10, 15000, 15000, 20
    factr = 2.2204460492503131e-09 / np.finfo(float).eps  # minimize's ftol, as it converts it
    n = x0.size
    x = np.clip(x0, lo, hi)
    f = np.array(0.0)
    g = np.zeros(n)
    nbd = np.full(n, 2, np.int32)  # bounded below and above
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    nfev = nit = 0
    while True:
        setulb(
            m, x, lo, hi, nbd, f, g, factr, 1e-5, wa, iwa, task, lsave, isave, dsave, maxls, ln_task
        )
        if task[0] == 3:  # wants f and g at x
            f, g = fun(x.copy())
            nfev += 1  # repeats too, unlike minimize: they part only past maxfun
        elif task[0] == 1:  # a new iterate; stop as minimize does
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            return x


def slsqp(fun, x0, jac, bounds, cons, cons_jac):
    """SLSQP (Kraft, DFVLR-FB 88-28, 1988) on fun, with gradient jac, over
    the finite box bounds (d, 2) from x0 clipped into it, subject to
    cons(x) >= 0 (m >= 1 values, Jacobian cons_jac): (last iterate, value).

    The loop of minimize(method="SLSQP") with options maxiter 200 and ftol
    1e-12, with its state, buffers and evaluations.
    """
    routine = load("scipy.optimize._slsqplib").slsqp
    lo, hi = bounds.T.copy()
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n = x.size
    fx, g, d = fun(x), jac(x), np.atleast_1d(cons(x)).astype(float)
    m = d.size
    C = np.zeros((m, n), order="F")
    C[:] = cons_jac(x)
    # the routine's state (scipy's SLSQP_static_vars) and workspace, sized as
    # minimize sizes them for inequality constraints alone
    state = {
        **dict.fromkeys(("alpha", "f0", "gs", "h1", "h2", "h3", "h4", "t", "t0"), 0.0),
        **dict.fromkeys(("exact", "inconsistent", "reset", "iter", "line", "meq", "mode"), 0),
        "acc": 1e-12, "tol": 10.0 * 1e-12, "itermax": 200, "m": m, "n": n,
    }
    buffer = np.zeros(n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28)
    indices = np.zeros(m + 2 * n + 2, np.int32)
    mult = np.zeros(m + 2 * n + 2)
    while True:
        routine(state, fx, g, C, d, x, mult, lo, hi, buffer, indices)
        if state["mode"] == 1:  # wants f and c at x
            fx, d[:] = fun(x), cons(x)
        elif state["mode"] == -1:  # wants g and C at x
            g, C[:] = jac(x), cons_jac(x)
        else:
            return x, fx

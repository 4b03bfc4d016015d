"""The GP and sampling layers sit below the rest of the package, and the
command line reaches the program through the harness and the problems only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twostep_cbo

SRC = Path(twostep_cbo.__file__).parent


def _package_imports(tree):
    """Names of the package modules a module imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found |= {node.module} if node.module else {a.name for a in node.names}
            elif node.module.startswith("twostep_cbo"):
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("twostep_cbo")}
    return {name.split(".")[-1] for name in found}


@pytest.mark.parametrize("module", ["gp.py", "sampling.py"])
def test_low_layers_import_no_package_module_but_sampling(module):
    tree = ast.parse((SRC / module).read_text())
    assert _package_imports(tree) <= {"sampling"}


def test_cli_imports_only_the_harness_and_problems():
    tree = ast.parse((SRC / "cli.py").read_text())
    assert _package_imports(tree) <= {"harness", "problems"}


def _fresh(code: str) -> list[str]:
    """The lines that code prints in a fresh interpreter on this package."""
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


@pytest.mark.parametrize(
    "package", ["scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.special"]
)
def test_package_import_leaves_scipy_stats_unloaded(package):
    """scipy.stats costs about as much to load as the rest of the package's
    dependencies together; the samplers reproduce its bits without it. Of
    scipy.optimize the fit needs only the compiled L-BFGS-B routine, of
    scipy.linalg three LAPACK routines and of scipy.special the ufunc ndtr,
    which gp loads from their files without the packages."""
    code = f"import sys, twostep_cbo, twostep_cbo.cli; print({package!r} in sys.modules)"
    assert _fresh(code) == ["False"]


HOT_PATHS = """
import sys
from twostep_cbo import lookahead, loop, problems

def loaded(*names):
    print(",".join(str(name in sys.modules) for name in names))

p1 = problems.get_problem("p1")
loop.run(p1, "eic", 5, 1, 3, seed=0, f_star=-1.888751)
history = loop.initialize(p1, 4, 0)
bundle, _ = loop.fit_bundle(history, p1, 0, 0)
loaded("scipy.linalg", "scipy.special", "scipy.optimize", "scipy.optimize._slsqplib")
tiny = lookahead.TwoStepConfig(
    n_restarts=1, n_sga_steps=2, n_grad_samples=4, inner_restarts=1, inner_steps=5,
    n_value_samples=8, n_final_value_samples=16,
)
lookahead.optimize(bundle, p1.bounds, 1, tiny, 0)
lookahead.optimize(bundle, p1.bounds, 2, tiny, 0)
loaded("scipy.linalg", "scipy.special", "scipy.optimize", "scipy.optimize._slsqplib")
problems.domain_max_oracle(p1, resolution=20, n_polish=2)
problems.constrained_optimum_oracle(p1, resolution=20, n_polish=2)
loaded("scipy.optimize", "scipy.special")
"""


def test_loop_and_two_step_acquisition_leave_scipy_optimize_unloaded():
    """An EIC replication and two-step acquisitions at q = 1 and q = 2 (with
    their fits, and at q = 2 greedy_batch_eic's batch_eic_mc draw) run
    without scipy.optimize, scipy.linalg or scipy.special: the fantasies'
    normals come from sampling._ndtri, not scipy.special.ndtri. The oracles'
    polishes run on the compiled L-BFGS-B and SLSQP routines alone, so
    scipy.optimize and scipy.special stay unloaded, and the SLSQP module is
    loaded only by the first constrained polish."""
    expected = ["False,False,False,False", "False,False,False,False", "False,False"]
    assert _fresh(HOT_PATHS) == expected


ONE_COPY = """
import sys
import numpy as np
{first}
lbfgsb = sys.modules["scipy.optimize._lbfgsb"]
slsqplib = sys.modules["scipy.optimize._slsqplib"]
flapack = sys.modules["scipy.linalg._flapack"]
special_ufuncs = sys.modules["scipy.special._special_ufuncs"]
{second}
from twostep_cbo import acquisition, gp, problems
print(sys.modules["scipy.optimize._lbfgsb"] is lbfgsb and gp.setulb is lbfgsb.setulb)
print(sys.modules["scipy.linalg._flapack"] is flapack and scipy.linalg.lapack.dpotrf is gp.dpotrf)
print(sys.modules["scipy.special._special_ufuncs"] is special_ufuncs
      and scipy.special.ndtr is acquisition.ndtr)
res = scipy.optimize.minimize(lambda x: ((x - 1.0) ** 2).sum(), np.zeros(2), method="L-BFGS-B")
print(bool(res.success) and np.allclose(res.x, 1.0))
X = np.linspace(0.0, 1.0, 6)[:, None]
print(isinstance(gp.fit_hyperparameters(X, np.sin(3.0 * X[:, 0])), gp.KernelParams))
C = np.array([[2.0, 1.0], [1.0, 2.0]])
print(np.array_equal(gp.jittered_cholesky(C, 1.0)[0], scipy.linalg.cholesky(C + 1e-8 * np.eye(2), lower=True)))
print(acquisition._Phi(0.5) == scipy.special.ndtr(0.5))
f = lambda x: float(((x - 1.0) ** 2).sum())
jac = lambda x: 2.0 * (x - 1.0)
cons, cons_jac = lambda x: 1.0 - x[:1], lambda x: np.array([[-1.0, 0.0]])
box = np.array([[-2.0, 2.0], [-2.0, 2.0]])
x, fx = problems.minimize(f, np.zeros(2), jac, box, cons, cons_jac)
res = scipy.optimize.minimize(
    f, np.zeros(2), jac=jac, method="SLSQP", bounds=box,
    constraints=dict(type="ineq", fun=cons, jac=cons_jac), options=dict(maxiter=200, ftol=1e-12),
)
print(bool(res.success) and np.array_equal(x, res.x) and fx == res.fun)
print(sys.modules["scipy.optimize._slsqplib"] is slsqplib
      and gp._scipy_extension("scipy.optimize._slsqplib") is slsqplib)
"""


@pytest.mark.parametrize("package_first", [True, False])
def test_scipy_optimize_and_the_fit_share_one_copy_of_lbfgsb(package_first):
    """gp._scipy_extension puts each compiled extension the package loads
    (L-BFGS-B, SLSQP, LAPACK, the special ufuncs) under its own name in
    sys.modules, or takes the one its scipy package loaded: whichever comes
    first, the second takes its module, and scipy's functions and the
    package's give the same results."""
    imports = [
        # the SLSQP module is loaded on the oracle's first polish
        "from twostep_cbo import problems\n"
        "problems.constrained_optimum_oracle(problems.p1(), resolution=20, n_polish=2)",
        "import scipy.optimize, scipy.linalg, scipy.special",
    ]
    first, second = imports if package_first else imports[::-1]
    assert _fresh(ONE_COPY.format(first=first, second=second)) == ["True"] * 9

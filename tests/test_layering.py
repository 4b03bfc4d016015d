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


def test_package_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs about as much to load as the rest of the package's
    dependencies together; the samplers reproduce its bits without it."""
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, twostep_cbo, twostep_cbo.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

"""tools/import_cost.py on cheap standard-library steps."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "import_cost.py"
_spec = importlib.util.spec_from_file_location("import_cost", TOOL)
import_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_cost)


def test_measure_times_every_step_of_every_interpreter():
    samples, loaded = import_cost.measure(["csv", "fractions,decimal"], runs=2)
    assert len(samples) == 2
    assert all(len(run) == 2 and min(run) > 0.0 for run in samples)
    assert loaded == []


def test_main_prints_one_row_per_step_and_the_total(capsys):
    assert import_cost.main(["-n", "2", "json", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:4]] == ["json", "csv", "total"]
    assert lines[-1] == "scipy subpackages loaded: none"


def test_the_package_imports_no_scipy_subpackage_it_calls_into():
    """_scipy_routines loads the compiled modules of scipy.optimize,
    scipy.linalg and scipy.special alone, which does not count as their
    packages."""
    _, loaded = import_cost.measure(["twostep_cbo"], runs=1)
    assert not {"linalg", "special", "optimize"} & set(loaded)

"""The lazy package namespace, and which entry points load NumPy.

``import qndsim``, :mod:`qndsim.physics` and ``qnd kappa`` are arithmetic on
the standard library; each check runs in a fresh interpreter, since this one
has NumPy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qndsim
from qndsim import gaussian_core, montecarlo, physics, stats

SRC = str(Path(qndsim.__file__).resolve().parents[1])

# the public names of the eager namespace this one replaced
PUBLIC = [
    "ATOM", "AtomicParams", "ConditionalResult", "DerivedCoupling", "GaussianState",
    "InsufficientDataError", "ModeLabel", "ParameterSheet", "PulseParams", "RunResult",
    "SequenceConfig", "SingularConditioningError", "SymplecticMap", "VarianceSummary",
    "apply_loss", "apply_map", "binned_conditional", "bootstrap_ci", "coherent_init",
    "condition_on", "coupling_strength", "derive_coupling", "faraday_angle", "kappa_from_angle",
    "load_sheet", "loss_parameter", "marginal", "predict", "pulse", "qnd_map", "run_group",
    "run_sequence", "squeezing_db", "variances",
]

NUMPY_LOADED = "import sys; print([m for m in sys.modules if m.split('.')[0] == 'numpy'])"


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


@pytest.mark.parametrize(
    "statement",
    [
        "import qndsim",
        "import qndsim; qndsim.__version__",
        "import qndsim.physics",
        "from qndsim import load_sheet, derive_coupling",
    ],
)
def test_numpy_stays_out(statement):
    proc = run_python(f"{statement}\n{NUMPY_LOADED}")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_qnd_kappa_loads_no_numpy(extra):
    # what ``python -m qndsim.harness kappa`` runs, with sys.modules read at its exit
    argv = ["qnd", "kappa", "--sheet", "yb171", *extra]
    code = f"""import runpy, sys
sys.argv = {argv!r}
try:
    runpy.run_module("qndsim.harness", run_name="__main__", alter_sys=True)
finally:
    print([m for m in sys.modules if m.split(".")[0] == "numpy"], file=sys.stderr)
"""
    proc = run_python(code)
    assert proc.returncode == 0 and proc.stdout.startswith(("sheet", "{"))
    assert proc.stderr == "[]\n"


def test_stats_leaves_montecarlo_out():
    # montecarlo imports the statistics' formulas from stats, so stats may not import it
    proc = run_python("import sys, qndsim.stats; print('qndsim.montecarlo' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_figure_commands_load_no_statistics():
    # mean_kappa_sq writes the normal cdf and pdf in math, so the import that
    # the figure commands run leaves statistics out
    proc = run_python("import sys, qndsim.figures; print('statistics' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


class TestLazyNamespace:
    def test_all_is_the_eager_list(self):
        assert qndsim.__all__ == PUBLIC

    def test_each_name_is_its_home_modules_object(self):
        homes = (gaussian_core, montecarlo, physics, stats)
        for name in PUBLIC:
            value = getattr(qndsim, name)
            assert any(vars(home).get(name, home) is value for home in homes), name

    def test_dir_covers_all(self):
        assert set(qndsim.__all__) <= set(dir(qndsim))
        assert "__version__" in dir(qndsim)

    def test_submodules_are_attributes(self):
        # as in the eager namespace, which imported them
        names = ("gaussian_core", "montecarlo", "physics", "stats")
        proc = run_python(f"import qndsim; print([getattr(qndsim, n).__name__ for n in {names}])")
        assert proc.stdout == f"{[f'qndsim.{name}' for name in names]}\n"

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from qndsim import *", namespace)
        assert set(qndsim.__all__) <= namespace.keys()

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            qndsim.no_such_name
        assert not hasattr(qndsim, "no_such_name")

"""What a process imports: the simulator path loads no scipy.

scipy is needed only for the Figs. 5-6 USL fit (``scipy.optimize``) and the
validation-scale CG kernel (``scipy.sparse``); every other path, from
``repro --help`` to a campaign worker, loads numpy and ``repro`` only
(DESIGN.md, "What a process imports").  Each case runs in a fresh
interpreter, since this test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _loaded_scipy(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running *code*."""
    return json.loads(_fresh_stdout(code)[-1])


def _fresh_stdout(code: str) -> list[str]:
    """The stdout lines of *code* in a fresh interpreter, ending with the
    JSON list of the scipy modules it holds."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    env = dict(os.environ, REPRO_DISK_CACHE="0")
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("module", [
    "repro",
    "repro.cli",
    "repro.campaign",
    "repro.insight",
    "repro.faults.experiments",
    "repro.bench.runner",
])
def test_importing_a_simulator_module_loads_no_scipy(module):
    assert _loaded_scipy(f"import {module}") == []


def test_a_bare_run_loads_no_scipy():
    code = (
        "from repro.bench import run_workload\n"
        "assert run_workload('cg', nodes=2).runtime > 0"
    )
    assert _loaded_scipy(code) == []


def test_an_insight_report_loads_no_scipy():
    code = (
        "from repro.insight import build_report\n"
        "build_report('jacobi', nodes=2)"
    )
    assert _loaded_scipy(code) == []


def test_listing_the_experiments_loads_no_scipy():
    from repro.bench.report import available_experiments

    lines = _fresh_stdout("from repro.cli import main\nassert main(['list']) == 0")
    assert json.loads(lines[-1]) == []
    assert "experiments      : " + " ".join(available_experiments()) in lines


def test_the_experiments_load_scipy_for_the_usl_fit():
    assert "scipy.optimize" in _loaded_scipy("import repro.bench.experiments")


def test_the_lazy_reexports_still_resolve():
    code = (
        "from repro.scalability import ScalingFit, fit_usl, r_squared\n"
        "from repro.scalability.extrapolate import fit_usl as direct\n"
        "assert fit_usl is direct\n"
        "from repro.bench import calibration, experiments, tables\n"
        "from repro.workloads.kernels import cg_solve, poisson_matrix_2d\n"
        "import numpy as np\n"
        "x, _ = cg_solve(poisson_matrix_2d(4), np.ones(16))\n"
        "assert np.all(np.isfinite(x))"
    )
    assert "scipy.optimize" in _loaded_scipy(code)


def test_an_unknown_scalability_name_is_an_attribute_error():
    import repro.scalability as scalability

    with pytest.raises(AttributeError, match="no_such_fit"):
        getattr(scalability, "no_such_fit")

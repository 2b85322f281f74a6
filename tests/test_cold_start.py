"""Cold start: SciPy is used for `scipy.fft` alone, loaded on first use.

`scipy.integrate` alone pulls in special, optimize, sparse.linalg and linalg
(about 0.8 s under -X importtime), so a module-level `from scipy.x import y`
anywhere in the package would put that cost on every `semiwave` command,
including config validation and `--help`.  The check runs in a fresh
interpreter, because the test session has already loaded them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import semiwave
import semiwave.harness
from semiwave import (Class1Params, Class2Params, SolverConfig, evolve, one_soliton,
                      separated_class1, separated_class2)
from semiwave.classical import PhasePoint, integrate_bicharacteristic
from semiwave.harness import (SCENARIO_NAMES, ExperimentConfig, default_config_path,
                              parse_config, validate_config)


# the public SciPy submodules loaded so far, but scipy.version, which
# `import scipy` loads itself
def loaded():
    return sorted(name for name in sys.modules if name.startswith("scipy.")
                  and name.count(".") == 1 and not name.startswith("scipy._")
                  and name != "scipy.version")


for name in SCENARIO_NAMES:
    validate_config(ExperimentConfig.from_file(default_config_path(name)))
assert len(SCENARIO_NAMES) == 6, SCENARIO_NAMES

spec = parse_config(ExperimentConfig.from_file(default_config_path("ehrenfest")))
params = spec.params.phys()
pot = spec.potential.build(params.mass)
sp = spec.family.soliton
dt, t_end = spec.solver.dt, spec.solver.t_end
z0 = PhasePoint(x=(sp.x0,), p=(2.0 * sp.xi,), t=0.0)
traj = integrate_bicharacteristic(z0, t_end + dt, dt, pot, params.mass)
assert len(traj.times()) > 1000
assert loaded() == [], loaded()

separated_class1(Class1Params(c1=1.0, c2=0.2), (-1.0, 1.0), params)
separated_class2(Class2Params(c1=1.0, a1=0.1), (-1.0, 1.0), params)
assert loaded() == [], loaded()

psi0 = one_soliton(sp, spec.grid.build(), 0.0, params)
evolve(psi0, SolverConfig(dt=dt, t_end=dt, params=params, pot=pot))
assert "scipy.fft" in loaded(), loaded()
print("ok")
"""


def test_scipy_submodules_load_on_first_use():
    """Importing the package and harness, validating all six shipped
    configs, integrating the ehrenfest orbit and building a class-1 and a
    class-2 family load no SciPy submodule; one evolve step loads
    scipy.fft, so the lazy path resolves."""
    proc = subprocess.run([sys.executable, "-W", "error", "-c", SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"

"""The scalar demos run to completion through the public package names."""

import subprocess
import sys
from pathlib import Path

import pytest

_DEMOS = Path(__file__).resolve().parent.parent / "demos"

# fem_bound_states.py is left out: it takes seconds, and criterion 7 runs
# the same FEM path.
SCALAR_DEMOS = ("critical_angle_certificate.py", "spin_orbit_spectrum.py",
                "strip_and_essential_spectrum.py", "transmission_algebra.py")


@pytest.mark.parametrize("name", SCALAR_DEMOS)
def test_scalar_demo_runs(name, child_env):
    out = subprocess.run([sys.executable, str(_DEMOS / name)], env=child_env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr

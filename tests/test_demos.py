"""Each script under demos/ runs to completion against the current API and
writes the files it announces."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMOS = {
    "ground_states_and_identities.py": [f"wave_n{n}.{ext}" for n in (1, 2, 3)
                                        for ext in ("csv", "json")],
    "planar_vortex_states.py": [f"vortex_k{k}.{ext}" for k in (1, 2)
                                for ext in ("csv", "json")],
    "relativistic_energy_momentum.py": ["boost_scan_1d.csv"],
    "soliton_in_flight.py": ["flight_diagnostics.csv"],
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    written = sorted(os.listdir(tmp_path / "outputs"))
    assert written == sorted(DEMOS[script])
    assert all((tmp_path / "outputs" / name).stat().st_size > 0 for name in written)

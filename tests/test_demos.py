"""The demos that call the core signatures run to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, marker", [
    ("01_sampling_and_roots.py", "max gap over a fresh draw"),
    ("02_determinant_identity.py", "relative residuals"),
    ("03_limiting_densities.py", "KS vs limit ="),
    ("04_deviation_scaling.py", "rate-scaled median ="),
    ("05_fmatrix_correspondence.py", "shifted-semicircle limit: KS ="),
])
def test_demo_runs(name, marker):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    r = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert r.returncode == 0, r.stderr
    assert marker in r.stdout

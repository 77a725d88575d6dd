"""The demos and the README quick start, which call the core signatures,
run to completion."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(*args) -> subprocess.CompletedProcess:
    """The interpreter on args, with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT)


@pytest.mark.parametrize("name, marker", [
    ("01_sampling_and_roots.py", "max gap over a fresh draw"),
    ("02_determinant_identity.py", "relative residuals"),
    ("03_limiting_densities.py", "KS vs limit ="),
    ("04_deviation_scaling.py", "rate-scaled median ="),
    ("05_fmatrix_correspondence.py", "shifted-semicircle limit: KS ="),
])
def test_demo_runs(name, marker):
    r = run_python(str(ROOT / "demos" / name))
    assert r.returncode == 0, r.stderr
    assert marker in r.stdout


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    r = run_python("-c", blocks[0])
    assert r.returncode == 0, r.stderr


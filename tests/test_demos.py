"""The demos and the README quick start, which call the core signatures,
run to completion."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


# the warning policy of pyproject.toml's filterwarnings: numpy's ComplexWarning
# is a RuntimeWarning, so the RuntimeWarning filter covers it (a -W option
# naming a numpy class is read before numpy can be imported, and is ignored
# with a notice)
WARNINGS_AS_ERRORS = tuple(
    arg
    for category in ("RuntimeWarning", "DeprecationWarning", "PendingDeprecationWarning",
                     "FutureWarning")
    for arg in ("-W", f"error::{category}")
)


def run_python(*args) -> subprocess.CompletedProcess:
    """The interpreter on args, with the package source first on PYTHONPATH and
    the warnings that tier-1 turns into errors turned into errors."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT)


@pytest.mark.parametrize("code", [
    "import warnings; warnings.warn('bare', RuntimeWarning)",
    "import numpy as np; np.array([1 + 1j]).astype(float)",
    "import warnings; warnings.warn('old', DeprecationWarning)",
    "import warnings; warnings.warn('soon', PendingDeprecationWarning)",
    "import warnings; warnings.warn('later', FutureWarning)",
])
def test_run_python_fails_on_a_bare_warning(code):
    r = run_python("-c", code)
    assert r.returncode != 0 and "Warning" in r.stderr
    assert "Invalid -W option" not in r.stderr


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


"""Release-gate acceptance suite.

Runs every acceptance criterion at its pinned tolerance and the documented
default seed, printing one pass/fail line per criterion (visible with
``pytest -s`` or on failure). The same criteria back the CLI ``verify``
subcommand.

C04 sits at its gate. Its median-ratio statistic, gated at < 3.0, reads
2.961 at the default seed over its 200 trials, but about 3.06 over 1000
trials, so any change to the sampled bytes can move it to either side of
3.0. It was a strict expected failure while the default seed read 3.134.
"""

import subprocess
import sys

import pytest

from jacobi_spectra.betarand import RngStream
from jacobi_spectra.verify import CRITERIA, DEFAULT_SEED


def _run(cid):
    rec = CRITERIA[cid](RngStream(DEFAULT_SEED, 0))
    status = "PASS" if rec["passed"] else "FAIL"
    print(
        f"{status} {rec['id']}: {rec['description']} "
        f"(observed {rec['observed']:.6g} {rec['comparison']} {rec['threshold']:g}, "
        f"{rec['seconds']:.2f}s / budget {rec['budget_seconds']:g}s)"
    )
    return rec


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid):
    rec = _run(cid)
    assert rec["passed"], (
        f"{rec['id']} failed: observed {rec['observed']} vs threshold "
        f"{rec['threshold']} ({rec['comparison']}), detail={rec.get('detail')}"
    )


def test_registry_covers_all_ids():
    assert sorted(CRITERIA) == [f"C{i:02d}" for i in range(1, 14)]


def test_package_import_leaves_verify_unloaded():
    # the package root re-exports the README's and demos' names only; the
    # gate is imported from jacobi_spectra.verify, by the CLI and these tests
    code = "import sys, jacobi_spectra; print('jacobi_spectra.verify' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr

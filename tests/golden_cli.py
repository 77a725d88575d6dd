"""Run the CLI command lines of ``golden_cli.json`` in-process and hash their output.

:func:`run_case` is the one CLI runner of the tests: it calls ``cli.main``,
which returns every exit code, argparse's 2 for a rejected command line
included. A ``RuntimeWarning`` raises, so a run that would print one to stderr
fails as a traceback would, and argparse wraps its usage at 80 columns
whatever the terminal.

Each case is one command line. ``{tmp}`` in its arguments stands for a fresh
empty directory; the same directory is written back as ``{tmp}`` in stdout
and stderr before hashing, so a path in an error message hashes the same on
every run. The record of a case is its exit code and the SHA-256 of stdout,
of stderr and of every file the command left in that directory. The numeric
hashes belong to one numpy build; the stderr of an argparse rejection holds
argparse's usage text, so its hash belongs to one Python version.

Rewrite the hashes after an intended byte change (cases keep their order
and arguments; add a case by appending ``{"args": [...]}``). The rewrite
prints the command line of every case whose record changed, and nothing when
none did:

    PYTHONPATH=src python tests/golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from jacobi_spectra import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(args: list[str]) -> tuple[dict, dict[str, bytes]]:
    """(record, raw outputs) of one command line; raw keys are "stdout", "stderr" and file names."""
    with (tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(),
          mock.patch.dict(os.environ, COLUMNS="80")):
        warnings.simplefilter("error", RuntimeWarning)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.replace("{tmp}", tmp) for a in args])
        files = {p.relative_to(tmp).as_posix(): p.read_bytes()
                 for p in sorted(Path(tmp).rglob("*")) if p.is_file()}
        stdout = out.getvalue().replace(tmp, "{tmp}").encode()
        stderr = err.getvalue().replace(tmp, "{tmp}").encode()
    record = {"args": args, "exit": code, "stdout": _sha(stdout), "stderr": _sha(stderr),
              "files": {name: _sha(data) for name, data in files.items()}}
    return record, {"stdout": stdout, "stderr": stderr, **files}


def load_cases() -> list[dict]:
    return json.loads(GOLDEN.read_text())["cases"]


def rewrite() -> None:
    doc = json.loads(GOLDEN.read_text())
    old, doc["cases"] = doc["cases"], [run_case(case["args"])[0] for case in doc["cases"]]
    for before, after in zip(old, doc["cases"]):
        if before != after:
            print(" ".join(after["args"]))
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    rewrite()

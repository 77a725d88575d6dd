"""Byte identity of the CLI: each command line of golden_cli.json reproduces
its recorded exit code and the SHA-256 of its stdout, stderr and files.

The hashes belong to one numpy build, and those of argparse's rejections to
one Python version; after an intended byte change, rewrite them with
``PYTHONPATH=src python tests/golden_cli.py`` and name the command lines whose
hashes moved.
"""

import json

import pytest

from golden_cli import load_cases, run_case

CASES = load_cases()


def _case_id(case):
    return " ".join(case["args"])


def _reject(constant):
    raise ValueError(f"{constant} is not a JSON value (RFC 8259)")


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_cli_output_matches_golden_hashes(case):
    record, _ = run_case(case["args"])
    assert record == case


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_cli_json_payloads_are_strict_json(case):
    _, raw = run_case(case["args"])
    for data in raw.values():
        if data.startswith(b"{"):
            json.loads(data, parse_constant=_reject)

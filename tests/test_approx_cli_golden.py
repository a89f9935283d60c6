"""Byte-identical guard for ``koenigslab approx`` output.

Each of the eight demo variants (the four demos at their defaults and at
one smaller budget) runs in process; the SHA-256 of its stdout must match
``approx_cli_golden.json``.  A change that is meant to alter an output
regenerates the digests with

    PYTHONPATH=src python tests/test_approx_cli_golden.py

and says so in its change notes.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from koenigslab.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "approx_cli_golden.json")

VARIANTS = {
    "strip": ["--demo", "strip"],
    "halfplane": ["--demo", "halfplane"],
    "eta": ["--demo", "eta"],
    "logdomain": ["--demo", "logdomain"],
    "strip-n16": ["--demo", "strip", "--n", "16"],
    "halfplane-budget8": ["--demo", "halfplane", "--budget", "8"],
    "eta-budget8": ["--demo", "eta", "--budget", "8"],
    "logdomain-n1024": ["--demo", "logdomain", "--n", "1024"],
}


def digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["approx", *argv])
    text = f"exit {code}\n" + buf.getvalue()
    return hashlib.sha256(text.encode()).hexdigest()


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_approx_output_is_byte_identical(name):
    assert digest(VARIANTS[name]) == _golden()[name]


if __name__ == "__main__":
    table = {name: digest(argv) for name, argv in sorted(VARIANTS.items())}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(table)} variants to {GOLDEN}\n")

"""Byte-identical guard for ``koenigslab approx`` output.

Each of the nine demo variants (the four demos at their defaults and at
one smaller budget, and ``eta`` at budget 1, whose lists give the fit a
1-by-1 and a 2-by-2 Gram matrix) runs in a subprocess with OpenBLAS,
OpenMP and MKL pinned to one thread; the SHA-256 of its stdout must match
``approx_cli_golden.json``.  The pin matters: a BLAS reduction's
summation order depends on its thread count, so the last bits of the
least-squares fits differ between one thread and a host's default.  The
benchmark runs pinned, so that is the configuration the digests record.

A change that is meant to alter an output regenerates the digests with

    PYTHONPATH=src python tests/test_approx_cli_golden.py

(which pins the subprocess itself) and says so in its change notes.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "approx_cli_golden.json")
SRC = os.path.join(os.path.dirname(HERE), "src")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

VARIANTS = {
    "strip": ["--demo", "strip"],
    "halfplane": ["--demo", "halfplane"],
    "eta": ["--demo", "eta"],
    "logdomain": ["--demo", "logdomain"],
    "strip-n16": ["--demo", "strip", "--n", "16"],
    "halfplane-budget8": ["--demo", "halfplane", "--budget", "8"],
    "eta-budget8": ["--demo", "eta", "--budget", "8"],
    "eta-budget1": ["--demo", "eta", "--budget", "1"],
    "logdomain-n1024": ["--demo", "logdomain", "--n", "1024"],
}


def digest(argv):
    from koenigslab.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["approx", *argv])
    text = f"exit {code}\n" + buf.getvalue()
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_digests():
    """Digest of every variant, computed in a fresh interpreter whose BLAS
    runs on one thread (the thread count is read when BLAS loads, so it
    cannot be pinned from inside an interpreter that already imported it)."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--print"],
        env=dict(os.environ, PYTHONPATH=path, **PINNED),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def digests():
    return pinned_digests()


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_approx_output_is_byte_identical(name, digests):
    assert digests[name] == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        json.dump({name: digest(argv) for name, argv in sorted(VARIANTS.items())}, sys.stdout)
        sys.exit(0)
    table = pinned_digests()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(table)} variants to {GOLDEN}\n")

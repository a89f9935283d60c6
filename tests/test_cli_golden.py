"""Byte-identical guard for the CLI output on the battery.

Each battery domain runs six commands in process; the SHA-256 of every
stdout (first 16 hex digits) must match ``cli_golden.json``.  A change
that is meant to alter an output regenerates the digests with

    PYTHONPATH=src python tests/test_cli_golden.py

and says so in its change notes.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from koenigslab.battery import full_battery
from koenigslab.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")
BATTERY = {e.name: e for e in full_battery()}


def commands(entry):
    spec = f"battery:{entry.name}"
    window = "--window=" + ",".join(repr(float(v)) for v in entry.window)
    return {
        "decide-p1-cross": [
            "decide", spec, "--p", "1", "--cross-check", window,
            "--resolution", str(min(entry.resolution, 1024)),
        ],
        "decide-p2.5": ["decide", spec, "--p", "2.5"],
        "classify": ["classify", spec],
        "analyze": ["analyze", spec],
        "freq": ["freq", "--domain", spec],
        "oracle": ["oracle", spec, window, "--resolution", str(entry.resolution)],
    }


def digests(entry):
    out = {}
    for key, argv in commands(entry).items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        text = f"exit {code}\n" + buf.getvalue()
        out[key] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_cli_output_is_byte_identical(name):
    want = _golden()[name]
    got = digests(BATTERY[name])
    assert got == want, [k for k in want if got.get(k) != want[k]]


if __name__ == "__main__":
    table = {name: digests(BATTERY[name]) for name in sorted(BATTERY)}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(table)} domains to {GOLDEN}\n")

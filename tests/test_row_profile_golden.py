"""Bit-identical guard for the raster row profiles on the battery.

Each battery domain is profiled on the y-edges ``rasterize`` uses, at
``entry.resolution`` and at half of it.  The SHA-256 of the raw bytes of
``M``, ``m``, ``Mstar``, ``outside`` and ``edge`` (first 16 hex digits)
must match ``row_profile_golden.json``.  A change that is meant to alter
a profile regenerates the digests with

    PYTHONPATH=src python tests/test_row_profile_golden.py

and says so in its change notes.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from koenigslab.battery import full_battery

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "row_profile_golden.json")
BATTERY = {e.name: e for e in full_battery()}
KEYS = ("M", "m", "Mstar", "outside", "edge")


def digests(entry):
    out = {}
    y0, y1 = entry.window[2], entry.window[3]
    for n in (entry.resolution, entry.resolution // 2):
        prof = entry.psi.row_profiles(np.linspace(y0, y1, n + 1))
        for key in KEYS:
            out[f"{n}:{key}"] = hashlib.sha256(
                np.ascontiguousarray(prof[key]).tobytes()
            ).hexdigest()[:16]
    return out


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_row_profiles_are_bit_identical(name):
    want = _golden()[name]
    got = digests(BATTERY[name])
    assert got == want, [k for k in want if got.get(k) != want[k]]


if __name__ == "__main__":
    table = {name: digests(BATTERY[name]) for name in sorted(BATTERY)}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(table)} domains to {GOLDEN}\n")

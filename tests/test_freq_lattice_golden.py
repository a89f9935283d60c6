"""Pinned membership statuses on the real frequency lattice.

For each of the five canonical domains below and p = 1, 2, the status of
``hardy_membership(lam, dom, p)`` at the 80 points lam = -2 + (k + 1/2)/32
of the real axis is stored in ``freq_lattice_golden.json`` as one string,
one character per point: ``M`` member, ``n`` non-member, ``?``
inconclusive.  These are the deep queries of the oracle: most of them run
the whole level schedule and end in a trend verdict.  A change that is
meant to alter a status regenerates the file with

    PYTHONPATH=src python tests/test_freq_lattice_golden.py

and says so in its change notes.
"""

import json
import os
import sys

import pytest

from koenigslab import hardy

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "freq_lattice_golden.json")
DOMAINS = {
    d.key: d
    for d in (
        hardy.half_plane_right(),
        hardy.horizontal_half_plane(0.0, "upper"),
        hardy.strip_width_pi(),
        hardy.eta_domain(1.0),
        hardy.eta_domain(0.5),
    )
}
P_VALUES = (1.0, 2.0)
LATTICE = tuple(-2.0 + (k + 0.5) / 32.0 for k in range(80))
CODE = {hardy.MEMBER: "M", hardy.NON_MEMBER: "n", hardy.INCONCLUSIVE: "?"}


def statuses(dom, p):
    return "".join(CODE[hardy.hardy_membership(lam, dom, p).status] for lam in LATTICE)


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", sorted(DOMAINS))
@pytest.mark.parametrize("p", P_VALUES)
def test_real_lattice_statuses_are_pinned(key, p):
    want = _golden()[f"{key}|{p}"]
    got = statuses(DOMAINS[key], p)
    assert got == want, [(LATTICE[k], want[k], got[k]) for k in range(len(want)) if got[k] != want[k]]


if __name__ == "__main__":
    table = {f"{key}|{p}": statuses(DOMAINS[key], p) for key in sorted(DOMAINS) for p in P_VALUES}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(table)} rows to {GOLDEN}\n")

"""Pinned bits of the quadrature oracle's log means.

For six canonical domains and p = 1, 2, ``hardy_membership`` runs on every
third point of the real lattice lam = -2 + (k + 1/2)/32 and on a 6 x 5
subset of the box lattice lam = -2 + (i + 1/2)/16 + i (-1 + (j + 1/2)/16).
Each (domain, p, lattice) row stores one SHA-256 over the pairs
(status, [m.hex() for m in log_means]) of its queries, so a change to any
node or log-mean bit shows here, not only a change of status.  A change
that is meant to move these bits regenerates ``oracle_bits_golden.json``
with

    PYTHONPATH=src python tests/test_oracle_bits_golden.py

and says so in its change notes.
"""

import hashlib
import json
import os
import sys

import pytest

from koenigslab import hardy

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_bits_golden.json")
DOMAINS = {
    d.key: d
    for d in (
        hardy.half_plane_right(),
        hardy.horizontal_half_plane(0.0, "upper"),
        hardy.strip_width_pi(),
        hardy.eta_domain(1.0),
        hardy.eta_domain(0.75),
        hardy.eta_domain(0.5),
    )
}
P_VALUES = (1.0, 2.0)
LATTICES = {
    "real": tuple(complex(-2.0 + (k + 0.5) / 32.0, 0.0) for k in range(0, 80, 3)),
    "box": tuple(
        complex(-2.0 + (i + 0.5) / 16.0, -1.0 + (j + 0.5) / 16.0)
        for i in range(0, 40, 7)
        for j in range(0, 32, 7)
    ),
}


def digest(dom, p, lams):
    h = hashlib.sha256()
    for lam in lams:
        res = hardy.hardy_membership(lam, dom, p)
        h.update(repr((res.status, [m.hex() for m in res.log_means])).encode())
    return h.hexdigest()


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", sorted(DOMAINS))
@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_log_mean_bits_are_pinned(key, p, lattice):
    assert digest(DOMAINS[key], p, LATTICES[lattice]) == _golden()[f"{key}|{p}|{lattice}"]


if __name__ == "__main__":
    table = {
        f"{key}|{p}|{lattice}": digest(DOMAINS[key], p, LATTICES[lattice])
        for key in sorted(DOMAINS)
        for p in P_VALUES
        for lattice in sorted(LATTICES)
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(table)} rows to {GOLDEN}\n")

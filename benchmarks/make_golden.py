"""Regenerate ``golden.json``: the result of every operation any seed can draw.

    python3 benchmarks/make_golden.py

Battery and approx operations store a digest of their sorted-key JSON
result.  freq-grid stores, per (domain, p, lattice), one status letter per
lattice point (M member, n non-member, ? inconclusive): the status is the
only part of a membership result that depends on the program.  Run it only
at a commit whose outputs are the reference; the benchmark then reports how
many operations differ as ``json_changed``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402

import worker  # noqa: E402


def main():
    golden = {}
    for workload in ("battery-decide", "battery-oracle", "approx-demos"):
        bench = worker.Workbench({"workload": workload, "seed": 0, "pass_index": 0})
        golden[workload] = {key: worker.digest(fn()[0]) for key, fn in bench.ops()}
    golden["freq-grid"] = {}
    for kind, params, dom in bench.domains:
        for p in worker.FREQ_P:
            for lattice, pts in (("real", worker.REAL_LATTICE), ("box", worker.BOX_LATTICE)):
                golden["freq-grid"][f"{dom.key}|{p}|{lattice}"] = "".join(
                    worker.STATUS_CODE[bench.freq_op(kind, params, dom, p, lattice, k)[0]["status"]]
                    for k in range(len(pts))
                )
    with open(os.path.join(worker.HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

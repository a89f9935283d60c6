"""One benchmark pass of one workload, in a fresh process.

``bench.py`` starts this file as ``python3 benchmarks/worker.py '<config>'``
with BLAS/OpenMP pinned to one thread.  The worker imports koenigslab from
``src/``, sets up (battery, spec dicts, canonical domains, seeded inputs),
runs one pass of the workload one operation at a time, checks every result
against ground truth and the golden digests, and prints one JSON line.

A pass never repeats an input, so no operation is answered from a cache an
identical earlier operation filled; only sharing between distinct inputs
(transplant nodes of one domain) can help.  The package's private caches
are never read or cleared.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from koenigslab import (  # noqa: E402
    approx,
    battery,
    classify,
    cli,
    completeness,
    hardy,
    raster,
    specio,
)
from koenigslab.domain import ValidationError  # noqa: E402

import spans  # noqa: E402

# freq-grid: the canonical domains in the order they are visited, p values,
# and the lambda lattices.  Drawing lambda from fixed lattices keeps a golden
# status for every input any seed can draw.  The lattices are offset by half
# a step, so no point lies on 0 or on a pinned boundary (Re = -1, -1/2, 1/2).
FREQ_DOMAINS = (
    ("half_plane_right", ()),
    ("horizontal_half_plane", (0.0, "upper")),
    ("strip_width_pi", ()),
    ("eta_domain", (1.0,)),
    ("eta_domain", (0.5,)),
)
FREQ_P = (1.0, 2.0)
REAL_LATTICE = tuple(complex(-2.0 + (k + 0.5) / 32.0, 0.0) for k in range(80))
BOX_LATTICE = tuple(
    complex(-2.0 + (i + 0.5) / 16.0, -1.0 + (j + 0.5) / 16.0)
    for i in range(40)
    for j in range(32)
)
# lambdas per (domain, p) and pass.  Box queries on the half-planes and the
# eta domains stop within a few levels, real-axis and strip queries run deep;
# an even split puts exactly half the ops in each population and the median
# op on the gap between them, so the real segment gets a 7:3 share
FREQ_DRAWS = {"real": 28, "box": 12}  # 400 queries a pass
MARGIN = 0.1  # no pinned answer is checked closer than this to its boundary
STATUS_CODE = {"member": "M", "non_member": "n", "inconclusive": "?"}

APPROX_DEMOS = ("strip", "halfplane", "eta", "logdomain")
ALPHA_POINTS = 100

TINY_BATTERY = ("strip", "gap", "spike")
TINY_APPROX_ARGS = {
    "strip": ["--n", "16"],
    "halfplane": ["--budget", "8"],
    "eta": ["--budget", "8"],
    "logdomain": ["--n", "1024"],
}


# reference kernel: fixed interpreter, numpy and LAPACK work that touches no
# koenigslab code, so its time tracks the speed of the host, not the program.
# It runs before the first op, after the last, and between ops whenever
# REF_EVERY_S seconds have passed since it last ran.
REF_EVERY_S = 1.0
_REF_X = np.linspace(0.0, 4.0, 300_000)
_REF_A = np.random.default_rng(0).standard_normal((90, 90))


def reference_seconds(reps=2):
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(90_000):
            acc += math.sin(i * 1e-3)
        np.sort(np.exp(np.sin(_REF_X)) * _REF_X)
        np.linalg.eigvals(_REF_A)
        best = min(best, time.perf_counter() - t0)
    return best


def digest(result):
    text = json.dumps(result, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- ground truth -------------------------------------------------------------


def _ray_truth(w):
    """Pinned answer for the ray {w real, w <= 0} (None near its boundary)."""
    if w.imag == 0.0 and w.real <= -MARGIN:
        return "member"
    dist = abs(w.imag) if w.real <= 0.0 else abs(w)
    return "non_member" if dist >= MARGIN else None


def freq_truth(kind, params, p, lam):
    """Closed forms pinned in tests/test_hardy.py, with a margin around
    each boundary; None where no answer is pinned."""
    if kind == "half_plane_right":
        return _ray_truth(lam)
    if kind == "horizontal_half_plane" and params == (0.0, "upper"):
        return _ray_truth(1j * lam)
    if kind == "strip_width_pi":
        gap = abs(lam.real) - 1.0 / p
        return "member" if gap <= -MARGIN else ("non_member" if gap >= MARGIN else None)
    if kind == "eta_domain" and params == (1.0,):
        lo = -1.0 / p
        if lam.imag == 0.0 and lo + MARGIN <= lam.real <= -MARGIN:
            return "member"
        nearest = complex(min(max(lam.real, lo), 0.0), 0.0)
        return "non_member" if abs(lam - nearest) >= MARGIN else None
    return None


def _strip_cap(beta=2.0, R=5.0, n=64):
    """Triangle-inequality cap on the strip bound (criterion 6)."""
    return math.exp(math.pi * R / (2 * n)) * (
        1 - math.exp(-(beta - math.pi / 2) * R)
    ) / (beta - math.pi / 2)


def approx_faults(demo, rows, out):
    errs = [e for _, e in rows]
    if demo == "strip":
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        if not all(1.5 <= r <= 3.0 for r in ratios):
            return f"error ratios {ratios} outside [1.5, 3]"
        cap = _strip_cap(n=rows[0][0])
        if not out["bound"] <= cap + 1e-9:
            return f"bound {out['bound']} above the cap {cap}"
    if demo == "halfplane" and any(b > a * (1 + 1e-9) for a, b in zip(errs, errs[1:])):
        return f"errors increase: {errs}"
    if demo == "logdomain" and out.get("univalent") is not True:
        return "logdomain boundary not univalent"
    if not all(math.isfinite(e) for e in errs):
        return f"non-finite errors {errs}"
    return None


# -- operations ---------------------------------------------------------------
# Each operation returns (result, definite, fault): the result is what the
# matching CLI command prints, fault names a contradiction with ground truth.


class Workbench:
    def __init__(self, cfg):
        self.cfg = cfg
        self.tiny = cfg.get("tiny", False)
        self.rng = np.random.default_rng([cfg["seed"], cfg["pass_index"]])
        self.entries = battery.full_battery()
        self.builders = dict(zip((e.name for e in self.entries), battery.BATTERY_BUILDERS))
        self.spec_dicts = {}
        for e in self.entries:
            try:
                self.spec_dicts[e.name] = json.loads(json.dumps(specio.psi_to_dict(e.psi)))
            except ValidationError:
                self.spec_dicts[e.name] = None  # opaque evaluator: use the builder
        self.domains = [
            (kind, params, getattr(hardy, kind)(*params)) for kind, params in FREQ_DOMAINS
        ]

    def load(self, name):
        d = self.spec_dicts[name]
        return specio.psi_from_dict(d) if d is not None else self.builders[name]().psi

    def ops(self):
        workload = self.cfg["workload"]
        if workload in ("battery-decide", "battery-oracle"):
            entries = [e for e in self.entries if not self.tiny or e.name in TINY_BATTERY]
            order = self.rng.permutation(len(entries))
            fn = self.decide_op if workload == "battery-decide" else self.oracle_op
            return [(entries[i].name, functools.partial(fn, entries[i])) for i in order]
        if workload == "freq-grid":
            return self.freq_ops()
        if workload == "approx-demos":
            ops = [(d, functools.partial(self.approx_op, d)) for d in APPROX_DEMOS]
            zs = self.rng.normal(0.0, 2.0, ALPHA_POINTS) + 1j * self.rng.normal(0.0, 2.0, ALPHA_POINTS)
            ops.append(("alpha-check", functools.partial(self.alpha_op, zs)))
            return [ops[i] for i in self.rng.permutation(len(ops))]
        raise ValueError(f"unknown workload {workload!r}")

    def decide_op(self, entry):
        psi = self.load(entry.name)
        out = completeness.decide(psi, p=1.0)
        region = hardy.lambda_infty(psi)
        kind = classify.classify(psi).kind
        result = {"decide": out, "exact_infty": region.to_json(), "class": kind}
        ws, pc = out["weak_star_complete"], out["p_complete"]
        fault = None
        if kind != entry.kind:
            fault = f"class {kind}, expected {entry.kind}"
        elif ws != "unknown" and ws != entry.weak_star:
            fault = f"weak-star {ws}, expected {entry.weak_star}"
        elif entry.p_complete and pc != "unknown" and pc != entry.p_complete:
            fault = f"p_complete {pc}, expected {entry.p_complete}"
        return result, ws != "unknown" and pc != "unknown", fault

    def oracle_op(self, entry):
        psi = self.load(entry.name)
        grid = raster.rasterize(psi, entry.window, entry.resolution)
        ic, details = raster.int_closure_equals_domain(grid)
        count, count_status = raster.complement_components(psi, grid)
        result = {
            "int_closure_ok": ic.value,
            "components": count,
            "component_status": count_status.value,
            "resolution": entry.resolution,
            "violation": details[0][0],
            "tolerance": details[0][1],
        }
        fault = None
        if ic.value != "unknown" and ic.value != entry.int_closure_equals:
            fault = f"int-closure {ic.value}, expected {entry.int_closure_equals}"
        elif count_status.value == "yes" and count != entry.components:
            fault = f"{count} components, expected {entry.components}"
        return result, ic.value != "unknown" and count_status.value == "yes", fault

    def freq_ops(self):
        """Domain-major order: the transplant cache holds about 40 node
        arrays, and interleaving the domains evicts them (the same 400
        queries took 58-61 s interleaved against 4.4-4.5 s domain-major on a
        2-core Xeon VM)."""
        ops = []
        for kind, params, dom in self.domains:
            for p in FREQ_P:
                picks = [
                    (lattice, int(k))
                    for lattice, pts in (("real", REAL_LATTICE), ("box", BOX_LATTICE))
                    for k in self.rng.choice(len(pts), 1 if self.tiny else FREQ_DRAWS[lattice], replace=False)
                ]
                for i in self.rng.permutation(len(picks)):
                    lattice, k = picks[i]
                    key = f"{dom.key}|{p}|{lattice}|{k}"
                    ops.append((key, functools.partial(self.freq_op, kind, params, dom, p, lattice, k)))
        return ops

    def freq_op(self, kind, params, dom, p, lattice, k):
        lam = (REAL_LATTICE if lattice == "real" else BOX_LATTICE)[k]
        res = hardy.hardy_membership(lam, dom, p)
        result = {"domain": dom.key, "lam": [lam.real, lam.imag], "p": p, "status": res.status}
        expected = freq_truth(kind, params, p, lam)
        definite = res.status != "inconclusive"
        fault = None
        if definite and expected is not None and res.status != expected:
            fault = f"{res.status} at lambda={lam} p={p} on {dom.key}, expected {expected}"
        return result, definite, fault

    def approx_op(self, demo):
        argv = ["approx", "--demo", demo] + (TINY_APPROX_ARGS[demo] if self.tiny else [])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        if code != 0:
            return {"exit": code, "stdout": text}, False, f"exit code {code}"
        head, _, body = text.partition("\n{")
        out = json.loads("{" + body)
        rows = [(int(b), float(e)) for b, e in (ln.split(",") for ln in head.splitlines()[1:])]
        return {"exit": code, "stdout": text}, True, approx_faults(demo, rows, out)

    def alpha_op(self, zs):
        quad = approx.alpha_quadrature(zs, n=64) if self.tiny else approx.alpha_quadrature(zs)
        err = float(np.max(np.abs(approx.alpha_map(zs) - quad)))
        ok = err < 1e-10
        fault = None if ok else f"closed form off the quadrature by {err:.3e}"
        return {"points": len(zs), "within_1e-10": ok}, True, fault


# -- golden digests -----------------------------------------------------------


def load_golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def golden_code(workload, result):
    """The value the golden file stores for this operation's result."""
    if workload == "freq-grid":
        return STATUS_CODE[result["status"]]
    return digest(result)


def golden_lookup(golden, workload, key):
    table = golden.get(workload, {})
    if workload == "freq-grid":
        dom_key, p, lattice, k = key.rsplit("|", 3)
        codes = table.get(f"{dom_key}|{p}|{lattice}")
        return codes[int(k)] if codes else None
    return table.get(key)


# -- main -----------------------------------------------------------------------


def context():
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "numpy": np.__version__,
        "blas": blas,
        "thread_pin": {k: os.environ.get(k) for k in pins},
    }


def main():
    cfg = json.loads(sys.argv[1])
    bench = Workbench(cfg)
    ops = bench.ops()
    golden = load_golden()
    tracer = None
    if cfg["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    t_ready = time.monotonic()
    refs = [reference_seconds()]
    t_ref = time.perf_counter()
    records = []
    for key, fn in ops:
        if time.perf_counter() - t_ref >= REF_EVERY_S:
            refs.append(reference_seconds())
            t_ref = time.perf_counter()
        t0 = time.perf_counter()
        try:
            result, definite, fault = tracer.run_op(key, fn) if tracer else fn()
        except Exception as exc:  # an operation that raises is counted failed
            result, definite, fault = None, False, f"raised {type(exc).__name__}: {exc}"
        dur = time.perf_counter() - t0
        changed = None
        if result is not None:
            want = golden_lookup(golden, cfg["workload"], key)
            changed = want is None or want != golden_code(cfg["workload"], result)
        records.append([key, dur, definite, fault, changed, len(refs) - 1])
    report = {
        "t_ready": t_ready,
        "ref_s": refs + [reference_seconds()],
        "ops": records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": context(),
    }
    if tracer is not None:
        self_s, calls = tracer.layer_totals()
        report["layers"] = {"self_s": self_s, "calls": calls, "errors": tracer.errors}
        report["counts"] = tracer.counts
        report["missing"] = tracer.missing
        with open(cfg["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()

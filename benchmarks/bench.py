"""koenigslab benchmark: end-to-end and per-layer timings of four workloads.

    python3 benchmarks/bench.py --workload battery-decide --seed 1 --seconds 30 --trace 0

Run it from the repository root.  Load model: a closed loop with one
client, one operation at a time.  Each pass of the workload runs in a fresh
single-threaded worker process (``worker.py``), with OpenBLAS/OpenMP/MKL
pinned to one thread; passes follow each other until ``--seconds`` have
gone by, and every pass started is completed.  The seed is the only input
to the generated workload, and each pass draws its own inputs from it.

Workloads (an operation is one user-level question):

* battery-decide  one op per battery domain, seed-shuffled: load the spec
  (``specio.psi_from_dict``, or the builder for the two opaque ones), then
  ``completeness.decide(psi, p=1)``, ``hardy.lambda_infty`` and
  ``classify`` -- what ``koenigslab decide --p 1`` and ``freq spec.json``
  run.  The criteria route: structural facts recomputed per caller, and
  eta1's p-route through the membership oracle.  No rasterising.
* battery-oracle  one op per battery domain: load, ``rasterize`` at the
  entry's window and resolution, ``int_closure_equals_domain``,
  ``complement_components`` -- what ``koenigslab oracle`` runs.  The raster
  route: row profiles dominate, the oracle is never called.
* freq-grid  ``hardy_membership`` over five canonical domains, p in {1, 2},
  28 lambdas on the real segment [-2, 0.5] and 12 in the box
  (-2, 0.5) x (-1, 1) per (domain, p), domain-major.  The oracle's own
  traffic, with many lambdas sharing one domain's transplant nodes.
* approx-demos  the four ``koenigslab approx`` demos at their defaults and
  an alpha-check (``alpha_map`` against ``alpha_quadrature`` at 100 seeded
  points).  The only workload that exercises ``approx``.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` every other pass is traced and the last line holds the
per-layer metrics (per traced pass) and the tracing slowdown.  Lines above
it give the context of the run and every metric in readable form, and
``.bench_out/`` receives a record of the run and the traced spans.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "koenigslab")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import spans  # noqa: E402

WORKLOADS = ("battery-decide", "battery-oracle", "freq-grid", "approx-demos")
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
RUN_LIMIT_S = 170.0  # a run, passes included, must end well within 180 s
# the host speed at which the reference kernel (worker.reference_seconds)
# takes REF_S; timings are scaled to it, see op_stats
REF_S = 0.025
TAIL_BEYOND = 10  # the tail is the highest percentile with this many ops beyond it
# passes behind the timing statistics: at most what a 30 s run holds on a
# slowed host, and a fixed count, so that the tail percentile always sits on
# the same kind of op: for battery-decide at least 11, which keeps the tail
# on the slowest domain (eta1), for freq-grid enough that about 20 of the
# deepest queries (eta, p = 1, near the cutoff) lie beyond it
STEADY_PASSES = {"battery-decide": 11, "battery-oracle": 7, "freq-grid": 7, "approx-demos": 2}


class BenchError(Exception):
    pass


def run_pass(args, index, traced):
    """Start one worker, wait for it, and return its report."""
    cfg = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_index": index,
        "trace": traced,
        "tiny": args.tiny,
        "spans_path": os.path.join(args.spans_dir, f"pass{index}.json"),
    }
    env = dict(os.environ, **WORKER_ENV)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass {index} did not finish within the run limit")
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}:\n{err[-4000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["t_ready"] - t_spawn
    refs = report["ref_s"]
    report["setup_scale"] = REF_S / refs[0]
    for rec in report["ops"]:  # the kernel runs just before and just after
        rec.append(REF_S / (0.5 * (refs[rec[5]] + refs[rec[5] + 1])))
    report["traced"] = traced
    return report


def op_stats(reports, workload, scaled=True):
    """Timing statistics over the fastest STEADY_PASSES[workload] passes.

    Other tenants of a shared host slow its CPU for tens of seconds at a
    time, by up to 1.6x on the 2-core Xeon VM the bounds were set on.  The
    worker times a fixed reference kernel around its ops, and each op time
    (and the set-up time) is scaled by REF_S over the kernel's time next to
    it: figures read as on a host where the kernel takes REF_S.
    Interference the scale misses only adds time, so the statistics use the
    fastest passes; a fixed pass count also fixes the number of ops behind
    the tail percentile.
    """
    def dur(rec):
        return rec[1] * (rec[6] if scaled else 1.0)

    steady = sorted(reports, key=lambda r: sum(dur(rec) for rec in r["ops"]))
    steady = steady[: STEADY_PASSES[workload]]
    durs = sorted(dur(rec) for r in steady for rec in r["ops"])
    n = len(durs)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0  # too few ops: report the max
    tail, pct = durs[n - beyond - 1], 100.0 * (n - beyond) / n
    return {
        "passes": len(steady),
        "ops": n,
        "setup_s": statistics.median(
            r["setup_s"] * (r["setup_scale"] if scaled else 1.0) for r in reports
        ),
        "ops_per_s": n / sum(durs),
        "op_p50_ms": 1e3 * statistics.median(durs),
        "op_tail_ms": 1e3 * tail,
        "tail_percentile": pct,
        "tail_beyond": beyond,
    }


def end_to_end(reports, workload, scaled=True):
    ops = [rec for r in reports for rec in r["ops"]]
    st = op_stats(reports, workload, scaled)
    return {
        "setup_s": (st["setup_s"], "s"),
        "ops_per_s": (st["ops_per_s"], "1/s"),
        "op_p50_ms": (st["op_p50_ms"], "ms"),
        "op_tail_ms": (st["op_tail_ms"], "ms"),
        "definite_share": (sum(1 for o in ops if o[2]) / len(ops), "ratio"),
        "failed_share": (sum(1 for o in ops if o[3]) / len(ops), "ratio"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reports), "MB"),
    }, st


def per_layer(reports, workload):
    traced = [r for r in reports if r["traced"]]
    plain = [r for r in reports if not r["traced"]]
    k = len(traced)
    out = {}
    for name, _, _, can_raise in spans.TARGETS:
        out[f"{name}.self_s"] = (sum(r["layers"]["self_s"][name] for r in traced) / k, "s")
        out[f"{name}.calls"] = (sum(r["layers"]["calls"][name] for r in traced) / k, "count")
        if can_raise:
            out[f"{name}.errors"] = (sum(r["layers"]["errors"][name] for r in traced) / k, "count")
    counts = {c: sum(r["counts"][c] for r in traced) / k for c in spans.COUNTS}
    calls = out["hardy.hardy_membership.calls"][0]
    out["hardy.levels"] = (counts["hardy.levels"], "count")
    out["hardy.nodes"] = (counts["hardy.nodes"], "count")
    out["hardy.definite_ratio"] = (counts["hardy.definite_calls"] / calls if calls else 0.0, "ratio")
    out["approx.expsum_term_points"] = (counts["approx.expsum_term_points"], "count")
    out["approx.alpha_quadrature.nodes"] = (counts["approx.alpha_quadrature.nodes"], "count")
    changed = sum(1 for r in reports for rec in r["ops"] if rec[4])
    out["json_changed"] = (changed / len(reports), "count")
    slowdown = op_stats(plain, workload)["ops_per_s"] / op_stats(traced, workload)["ops_per_s"]
    out["trace.slowdown"] = (slowdown, "ratio")
    missing = sorted({m for r in traced for m in r["missing"]})
    return out, missing


def run_context(args, worker_ctx):
    commit = "unknown"
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    lines = 0
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_koenigslab_lines": lines,
        **worker_ctx,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs (self-test)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write(f"koenigslab sources not found under {PACKAGE}\n")
        return 2
    start = time.monotonic()
    args.deadline = start + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.spans_dir = os.path.join(OUT_DIR, f"spans-{tag}")
    if args.trace:
        os.makedirs(args.spans_dir, exist_ok=True)
    reports = []
    try:
        # trace mode alternates plain and traced passes, so that both
        # sides of the slowdown come from the same run
        while (
            not reports
            or time.monotonic() - start < args.seconds
            or (args.trace and len(reports) < 2)
        ):
            reports.append(run_pass(args, len(reports), bool(args.trace and len(reports) % 2)))
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    elapsed = time.monotonic() - start

    ctx = run_context(args, reports[0]["context"])
    e2e, st = end_to_end([r for r in reports if not r["traced"]], args.workload)
    ops = [rec for r in reports for rec in r["ops"]]
    failures = [(rec[0], rec[3]) for rec in ops if rec[3]]
    print("context: " + json.dumps(ctx, sort_keys=True))
    traced = sum(1 for r in reports if r["traced"])
    print(f"{args.workload}: {len(reports)} passes ({traced} traced), {elapsed:.1f} s; "
          f"timings over the {st['ops']} ops of the {st['passes']} fastest untraced passes:")
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{st['tail_percentile']:.2f}: {st['tail_beyond']} of {st['ops']} ops beyond it)"
        print(f"  {name:<16} {value:.6g} {unit}{note}")
    print(f"  host speed: reference kernel {1e3 * statistics.median(r['ref_s'][0] for r in reports):.2f} ms "
          f"(timings above are scaled to {1e3 * REF_S:.0f} ms; unscaled figures are in the run record)")
    for key, fault in failures[:20]:
        print(f"  FAILED {key}: {fault}")
    # failed_share reaches the result as failed/attempted: a gated metric
    # must never be 0, and it is 0 wherever the program is correct
    metrics = {name: e2e[name] for name in e2e if name != "failed_share"}
    if args.trace:
        layers, missing = per_layer(reports, args.workload)
        print("per layer, per traced pass:")
        for name, (value, unit) in layers.items():
            print(f"  {name:<44} {value:.6g} {unit}")
        for name in missing:
            print(f"  MISSING trace target {name}")
        metrics = layers
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "context": ctx,
        "passes": len(reports),
        "end_to_end": e2e,
        "end_to_end_unscaled": end_to_end([r for r in reports if not r["traced"]], args.workload, False)[0],
        "tail": st,
        "failures": failures,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

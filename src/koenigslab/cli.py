"""Command-line front end.

Subcommands: classify, analyze, decide, freq, oracle, approx.  All outputs
are deterministic for a fixed config; JSON results carry the schema tag
"koenigs-lab/v1" and name the decision route used.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .approx import (
    LogDomainSpec,
    alpha_map,
    choose_b,
    discretize_measure,
    least_squares_fit,
    log_domain_boundary,
    log_domain_pipeline_demo,
    phi_beta_R,
    strip_sample_grid,
    sup_error_on_strip,
    univalence_winding_check,
)
from .battery import battery_entry
from .classify import HYPERBOLIC, PARABOLIC_ZERO, affine_minorant, classify, lambda_infty
from .completeness import decide
from .expr import parse_expression
from .features import analyze
from .hardy import (
    eta_domain,
    half_plane_right,
    hardy_membership,
    horizontal_half_plane,
    strip_width_pi,
)
from .raster import (
    WindowError,
    complement_components,
    int_closure_equals_domain,
    rasterize,
)
from .specio import load_psi
from .tri import TriState

SCHEMA = "koenigs-lab/v1"


def _emit(obj, path=None):
    obj = {"schema": SCHEMA, **obj}
    text = json.dumps(obj, sort_keys=True, indent=2, default=str) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(header, rows, path, out):
    """Write the header and rows as CSV to ``path``, and name it in ``out``,
    or write them to stdout when there is no path."""
    text = io.StringIO()
    wr = csv.writer(text)
    wr.writerow(header)
    wr.writerows(rows)
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text.getvalue())
        out["csv"] = path
    else:
        sys.stdout.write(text.getvalue())


def _load(path):
    if path.startswith("battery:"):
        return battery_entry(path.split(":", 1)[1]).psi
    return load_psi(path)


def _window(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window needs x0,x1,y0,y1")
    if not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"non-finite window {text!r}")
    return tuple(parts)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _canonical(name):
    if name == "halfplane":
        return half_plane_right()
    if name == "strip":
        return strip_width_pi()
    if name in ("upper", "upperhalfplane"):
        return horizontal_half_plane(0.0, "upper")
    if name.startswith("eta"):
        a = float(name[3:]) if len(name) > 3 else 1.0
        return eta_domain(a)
    raise ValueError(f"unknown canonical domain {name!r}")


def cmd_classify(args):
    psi = _load(args.spec)
    cls = classify(psi)
    out = {"class": cls.kind, "container": cls.container}
    if cls.kind == PARABOLIC_ZERO:
        am = affine_minorant(psi)
        out["affine_minorant"] = {
            "status": am.status.value,
            "m": am.m,
            "c": am.c,
            "reason": am.reason,
        }
    _emit(out, args.out)
    return 0


def cmd_analyze(args):
    psi = _load(args.spec)
    rep = analyze(psi)
    _emit({"features": rep.to_json()}, args.out)
    return 0


def cmd_decide(args):
    psi = _load(args.spec)
    out = decide(
        psi,
        p=args.p,
        cross_check=args.cross_check,
        window=args.window,
        resolution=args.resolution,
    )
    _emit(out, args.out)
    if args.strict and (
        out["weak_star_complete"] == "unknown"
        or out.get("p_complete") == "unknown"
    ):
        return 3
    return 0


def cmd_freq(args):
    if args.domain.endswith(".json") or args.domain.startswith("battery:"):
        psi = _load(args.domain)
        region = lambda_infty(psi)
        out = {"exact_infty": region.to_json()}
        if classify(psi).kind == HYPERBOLIC:
            out["band_template"] = (
                "admissible frequencies for finite p fill a vertical band "
                "(-c1/p, c2/p) x iR with domain-dependent constants; the "
                "vertical axis itself is always admissible"
            )
        _emit(out, args.out)
        return 0
    dom = _canonical(args.domain)
    # a zero-width axis is one point, not grid_n copies of it
    grid_re, grid_im = (
        np.linspace(lo, hi, args.grid_n if lo != hi else 1)
        for lo, hi in (args.grid[:2], args.grid[2:])
    )
    rows = []
    for u in grid_re:
        for v in grid_im:
            res = hardy_membership(complex(u, v), dom, args.p)
            rows.append((u, v, res.status))
    out = {
        "domain": dom.key,
        "p": args.p,
        "counts": {
            s: sum(1 for r in rows if r[2] == s)
            for s in ("member", "non_member", "inconclusive")
        },
    }
    csv_path = args.csv or (os.path.splitext(args.out)[0] + ".csv" if args.out else None)
    _write_csv(["re_lambda", "im_lambda", "status"], rows, csv_path, out)
    _emit(out, args.out)
    return 0


def cmd_oracle(args):
    psi = _load(args.spec)
    try:
        grid = rasterize(psi, args.window, args.resolution)
        ic, details = int_closure_equals_domain(grid)
        count, count_status = complement_components(psi, grid)
    except WindowError as exc:
        _emit({"error": "window_too_small", "guidance": str(exc)}, args.out)
        return 2
    out = {
        "int_closure_ok": ic.value,
        "components": count,
        "component_status": count_status.value,
        "resolution": args.resolution,
        "violation": details[0][0],
        "tolerance": details[0][1],
    }
    if args.pgm:
        grid.to_pgm(args.pgm)
        out["pgm"] = args.pgm
    _emit(out, args.out)
    if args.strict and (ic is TriState.UNKNOWN or count_status is TriState.UNKNOWN):
        return 3
    return 0


def _svg_convergence(rows, path):
    """Standalone SVG: log10(error) against log2(budget), data embedded."""
    if not rows:
        return
    xs = [math.log2(r[0]) for r in rows]
    ys = [math.log10(max(r[1], 1e-300)) for r in rows]
    x0, x1 = min(xs), max(xs) or 1
    y0, y1 = min(ys), max(ys)
    if y1 == y0:
        y1 = y0 + 1
    W, H, pad = 480, 320, 40

    def sx(x):
        return pad + (x - x0) / (x1 - x0 or 1) * (W - 2 * pad)

    def sy(y):
        return H - pad - (y - y0) / (y1 - y0) * (H - 2 * pad)

    pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    data = ";".join(f"{r[0]}:{r[1]:.6e}" for r in rows)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">'
        f'<desc>budget:error {data}</desc>'
        f'<rect width="{W}" height="{H}" fill="white"/>'
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>'
        + "".join(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="black"/>'
            for x, y in zip(xs, ys)
        )
        + f'<text x="{W/2}" y="{H-8}" text-anchor="middle" font-size="12">log2 budget</text>'
        f'<text x="12" y="{H/2}" font-size="12" transform="rotate(-90 12 {H/2})">log10 error</text>'
        "</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)


def _check_design_fits(budget, longest):
    """Raise before any frequency list is built when the fit's design matrix,
    2^14 nodes by the longest list in complex128, outgrows physical memory."""
    need = 2**14 * longest * 16
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"--budget {budget} needs {need / 2**30:.1f} GiB for the fit's design matrix, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )


def cmd_approx(args):
    for name in ("budget", "n"):
        v = getattr(args, name)
        if v is not None and v <= 0:
            raise ValueError(f"--{name} must be positive")
    rows = []
    out = {"demo": args.demo}
    if args.demo == "strip":
        beta, R = 2.0, 5.0
        pts = strip_sample_grid()
        target = lambda z: phi_beta_R(beta, R, z)
        density = lambda s: np.exp(-beta * np.asarray(s))
        n = args.n or 64
        budgets = (n, 2 * n, 4 * n)
        sums = [discretize_measure(density, R, nn).exp_sum("oscillatory") for nn in budgets]
        rows = [(nn, sup_error_on_strip(s, target, pts)) for nn, s in zip(budgets, sums)]
        out["bound"] = sums[0].strip_sup_bound()
    elif args.demo == "halfplane":
        dom = half_plane_right()
        target = lambda z: 1.0 / (z + 1.0) ** 2
        m = args.budget or 64
        budgets = (m, 2 * m, 4 * m)
        _check_design_fits(m, budgets[-1])
        fits = least_squares_fit(
            target, dom, [[-k / 8 for k in range(1, mm + 1)] for mm in budgets]
        )
        rows = [(mm, fit.error) for mm, fit in zip(budgets, fits)]
        out["rho_refinement_delta"] = fits[-1].rho_refinement_delta
    elif args.demo == "eta":
        # pole at -5 lies left of the frontier (psi <= -log 3), and the
        # frequencies stay inside the p = 2 admissible interval (-1/2, 0]
        dom = eta_domain(1.0)
        target = lambda z: 1.0 / (z + 5.0)
        m = args.budget or 32
        budgets = (m, 2 * m)
        _check_design_fits(m, budgets[-1])
        fits = least_squares_fit(
            target, dom, [[-0.45 * k / mm for k in range(1, mm + 1)] for mm in budgets]
        )
        rows = [(mm, fit.error) for mm, fit in zip(budgets, fits)]
    elif args.demo == "logdomain":
        spec = LogDomainSpec(
            psi=parse_expression("-(1/2)*log(abs(y)+1)"),
            lip_bound=0.5,
            log_exponent=0.6,
            name="log_demo",
        )
        b = choose_b(spec)
        param = log_domain_boundary(spec, b)
        interior = [alpha_map(complex(spec.psi(t) + b + 2.0, t)) for t in (-3.0, 0.0, 4.0)]
        ok, details = univalence_winding_check(alpha_map, param, args.n or 2**14, interior)
        out.update({"b": b, "univalent": ok, "windings": details["windings"]})
        # polynomial-in-alpha pipeline: fit, expand to an atomic transform
        _, prows = log_domain_pipeline_demo(spec, lambda z: 1.0 / (z + 5.0))
        rows = [(deg, err) for deg, err, _ in prows]
    if rows:
        _write_csv(["budget", "error"], [(b, f"{e:.9e}") for b, e in rows], args.csv, out)
        out["final_error"] = rows[-1][1]
        if args.svg:
            _svg_convergence(rows, args.svg)
            out["svg"] = args.svg
    _emit(out, args.out)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="koenigslab",
        description="Starlike-at-infinity domains: completeness of "
        "exponential frequencies, features, raster cross-checks, "
        "constructive approximation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="semigroup class from a domain spec")
    p.add_argument("spec")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("analyze", help="feature report as JSON")
    p.add_argument("spec")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("decide", help="completeness verdict")
    p.add_argument("spec")
    p.add_argument("--p", type=_finite, default=None)
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--window", type=_window, default=None)
    p.add_argument("--resolution", type=int, default=1024)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("freq", help="frequency region / sampled membership")
    p.add_argument("--domain", required=True, help="canonical name or spec.json")
    p.add_argument("--p", type=_finite, default=2.0)
    p.add_argument("--grid", type=_window, default=(-2.0, 0.5, -1.0, 1.0))
    p.add_argument("--grid-n", type=_positive_int, default=11)
    p.add_argument("--csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_freq)

    p = sub.add_parser("oracle", help="raster geometry cross-check")
    p.add_argument("spec")
    p.add_argument("--window", type=_window, required=True)
    p.add_argument("--resolution", type=int, default=1024)
    p.add_argument("--pgm")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("approx", help="constructive approximation demos")
    p.add_argument("--demo", required=True, choices=["halfplane", "strip", "logdomain", "eta"])
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--csv")
    p.add_argument("--svg")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_approx)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except WindowError as exc:
        sys.stderr.write(f"window too small: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

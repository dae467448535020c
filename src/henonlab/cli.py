"""Command-line harness around the library.

Configs are JSON, read from a path or stdin; artifacts land atomically in
the output directory.  Every report embeds the tool version and the fully
resolved config (defaults materialized), which can be fed back in to
reproduce the artifact byte for byte.  Exit codes: 0 on success, 2 for a
config problem (message carries the JSON pointer), 3 when the requested
computation fails.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, rng
from .core import (
    FiltrationParams,
    NumericOverflow,
    Point,
    eval_inverse,
    eval_map,
    in_v_plus,
)
from .dist import (
    FiniteDist,
    MapDistribution,
    SequenceSeed,
    condition_a_params,
)
from .escape import (
    DistSource,
    GreenIndeterminate,
    ShiftedSource,
    escape_census,
    green_plus,
    raster_slice,
)
from .lyapunov import (
    AllEscaped,
    DegenerateVector,
    backward_lyapunov_statistics,
    lyapunov_statistics,
)
from .minsets import (
    INFINITY,
    AmbiguousCapture,
    MinimalSetDescriptor,
    NotMinimal,
    discover_minimal_sets,
    estimate_TL,
)
from .transition import (
    CaptureRamp,
    RateUnresolved,
    SeriesStall,
    fd_derivative_TL,
    fit_convergence_rate,
    iterate_M,
    weight_derivative_TL,
)
from .bifurcation import locate_bifurcations, monotone_violations, scan_family
from .config import ConfigError, Resolver, jsonify_point, load_text
from .output import canonical_json, write_csv, write_json, write_pgm16

_TAG_CLI = 0x434C4900


class ComputeError(RuntimeError):
    """Run-level failure that is not a config problem."""


_COMPUTE_ERRORS = (
    AllEscaped,
    AmbiguousCapture,
    ComputeError,
    DegenerateVector,
    GreenIndeterminate,
    NotMinimal,
    NumericOverflow,
    RateUnresolved,
    SeriesStall,
)


def _phase(seed: SequenceSeed, *parts: int) -> SequenceSeed:
    """Per-phase sub-seed so commands draw independent streams."""
    return SequenceSeed(seed.master_seed, rng.derive_stream(seed.stream_id, _TAG_CLI, *parts))


def _report(resolved: Dict[str, Any], result: Dict[str, Any]) -> Dict[str, Any]:
    return {"version": __version__, "config": resolved, "result": result}


def _positive(r: Resolver, key: str, value: Optional[float]) -> Optional[float]:
    if value is not None and not value > 0:
        raise ConfigError(f"{r.ptr}/{key}", "must be positive")
    return value


def _params_field(r: Resolver, dist: MapDistribution) -> FiltrationParams:
    rho = _positive(r, "rho_margin", r.float_field("rho_margin", 1.0, lo=0.0))
    return condition_a_params(dist, rho_margin=rho)


def _discovery_fields(r: Resolver) -> Tuple[List[Point], Dict[str, Any]]:
    """Start grid plus the discover_minimal_sets keywords, within its bounds."""
    grid = r.points_field()
    knobs = {
        "burn_in": r.int_field("burn_in", 1000, lo=1000),
        "n_record": r.int_field("n_record", 200, lo=2),
        "cluster_eps": _positive(r, "cluster_eps", r.opt_float_field("cluster_eps", lo=0.0)),
    }
    return grid, knobs


def _jsonify_descriptor(d: MinimalSetDescriptor) -> Dict[str, Any]:
    out: Dict[str, Any] = {"id": d.id, "period": d.period}
    if d.is_infinity:
        return out
    out.update(
        {
            "capture_radius": d.capture_radius,
            "contraction": d.contraction,
            "cluster_eps": d.cluster_eps,
            "parts_centers": [jsonify_point(p) for p in d.parts_centers],
            "parts_radii": list(d.parts_radii),
            "cloud_size": len(d.cloud),
            "saturated": d.saturated,
        }
    )
    return out


def _discovery_block(
    r: Resolver, dist: MapDistribution, params: FiltrationParams, seed: SequenceSeed
) -> List[MinimalSetDescriptor]:
    node = r.cfg.get("discovery")
    if node is None:
        raise ConfigError(f"{r.ptr}/discovery", "missing required field")
    sub = Resolver(node, f"{r.ptr}/discovery")
    starts, knobs = _discovery_fields(sub)
    r.resolved["discovery"] = sub.resolved
    return discover_minimal_sets(dist, params, starts, _phase(seed, 0), **knobs)


def _finite_target(r: Resolver, minsets: Sequence[MinimalSetDescriptor],
                   allow_infinity: bool) -> MinimalSetDescriptor:
    raw = r.cfg.get("target", 0)
    if raw == INFINITY:
        if not allow_infinity:
            raise ConfigError(f"{r.ptr}/target", "a finite minimal set is required here")
        r.resolved["target"] = INFINITY
        return minsets[-1]
    idx = r.int_field("target", 0, lo=0)
    finite = [d for d in minsets if not d.is_infinity]
    if idx >= len(finite):
        raise ComputeError(
            f"target {idx} out of range: discovery found {len(finite)} finite minimal sets"
        )
    return finite[idx]


def _basin_json(est) -> Dict[str, Any]:
    return {
        "counts": {str(k): int(v) for k, v in sorted(est.counts.items(), key=lambda kv: str(kv[0]))},
        "probabilities": {str(k): v / est.samples for k, v in est.counts.items()},
        "unresolved": est.unresolved,
        "samples": est.samples,
    }


# ---------------------------------------------------------------------------
# command handlers


def _cmd_render_julia(cfg: Any, out: str, seed_override: Optional[int], threads: int) -> int:
    r = Resolver(cfg)
    dist = r.dist_field()
    seed = r.seed_field(seed_override)
    spec = r.slice_field()
    max_iter = r.int_field("max_iter", 500, lo=1)
    tol = r.float_field("tol", 1e-6, lo=1e-300, hi=1.0)
    params = _params_field(r, dist)
    source = DistSource(dist, _phase(seed, 0))
    raster = raster_slice(source, spec, params, max_iter=max_iter, tol=tol, threads=threads)

    # compress [0, inf) to [0, 65535]: bounded pixels stay black, escape rate
    # saturates toward white; uncertain pixels (nan) render black
    g = np.nan_to_num(raster.green, nan=0.0, posinf=1e300)
    pix = np.rint(65535.0 * (g / (1.0 + g))).astype(np.uint16)

    header = canonical_json({"config": r.resolved, "version": __version__})
    write_pgm16(os.path.join(out, "julia.pgm"), pix, comment=f"cfg {header}")
    counts = {
        "bounded": int((raster.verdict == 0).sum()),
        "escaped": int((raster.verdict == 1).sum()),
        "uncertain": int((raster.verdict == 2).sum()),
    }
    result = {
        "pixels": counts,
        "pixel_pitch": spec.pixel_pitch,
        "c_tel": raster.c_tel,
        "R": params.R,
        "pgm_sha256": hashlib.sha256(open(os.path.join(out, "julia.pgm"), "rb").read()).hexdigest(),
    }
    write_json(os.path.join(out, "julia.json"), _report(r.resolved, result))
    return 0


def _cmd_green(cfg: Any, out: str, seed_override: Optional[int], threads: int) -> int:
    r = Resolver(cfg)
    dist = r.dist_field()
    seed = r.seed_field(seed_override)
    points = r.points_field()
    max_iter = r.int_field("max_iter", 1000, lo=1)
    tol = r.float_field("tol", 1e-6, lo=1e-300, hi=1.0)
    params = _params_field(r, dist)
    source = DistSource(dist, _phase(seed, 0))

    entries = []
    rows = []
    for i, z in enumerate(points):
        est = green_plus(source, z, params, tol=tol, max_iter=max_iter)
        entries.append(
            {
                "point": jsonify_point(z),
                "value": est.value,
                "n_used": est.n_used,
                "error_bound": est.error_bound,
            }
        )
        rows.append(
            (
                i,
                float(complex(z[0]).real),
                float(complex(z[0]).imag),
                float(complex(z[1]).real),
                float(complex(z[1]).imag),
                est.value,
                est.n_used,
                est.error_bound,
            )
        )
    write_csv(
        os.path.join(out, "green.csv"),
        ("index", "x_re", "x_im", "y_re", "y_im", "green", "n_used", "error_bound"),
        rows,
    )
    write_json(os.path.join(out, "green.json"), _report(r.resolved, {"points": entries}))
    return 0


def _cmd_lyapunov(cfg: Any, out: str, seed_override: Optional[int], threads: int) -> int:
    r = Resolver(cfg)
    dist = r.dist_field()
    seed = r.seed_field(seed_override)
    z = r.point_field("z")
    samples = r.int_field("samples", 100, lo=10)
    n = r.int_field("n", 1000, lo=100)
    direction = r.choice_field("direction", ("forward", "backward"), "forward")
    fn = lyapunov_statistics if direction == "forward" else backward_lyapunov_statistics
    rep = fn(dist, z, samples, n, _phase(seed, 0))
    result = {
        "exponent": rep.exponent,
        "ci95_halfwidth": rep.ci95_halfwidth,
        "escaped_fraction": rep.escaped_fraction,
        "n_steps": rep.n_steps,
        "samples": rep.samples,
        "values": list(rep.values),
    }
    write_json(os.path.join(out, "lyapunov.json"), _report(r.resolved, result))
    return 0


def _cmd_minsets(cfg: Any, out: str, seed_override: Optional[int], threads: int) -> int:
    r = Resolver(cfg)
    dist = r.dist_field()
    seed = r.seed_field(seed_override)
    starts, knobs = _discovery_fields(r)
    params = _params_field(r, dist)
    sets = discover_minimal_sets(dist, params, starts, _phase(seed, 0), **knobs)
    finite = [d for d in sets if not d.is_infinity]
    result = {
        "descriptors": [_jsonify_descriptor(d) for d in sets],
        "finite_count": len(finite),
        "attracting_count": sum(
            1 for d in finite if d.contraction is not None and d.contraction < 1.0 - 1e-3
        ),
        "R": params.R,
    }
    write_json(os.path.join(out, "minsets.json"), _report(r.resolved, result))
    return 0


def _cmd_tl(cfg: Any, out: str, seed_override: Optional[int], threads: int) -> int:
    r = Resolver(cfg)
    dist = r.dist_field()
    seed = r.seed_field(seed_override)
    params = _params_field(r, dist)
    sets = _discovery_block(r, dist, params, seed)
    probes = r.points_field()
    samples = r.int_field("samples", 1000, lo=1)
    max_iter = r.int_field("max_iter", 1000, lo=1)
    entries = []
    for i, z in enumerate(probes):
        est = estimate_TL(
            dist, sets, z, samples, max_iter, _phase(seed, 1, i), params, threads=threads
        )
        entries.append({"point": jsonify_point(z), **_basin_json(est)})
    result = {
        "descriptors": [_jsonify_descriptor(d) for d in sets],
        "points": entries,
    }
    write_json(os.path.join(out, "tl.json"), _report(r.resolved, result))
    return 0


def _cmd_mop(cfg: Any, out: str, seed_override: Optional[int], threads: int) -> int:
    r = Resolver(cfg)
    dist = r.dist_field()
    seed = r.seed_field(seed_override)
    params = _params_field(r, dist)
    sets = _discovery_block(r, dist, params, seed)
    L = _finite_target(r, sets, allow_infinity=False)
    points = r.points_field()
    powers = r.int_list_field("powers", lo=0)
    budget = r.int_field("budget", 1_000_000, lo=1)
    mc_samples = r.int_field("mc_samples", 20_000, lo=1)
    ramp_width = r.opt_float_field("ramp_width", lo=0.0)
    do_fit = r.bool_field("fit", False)

    phi = CaptureRamp(L, width=ramp_width)
    result: Dict[str, Any] = {
        "descriptors": [_jsonify_descriptor(d) for d in sets],
        "target_id": L.id,
    }
    if do_fit:
        tl_samples = r.int_field("tl_samples", 1000, lo=1)
        tl_max_iter = r.int_field("tl_max_iter", 1000, lo=1)
        fit = fit_convergence_rate(
            dist,
            sets,
            L,
            points,
            powers,
            _phase(seed, 1),
            tl_samples=tl_samples,
            tl_max_iter=tl_max_iter,
            ramp_width=ramp_width,
            budget=budget,
            mc_samples=mc_samples,
            params=params,
        )
        result["fit"] = {
            "lambda_hat": fit.lambda_hat,
            "r_squared": fit.r_squared,
            "n_range": list(fit.n_range),
            "sup_errors": list(fit.sup_errors),
            "used": fit.used,
        }
    else:
        table = []
        for i, z in enumerate(points):
            row = []
            for k, n in enumerate(powers):
                val = iterate_M(
                    dist, phi, z, n, budget=budget, samples=mc_samples,
                    seed=_phase(seed, 2, i, k),
                )
                row.append({"n": n, "value": val.value, "se": val.se, "exact": val.exact})
            table.append({"point": jsonify_point(z), "powers": row})
        result["values"] = table
    write_json(os.path.join(out, "mop.json"), _report(r.resolved, result))
    return 0


def _cmd_dtl(cfg: Any, out: str, seed_override: Optional[int], threads: int) -> int:
    r = Resolver(cfg)
    dist = r.dist_field()
    if not isinstance(dist, FiniteDist):
        raise ConfigError("/maps", "weight derivatives need a finite-support distribution")
    seed = r.seed_field(seed_override)
    params = _params_field(r, dist)
    sets = _discovery_block(r, dist, params, seed)
    L = _finite_target(r, sets, allow_infinity=True)
    z = r.point_field("z")
    m = len(dist.maps)
    index = r.int_field("index", lo=0, hi=m - 1)
    if index == m - 1:
        raise ConfigError("/index", "the last weight is dependent; vary one of the others")

    eps_trunc = r.float_field("eps_trunc", 1e-3, lo=0.0)
    max_terms = r.int_field("max_terms", 200, lo=1)
    tl_samples = r.int_field("tl_samples", 400, lo=1)
    tl_max_iter = r.int_field("tl_max_iter", 400, lo=1)
    budget = r.int_field("budget", 1_000_000, lo=1)
    mc_samples = r.int_field("mc_samples", 10_000, lo=1)
    h = r.float_field("h", 0.05, lo=1e-12, hi=1.0)
    fd_tl_samples = r.int_field("fd_tl_samples", 4000, lo=1)
    richardson = r.bool_field("richardson", False)

    series = weight_derivative_TL(
        dist, sets, L, z, index, _phase(seed, 1),
        eps_trunc=eps_trunc, max_terms=max_terms, tl_samples=tl_samples,
        tl_max_iter=tl_max_iter, budget=budget, mc_samples=mc_samples, params=params,
    )
    fd = fd_derivative_TL(
        dist, sets, L, z, index, _phase(seed, 2),
        h=h, tl_samples=fd_tl_samples, tl_max_iter=tl_max_iter, params=params,
        richardson=richardson,
    )
    result = {
        "descriptors": [_jsonify_descriptor(d) for d in sets],
        "target_id": L.id,
        "series": {"value": series.value, "terms": list(series.terms)},
        "fd": {"value": fd.value, "h": fd.h, "richardson": fd.richardson},
        "gap": abs(series.value - fd.value),
    }
    write_json(os.path.join(out, "dtl.json"), _report(r.resolved, result))
    return 0


def _cmd_bifurcate(cfg: Any, out: str, seed_override: Optional[int], threads: int) -> int:
    r = Resolver(cfg)
    fam = r.family_field()
    seed = r.seed_field(seed_override)
    t_grid = r.float_list_field("t_grid", lo=0.0, hi=1.0)
    grid, knobs = _discovery_fields(r)
    tl_samples = r.int_field("tl_samples", 200, lo=1)
    tl_max_iter = r.int_field("tl_max_iter", 500, lo=1)

    scan = scan_family(
        fam, t_grid, grid, _phase(seed, 0), **knobs,
        tl_samples=tl_samples, tl_max_iter=tl_max_iter, threads=threads,
    )
    intervals = locate_bifurcations(scan)
    result = {
        "points": [
            {
                "t": p.t,
                "minset_count": p.minset_count,
                "finite_count": p.finite_count,
                "attracting_count": p.attracting_count,
                "all_attracting": p.all_attracting,
                "unresolved_mass": p.unresolved_mass,
                "mean_stable": p.mean_stable,
            }
            for p in scan.points
        ],
        "intervals": [
            {
                "t_lo": iv.t_lo,
                "t_hi": iv.t_hi,
                "count_lo": iv.count_lo,
                "count_hi": iv.count_hi,
                "monotone": iv.monotone,
            }
            for iv in intervals
        ],
        "monotone_violations": list(monotone_violations(scan)),
    }
    write_json(os.path.join(out, "bifurcate.json"), _report(r.resolved, result))
    write_csv(
        os.path.join(out, "bifurcate.csv"),
        ("t", "minset_count", "finite_count", "attracting_count",
         "all_attracting", "unresolved_mass", "mean_stable"),
        [
            (p.t, p.minset_count, p.finite_count, p.attracting_count,
             int(p.all_attracting), p.unresolved_mass, int(p.mean_stable))
            for p in scan.points
        ],
    )
    return 0


def _cmd_escape_stats(cfg: Any, out: str, seed_override: Optional[int], threads: int) -> int:
    r = Resolver(cfg)
    dist = r.dist_field()
    seed = r.seed_field(seed_override)
    points = r.points_field()
    max_iter = r.int_field("max_iter", 1000, lo=1)
    params = _params_field(r, dist)
    res = escape_census(dist, points, params, max_iter, _phase(seed, 0), threads=threads)
    result = {
        "escaped": res.escaped,
        "bounded": res.bounded,
        "uncertain": res.uncertain,
        "total": res.total,
        "escaped_fraction": res.escaped_fraction,
        "bounded_fraction": res.bounded_fraction,
        "uncertain_fraction": res.uncertain_fraction,
        "R": params.R,
    }
    write_json(os.path.join(out, "escape.json"), _report(r.resolved, result))
    return 0


def _cmd_selftest(cfg: Any, out: str, seed_override: Optional[int], threads: int) -> int:
    """Fast invariant checks on canned inputs; exits 0 when all hold."""
    from .core import HenonMap, Poly

    checks: List[str] = []
    f = HenonMap(alpha=0.2 + 0.1j, delta=0.3, poly=Poly((1.0, -0.4, 0.5, 0.1)))
    worst = 0.0
    for i in range(256):
        z = (
            complex(rng.uniform01(7, 1, 2 * i) * 4 - 2, rng.uniform01(7, 2, 2 * i) * 4 - 2),
            complex(rng.uniform01(7, 3, 2 * i) * 4 - 2, rng.uniform01(7, 4, 2 * i) * 4 - 2),
        )
        w = eval_inverse(f, eval_map(f, z))
        err = max(abs(w[0] - z[0]), abs(w[1] - z[1]))
        worst = max(worst, err / (1.0 + max(abs(z[0]), abs(z[1]))))
    if worst > 1e-9:
        raise ComputeError(f"inverse roundtrip drift {worst:.2e}")
    checks.append(f"roundtrip ok (max rel err {worst:.2e})")

    quad = HenonMap(alpha=0.0, delta=0.1, poly=Poly((1.0, -1.3, 0.0)))
    dist = FiniteDist((quad,), (1.0,))
    params = condition_a_params(dist)
    probe = (complex(1.0), complex(params.R * 1.5))
    img = eval_map(quad, probe)
    if not in_v_plus(img, params.R) or abs(img[1]) <= 2.0 * abs(probe[1]):
        raise ComputeError("escape cone is not forward invariant at the probe")
    checks.append(f"cone invariance ok (R {params.R:g})")

    # one-step shift multiplies the escape rate by the first map's degree
    src = DistSource(dist, SequenceSeed(7, 7))
    g0 = green_plus(src, probe, params)
    g1 = green_plus(ShiftedSource(src, 1), eval_map(src[0], probe), params)
    resid = abs(g1.value - src[0].degree * g0.value)
    if resid > 2e-6 * src[0].degree:
        raise ComputeError(f"functional equation residual {resid:.2e}")
    checks.append(f"functional equation ok (residual {resid:.2e})")

    rep = lyapunov_statistics(dist, (complex(0.3), complex(0.65)), 10, 100_000, SequenceSeed(7, 9))
    target = 0.5 * math.log(0.1)
    if abs(rep.exponent - target) > 1e-3:
        raise ComputeError(f"superattracting exponent {rep.exponent:.6f} != {target:.6f}")
    checks.append(f"lyapunov oracle ok ({rep.exponent:.6f})")

    for line in checks:
        print(f"selftest: {line}")
    if out:
        write_json(
            os.path.join(out, "selftest.json"),
            {"version": __version__, "config": {}, "result": {"checks": checks}},
        )
    return 0


_COMMANDS = {
    "render-julia": _cmd_render_julia,
    "green": _cmd_green,
    "lyapunov": _cmd_lyapunov,
    "minsets": _cmd_minsets,
    "tl": _cmd_tl,
    "mop": _cmd_mop,
    "dtl": _cmd_dtl,
    "bifurcate": _cmd_bifurcate,
    "escape-stats": _cmd_escape_stats,
    "selftest": _cmd_selftest,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="henonlab",
        description="Random Henon dynamics toolkit: escape rasters, Green "
        "functions, Lyapunov statistics, minimal sets, capture probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name != "selftest":
            p.add_argument("--config", required=True,
                           help="JSON config path, or - for stdin")
            p.add_argument("--out", default=".", help="output directory")
        else:
            p.add_argument("--out", default=None,
                           help="optional directory for the check report")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: hardware parallelism)")
    return parser


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2

    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    if threads < 1:
        print("config error: --threads must be positive", file=sys.stderr)
        return 2
    if args.seed is not None and not 0 <= args.seed < (1 << 64):
        print("config error: --seed must fit in 64 bits", file=sys.stderr)
        return 2

    cfg: Any = None
    if getattr(args, "config", None) is not None:
        try:
            if args.config == "-":
                text = sys.stdin.read()
            else:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except OSError as e:
            print(f"config error: cannot read {args.config}: {e}", file=sys.stderr)
            return 2
        try:
            cfg = load_text(text)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2

    if args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            print(f"config error: cannot create output directory: {e}", file=sys.stderr)
            return 2

    try:
        return _COMMANDS[args.command](cfg, args.out, args.seed, threads)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except _COMPUTE_ERRORS as e:
        print(f"computation failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

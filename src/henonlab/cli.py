"""Command-line harness around the library.

Configs are JSON, read from a path or stdin; artifacts land atomically in
the output directory.  Every report embeds the tool version and the fully
resolved config (defaults materialized, a grid recorded as written), which
can be fed back in to reproduce the artifact byte for byte.  Exit codes: 0
on success, 2 for a config problem (message carries the JSON pointer), 3
when the library fails: any ArithmeticError, MemoryError, RuntimeError or
ValueError, an unanticipated ValueError included.

The discovery modules (minsets, transition, bifurcation) load scipy, so
only the commands that run them import them, on first use; the raster,
Green, Lyapunov, census and selftest commands never load scipy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
from dataclasses import asdict, astuple, fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__, rng
from .core import FiltrationParams, HenonMap, Point, Poly, eval_inverse, eval_map, in_v_plus
from .dist import (
    FiniteDist,
    MapDistribution,
    SequenceSeed,
    condition_a_params,
    family_at,
)
from .escape import (
    VERDICT_BOUNDED,
    VERDICT_ESCAPED,
    VERDICT_UNCERTAIN,
    DistSource,
    ShiftedSource,
    escape_census,
    green_plus,
    green_points,
    raster_slice,
)
from .lyapunov import backward_lyapunov_statistics, lyapunov_statistics
from .config import ConfigError, Field, Resolver, checked, load_text
from .output import canonical_json, write_csv, write_json, write_pgm16

if TYPE_CHECKING:
    from .minsets import MinimalSetDescriptor

_TAG_CLI = 0x434C4900


class ComputeError(RuntimeError):
    """Run-level failure that is not a config problem."""


def _phase(seed: SequenceSeed, *parts: int) -> SequenceSeed:
    """Per-phase sub-seed so commands draw independent streams."""
    return seed.derive(_TAG_CLI, *parts)


def _system(r: Resolver,
            seed_override: Optional[int]) -> Tuple[MapDistribution, SequenceSeed, FiltrationParams]:
    """The random system, its master seed and its escape certificate at the
    config's rho_margin; every command that needs a certificate reads
    rho_margin here.  The support's own certificate was checked where it
    was read, so only a margin that alone makes R overflow is refused."""
    dist = r.dist()
    seed = r.seed_field(seed_override)
    rho = r.read({"rho_margin": Field("pos", 1.0)})["rho_margin"]
    return dist, seed, checked(f"{r.ptr}/rho_margin", condition_a_params, dist, rho_margin=rho)


def _discovery(r: Resolver, radii: Sequence[float],
               **extra: Field) -> Tuple[List[Point], Dict[str, Any]]:
    """The discovery block r: its starts, and its discover_minimal_sets
    keywords with the ``extra`` fields.  cluster_eps must clear the int64
    lattice floor of every certificate radius in ``radii``, and stay within
    the smallest of them: a cell wider than the escape bidisk lumps all of
    it into one "minimal set"."""
    from .minsets import cluster_eps_floor

    return r.points(), r.read({
        "burn_in": Field("int", 1000, lo=1000),
        "n_record": Field("int", 200, lo=2),
        "cluster_eps": Field("pos", None, lo=cluster_eps_floor(max(radii)), hi=min(radii)),
        **extra,
    })


def _descriptor_json(d: MinimalSetDescriptor) -> Dict[str, Any]:
    out: Dict[str, Any] = {"id": d.id, "period": d.period}
    if d.is_infinity:
        return out
    out.update(
        {
            "capture_radius": d.capture_radius,
            "contraction": d.contraction,
            "cluster_eps": d.cluster_eps,
            "parts_centers": d.parts_centers,
            "parts_radii": list(d.parts_radii),
            "cloud_size": len(d.cloud),
        }
    )
    return out


def _pick_target(minsets: Sequence[MinimalSetDescriptor],
                 target: Union[int, str]) -> MinimalSetDescriptor:
    from .minsets import INFINITY

    if target == INFINITY:
        return minsets[-1]
    finite = [d for d in minsets if not d.is_infinity]
    if target >= len(finite):
        raise ComputeError(
            f"target {target} out of range: discovery found {len(finite)} finite minimal sets"
        )
    return finite[target]


def _basin_json(est) -> Dict[str, Any]:
    return {
        "counts": {str(k): int(v) for k, v in sorted(est.counts.items(), key=lambda kv: str(kv[0]))},
        "probabilities": {str(k): v for k, v in est.probabilities.items()},
        "unresolved": est.unresolved,
        "samples": est.samples,
    }


# ---------------------------------------------------------------------------
# command handlers


# Each handler reads and checks every field of its config before any work
# starts, and returns the result that run_cli writes to its report.


def _cmd_render_julia(r: Resolver, out: str, seed_override: Optional[int],
                      threads: int) -> Dict[str, Any]:
    dist, seed, params = _system(r, seed_override)
    spec = r.sub("slice").slice_spec()
    max_iter, tol = r.read({
        "max_iter": Field("int", 500, lo=1),
        "tol": Field("float", 1e-6, lo=1e-300, hi=1.0),
    }).values()
    source = DistSource(dist, _phase(seed, 0))
    raster = raster_slice(source, spec, params, max_iter=max_iter, tol=tol, threads=threads)

    # compress [0, inf) to [0, 65535]: bounded pixels stay black, escape rate
    # saturates toward white; uncertain pixels (nan) render black
    g = np.nan_to_num(raster.green, nan=0.0, posinf=1e300)
    pix = np.rint(65535.0 * (g / (1.0 + g))).astype(np.uint16)

    header = canonical_json({"config": r.resolved, "version": __version__})
    pgm = write_pgm16(os.path.join(out, "julia.pgm"), pix, comment=f"cfg {header}")
    counts = {
        "bounded": int((raster.verdict == VERDICT_BOUNDED).sum()),
        "escaped": int((raster.verdict == VERDICT_ESCAPED).sum()),
        "uncertain": int((raster.verdict == VERDICT_UNCERTAIN).sum()),
    }
    return {
        "pixels": counts,
        "pixel_pitch": spec.pixel_pitch,
        "c_tel": raster.c_tel,
        "R": params.R,
        "pgm_sha256": hashlib.sha256(pgm).hexdigest(),
    }


def _cmd_green(r: Resolver, out: str, seed_override: Optional[int],
               threads: int) -> Dict[str, Any]:
    dist, seed, params = _system(r, seed_override)
    points = r.points()
    max_iter, tol = r.read({
        "max_iter": Field("int", 1000, lo=1),
        "tol": Field("float", 1e-6, lo=1e-300, hi=1.0),
    }).values()
    source = DistSource(dist, _phase(seed, 0))
    estimates = green_points(source, points, params, tol=tol, max_iter=max_iter, threads=threads)

    write_csv(
        os.path.join(out, "green.csv"),
        ("index", "x_re", "x_im", "y_re", "y_im", "green", "n_used", "error_bound"),
        [(i, x.real, x.imag, y.real, y.imag, *astuple(est))
         for i, ((x, y), est) in enumerate(zip(points, estimates))],
    )
    return {"points": [{"point": z, **asdict(est)} for z, est in zip(points, estimates)]}


def _cmd_lyapunov(r: Resolver, out: str, seed_override: Optional[int],
                  threads: int) -> Dict[str, Any]:
    dist = r.dist()
    seed = r.seed_field(seed_override)
    # backward orbits step the inverse maps, which only a finite support has
    directions = ("forward", "backward") if isinstance(dist, FiniteDist) else ("forward",)
    z, samples, n, direction = r.read({
        "z": Field("point"),
        "samples": Field("int", 100, lo=10),
        "n": Field("int", 1000, lo=100),
        "direction": Field("choice", "forward", choices=directions),
    }).values()
    fn = lyapunov_statistics if direction == "forward" else backward_lyapunov_statistics
    return asdict(fn(dist, z, samples, n, _phase(seed, 0)))


def _cmd_minsets(r: Resolver, out: str, seed_override: Optional[int],
                 threads: int) -> Dict[str, Any]:
    from .minsets import discover_minimal_sets

    dist, seed, params = _system(r, seed_override)
    starts, knobs = _discovery(r, (params.R,))
    sets = discover_minimal_sets(dist, params, starts, _phase(seed, 0), **knobs,
                                 threads=threads)
    finite = [d for d in sets if not d.is_infinity]
    return {
        "descriptors": [_descriptor_json(d) for d in sets],
        "finite_count": len(finite),
        "attracting_count": sum(1 for d in finite if d.attracting),
        "R": params.R,
    }


def _cmd_tl(r: Resolver, out: str, seed_override: Optional[int],
            threads: int) -> Dict[str, Any]:
    from .minsets import discover_minimal_sets, estimate_TL_many

    dist, seed, params = _system(r, seed_override)
    starts, knobs = _discovery(r.sub("discovery"), (params.R,))
    probes = r.points()
    samples, max_iter = r.read({
        "samples": Field("int", 1000, lo=1),
        "max_iter": Field("int", 1000, lo=1),
    }).values()

    sets = discover_minimal_sets(dist, params, starts, _phase(seed, 0), **knobs,
                                 threads=threads)
    ests = estimate_TL_many(dist, sets, probes, samples, max_iter,
                            [_phase(seed, 1, i) for i in range(len(probes))], params)
    entries = [{"point": z, **_basin_json(est)} for z, est in zip(probes, ests)]
    return {
        "descriptors": [_descriptor_json(d) for d in sets],
        "points": entries,
    }


def _cmd_mop(r: Resolver, out: str, seed_override: Optional[int],
             threads: int) -> Dict[str, Any]:
    from .minsets import discover_minimal_sets
    from .transition import CaptureRamp, fit_convergence_rate, iterate_M

    dist, seed, params = _system(r, seed_override)
    starts, knobs = _discovery(r.sub("discovery"), (params.R,))
    points = r.points()
    target, powers, budget, mc_samples, ramp_width, do_fit = r.read({
        "target": Field("int", 0, lo=0),
        "powers": Field("ints", lo=0),
        "budget": Field("int", 1_000_000, lo=1),
        # the Monte Carlo first step is stratified: one sample per support map at least
        "mc_samples": Field("int", 20_000,
                            lo=len(dist.maps) if isinstance(dist, FiniteDist) else 1),
        "ramp_width": Field("pos", None),
        "fit": Field("bool", False),
    }).values()
    if do_fit:
        if len(set(powers)) < 3:
            raise ConfigError("/powers", "a rate fit needs at least three distinct powers")
        tl = r.read({
            "tl_samples": Field("int", 1000, lo=1),
            "tl_max_iter": Field("int", 1000, lo=1),
        })

    sets = discover_minimal_sets(dist, params, starts, _phase(seed, 0), **knobs,
                                 threads=threads)
    L = _pick_target(sets, target)
    result: Dict[str, Any] = {
        "descriptors": [_descriptor_json(d) for d in sets],
        "target_id": L.id,
    }
    if do_fit:
        fit = fit_convergence_rate(
            dist, sets, L, points, powers, _phase(seed, 1), **tl,
            ramp_width=ramp_width, budget=budget, mc_samples=mc_samples, params=params,
        )
        result["fit"] = asdict(fit)
    else:
        phi = CaptureRamp(L, width=ramp_width)
        table = []
        for i, z in enumerate(points):
            row = []
            for k, n in enumerate(powers):
                val = iterate_M(
                    dist, phi, z, n, budget=budget, samples=mc_samples,
                    seed=_phase(seed, 2, i, k),
                )
                row.append({"n": n, **asdict(val)})
            table.append({"point": z, "powers": row})
        result["values"] = table
    return result


def _cmd_dtl(r: Resolver, out: str, seed_override: Optional[int],
             threads: int) -> Dict[str, Any]:
    from .minsets import INFINITY, discover_minimal_sets
    from .transition import fd_derivative_TL, weight_derivative_TL

    dist, seed, params = _system(r, seed_override)
    if not isinstance(dist, FiniteDist) or len(dist.maps) < 2:
        raise ConfigError("/maps", "weight derivatives need a finite support of two or more maps")
    starts, knobs = _discovery(r.sub("discovery"), (params.R,))
    w, m = dist.weights, len(dist.maps)
    # the last weight is the dependent one: it absorbs every step
    z, target, index = r.read({
        "z": Field("point"),
        "target": Field("int", 0, lo=0, choices=(INFINITY,)),
        "index": Field("int", lo=0, hi=m - 2),
    }).values()
    f = r.read({
        "eps_trunc": Field("pos", 1e-3),
        "max_terms": Field("int", 200, lo=1),
        "tl_samples": Field("int", 400, lo=1),
        "tl_max_iter": Field("int", 400, lo=1),
        "budget": Field("int", 1_000_000, lo=1),
        "mc_samples": Field("int", 10_000, lo=m),
        # the largest step that keeps both shifted weights in [0, 1]
        "h": Field("float", 0.05, lo=1e-12,
                   hi=min(w[index], w[-1], 1.0 - w[index], 1.0 - w[-1])),
        "fd_tl_samples": Field("int", 4000, lo=1),
        "richardson": Field("bool", False),
    })

    sets = discover_minimal_sets(dist, params, starts, _phase(seed, 0), **knobs,
                                 threads=threads)
    L = _pick_target(sets, target)
    series = weight_derivative_TL(
        dist, sets, L, z, index, _phase(seed, 1),
        eps_trunc=f["eps_trunc"], max_terms=f["max_terms"], tl_samples=f["tl_samples"],
        tl_max_iter=f["tl_max_iter"], budget=f["budget"], mc_samples=f["mc_samples"],
        params=params,
    )
    fd = fd_derivative_TL(
        dist, sets, L, z, index, _phase(seed, 2),
        h=f["h"], tl_samples=f["fd_tl_samples"], tl_max_iter=f["tl_max_iter"], params=params,
        richardson=f["richardson"],
    )
    return {
        "descriptors": [_descriptor_json(d) for d in sets],
        "target_id": L.id,
        "series": asdict(series),
        "fd": asdict(fd),
        "gap": abs(series.value - fd.value),
    }


def _cmd_bifurcate(r: Resolver, out: str, seed_override: Optional[int],
                   threads: int) -> Dict[str, Any]:
    from .bifurcation import FamilyPoint, locate_bifurcations, monotone_violations, scan_family

    fam = r.sub("family").family()
    seed = r.seed_field(seed_override)
    t_grid = r.read({"t_grid": Field("floats", lo=0.0, hi=1.0)})["t_grid"]
    if len(t_grid) < 2 or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ConfigError("/t_grid", "expected at least two strictly increasing amplitudes")
    # scan_family certifies each amplitude separately: eps must suit every R
    radii = [condition_a_params(family_at(fam, t)).R for t in t_grid]
    grid, knobs = _discovery(r, radii, tl_samples=Field("int", 200, lo=1),
                             tl_max_iter=Field("int", 500, lo=1))

    scan = scan_family(fam, t_grid, grid, _phase(seed, 0), **knobs, threads=threads)
    # every FamilyPoint field but the descriptors, in declaration order
    columns = [f.name for f in fields(FamilyPoint) if f.name != "descriptors"]
    rows = [{c: getattr(p, c) for c in columns} for p in scan.points]
    write_csv(
        os.path.join(out, "bifurcate.csv"),
        columns,
        [[int(v) if isinstance(v, bool) else v for v in row.values()] for row in rows],
    )
    return {
        "points": rows,
        "intervals": [asdict(iv) for iv in locate_bifurcations(scan)],
        "monotone_violations": list(monotone_violations(scan)),
    }


def _cmd_escape_stats(r: Resolver, out: str, seed_override: Optional[int],
                      threads: int) -> Dict[str, Any]:
    dist, seed, params = _system(r, seed_override)
    points = r.points()
    max_iter = r.read({"max_iter": Field("int", 1000, lo=1)})["max_iter"]
    res = escape_census(dist, points, params, max_iter, _phase(seed, 0))
    return {
        "escaped": res.escaped,
        "bounded": res.bounded,
        "uncertain": res.uncertain,
        "total": res.total,
        "escaped_fraction": res.escaped_fraction,
        "bounded_fraction": res.bounded_fraction,
        "uncertain_fraction": res.uncertain_fraction,
        "R": params.R,
    }


def _cmd_selftest(r: Resolver, out: Optional[str], seed_override: Optional[int],
                  threads: int) -> Dict[str, Any]:
    """Fast invariant checks on canned inputs; exits 0 when all hold."""
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
    return {"checks": checks}


# command -> (handler, the report run_cli writes from its result)
_COMMANDS = {
    "render-julia": (_cmd_render_julia, "julia.json"),
    "green": (_cmd_green, "green.json"),
    "lyapunov": (_cmd_lyapunov, "lyapunov.json"),
    "minsets": (_cmd_minsets, "minsets.json"),
    "tl": (_cmd_tl, "tl.json"),
    "mop": (_cmd_mop, "mop.json"),
    "dtl": (_cmd_dtl, "dtl.json"),
    "bifurcate": (_cmd_bifurcate, "bifurcate.json"),
    "escape-stats": (_cmd_escape_stats, "escape.json"),
    "selftest": (_cmd_selftest, "selftest.json"),
}


def _cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: its ten subparsers take
    about 2 ms to build, and parsing leaves the parser as it was."""
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
        p.add_argument("--threads", type=int, default=_cpus(),
                       help="worker threads (default: the CPUs this process may run on)")
    return parser


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2

    if args.threads < 1:
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

    handler, report = _COMMANDS[args.command]
    try:
        r = Resolver({} if cfg is None else cfg)  # selftest reads no config
        # one worker per CPU at most: a KD query starts one thread per worker
        result = handler(r, args.out, args.seed, min(args.threads, _cpus()))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError, RuntimeError, ValueError) as e:  # every library failure
        print(f"computation failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    if args.out is not None:
        write_json(os.path.join(args.out, report),
                   {"version": __version__, "config": r.resolved, "result": result})
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Release acceptance battery.

One test per advertised guarantee, in contract order, each with its
wall-clock budget.  Everything is seeded; reruns must be bit-stable.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

from conftest import QUAD_A, QUAD_C, QUAD_W
from henonlab.cli import run_cli
from henonlab.config import Resolver, dist_from, points_from, slice_from
from henonlab.core import (
    HenonMap,
    Poly,
    Region,
    classify_region,
    eval_inverse,
    eval_map,
    in_v_plus,
    norm,
    swap,
)
from henonlab.dist import (
    BallNoise,
    FiniteDist,
    SequenceSeed,
    condition_a_params,
    family_at,
    inverse_distribution,
    sample_map,
    support_sample,
)
from henonlab.escape import (
    VERDICT_ESCAPED,
    DistSource,
    ShiftedSource,
    SpliceSource,
    boundary_extract,
    escape_census,
    green_plus,
    green_stages,
    hausdorff_pixels,
    raster_slice,
    telescoping_constant,
)
from henonlab.lyapunov import backward_lyapunov_statistics, lyapunov_statistics
from henonlab.minsets import discover_minimal_sets, estimate_TL
from henonlab.bifurcation import locate_bifurcations, monotone_violations, scan_family
from henonlab.transition import fd_derivative_TL, fit_convergence_rate, weight_derivative_TL

PRESET_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "henonlab", "presets")


def _preset(name: str) -> dict:
    with open(os.path.join(PRESET_DIR, name)) as fh:
        return json.load(fh)


def _check_budget(t0: float, limit: float) -> None:
    assert time.monotonic() - t0 < limit


def _cone_probes(gen: np.random.Generator, R: float, count: int):
    """Points of V_R^+: |y| in (R, 4R], |x| < |y|, random phases."""
    out = []
    for _ in range(count):
        ay = R * (1.0 + 3.0 * gen.uniform(1e-6, 1.0))
        ax = ay * gen.uniform(0.0, 1.0 - 1e-9)
        py, px = np.exp(2j * np.pi * gen.uniform(size=2))
        out.append((ax * px, ay * py))
    return out


# 1. exact inverse: 1e4 random (map, point) pairs roundtrip to 1e-9 relative
def test_inverse_roundtrip_bulk():
    t0 = time.monotonic()
    gen = np.random.default_rng(0xA1)
    maps = []
    for _ in range(100):
        deg = int(gen.integers(2, 6))
        coeffs = gen.normal(size=deg + 1) + 1j * gen.normal(size=deg + 1)
        if abs(coeffs[0]) < 0.1:
            coeffs[0] += 2.0
        delta = complex(gen.normal(), gen.normal())
        if abs(delta) < 0.3:
            delta += 1.0
        alpha = complex(gen.normal(), gen.normal())
        maps.append(HenonMap(alpha, delta, Poly(tuple(coeffs))))
    for f in maps:
        for _ in range(100):
            z = (
                complex(gen.normal(), gen.normal()) * 3.0,
                complex(gen.normal(), gen.normal()) * 3.0,
            )
            back = eval_inverse(f, eval_map(f, z))
            assert abs(back[0] - z[0]) <= 1e-9 * (1 + norm(z))
            assert abs(back[1] - z[1]) <= 1e-9 * (1 + norm(z))
    _check_budget(t0, 1.0)


# 2. filtration certificate (R, 2) for every shipped map pack: forward cone
#    invariance with |y| more than doubling, mirrored for the inverse cone
def test_filtration_certificate_packs():
    t0 = time.monotonic()
    fam = Resolver(_preset("family-noise.json")["family"], "/family").family()
    packs = [
        dist_from(_preset("quad-attracting.json"), ""),
        dist_from(_preset("quad-volume.json"), ""),
        family_at(fam, 0.0),
        family_at(fam, 1.0),
    ]
    for pack_i, dist in enumerate(packs):
        params = condition_a_params(dist)
        assert params.rho == 2.0
        gen = np.random.default_rng(0xC0 + pack_i)
        seed = SequenceSeed(0xC0DE, pack_i)
        for i, z in enumerate(_cone_probes(gen, params.R, 10_000)):
            f = sample_map(dist, seed, i)
            assert in_v_plus(z, params.R)
            w = eval_map(f, z)
            assert in_v_plus(w, params.R)
            assert abs(w[1]) > params.rho * abs(z[1])
        for i, zc in enumerate(_cone_probes(gen, params.R, 10_000)):
            z = swap(zc)  # V_R^-
            f = sample_map(dist, seed, 10_000 + i)
            assert classify_region(z, params.R) == Region.V_MINUS
            w = eval_inverse(f, z)
            assert classify_region(w, params.R) == Region.V_MINUS
            assert abs(w[0]) > params.rho * abs(z[0])
    _check_budget(t0, 5.0)


# 3. Green values: telescoping bound on 1e3 escaping probes, functional
#    equation residual under 2 tol, and the log|y| expansion deep in the cone
def test_green_telescoping_functional_stabilization():
    t0 = time.monotonic()
    dist = dist_from(_preset("quad-attracting.json"), "")
    params = condition_a_params(dist)
    c = telescoping_constant(dist, params)
    gen = np.random.default_rng(0x63)
    for i, z in enumerate(_cone_probes(gen, params.R, 1000)):
        stages, entry = green_stages((dist, SequenceSeed(0x6EE, i)), z, params, 30)
        assert entry is not None
        for n in range(entry, len(stages) - 1):
            assert abs(stages[n + 1] - stages[n]) <= c * 2.0 ** (-(n - entry)) + 1e-15

    tol = 1e-6
    for i, z in enumerate(_cone_probes(gen, params.R, 200)):
        src = DistSource(dist, SequenceSeed(0xFE, i))
        g0 = green_plus(src, z, params, tol=tol)
        assert g0.value > 0.0
        g1 = green_plus(ShiftedSource(src, 1), eval_map(src[0], z), params, tol=tol)
        assert abs(g0.value - g1.value / src[0].degree) <= 2 * tol

    vol = dist_from(_preset("quad-volume.json"), "")
    vparams = condition_a_params(vol)
    for source, p in (((dist, SequenceSeed(0x10, 0)), params),
                      ((vol, SequenceSeed(0x10, 1)), vparams)):
        offsets = []
        for mag in (1e40, 1e60, 1e80):
            g = green_plus(source, (1.0, mag), p, tol=1e-10)
            offsets.append(g.value - math.log(mag))
        assert max(offsets) - min(offsets) <= 1e-3
    _check_budget(t0, 30.0)


# 4. Lyapunov estimator against the closed-form fixed-point exponent
def test_lyapunov_fixed_point_oracle():
    t0 = time.monotonic()
    dist = FiniteDist((QUAD_A,), (1.0,))
    rep = lyapunov_statistics(dist, (0.0, 0.0), samples=10, n=100_000,
                              seed=SequenceSeed(0xAC, 4))
    # Jacobian at the origin has eigenvalues +-i sqrt(delta)
    oracle = math.log(math.sqrt(0.1))
    assert abs(rep.exponent - oracle) <= 1e-3
    assert rep.escaped_fraction == 0.0
    _check_budget(t0, 5.0)


# 5. noise-induced contraction: exponent negative with CI clear of zero on a
#    100-point basin grid, and again through the inverse-time estimator
def test_noise_contracts_both_time_directions():
    t0 = time.monotonic()
    ball = family_at(Resolver(_preset("family-noise.json")["family"], "/family").family(), 0.0)
    grid = [(0.03 * i + 0.015, 0.03 * j + 0.015) for j in range(10) for i in range(10)]
    for k, z in enumerate(grid):
        rep = lyapunov_statistics(ball, z, samples=10, n=300,
                                  seed=SequenceSeed(11, 100 + k))
        assert rep.exponent < 0.0
        assert rep.exponent + rep.ci95_halfwidth < 0.0

    # the ball's inverse has no closed form; mirror through a frozen finite
    # support draw, whose inverse system is exact
    fin = FiniteDist(tuple(support_sample(ball, SequenceSeed(5, 5), 16)), (0.0625,) * 16)
    sigma = inverse_distribution(fin)
    for k, z in enumerate(grid):
        rep = backward_lyapunov_statistics(sigma, swap(z), samples=10, n=300,
                                           seed=SequenceSeed(13, 100 + k))
        assert rep.exponent < 0.0
        assert rep.exponent + rep.ci95_halfwidth < 0.0
    _check_budget(t0, 300.0)


# 6. basin partition: capture counts + unresolved sum to the sample count
#    exactly, under 1% unresolved overall, flat inside a capture part
def test_basin_partition_sums_to_one():
    t0 = time.monotonic()
    ball = BallNoise(QUAD_C, 0.05)
    params = condition_a_params(ball)
    starts = [(0.1 * i + 0.05, 0.1 * j + 0.05) for j in range(3) for i in range(3)]
    minsets = discover_minimal_sets(ball, params, starts, SequenceSeed(29, 1))
    fin = [d for d in minsets if not d.is_infinity]
    assert len(fin) == 1
    assert fin[0].period == 2

    xs = np.linspace(-0.8, 1.0, 20)
    samples = 1000
    unresolved_total = 0
    inside = []
    for k, (x, y) in enumerate([(x, y) for y in xs for x in xs]):
        est = estimate_TL(ball, minsets, (complex(x), complex(y)), samples=samples,
                          max_iter=10_000, seed=SequenceSeed(29, 100 + k), params=params)
        assert sum(est.counts.values()) + est.unresolved_count == samples
        unresolved_total += est.unresolved_count
        in_part = any(
            math.hypot(abs(complex(x) - cx), abs(complex(y) - cy)) <= r
            for (cx, cy), r in zip(fin[0].parts_centers, fin[0].parts_radii)
        )
        if in_part:
            inside.append(est.probabilities.get(fin[0].id, 0.0))
    assert unresolved_total < 0.01 * samples * 400
    assert len(inside) >= 2
    p = np.asarray(inside)
    sigma = max(math.sqrt(max(p.mean() * (1 - p.mean()), 0.0) / samples), 1.0 / samples)
    assert p.max() - p.min() <= 3 * sigma
    _check_budget(t0, 600.0)


# 7. volume-preserving pack: at least 99% of (point, sequence) pairs escape
#    by cap 1e4, and the escaped count never drops when the cap doubles
def test_volume_preserving_escape_census():
    t0 = time.monotonic()
    cfg = _preset("quad-volume.json")
    ball = dist_from(cfg, "")
    assert isinstance(ball, BallNoise)
    assert ball.base.delta == 1.0
    pts = points_from(cfg, "")
    assert len(pts) == 10_000
    params = condition_a_params(ball)
    c1 = escape_census(ball, pts, params, max_iter=10_000, seed=SequenceSeed(7, 3))
    assert c1.escaped >= 0.99 * len(pts)
    c2 = escape_census(ball, pts, params, max_iter=20_000, seed=SequenceSeed(7, 3))
    assert c2.escaped >= c1.escaped
    _check_budget(t0, 300.0)


# 8. weight derivative of the capture probability: stationarity series agrees
#    with the central finite difference; identical atoms give exactly zero
def test_weight_derivative_matches_fd():
    t0 = time.monotonic()
    kick = HenonMap(0.0, 0.1, Poly((1.0, -1.3, 0.02)))
    pair = FiniteDist((QUAD_C, kick), (0.6, 0.4))
    params = condition_a_params(pair)
    starts = [(0.3, 0.2), (0.5, -0.1), (-0.2, 0.3)]
    minsets = discover_minimal_sets(pair, params, starts, SequenceSeed(31, 1))
    fin = [d for d in minsets if not d.is_infinity]
    assert len(fin) == 1
    L = fin[0]

    probes = [
        (0.3, 0.2), (0.5, -0.1), (-0.2, 0.3), (0.1, 0.55), (0.75, 0.3),
        (0.3, 2.30), (0.3, 2.335), (0.3, 2.37), (0.0, 2.25), (-26.35, 0.3),
    ]
    # conservative MC error: fd at h=0.05 with 4000 draws per side plus the
    # series' own sampling terms
    sigma_fd = math.sqrt(2 * 0.25 / 4000) / (2 * 0.05)
    sigma_series = 0.04
    tol = max(0.02, 3 * math.hypot(sigma_fd, sigma_series))
    for k, z in enumerate(probes):
        ser = weight_derivative_TL(pair, minsets, L, z, 0, SequenceSeed(33, 2 * k),
                                   eps_trunc=1e-2, max_terms=60, tl_samples=150,
                                   tl_max_iter=250, budget=4096, mc_samples=8000,
                                   params=params)
        fd = fd_derivative_TL(pair, minsets, L, z, 0, SequenceSeed(33, 2 * k + 1),
                              h=0.05, tl_samples=4000, tl_max_iter=300, params=params)
        assert abs(ser.value - fd.value) <= tol

    sym = FiniteDist((QUAD_C, QUAD_C), (0.5, 0.5))
    msym = discover_minimal_sets(sym, params, starts, SequenceSeed(31, 9))
    Ls = [d for d in msym if not d.is_infinity][0]
    d0 = weight_derivative_TL(sym, msym, Ls, (0.3, 0.2), 0, SequenceSeed(31, 10),
                              eps_trunc=1e-2, max_terms=60, tl_samples=150,
                              tl_max_iter=250, budget=4096, mc_samples=8000,
                              params=params)
    assert abs(d0.value) <= 1e-12
    _check_budget(t0, 600.0)


# 9. operator powers converge geometrically: log sup-error line fits with
#    R^2 >= 0.9 and the rate lands within 20% of the cycle multiplier
def test_operator_rate_fit_matches_multiplier():
    t0 = time.monotonic()
    dist = FiniteDist((QUAD_W,), (1.0,))
    params = condition_a_params(dist)
    starts = [(0.1, 0.1), (0.3, -0.2), (-0.2, 0.3)]
    minsets = discover_minimal_sets(dist, params, starts, SequenceSeed(17, 1))
    fin = [d for d in minsets if not d.is_infinity]
    assert len(fin) == 1
    assert fin[0].period == 1
    # fixed point at the origin, eigenvalues +-i sqrt(0.81)
    multiplier = 0.9
    assert fin[0].contraction is not None
    assert abs(fin[0].contraction - multiplier) <= 0.05

    fit = fit_convergence_rate(dist, minsets, fin[0],
                               [(0.4, 0.3), (-0.2, 0.5), (0.3, -0.35)],
                               range(4, 15), SequenceSeed(19, 2),
                               tl_samples=1000, tl_max_iter=500, ramp_width=2.0,
                               params=params)
    assert fit.r_squared >= 0.9
    assert fit.lambda_hat < 1.0  # negative log-slope
    assert abs(fit.lambda_hat - multiplier) <= 0.2 * multiplier
    _check_budget(t0, 300.0)


# 10. noise family sweep: the finite minimal set present at t=0 is gone by
#     t=1, located in exactly one grid interval that survives grid halving
def test_family_scan_single_transition():
    t0 = time.monotonic()
    cfg = _preset("family-noise.json")
    fam = Resolver(cfg["family"], "/family").family()
    grid = [(0.05 + 0.1 * i, 0.05 + 0.1 * j) for j in range(3) for i in range(3)]
    coarse = scan_family(fam, [0.0, 0.25, 0.5, 0.75, 1.0], grid, SequenceSeed(23, 4),
                         burn_in=1000, n_record=100, cluster_eps=0.05,
                         tl_samples=200, tl_max_iter=500, threads=4)
    assert coarse.points[0].finite_count == 1
    assert coarse.points[-1].finite_count == 0
    assert coarse.points[0].minset_count == 2
    assert coarse.points[-1].minset_count == 1
    ivs = locate_bifurcations(coarse)
    assert len(ivs) == 1
    assert len(ivs) <= coarse.points[0].minset_count - 1
    assert monotone_violations(coarse) == ()

    halved = scan_family(fam, [0.125 * k for k in range(9)], grid, SequenceSeed(23, 4),
                         burn_in=1000, n_record=100, cluster_eps=0.05,
                         tl_samples=200, tl_max_iter=500, threads=4)
    ivs2 = locate_bifurcations(halved)
    assert len(ivs2) == 1
    assert ivs[0].t_lo <= ivs2[0].t_lo
    assert ivs2[0].t_hi <= ivs[0].t_hi
    _check_budget(t0, 1800.0)


# 11. boundary rasters: sequences sharing a longer prefix give closer
#     boundaries; unresolved pixel count strictly shrinks as the cap doubles
def test_boundary_continuity_and_cap_shrink():
    t0 = time.monotonic()
    fcfg = _preset("family-noise.json")
    spec = slice_from(fcfg["slice"], "/slice")
    assert spec.resolution == 512
    ball = family_at(Resolver(fcfg["family"], "/family").family(), 0.0)
    params = condition_a_params(ball)
    head = DistSource(ball, SequenceSeed(41, 1))
    tail = DistSource(ball, SequenceSeed(41, 2))
    pitch = 2.0 * spec.extent / spec.resolution

    ref = raster_slice(head, spec, params, max_iter=2000, threads=4)
    bref = boundary_extract(ref)
    assert len(bref) > 0
    hs = []
    for n in (2, 5, 10, 20):
        var = raster_slice(SpliceSource(head, tail, n), spec, params,
                           max_iter=2000, threads=4)
        hs.append(hausdorff_pixels(bref, boundary_extract(var), pitch))
    assert all(a >= b for a, b in zip(hs, hs[1:]))

    vcfg = _preset("quad-volume.json")
    vol = dist_from(vcfg, "")
    vspec = slice_from(vcfg["slice"], "/slice")
    vparams = condition_a_params(vol)
    vhead = DistSource(vol, SequenceSeed(41, 1))
    unresolved = [
        int((raster_slice(vhead, vspec, vparams, max_iter=cap, threads=4).verdict
             != VERDICT_ESCAPED).sum())
        for cap in (200, 400, 800)
    ]
    assert unresolved[0] > unresolved[1] > unresolved[2]
    _check_budget(t0, 1200.0)


# 12. worker count never changes bytes: every threaded artifact identical
#     between --threads 1 and --threads 8, and raster arrays match exactly
def test_thread_count_invariance(tmp_path):
    vcfg = _preset("quad-volume.json")
    vol = dist_from(vcfg, "")
    vparams = condition_a_params(vol)
    spec = slice_from(vcfg["slice"], "/slice")
    r1 = raster_slice(DistSource(vol, SequenceSeed(41, 1)), spec, vparams,
                      max_iter=400, threads=1)
    r8 = raster_slice(DistSource(vol, SequenceSeed(41, 1)), spec, vparams,
                      max_iter=400, threads=8)
    assert np.array_equal(r1.verdict, r8.verdict)
    assert np.array_equal(r1.green, r8.green)
    assert np.array_equal(r1.step, r8.step)

    quad_maps = _preset("quad-attracting.json")["maps"]
    configs = {
        "render-julia": {
            "maps": quad_maps,
            "seed": 9,
            "slice": {"anchor": [[0.0, 0.0], [0.0, 0.0]], "extent": 2.5, "resolution": 64},
            "max_iter": 300,
        },
        "escape-stats": {
            "noise": vcfg["noise"],
            "seed": 9,
            "grid": {"x_min": -2.0, "x_max": 2.0, "y_min": -2.0, "y_max": 2.0,
                     "nx": 12, "ny": 12},
            "max_iter": 400,
        },
        "tl": {
            "maps": quad_maps,
            "seed": 9,
            "discovery": {"points": [[[0.3, 0.0], [0.2, 0.0]], [[0.5, 0.0], [-0.1, 0.0]],
                                     [[-0.2, 0.0], [0.3, 0.0]], [[0.1, 0.0], [0.4, 0.0]]]},
            "points": [[[0.3, 0.0], [0.2, 0.0]], [[0.0, 0.0], [3.0, 0.0]],
                       [[0.5, 0.0], [0.5, 0.0]], [[-0.4, 0.0], [0.6, 0.0]]],
            "samples": 100,
            "max_iter": 500,
        },
        "bifurcate": {
            "family": _preset("family-noise.json")["family"],
            "seed": 9,
            "t_grid": [0.0, 0.5, 1.0],
            "grid": {"x_min": 0.05, "x_max": 0.25, "y_min": 0.05, "y_max": 0.25,
                     "nx": 2, "ny": 2},
            "n_record": 60,
            "tl_samples": 60,
            "tl_max_iter": 200,
        },
    }
    for cmd, cfg in configs.items():
        cfg_path = tmp_path / f"{cmd}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for threads in (1, 8):
            out = tmp_path / f"{cmd}-t{threads}"
            code = run_cli([cmd, "--config", str(cfg_path), "--out", str(out),
                            "--threads", str(threads)])
            assert code == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(outs[0]) == sorted(outs[1])
        for name in outs[0]:
            assert outs[0][name] == outs[1][name]

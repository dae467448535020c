"""Transition operator: path trees, stratified sampling, rate fits,
weight derivatives of basin probabilities."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from henonlab import lanes, rng
from henonlab.core import HenonMap, Poly, eval_map
from henonlab.dist import BallNoise, FiniteDist, SequenceSeed, condition_a_params
from henonlab.minsets import INFINITY, MinimalSetDescriptor, discover_minimal_sets, estimate_TL
from henonlab.transition import (
    CaptureRamp,
    OperatorValue,
    RateUnresolved,
    _TAG_MOP,
    SeriesStall,
    _mc_power,
    _stratified_counts,
    _tree_power,
    apply_M,
    fd_derivative_TL,
    fit_convergence_rate,
    iterate_M,
    weight_derivative_TL,
)

from conftest import QUAD_A, QUAD_C, QUAD_W

SEED = SequenceSeed(0x5EED_0002, 11)

# second mixture component for the oracle tree: different alpha and delta
H_OTHER = HenonMap(alpha=0.5, delta=0.2, poly=Poly((1.0, -1.0, 0.0)))
# dyadic weights keep weighted path sums float-exact
PAIR = FiniteDist((QUAD_A, H_OTHER), (0.25, 0.75))

# same quadratic as QUAD_C with the constant term kicked up a little; both
# components keep an attracting 2-cycle and the mixture keeps two blobs
H_KICK = HenonMap(alpha=0.0, delta=0.1, poly=Poly((1.0, -1.3, 0.02)))

Z0 = (0.1 + 0.0j, 0.2 + 0.0j)


def phi_test(z):
    x, y = z
    return float((complex(x).real - 0.3) ** 2 + abs(y))


# ---------------------------------------------------------------------------
# operator basics


def test_three_step_tree_oracle():
    # independent enumeration of all 2^3 weighted branches
    total = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                w = PAIR.weights[i] * PAIR.weights[j] * PAIR.weights[k]
                z = eval_map(PAIR.maps[k], eval_map(PAIR.maps[j], eval_map(PAIR.maps[i], Z0)))
                total += w * phi_test(z)
    ov = iterate_M(PAIR, phi_test, Z0, 3)
    assert ov.exact and ov.se == 0.0
    assert ov.value == pytest.approx(total, rel=1e-12)


def test_apply_M_finite_is_weighted_sum():
    by_hand = sum(
        w * phi_test(eval_map(f, Z0)) for w, f in zip(PAIR.weights, PAIR.maps)
    )
    ov = apply_M(PAIR, phi_test, Z0)
    assert ov.exact
    assert ov.value == pytest.approx(by_hand, rel=1e-12)
    one = iterate_M(PAIR, phi_test, Z0, 1)
    assert one.value == pytest.approx(ov.value, rel=1e-12)


def test_power_edges():
    assert iterate_M(PAIR, phi_test, Z0, 0).value == phi_test(Z0)
    with pytest.raises(ValueError):
        iterate_M(PAIR, phi_test, Z0, -1)


def test_constants_are_preserved():
    one = lambda z: 1.0
    assert iterate_M(PAIR, one, Z0, 5).value == 1.0
    mc = iterate_M(PAIR, one, Z0, 5, budget=1, samples=512, seed=SEED)
    assert mc.value == pytest.approx(1.0, abs=1e-12)
    assert mc.se == 0.0


def test_linearity_and_positivity():
    f1 = lambda z: abs(z[1]) ** 2
    f2 = lambda z: math.cos(complex(z[0]).real)
    combo = lambda z: 2.0 * f1(z) - 0.7 * f2(z)
    a = iterate_M(PAIR, f1, Z0, 4).value
    b = iterate_M(PAIR, f2, Z0, 4).value
    c = iterate_M(PAIR, combo, Z0, 4).value
    assert c == pytest.approx(2.0 * a - 0.7 * b, rel=1e-12)
    assert a >= 0.0


def test_stratified_mc_matches_tree():
    exact = iterate_M(PAIR, phi_test, Z0, 6).value
    mc = iterate_M(PAIR, phi_test, Z0, 6, budget=1, samples=20_000, seed=SEED)
    assert not mc.exact and mc.se > 0
    assert abs(mc.value - exact) <= 4.0 * mc.se + 1e-9


def test_tree_power_matches_the_concatenating_loop():
    # the path tree as one map-major array per level, each level concatenated
    # from the images under every map: the walk must keep its bits
    X = np.array([Z0[0]], dtype=np.complex128)
    Y = np.array([Z0[1]], dtype=np.complex128)
    W = np.array([1.0])
    for _ in range(6):
        parts = [(*lanes.image(f, X, Y), W * w) for w, f in zip(PAIR.weights, PAIR.maps)]
        X, Y, W = (np.concatenate(p) for p in zip(*parts))
    want = float(np.sum(W * np.array([phi_test(z) for z in zip(X, Y)])))
    assert _tree_power(PAIR, phi_test, Z0, 6) == want


@pytest.mark.parametrize("dist", [PAIR, BallNoise(QUAD_A, 0.05)], ids=["pair", "ball"])
def test_mc_power_matches_the_per_step_draw_loop(dist):
    # one draw call per step over every sample, the finite support's step 0
    # taken from the strata: the walk's time-blocked draws keep the bits
    samples, n = 300, 5
    counts = _stratified_counts(PAIR.weights, samples)
    streams = rng.stream_table(SEED.stream_id, samples, _TAG_MOP)
    X = np.full(samples, complex(Z0[0]))
    Y = np.full(samples, complex(Z0[1]))
    for step in range(n):
        if step == 0 and dist is PAIR:
            drawn = np.repeat([0, 1], counts)
        else:
            drawn = lanes.draw(dist, SEED.master_seed, streams, step)
        X, Y = lanes.apply(dist, drawn, X, Y)
    vals = np.array([phi_test(z) for z in zip(X, Y)])
    got = _mc_power(dist, phi_test, Z0, n, samples, SEED)
    if dist is PAIR:
        a = int(counts[0])
        assert got.value == 0.25 * float(vals[:a].mean()) + 0.75 * float(vals[a:].mean())
    else:
        assert got.value == float(vals.mean())


def test_paths_leaving_the_window_contribute_zero():
    # from (0, 1e40) every path reaches |y| ~ 1e160 at step 2 and retires
    # there; stepping on would overflow at step 3
    z = (0j, 1e40 + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _tree_power(PAIR, phi_test, z, 3) == 0.0
        assert _mc_power(PAIR, phi_test, z, 3, 64, SEED).value == 0.0


def test_ball_apply_reports_se():
    dist = BallNoise(QUAD_A, 0.05)
    ov = apply_M(dist, phi_test, Z0, samples=512, seed=SEED)
    again = apply_M(dist, phi_test, Z0, samples=512, seed=SEED)
    assert ov == again
    assert not ov.exact and ov.se > 0
    center = apply_M(FiniteDist((QUAD_A,), (1.0,)), phi_test, Z0)
    assert abs(ov.value - center.value) < 0.1


def test_single_sample_se_is_infinite_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ov = iterate_M(BallNoise(QUAD_A, 0.05), phi_test, Z0, 2, samples=1, seed=SEED)
    assert not ov.exact and ov.se == math.inf


def test_one_sample_stratum_se_is_infinite():
    # two samples over the two-map support leave each stratum one sample,
    # which carries no variance estimate
    mc = iterate_M(PAIR, phi_test, Z0, 6, budget=1, samples=2, seed=SEED)
    assert not mc.exact and mc.se == math.inf


def test_ball_power_reproducible():
    dist = BallNoise(QUAD_A, 0.05)
    a = iterate_M(dist, phi_test, Z0, 3, samples=4000, seed=SEED)
    b = iterate_M(dist, phi_test, Z0, 3, samples=4000, seed=SEED)
    assert a == b
    assert not a.exact and a.se > 0


def test_mc_requires_seed():
    with pytest.raises(ValueError):
        apply_M(BallNoise(QUAD_A, 0.05), phi_test, Z0)
    with pytest.raises(ValueError):
        iterate_M(PAIR, phi_test, Z0, 3, budget=1)


def test_stratified_counts_proportional():
    w = (0.5, 0.3, 0.2)
    c = _stratified_counts(w, 1000)
    assert c.sum() == 1000 and (c >= 1).all()
    assert np.all(np.abs(c - np.array(w) * 1000) <= len(w))
    with pytest.raises(ValueError):
        _stratified_counts((0.5, 0.5), 1)


def test_operator_value_guards_exact_se():
    with pytest.raises(ValueError):
        OperatorValue(value=1.0, se=0.1, exact=True)


# ---------------------------------------------------------------------------
# capture ramp


def test_capture_ramp_profile():
    L = MinimalSetDescriptor(
        id=0, cloud=((0j, 0j),), period=1, parts=((0,),),
        capture_radius=0.05, contraction=None, cluster_eps=0.01,
        parts_centers=((0j, 0j),), parts_radii=(0.1,),
    )
    ramp = CaptureRamp(L, width=0.2)
    assert ramp((0.0, 0.0)) == 1.0
    assert ramp((0.0, 0.12)) == 1.0          # still inside r + capture
    mid = ramp((0.0, 0.25))                  # t = (0.25 - 0.1 - 0.05) / 0.2
    assert mid == pytest.approx(0.5)
    assert ramp((0.0, 0.40)) == 0.0
    assert ramp((float("nan"), float("inf"))) == 0.0
    with pytest.raises(ValueError):
        CaptureRamp(L, width=0.0)


def test_capture_ramp_rejects_infinity():
    inf = MinimalSetDescriptor(
        id=INFINITY, cloud=(), period=1, parts=(),
        capture_radius=0.0, contraction=None, cluster_eps=0.01,
        parts_centers=(), parts_radii=(),
    )
    with pytest.raises(ValueError):
        CaptureRamp(inf)


# ---------------------------------------------------------------------------
# convergence rate


@pytest.fixture(scope="module")
def spiral_setup():
    # single map with a complex eigenpair of modulus 0.9 at the origin
    dist = FiniteDist((QUAD_W,), (1.0,))
    params = condition_a_params(dist)
    descs = discover_minimal_sets(dist, params, [(0.1, 0.1)], SEED)
    finite = [d for d in descs if not d.is_infinity]
    assert len(finite) == 1
    return dist, params, finite[0], descs


def test_rate_fit_matches_squared_multiplier(spiral_setup):
    dist, params, L, descs = spiral_setup
    pts = [(0.4, 0.3), (-0.2, 0.5), (0.3, -0.35)]
    fit = fit_convergence_rate(
        dist, descs, L, pts, range(3, 13), SEED,
        tl_samples=1000, tl_max_iter=500, ramp_width=2.0, params=params,
    )
    # quadratic contact of the ramp turns the 0.9 multiplier into ~0.81
    assert 0.70 < fit.lambda_hat < 0.93
    assert fit.r_squared >= 0.9
    assert len(fit.used) >= 3
    assert fit.sup_errors[0] > fit.sup_errors[-1]


def test_rate_unresolved_inside_capture(spiral_setup):
    dist, params, L, descs = spiral_setup
    # starting on the fixed point the ramp is already 1, every error is 0
    with pytest.raises(RateUnresolved):
        fit_convergence_rate(
            dist, descs, L, [(0.0, 0.0)], range(1, 6), SEED,
            tl_samples=200, tl_max_iter=300, ramp_width=2.0, params=params,
        )


def test_rate_fit_input_validation(spiral_setup):
    dist, params, L, descs = spiral_setup
    with pytest.raises(ValueError):
        fit_convergence_rate(dist, descs, L, [], range(3, 13), SEED, params=params)
    with pytest.raises(ValueError):
        fit_convergence_rate(dist, descs, L, [(0.4, 0.3)], [2, 3], SEED, params=params)


# ---------------------------------------------------------------------------
# weight derivatives


@pytest.fixture(scope="module")
def kicked_setup():
    dist = FiniteDist((QUAD_C, H_KICK), (0.6, 0.4))
    params = condition_a_params(dist)
    grid = [(0.3, 0.2), (0.5, -0.1), (-0.2, 0.3)]
    descs = discover_minimal_sets(dist, params, grid, SEED)
    finite = [d for d in descs if not d.is_infinity]
    assert len(finite) == 1
    assert finite[0].period == 2
    assert finite[0].contraction < 1.0
    return dist, params, descs, finite[0]


@pytest.fixture(scope="module")
def boundary_point(kicked_setup):
    # walk up the basin boundary fringe until outcomes are genuinely mixed
    dist, params, descs, L = kicked_setup
    for y in np.arange(2.0, 2.6, 0.005):
        est = estimate_TL(dist, descs, (0.3, float(y)), 200, 300, SEED, params=params)
        p = est.probabilities.get(L.id, 0.0)
        if 0.2 < p < 0.8:
            return (0.3, float(y))
    raise AssertionError("no mixed-outcome start found on the scan line")


@pytest.fixture(scope="module")
def symmetric_setup():
    dist = FiniteDist((QUAD_C, QUAD_C), (0.5, 0.5))
    params = condition_a_params(dist)
    descs = discover_minimal_sets(dist, params, [(0.3, 0.2)], SEED)
    finite = [d for d in descs if not d.is_infinity]
    return dist, params, descs, finite[0]


def test_series_matches_finite_difference(kicked_setup, boundary_point):
    dist, params, descs, L = kicked_setup
    # the fringe point resolves on the first map choice; its backward image
    # under the first component needs one more series term
    x_pre = (0.3**2 - 1.3 * 0.3 - boundary_point[1]) / 0.1
    for z in (boundary_point, (x_pre, 0.3)):
        series = weight_derivative_TL(
            dist, descs, L, z, 0, SEED,
            eps_trunc=1e-2, max_terms=60, tl_samples=150, tl_max_iter=250,
            budget=4096, mc_samples=8000, params=params,
        )
        fd = fd_derivative_TL(
            dist, descs, L, z, 0, SEED,
            h=0.05, tl_samples=4000, tl_max_iter=300, params=params,
        )
        # both sides carry Monte Carlo noise and the series drops its tail
        # below eps_trunc; the slack covers a 3 sigma budget for each side
        assert abs(series.value - fd.value) <= 0.3
        assert series.terms[0] != 0.0
    assert series.terms[1] != 0.0


def test_symmetric_mixture_zero_derivative(symmetric_setup):
    dist, params, descs, L = symmetric_setup
    z = (0.3, 0.2)
    series = weight_derivative_TL(
        dist, descs, L, z, 0, SEED, tl_samples=100, tl_max_iter=200, params=params
    )
    assert series.value == 0.0
    assert all(t == 0.0 for t in series.terms)
    fd = fd_derivative_TL(
        dist, descs, L, z, 0, SEED, h=0.05, tl_samples=500, tl_max_iter=200,
        params=params, richardson=True,
    )
    assert fd.value == 0.0
    assert fd.richardson == 0.0


def test_series_stall(symmetric_setup):
    dist, params, descs, L = symmetric_setup
    with pytest.raises(SeriesStall) as ei:
        weight_derivative_TL(
            dist, descs, L, (0.3, 0.2), 0, SEED,
            eps_trunc=0.0, max_terms=4, tl_samples=100, tl_max_iter=200,
            params=params,
        )
    assert len(ei.value.terms) == 4


def test_weight_index_validation(symmetric_setup):
    dist, params, descs, L = symmetric_setup
    with pytest.raises(ValueError):
        weight_derivative_TL(dist, descs, L, (0.3, 0.2), 1, SEED, params=params)
    with pytest.raises(ValueError):
        fd_derivative_TL(dist, descs, L, (0.3, 0.2), 5, SEED, params=params)


def test_fd_simplex_validation(kicked_setup):
    dist, params, descs, L = kicked_setup
    lopsided = FiniteDist(dist.maps, (0.97, 0.03))
    with pytest.raises(ValueError):
        fd_derivative_TL(lopsided, descs, L, (0.3, 0.2), 0, SEED, h=0.05, params=params)

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CUBIC, QUAD, QUAD_C
from henonlab.core import (
    FiltrationParams,
    HenonMap,
    NumericOverflow,
    Poly,
    Region,
    classify_region,
    condition_a_radius,
    eval_inverse,
    eval_map,
    in_v_plus,
    inverse_as_plus,
    jacobian,
    norm,
    swap,
)

# magnitudes beyond ~1e3 lose the 1e-9 roundtrip target to cancellation in
# p(y) - delta*x once p(y) reaches 1e9, so the box stops there
finite_complex = st.complex_numbers(
    min_magnitude=0, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)
points = st.tuples(finite_complex, finite_complex)


def test_eval_map_hand_values():
    # (x,y) -> (y + a, p(y) - delta x)
    assert eval_map(QUAD, (1.0, 2.0)) == (2.0, 3.0)
    assert eval_map(CUBIC, (0.0, 1.0)) == (1 + 1j, 1.0)
    assert eval_map(QUAD_C, (0.0, 1.0)) == (1.0, 1.0 - 1.3)


def test_poly_validation():
    with pytest.raises(ValueError):
        Poly((1.0,))  # degree 1
    with pytest.raises(ValueError):
        Poly((0.0, 1.0, 2.0))  # vanishing leading coefficient
    with pytest.raises(ValueError):
        Poly(tuple([1.0] + [0.0] * 17))  # degree 17
    with pytest.raises(ValueError):
        HenonMap(0.0, 0.0, Poly((1.0, 0.0, 0.0)))  # delta = 0


def test_poly_eval_and_derivative():
    p = Poly((2.0, -1.0, 3.0))  # 2y^2 - y + 3
    assert p(2.0) == 9.0
    assert p.deriv(2.0) == 7.0


@given(points)
def test_inverse_roundtrip(z):
    for f in (QUAD, CUBIC, QUAD_C):
        try:
            w = eval_map(f, z)
            back = eval_inverse(f, w)
        except NumericOverflow:
            continue
        assert abs(back[0] - z[0]) <= 1e-9 * (1 + norm(z))
        assert abs(back[1] - z[1]) <= 1e-9 * (1 + norm(z))


@given(points)
def test_inverse_as_plus_conjugates(z):
    # f^{-1} = s o g o s with g again in standard form
    for f in (QUAD, CUBIC, QUAD_C):
        g = inverse_as_plus(f)
        try:
            lhs = eval_inverse(f, z)
            rhs = swap(eval_map(g, swap(z)))
        except NumericOverflow:
            continue
        assert abs(lhs[0] - rhs[0]) <= 1e-9 * (1 + norm(z))
        assert abs(lhs[1] - rhs[1]) <= 1e-9 * (1 + norm(z))


def test_inverse_as_plus_coefficients():
    g = inverse_as_plus(CUBIC)
    assert g.alpha == -CUBIC.alpha
    assert g.delta == 1.0 / CUBIC.delta
    assert g.degree == CUBIC.degree
    # double application restores the original map
    h = inverse_as_plus(g)
    assert h.alpha == CUBIC.alpha
    assert h.delta == CUBIC.delta
    assert np.allclose(h.poly.coeffs, CUBIC.poly.coeffs)


def test_jacobian_determinant_is_delta():
    for f in (QUAD, CUBIC, QUAD_C):
        J = jacobian(f, (0.3 + 0.1j, -0.7 + 2j))
        assert abs(np.linalg.det(J) - f.delta) < 1e-12


def test_condition_a_radius_worked_example():
    # single quadratic, unit delta: rho0 = 1 + max(9, 18) = 19, R = 38
    params = condition_a_radius([QUAD])
    assert params.R == 38.0
    assert params.rho == 2.0


def test_condition_a_radius_covers_all_maps():
    p1 = condition_a_radius([QUAD])
    p2 = condition_a_radius([QUAD, CUBIC])
    assert p2.R >= p1.R
    assert condition_a_radius([QUAD], rho_margin=5.0).R > p1.R


def test_classify_region_cases():
    R = 38.0
    assert classify_region((0.0, 50.0), R) is Region.V_PLUS
    assert classify_region((50.0, 0.0), R) is Region.V_MINUS
    assert classify_region((1.0, 1.0), R) is Region.D_R
    assert classify_region((38.0, 10.0), R) is Region.BOUNDARY


@given(st.complex_numbers(min_magnitude=39, max_magnitude=1e40, allow_nan=False, allow_infinity=False),
       st.complex_numbers(min_magnitude=0, max_magnitude=1.0, allow_nan=False, allow_infinity=False))
def test_cone_forward_invariance_with_growth(y, frac):
    # certified: the vertical cone maps into itself with |y| at least doubled
    params = condition_a_radius([QUAD, CUBIC, QUAD_C])
    for f in (QUAD, CUBIC, QUAD_C):
        yy = y * (params.R + 1) / 39.0
        z = (frac * yy, yy)
        if not in_v_plus(z, params.R):
            continue
        try:
            w = eval_map(f, z)
        except NumericOverflow:
            continue
        assert in_v_plus(w, params.R)
        assert abs(w[1]) >= params.rho * abs(z[1])


def test_overflow_window():
    with pytest.raises(NumericOverflow):
        eval_map(QUAD, (0.0, 1e60))


def test_swap_involution():
    z = (1 + 2j, 3 - 4j)
    assert swap(swap(z)) == z


def test_filtration_params_validation():
    with pytest.raises(ValueError):
        FiltrationParams(R=0.0, rho=2.0)
    with pytest.raises(ValueError):
        FiltrationParams(R=10.0, rho=0.5)

"""Map algebra for generalized Henon-type automorphisms of C^2.

A generator is f(x, y) = (y + alpha, p(y) - delta*x) with p a polynomial of
degree d >= 2 and delta != 0.  Its inverse has the closed form
f^{-1}(x, y) = ((p(x - alpha) - y)/delta, x - alpha), so every generator is
a polynomial automorphism with constant Jacobian determinant delta.

Points are plain (complex, complex) tuples.  The module also provides the
escape-region filtration (vertical cone, horizontal cone, central bidisk)
together with a closed-form certificate radius for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

import numpy as np

Point = Tuple[complex, complex]

MAX_DEGREE = 16

# Exact complex iteration is only trusted below this magnitude; callers must
# switch to log-scale tracking before any coordinate passes it.
OVERFLOW_LIMIT = 1e100

_RADIUS_EPS = 1e-6


class NumericOverflow(ArithmeticError):
    """An iterate left the exact-arithmetic window (coordinate beyond 1e100)."""


class Region(Enum):
    V_PLUS = "v_plus"
    V_MINUS = "v_minus"
    D_R = "d_r"
    BOUNDARY = "boundary"


def _require_finite(value: complex, what: str) -> None:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True)
class Poly:
    """Complex polynomial, coefficients leading-first (c0, c1, ..., cd).

    Degree is between 2 and MAX_DEGREE and the leading coefficient is
    nonzero; both are enforced at construction.
    """

    coeffs: Tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        d = len(coeffs) - 1
        if d < 2:
            raise ValueError(f"polynomial degree must be >= 2, got {d}")
        if d > MAX_DEGREE:
            raise ValueError(f"polynomial degree must be <= {MAX_DEGREE}, got {d}")
        for c in coeffs:
            _require_finite(c, "polynomial coefficient")
        if coeffs[0] == 0:
            raise ValueError("leading coefficient must be nonzero")
        deriv = tuple(c * (d - k) for k, c in enumerate(coeffs[:-1]))
        object.__setattr__(self, "_deriv", deriv)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def with_constant(self, c: complex) -> "Poly":
        """This polynomial with constant term c.  The other coefficients are
        already valid and the derivative does not involve the constant, so
        only c is checked."""
        c = complex(c)
        _require_finite(c, "polynomial coefficient")
        out = object.__new__(Poly)
        object.__setattr__(out, "coeffs", self.coeffs[:-1] + (c,))
        object.__setattr__(out, "_deriv", self._deriv)  # type: ignore[attr-defined]
        return out

    def __call__(self, y: complex) -> complex:
        acc = 0j
        for c in self.coeffs:
            acc = acc * y + c
        return acc

    def deriv(self, y: complex) -> complex:
        acc = 0j
        for c in self._deriv:  # type: ignore[attr-defined]
            acc = acc * y + c
        return acc


@dataclass(frozen=True)
class HenonMap:
    """Generator f(x, y) = (y + alpha, p(y) - delta*x)."""

    alpha: complex
    delta: complex
    poly: Poly

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "delta", complex(self.delta))
        _require_finite(self.alpha, "alpha")
        _require_finite(self.delta, "delta")
        if self.delta == 0:
            raise ValueError("delta must be nonzero")

    @property
    def degree(self) -> int:
        return self.poly.degree


@dataclass(frozen=True)
class FiltrationParams:
    """Escape-region radii: cones start at R, guaranteed growth factor rho."""

    R: float
    rho: float

    def __post_init__(self) -> None:
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ValueError("R must be positive and finite")
        if not (self.rho > 1):
            raise ValueError("rho must exceed 1")


def norm(z: Point) -> float:
    """Euclidean norm; overflow-safe for coordinates up to ~1e150."""
    return math.hypot(abs(z[0]), abs(z[1]))


def swap(z: Point) -> Point:
    return (z[1], z[0])


def _check_window(z: Point) -> Point:
    x, y = z
    ax, ay = abs(x), abs(y)
    if not (ax <= OVERFLOW_LIMIT and ay <= OVERFLOW_LIMIT):
        raise NumericOverflow(f"iterate magnitude {max(ax, ay):.3e} beyond {OVERFLOW_LIMIT:.0e}")
    return z


def image(f: HenonMap, z: Point) -> Point:
    """f(z) without the exact-arithmetic window check."""
    x, y = z
    return y + f.alpha, f.poly(y) - f.delta * x


def eval_map(f: HenonMap, z: Point) -> Point:
    return _check_window(image(f, z))


def eval_inverse(f: HenonMap, z: Point) -> Point:
    x, y = z
    w = x - f.alpha
    return _check_window(((f.poly(w) - y) / f.delta, w))


def map_table(maps: Sequence[HenonMap]) -> np.ndarray:
    """One column per map, rows alpha, p's coefficients, delta, p''s
    coefficients (leading-first, left-padded with zeros to the top degree d:
    2d + 3 rows).  Horner over a padded column keeps its bits."""
    d = max(f.degree for f in maps)
    return np.array([(f.alpha, *(0j,) * (d - f.degree), *f.poly.coeffs, f.delta,
                      *(0j,) * (d - f.degree), *f.poly._deriv)  # type: ignore[attr-defined]
                     for f in maps], dtype=np.complex128).T.copy()


def jacobian(f: HenonMap, z: Point) -> np.ndarray:
    """Differential [[0, 1], [-delta, p'(y)]]; determinant is delta everywhere."""
    _, y = z
    return np.array([[0j, 1 + 0j], [-f.delta, f.poly.deriv(y)]], dtype=np.complex128)


def _shifted_coeffs(coeffs: Sequence[complex], s: complex) -> list:
    """Coefficients (leading-first) of y -> p(y + s)."""
    d = len(coeffs) - 1
    out = [0j] * (d + 1)
    for m, c in enumerate(coeffs):
        q = d - m  # power of this term
        for k in range(q + 1):
            out[d - k] += c * math.comb(q, k) * s ** (q - k)
    return out


def inverse_as_plus(f: HenonMap) -> HenonMap:
    """Swap conjugate of the inverse, expressed again as a generator.

    With s(x, y) = (y, x) the composition s o f^{-1} o s has the generator
    form with alpha' = -alpha, delta' = 1/delta and p'(w) = p(w - alpha)/delta.
    Iterating the result forwards reproduces the backward dynamics of f up
    to the fixed swap isometry.
    """
    shifted = _shifted_coeffs(f.poly.coeffs, -f.alpha)
    scaled = tuple(c / f.delta for c in shifted)
    return HenonMap(alpha=-f.alpha, delta=1 / f.delta, poly=Poly(scaled))


def _single_map_radius(f: HenonMap, rho0: float) -> float:
    c0 = abs(f.poly.coeffs[0])
    tail = sum(abs(c) for c in f.poly.coeffs[1:]) / c0
    d = f.degree
    return max(
        1.0 + _RADIUS_EPS,
        2.0 * abs(f.alpha) + _RADIUS_EPS,
        2.0 * tail,
        (2.0 * rho0 / c0) ** (1.0 / (d - 1)),
    )


def condition_a_radius(
    maps: Sequence[HenonMap],
    rho_margin: float = 1.0,
    *,
    alpha_pad: float = 0.0,
    const_pad: float = 0.0,
) -> FiltrationParams:
    """Closed-form certificate radius for the escape filtration.

    Returns (R, rho=2) such that every map in ``maps`` pushes the vertical
    cone {max(R, |x|) < |y|} into itself with |y|-growth > rho, and the
    inverses do the same for the horizontal cone.  The certificate is the
    coefficient-norm bound

        rho0 = rho_margin + max over maps of max(|delta| + 8, 16|delta| + 2)
        R    = max over maps of max(1 + eps, 2|alpha| + eps,
                                    2*sum_{j>=1} |c_j/c_0|,
                                    (2*rho0/|c_0|)^(1/(d-1)))

    ``alpha_pad``/``const_pad`` inflate |alpha| and the constant coefficient,
    which lets noise-ball supports reuse the same closed form.

    Parameters
    ----------
    maps : sequence of HenonMap
        Support of the driving distribution (or inflated stand-ins).
    rho_margin : float
        Extra slack added to the growth certificate; must be positive.
    """
    if not maps:
        raise ValueError("need at least one map")
    if not (rho_margin > 0):
        raise ValueError("rho_margin must be positive")
    rho0 = rho_margin + max(
        max(abs(f.delta) + 8.0, 16.0 * abs(f.delta) + 2.0) for f in maps
    )
    best = 0.0
    for f in maps:
        if alpha_pad or const_pad:
            coeffs = list(f.poly.coeffs)
            cd = coeffs[-1]
            coeffs[-1] = abs(cd) + const_pad
            alpha_abs = abs(f.alpha) + alpha_pad
            f = HenonMap(alpha=alpha_abs, delta=f.delta, poly=Poly(tuple(coeffs)))
        best = max(best, _single_map_radius(f, rho0))
    return FiltrationParams(R=best, rho=2.0)


def classify_region(z: Point, R: float) -> Region:
    x, y = z
    ax, ay = abs(x), abs(y)
    if max(R, ax) < ay:
        return Region.V_PLUS
    if max(R, ay) < ax:
        return Region.V_MINUS
    if max(ax, ay) < R:
        return Region.D_R
    return Region.BOUNDARY


def in_v_plus(z: Point, R: float) -> bool:
    x, y = z
    return max(R, abs(x)) < abs(y)

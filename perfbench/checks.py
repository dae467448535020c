"""Correctness checks for the benchmark's operations.

Each check compares an artifact with a value computed apart from the code
path that produced it (a Newton solve, a scalar walker-by-walker reference,
per-pixel scalar classification) or with a property the method must have
(functional equation, closed-form Lyapunov exponent, cycle multiplier).
A check raises :class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

Point = Tuple[complex, complex]


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def as_point(raw: Sequence[Sequence[float]]) -> Point:
    return complex(*raw[0]), complex(*raw[1])


def dist_c2(a: Point, b: Point) -> float:
    return math.hypot(abs(a[0] - b[0]), abs(a[1] - b[1]))


# ---------------------------------------------------------------------------
# the base map's 2-cycle, by the benchmark's own Newton solve


def henon(coeffs: Sequence[complex], alpha: complex, delta: complex, z: Point) -> Point:
    """(y + alpha, p(y) - delta x) with p given leading coefficient first."""
    x, y = z
    acc = 0j
    for c in coeffs:
        acc = acc * y + c
    return y + alpha, acc - delta * x


def _dp(coeffs: Sequence[complex], y: complex) -> complex:
    d = len(coeffs) - 1
    acc = 0j
    for k, c in enumerate(coeffs[:-1]):
        acc = acc * y + c * (d - k)
    return acc


def two_cycle(coeffs: Sequence[complex], alpha: complex, delta: complex,
              guess: Point) -> Tuple[Point, Point]:
    """Solve f(f(z)) = z by Newton from ``guess``; returns (z, f(z))."""
    z = (complex(guess[0]), complex(guess[1]))
    for _ in range(100):
        w = henon(coeffs, alpha, delta, z)
        v = henon(coeffs, alpha, delta, w)
        # J(f o f)(z) = Jf(w) Jf(z), Jf(x, y) = [[0, 1], [-delta, p'(y)]]
        a1, b1, c1, d1 = 0j, 1 + 0j, -delta, _dp(coeffs, z[1])
        a2, b2, c2, d2 = 0j, 1 + 0j, -delta, _dp(coeffs, w[1])
        m11 = a2 * a1 + b2 * c1 - 1
        m12 = a2 * b1 + b2 * d1
        m21 = c2 * a1 + d2 * c1
        m22 = c2 * b1 + d2 * d1 - 1
        r1, r2 = v[0] - z[0], v[1] - z[1]
        det = m11 * m22 - m12 * m21
        dx = (r1 * m22 - m12 * r2) / det
        dy = (m11 * r2 - m21 * r1) / det
        z = (z[0] - dx, z[1] - dy)
        if abs(dx) + abs(dy) < 1e-15:
            break
    w = henon(coeffs, alpha, delta, z)
    require(dist_c2(henon(coeffs, alpha, delta, w), z) < 1e-12, "Newton did not converge")
    require(dist_c2(w, z) > 1e-6, "Newton converged to a fixed point, not a 2-cycle")
    return z, w


# ---------------------------------------------------------------------------
# minimal sets


def finite_descriptors(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [d for d in doc["descriptors"] if d["id"] != "infinity"]


def check_cycle_set(doc: Dict[str, Any], cycle: Tuple[Point, Point], scale: float) -> None:
    """Exactly one finite minimal set: period 2, contracting, its part
    centres within ``scale`` of the two cycle points (in either order)."""
    fin = finite_descriptors(doc)
    require(len(fin) == 1, f"expected one finite minimal set, found {len(fin)}")
    d = fin[0]
    require(d["period"] == 2, f"expected period 2, found {d['period']}")
    require(d["contraction"] is not None and d["contraction"] < 1.0,
            f"contraction {d['contraction']} is not below 1")
    centres = [as_point(c) for c in d["parts_centers"]]
    p, q = cycle
    off = min(max(dist_c2(centres[0], p), dist_c2(centres[1], q)),
              max(dist_c2(centres[0], q), dist_c2(centres[1], p)))
    require(off <= scale, f"part centres sit {off:.3g} from the 2-cycle (allowed {scale})")


def check_no_finite_set(doc: Dict[str, Any], census_escaped: int) -> None:
    """No finite set reported, and walkers started on the cycle escape."""
    fin = finite_descriptors(doc)
    require(not fin, f"expected no finite minimal set, found {len(fin)}")
    require(census_escaped > 0, "no walker started on the cycle escaped")


# ---------------------------------------------------------------------------
# family scan


_BIF_COLS = ("t", "minset_count", "finite_count", "attracting_count",
             "all_attracting", "unresolved_mass", "mean_stable")


def check_family(doc: Dict[str, Any], csv_text: str) -> None:
    res = doc["result"]
    pts = {p["t"]: p for p in res["points"]}
    require(0.0 in pts and 1.0 in pts, "scan must cover t = 0 and t = 1")
    p0, p1 = pts[0.0], pts[1.0]
    require(p0["finite_count"] == 1 and p0["attracting_count"] == 1,
            f"t = 0: expected one attracting finite set, got {p0['finite_count']} "
            f"finite / {p0['attracting_count']} attracting")
    require(p1["finite_count"] == 0, f"t = 1: expected no finite set, got {p1['finite_count']}")
    require(res["monotone_violations"] == [],
            f"monotone violations at {res['monotone_violations']}")
    rows = list(csv.reader(io.StringIO(csv_text)))
    require(tuple(rows[0]) == _BIF_COLS, f"CSV header {rows[0]}")
    require(len(rows) - 1 == len(res["points"]), "CSV and JSON row counts differ")
    for row, p in zip(rows[1:], res["points"]):
        want = [p["t"], p["minset_count"], p["finite_count"], p["attracting_count"],
                int(p["all_attracting"]), p["unresolved_mass"], int(p["mean_stable"])]
        got = [float(c) for c in row]
        require(got == [float(v) for v in want], f"CSV row {row} differs from JSON {want}")


# ---------------------------------------------------------------------------
# escape census


def check_census_totals(doc: Dict[str, Any], walkers: int, min_escaped: float) -> None:
    r = doc["result"]
    total = r["escaped"] + r["bounded"] + r["uncertain"]
    require(total == walkers and r["total"] == walkers,
            f"counts sum to {total} (reported {r['total']}), expected {walkers}")
    require(r["escaped_fraction"] >= min_escaped,
            f"escaped fraction {r['escaped_fraction']} below {min_escaped}")


def scalar_census(dist, points: Sequence[Point], R: float, max_iter: int,
                  seed) -> Tuple[int, int, int]:
    """Walker-by-walker reference for escape_census: walker i draws its maps
    with sample_map on stream derive_stream(seed.stream_id, i)."""
    from henonlab import rng
    from henonlab.core import NumericOverflow, eval_map, in_v_plus
    from henonlab.dist import SequenceSeed, sample_map

    escaped = bounded = uncertain = 0
    for i, z in enumerate(points):
        sub = SequenceSeed(seed.master_seed, rng.derive_stream(seed.stream_id, i))
        cur = (complex(z[0]), complex(z[1]))
        verdict = None
        for n in range(max_iter + 1):
            if in_v_plus(cur, R):
                verdict = "escaped"
                break
            if n == max_iter:
                break
            try:
                cur = eval_map(sample_map(dist, sub, n), cur)
            except NumericOverflow:
                verdict = "uncertain"
                break
        if verdict is None:
            verdict = "bounded" if max(abs(cur[0]), abs(cur[1])) < R else "uncertain"
        escaped += verdict == "escaped"
        bounded += verdict == "bounded"
        uncertain += verdict == "uncertain"
    return escaped, bounded, uncertain


def check_census_reference(vector: Tuple[int, int, int], scalar: Tuple[int, int, int]) -> None:
    require(tuple(vector) == tuple(scalar),
            f"escape_census gives {tuple(vector)}, scalar reference {tuple(scalar)}")


# ---------------------------------------------------------------------------
# desk-mix


def check_lyapunov(doc: Dict[str, Any], target: float, tol: float = 1e-3) -> None:
    e = doc["result"]["exponent"]
    require(abs(e - target) <= tol, f"exponent {e} is {abs(e - target):.2e} from {target}")


def read_pgm16(data: bytes) -> np.ndarray:
    """Parse a binary 16-bit PGM (P5) with '#' comment lines."""
    pos = 0
    fields: List[bytes] = []
    while len(fields) < 4:
        end = data.index(b"\n", pos)
        line = data[pos:end]
        pos = end + 1
        if line.startswith(b"#"):
            continue
        fields.extend(line.split())
    require(fields[0] == b"P5" and fields[3] == b"65535", "not a 16-bit P5 PGM")
    w, h = int(fields[1]), int(fields[2])
    return np.frombuffer(data[pos:pos + 2 * w * h], dtype=">u2").reshape(h, w)


def pixel_for_green(g: float) -> float:
    return 65535.0 * (g / (1.0 + g))


def check_pixels(pix: np.ndarray, samples: Sequence[Tuple[int, int, str, float, float]],
                 tol: float) -> None:
    """``samples`` holds (row, col, verdict, green, error_bound) computed per
    pixel by scalar classify_orbit / green_plus on the same sequence."""
    for r, c, verdict, g, err in samples:
        got = int(pix[r, c])
        if verdict != "escaped":
            require(got == 0, f"pixel ({r}, {c}) is {got}, but its orbit is {verdict}")
            continue
        slack = 0.5 + 65535.0 * (err + tol) / (1.0 + g) ** 2 + 1.0
        want = pixel_for_green(g)
        require(abs(got - want) <= slack,
                f"pixel ({r}, {c}) is {got}, scalar Green gives {want:.1f} (slack {slack:.2f})")


def check_green_equation(pairs: Sequence[Tuple[float, float]], degree: int, tol: float) -> None:
    """``pairs`` holds (G(z) from the artifact, G(f0 z) on the shifted
    sequence); the functional equation is G(f0 z) = d G(z)."""
    require(len(pairs) > 0, "no Green values")
    for g0, g1 in pairs:
        require(g0 >= 0.0, f"negative Green value {g0}")
        resid = abs(g1 - degree * g0)
        require(resid <= 2.0 * tol,
                f"functional equation residual {resid:.2e} exceeds {2.0 * tol:.1e}")


def dtl_tolerance() -> float:
    """Tolerance of the weight-derivative acceptance test: fd at h = 0.05
    with 4000 draws per side, plus 0.04 for the series' sampling terms."""
    sigma_fd = math.sqrt(2 * 0.25 / 4000) / (2 * 0.05)
    return max(0.02, 3 * math.hypot(sigma_fd, 0.04))


def check_dtl(doc: Dict[str, Any]) -> None:
    r = doc["result"]
    s, f = r["series"]["value"], r["fd"]["value"]
    tol = dtl_tolerance()
    require(math.isfinite(s) and math.isfinite(f), "non-finite derivative")
    require(abs(s - f) <= tol, f"series {s} and finite difference {f} differ by more than {tol:.3f}")


def check_rate_fit(doc: Dict[str, Any], multiplier: float) -> None:
    fit = doc["result"]["fit"]
    lam, r2 = fit["lambda_hat"], fit["r_squared"]
    require(abs(lam - multiplier) <= 0.2 * multiplier,
            f"rate {lam} not within 20% of the multiplier {multiplier}")
    require(r2 >= 0.9, f"fit r^2 {r2} below 0.9")


def fixed_point_multiplier(delta: complex) -> float:
    """Eigenvalue modulus at the origin of (y, y^2 - delta x): the Jacobian
    [[0, 1], [-delta, 0]] has eigenvalues +-i sqrt(delta)."""
    return math.sqrt(abs(delta))

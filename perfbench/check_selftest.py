"""Each benchmark check accepts a right answer and rejects a wrong one.

Run from the repository root:

    python3 -m pytest -q perfbench/check_selftest.py

(The file name keeps it out of the default test collection of the
repository's own suite.)
"""

from __future__ import annotations

import copy
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from checks import CheckFailed  # noqa: E402

QUAD_C = ((1.0, -1.3, 0.0), 0.0, 0.1)


@pytest.fixture(scope="module")
def cycle():
    return checks.two_cycle(*QUAD_C, (0.58, -0.38))


def _jp(z):
    return [[z[0].real, z[0].imag], [z[1].real, z[1].imag]]


def _cycle_doc(cycle, **over):
    d = {"id": 0, "period": 2, "contraction": 0.55,
         "parts_centers": [_jp(cycle[0]), _jp(cycle[1])]}
    d.update(over)
    return {"descriptors": [d, {"id": "infinity", "period": 1}]}


def test_newton_finds_the_cycle_and_rejects_a_fixed_point(cycle):
    p, q = cycle
    assert abs(p[0] - 0.5796) < 1e-3 and abs(p[1] + 0.3796) < 1e-3
    assert checks.dist_c2(checks.henon(*QUAD_C, q), p) < 1e-12
    with pytest.raises(CheckFailed):
        checks.two_cycle(*QUAD_C, (0.0, 0.0))  # the fixed point at the origin


def test_cycle_set_check(cycle):
    checks.check_cycle_set(_cycle_doc(cycle), cycle, 0.05)
    swapped = _cycle_doc(cycle, parts_centers=[_jp(cycle[1]), _jp(cycle[0])])
    checks.check_cycle_set(swapped, cycle, 0.05)
    moved = (cycle[0][0] + 0.08, cycle[0][1])
    bad = [
        _cycle_doc(cycle, period=1),
        _cycle_doc(cycle, contraction=1.02),
        _cycle_doc(cycle, parts_centers=[_jp(moved), _jp(cycle[1])]),
        {"descriptors": [{"id": "infinity", "period": 1}]},
    ]
    two = _cycle_doc(cycle)
    two["descriptors"].insert(1, dict(two["descriptors"][0], id=1))
    bad.append(two)
    for doc in bad:
        with pytest.raises(CheckFailed):
            checks.check_cycle_set(doc, cycle, 0.05)


def test_no_finite_set_check(cycle):
    from henonlab.core import HenonMap, Poly
    from henonlab.dist import BallNoise, SequenceSeed, condition_a_params
    from henonlab.escape import escape_census

    empty = {"descriptors": [{"id": "infinity", "period": 1}]}
    checks.check_no_finite_set(empty, 3)
    with pytest.raises(CheckFailed):
        checks.check_no_finite_set(_cycle_doc(cycle), 3)
    # under tiny noise the cycle keeps its walkers: the census sees no escape
    ball = BallNoise(HenonMap(0.0, 0.1, Poly((1.0, -1.3, 0.0))), 0.001)
    quiet = escape_census(ball, list(cycle) * 8, condition_a_params(ball), 300,
                          SequenceSeed(1, 1))
    with pytest.raises(CheckFailed):
        checks.check_no_finite_set(empty, quiet.escaped)


def _family():
    pts = [
        {"t": 0.0, "minset_count": 2, "finite_count": 1, "attracting_count": 1,
         "all_attracting": True, "unresolved_mass": 0.0, "mean_stable": True},
        {"t": 1.0, "minset_count": 1, "finite_count": 0, "attracting_count": 0,
         "all_attracting": True, "unresolved_mass": 0.0025, "mean_stable": True},
    ]
    doc = {"result": {"points": pts, "monotone_violations": []}}
    csv_text = ("t,minset_count,finite_count,attracting_count,all_attracting,"
                "unresolved_mass,mean_stable\n0.0,2,1,1,1,0.0,1\n1.0,1,0,0,1,0.0025,1\n")
    return doc, csv_text


def test_family_check():
    doc, csv_text = _family()
    checks.check_family(doc, csv_text)
    with pytest.raises(CheckFailed):
        checks.check_family(doc, csv_text.replace("0.0025", "0.0026"))
    for mutate in (
        lambda d: d["result"]["points"][1].update(finite_count=1),
        lambda d: d["result"]["points"][0].update(attracting_count=0),
        lambda d: d["result"].update(monotone_violations=[0.5]),
    ):
        bad = copy.deepcopy(doc)
        mutate(bad)
        with pytest.raises(CheckFailed):
            checks.check_family(bad, csv_text)


def test_census_totals_check():
    good = {"result": {"escaped": 9950, "bounded": 40, "uncertain": 10, "total": 10000,
                       "escaped_fraction": 0.995}}
    checks.check_census_totals(good, 10000, 0.99)
    short = copy.deepcopy(good)
    short["result"]["bounded"] = 39
    low = copy.deepcopy(good)
    low["result"]["escaped_fraction"] = 0.985
    for doc in (short, low):
        with pytest.raises(CheckFailed):
            checks.check_census_totals(doc, 10000, 0.99)


def test_scalar_census_matches_and_rejects_a_wrong_count():
    from henonlab.core import HenonMap, Poly
    from henonlab.dist import BallNoise, SequenceSeed, condition_a_params
    from henonlab.escape import escape_census

    ball = BallNoise(HenonMap(0.0, 1.0, Poly((1.0, 0.0, 0.0))), 0.01)
    params = condition_a_params(ball)
    pts = [(complex(x), complex(y)) for x, y in ((-0.3, 0.2), (1.2, -0.9), (0.1, 0.1))]
    seed = SequenceSeed(5, 0)
    vec = escape_census(ball, pts, params, 300, seed)
    ref = checks.scalar_census(ball, pts, params.R, 300, seed)
    checks.check_census_reference((vec.escaped, vec.bounded, vec.uncertain), ref)
    with pytest.raises(CheckFailed):
        checks.check_census_reference((vec.escaped + 1, vec.bounded - 1, vec.uncertain), ref)


def test_lyapunov_check():
    target = 0.5 * math.log(0.1)
    checks.check_lyapunov({"result": {"exponent": target + 4e-4}}, target)
    with pytest.raises(CheckFailed):
        checks.check_lyapunov({"result": {"exponent": target + 2e-3}}, target)


def test_pixel_check(tmp_path):
    from henonlab.output import write_pgm16

    g = 0.75
    pix = np.zeros((4, 4), dtype=np.uint16)
    pix[1, 2] = int(round(checks.pixel_for_green(g)))
    path = tmp_path / "t.pgm"
    write_pgm16(str(path), pix, comment="cfg {}")
    back = checks.read_pgm16(path.read_bytes())
    assert np.array_equal(back, pix)
    samples = [(1, 2, "escaped", g, 1e-7), (0, 0, "bounded", 0.0, 0.0)]
    checks.check_pixels(back, samples, 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_pixels(back, [(1, 2, "escaped", g + 0.01, 1e-7)], 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_pixels(back, [(1, 2, "bounded", 0.0, 0.0)], 1e-6)


def test_green_equation_check():
    checks.check_green_equation([(0.8, 1.6 + 5e-7), (0.0, 0.0)], 2, 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_green_equation([(0.8, 1.6 + 3e-6)], 2, 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_green_equation([], 2, 1e-6)


def test_dtl_check():
    doc = {"result": {"series": {"value": 1.0}, "fd": {"value": 0.9}}}
    checks.check_dtl(doc)
    doc["result"]["fd"]["value"] = 1.0 - 1.05 * checks.dtl_tolerance()
    with pytest.raises(CheckFailed):
        checks.check_dtl(doc)


def test_rate_fit_check():
    mult = checks.fixed_point_multiplier(0.81)
    assert abs(mult - 0.9) < 1e-15
    checks.check_rate_fit({"result": {"fit": {"lambda_hat": 0.8, "r_squared": 0.95}}}, mult)
    for lam, r2 in ((0.7, 0.95), (0.85, 0.85)):
        with pytest.raises(CheckFailed):
            checks.check_rate_fit({"result": {"fit": {"lambda_hat": lam, "r_squared": r2}}},
                                  mult)


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 100]; children [10, 40] and [30, 60] overlap (two threads),
    # [70, 80] runs alone: covered 60, self 40
    cols = {
        "name": np.array([0, 1, 1, 1]),
        "id": np.array([0, 1, 2, 3]),
        "parent": np.array([-1, 0, 0, 0]),
        "t0": np.array([0, 10, 30, 70]),
        "t1": np.array([100, 40, 60, 80]),
        "work": np.zeros(4, dtype=np.int64),
    }
    assert spans.self_times(cols).tolist() == [40, 30, 30, 10]

"""The benchmark's workloads: generated configs, operations and their checks.

Inputs are written as config files; henonlab sees only those files (or,
for the one library operation, the arguments built here).  desk-mix makes
its inputs from the workload seed; family-scan, volume-census and
cycle-discovery use fixed inputs, for the reasons given where they are
built.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import checks

WORKLOADS = ("family-scan", "volume-census", "cycle-discovery", "desk-mix")

# the base map of the shipped family-noise preset: dissipative quadratic
# with an attracting 2-cycle near (0.5796, -0.3796) <-> (-0.3796, 0.5796)
QUAD_C = {"alpha": 0.0, "delta": 0.1, "poly": [1.0, -1.3, 0.0]}
QUAD_C_KICK = {"alpha": 0.0, "delta": 0.1, "poly": [1.0, -1.3, 0.02]}
QUAD_W = {"alpha": 0.0, "delta": 0.81, "poly": [1.0, 0.0, 0.0]}
FAMILY_GRID = {"x_min": 0.0, "x_max": 0.3, "y_min": 0.0, "y_max": 0.3, "nx": 3, "ny": 3}
# cycle-discovery's inputs do not follow the workload seed.  The capped
# run's cost swings 3x with its master seed (29 s to 84 s, 231 to 451 MB),
# and the eps ladder loses the 2-cycle on some master seeds (the fault that
# the kept lost-cycle operation shows), then runs 76 s to 205 s; a seeded input
# would measure the seed.  The ladder uses master seed 1, the capped run
# the family-noise preset's own seed.
LADDER_SEED = 1
PRESET_SEED = 20260803
CLI_TAG = 0x434C4900  # sub-seed tag the CLI applies to its phase-0 streams


@dataclass
class Op:
    """One operation: ``call(out_dir)`` runs it; ``check(out_dir)`` raises
    checks.CheckFailed when its output is wrong.  ``expect_fail`` marks the
    operation kept to show a known fault; it is counted as failed."""

    name: str
    call: Callable[[str], Any]
    check: Callable[[str], None]
    cli: bool = True
    expect_fail: bool = False


def derive_seed(seed: int, *parts: str) -> int:
    h = hashlib.sha256(":".join([str(seed), *parts]).encode()).digest()
    return int.from_bytes(h[:8], "little") >> 1


def jitter(seed: int, tag: str, width: float) -> float:
    """Seeded offset in [-width, width]."""
    return (derive_seed(seed, "jitter", tag) / float(1 << 63) * 2.0 - 1.0) * width


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _preset(root: str, name: str) -> Dict[str, Any]:
    return _load(os.path.join(root, "src", "henonlab", "presets", name))


class ConfigWriter:
    """Writes configs under ``cfg_dir`` and builds CLI operations."""

    def __init__(self, cfg_dir: str, threads: int):
        self.cfg_dir = cfg_dir
        self.threads = threads
        os.makedirs(cfg_dir, exist_ok=True)

    def cli(self, name: str, command: str, cfg: Dict[str, Any],
            check: Callable[[str], None]) -> Op:
        path = os.path.join(self.cfg_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        argv = [command, "--config", path, "--threads", str(self.threads)]

        def call(out: str) -> int:
            from henonlab import cli  # looked up per call, so tracing sees it

            return cli.run_cli(argv + ["--out", out])

        return Op(name, call, check)


def _doc(out: str, name: str) -> Dict[str, Any]:
    return _load(os.path.join(out, name))


def _cli_seed(master: int):
    """The sequence seed a CLI command derives for its phase-0 streams."""
    from henonlab import rng
    from henonlab.dist import SequenceSeed

    return SequenceSeed(master, rng.derive_stream(0, CLI_TAG, 0))


# ---------------------------------------------------------------------------


def family_scan(root: str, b: ConfigWriter, seed: int) -> List[Op]:
    # the shipped preset as it is, its own seed included: on about one
    # master seed in ten the t = 0 contraction certificate reads inf (a probe
    # pair escapes), so a seeded input would fail on some seeds
    cfg = _preset(root, "family-noise.json")

    def check(out: str) -> None:
        with open(os.path.join(out, "bifurcate.csv"), encoding="utf-8") as fh:
            checks.check_family(_doc(out, "bifurcate.json"), fh.read())

    return [b.cli("bifurcate", "bifurcate", cfg, check)]


CENSUS_STRIDE = 1250  # 8 of the 10,000 walkers get the scalar reference


def volume_census(root: str, b: ConfigWriter, seed: int) -> List[Op]:
    # the shipped preset as it is: a chunk steps until its last walker
    # escapes, so the cost follows the tail of the escape times, and a
    # seeded master seed moved the pass wall by 1.7x (6.5 s to 11 s)
    cfg = _preset(root, "quad-volume.json")

    def check(out: str) -> None:
        from henonlab.config import dist_from, points_from
        from henonlab.dist import SequenceSeed, condition_a_params
        from henonlab.escape import escape_census

        g = cfg["grid"]
        checks.check_census_totals(_doc(out, "escape.json"), g["nx"] * g["ny"], 0.99)
        dist = dist_from(cfg, "")
        pts = points_from(cfg, "")[::CENSUS_STRIDE]
        params = condition_a_params(dist)
        sub_seed = SequenceSeed(cfg["seed"], 0)
        vec = escape_census(dist, pts, params, cfg["max_iter"], sub_seed)
        ref = checks.scalar_census(dist, pts, params.R, cfg["max_iter"], sub_seed)
        checks.check_census_reference((vec.escaped, vec.bounded, vec.uncertain), ref)

    return [b.cli("escape-stats", "escape-stats", cfg, check)]


def _cycle() -> tuple:
    return checks.two_cycle(QUAD_C["poly"], QUAD_C["alpha"], QUAD_C["delta"], (0.58, -0.38))


def _minsets_cfg(radius: float, master: int, eps: Optional[float]) -> Dict[str, Any]:
    cfg = {"noise": {"base": QUAD_C, "radius": radius}, "seed": master,
           "grid": FAMILY_GRID, "burn_in": 1000, "n_record": 200}
    if eps is not None:
        cfg["cluster_eps"] = eps
    return cfg


def _descriptor_json(d) -> Dict[str, Any]:
    if d.is_infinity:
        return {"id": d.id, "period": d.period}
    return {
        "id": d.id, "period": d.period, "contraction": d.contraction,
        "cluster_eps": d.cluster_eps, "cloud_size": len(d.cloud),
        "parts_centers": [[[c.real, c.imag] for c in (x, y)] for x, y in d.parts_centers],
    }


def cycle_discovery(root: str, b: ConfigWriter, seed: int) -> List[Op]:
    ops = []

    def check_ladder(out: str) -> None:
        checks.check_cycle_set(_doc(out, "minsets.json")["result"], _cycle(), 0.05)

    ops.append(b.cli("minsets-r0.05-ladder", "minsets", _minsets_cfg(0.05, LADDER_SEED, None),
                     check_ladder))

    capped = _minsets_cfg(0.1, PRESET_SEED, 0.01)

    def check_capped(out: str) -> None:
        from henonlab.core import HenonMap, Poly
        from henonlab.dist import BallNoise, SequenceSeed, condition_a_params
        from henonlab.escape import escape_census

        ball = BallNoise(HenonMap(0.0, 0.1, Poly((1.0, -1.3, 0.0))), 0.1)
        p, q = _cycle()
        census = escape_census(ball, [p, q] * 512, condition_a_params(ball), 200,
                               SequenceSeed(PRESET_SEED, 1))
        checks.check_no_finite_set(_doc(out, "minsets.json")["result"], census.escaped)

    ops.append(b.cli("minsets-r0.1-capped", "minsets", capped, check_capped))

    # known fault, kept while it lasts: at cluster_eps 0.0025 the saturated
    # cloud loses its terminal SCC and only the infinity sentinel is
    # reported (eps 0.005 finds the period-2 set); fixed inputs, so it
    # fails every time
    def call_lost(out: str):
        from henonlab.core import HenonMap, Poly
        from henonlab.dist import BallNoise, SequenceSeed, condition_a_params
        from henonlab.minsets import discover_minimal_sets

        ball = BallNoise(HenonMap(0.0, 0.1, Poly((1.0, -1.3, 0.0))), 0.05)
        grid = [(x, y) for y in (0.1, 0.2) for x in (0.1, 0.2)]
        sets = discover_minimal_sets(ball, condition_a_params(ball), grid, SequenceSeed(9, 0),
                                     n_record=200, cluster_eps=0.0025)
        return {"descriptors": [_descriptor_json(d) for d in sets]}

    def check_lost(out: str) -> None:
        checks.check_cycle_set(_doc(out, "result.json"), _cycle(), 0.05)

    ops.append(Op("discover-eps0.0025-lost-cycle", call_lost, check_lost, cli=False,
                  expect_fail=True))
    return ops


def desk_mix(root: str, b: ConfigWriter, seed: int) -> List[Op]:
    ops = []
    att = _preset(root, "quad-attracting.json")

    julia = dict(att, seed=derive_seed(seed, "desk-mix", "render-julia"))
    julia["slice"] = dict(att["slice"], anchor=[[jitter(seed, "anchor-x", 0.01), 0.0],
                                                [jitter(seed, "anchor-y", 0.01), 0.0]])

    def check_julia(out: str) -> None:
        from henonlab.config import dist_from, slice_from
        from henonlab.dist import condition_a_params
        from henonlab.escape import OrbitStatus, classify_orbit, green_plus

        with open(os.path.join(out, "julia.pgm"), "rb") as fh:
            pix = checks.read_pgm16(fh.read())
        dist = dist_from(julia, "")
        spec = slice_from(julia["slice"], "/slice")
        X, Y = spec.grid()
        params = condition_a_params(dist)
        source = (dist, _cli_seed(julia["seed"]))
        samples = []
        for k in range(0, X.size, 4099):
            r, c = divmod(k, X.shape[1])
            z = (complex(X[r, c]), complex(Y[r, c]))
            v = classify_orbit(source, z, params, julia["max_iter"])
            if v.status == OrbitStatus.ESCAPED:
                est = green_plus(source, z, params, tol=julia["tol"], max_iter=julia["max_iter"])
                samples.append((r, c, "escaped", est.value, est.error_bound))
            else:
                samples.append((r, c, v.status.name.lower(), 0.0, 0.0))
        checks.require(any(s[2] == "escaped" for s in samples)
                       and any(s[2] == "bounded" for s in samples),
                       "pixel sample must hold escaped and bounded pixels")
        checks.check_pixels(pix, samples, julia["tol"])

    ops.append(b.cli("render-julia", "render-julia", julia, check_julia))

    lyap = dict(att, seed=derive_seed(seed, "desk-mix", "lyapunov"),
                z=[[0.3 + jitter(seed, "lyap-x", 0.02), 0.0],
                   [0.65 + jitter(seed, "lyap-y", 0.02), 0.0]])

    def check_lyap(out: str) -> None:
        target = 0.5 * math.log(abs(complex(QUAD_C["delta"])))
        checks.check_lyapunov(_doc(out, "lyapunov.json"), target)

    ops.append(b.cli("lyapunov", "lyapunov", lyap, check_lyap))

    green = {k: v for k, v in att.items() if k != "points"}
    sx, sy = jitter(seed, "green-x", 0.1), jitter(seed, "green-y", 0.1)
    green.update(seed=derive_seed(seed, "desk-mix", "green"),
                 grid={"x_min": -2.5 + sx, "x_max": 2.5 + sx,
                       "y_min": -2.5 + sy, "y_max": 2.5 + sy, "nx": 8, "ny": 8})

    def check_green(out: str) -> None:
        from henonlab.config import dist_from
        from henonlab.dist import condition_a_params
        from henonlab.escape import DistSource, ShiftedSource, green_plus

        dist = dist_from(green, "")
        params = condition_a_params(dist)
        src = DistSource(dist, _cli_seed(green["seed"]))
        f0 = src[0]
        coeffs = f0.poly.coeffs
        pairs = []
        for e in _doc(out, "green.json")["result"]["points"]:
            z1 = checks.henon(coeffs, f0.alpha, f0.delta, checks.as_point(e["point"]))
            g1 = green_plus(ShiftedSource(src, 1), z1, params, tol=green["tol"],
                            max_iter=green["max_iter"])
            pairs.append((e["value"], g1.value))
        checks.check_green_equation(pairs, f0.degree, green["tol"])

    ops.append(b.cli("green", "green", green, check_green))

    dtl = {"maps": [QUAD_C, QUAD_C_KICK], "weights": [0.6, 0.4],
           "seed": derive_seed(seed, "desk-mix", "dtl"), "z": [0.3, 2.335], "index": 0,
           "discovery": {"points": [[0.3, 0.2], [0.5, -0.1], [-0.2, 0.3]]},
           "eps_trunc": 1e-2, "max_terms": 60, "tl_samples": 150, "tl_max_iter": 250,
           "budget": 4096, "mc_samples": 8000, "h": 0.05, "fd_tl_samples": 4000}
    ops.append(b.cli("dtl", "dtl", dtl, lambda out: checks.check_dtl(_doc(out, "dtl.json"))))

    mop = {"maps": [QUAD_W], "seed": derive_seed(seed, "desk-mix", "mop"),
           "discovery": {"points": [[0.1, 0.1], [0.3, -0.2], [-0.2, 0.3]]},
           "points": [[0.4, 0.3], [-0.2, 0.5], [0.3, -0.35]], "powers": list(range(4, 15)),
           "fit": True, "tl_samples": 1000, "tl_max_iter": 500, "ramp_width": 2.0}
    multiplier = checks.fixed_point_multiplier(QUAD_W["delta"])
    ops.append(b.cli("mop-fit", "mop", mop,
                     lambda out: checks.check_rate_fit(_doc(out, "mop.json"), multiplier)))
    return ops


WORKLOAD_OPS = {
    "family-scan": family_scan,
    "volume-census": volume_census,
    "cycle-discovery": cycle_discovery,
    "desk-mix": desk_mix,
}


def build(workload: str, root: str, cfg_dir: str, seed: int, threads: int) -> List[Op]:
    return WORKLOAD_OPS[workload](root, ConfigWriter(cfg_dir, threads), seed)

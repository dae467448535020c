"""Golden artifact table: one small config per subcommand, run in process at
--threads 1 and 2, every artifact's sha256 compared with a committed table.

The configs cover a one-map support, a finite support that draws per step
and a noise ball.  A change that moves a hash edits GOLDEN and says which
hash moved and why; the same bytes at both thread counts are part of the
claim.  To print the table of the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest

from henonlab.cli import run_cli

QUAD_C = {"alpha": 0.0, "delta": 0.1, "poly": [1.0, -1.3, 0.0]}
QUAD_C_KICK = {"alpha": 0.0, "delta": 0.1, "poly": [1.0, -1.3, 0.02]}
QUAD_W = {"alpha": 0.0, "delta": 0.81, "poly": [1.0, 0.0, 0.0]}
ONE_MAP = {"maps": [QUAD_C]}
TWO_MAPS = {"maps": [QUAD_C, QUAD_C_KICK], "weights": [0.6, 0.4]}
BALL = {"noise": {"base": QUAD_C, "radius": 0.05}}
DISCOVERY = {"points": [[0.3, 0.2], [0.5, -0.1], [-0.2, 0.3]], "n_record": 60,
             "cluster_eps": 0.05}
# probes captured, split between fates, escaping, at a saddle, outside the
# window, and in the escape cone outside the window
PROBES = [[0.58, -0.38], [0.3, 0.2], [0.0, 5.0], [0.0, 0.0], [1e102, 0.0], [0.0, 1e102]]

# name -> (command, config)
CASES = {
    "render-julia-ball": ("render-julia", {
        **BALL, "seed": 3,
        "slice": {"anchor": [[0.0, 0.0], [0.0, 0.0]], "extent": 2.5, "resolution": 24},
        "max_iter": 200}),
    "green-two-maps": ("green", {
        **TWO_MAPS, "seed": 4, "points": [[0.0, 3.0], [1.0, -2.5], [2.0, 2.0], [0.3, 0.2]],
        "max_iter": 300}),
    "lyapunov-one-map": ("lyapunov", {
        **ONE_MAP, "seed": 5, "z": [0.3, 0.65], "samples": 10, "n": 2000}),
    "lyapunov-ball": ("lyapunov", {
        **BALL, "seed": 5, "z": [0.3, 0.65], "samples": 10, "n": 500}),
    "minsets-ball": ("minsets", {
        **BALL, "seed": 6, **DISCOVERY}),
    "tl-one-map": ("tl", {
        **ONE_MAP, "seed": 7, "discovery": DISCOVERY, "points": PROBES,
        "samples": 200, "max_iter": 300}),
    "tl-two-maps": ("tl", {
        **TWO_MAPS, "seed": 7, "discovery": DISCOVERY, "points": PROBES,
        "samples": 200, "max_iter": 300}),
    "tl-ball": ("tl", {
        **BALL, "seed": 7, "discovery": DISCOVERY, "points": PROBES,
        "samples": 200, "max_iter": 300}),
    "mop-one-map": ("mop", {
        "maps": [QUAD_W], "seed": 8, "discovery": {"points": [[0.1, 0.1], [0.3, -0.2]]},
        "points": [[0.4, 0.3], [-0.2, 0.5]], "powers": [4, 6, 8, 10, 12], "fit": True,
        "tl_samples": 1000, "tl_max_iter": 300, "ramp_width": 2.0}),
    "dtl-two-maps": ("dtl", {
        **TWO_MAPS, "seed": 9, "z": [0.3, 2.335], "index": 0,
        "discovery": {"points": [[0.3, 0.2], [0.5, -0.1], [-0.2, 0.3]]},
        "eps_trunc": 1e-2, "max_terms": 20, "tl_samples": 60, "tl_max_iter": 200,
        "budget": 1024, "mc_samples": 1000, "h": 0.05, "fd_tl_samples": 400}),
    "bifurcate-ball": ("bifurcate", {
        "family": {"base": QUAD_C, "v": 0.05, "u": 0.77}, "seed": 10,
        "t_grid": [0.0, 1.0],
        "grid": {"x_min": 0.05, "x_max": 0.25, "y_min": 0.05, "y_max": 0.25, "nx": 2, "ny": 2},
        "n_record": 60, "cluster_eps": 0.05, "tl_samples": 60, "tl_max_iter": 200}),
    "escape-stats-ball": ("escape-stats", {
        **BALL, "seed": 11,
        "grid": {"x_min": -2.0, "x_max": 2.0, "y_min": -2.0, "y_max": 2.0, "nx": 12, "ny": 12},
        "max_iter": 300}),
}

GOLDEN = {
    'bifurcate-ball': {
        'bifurcate.csv':
            '48ceb13fd91f8dfb6a4988d449f68b607a15f4c90aff6144124feb7c4e0d3d52',
        'bifurcate.json':
            '1bd6121b6259cdb8a11aa89753c314267c7076c33fcb7dd585cf77be795096b0',
    },
    'dtl-two-maps': {
        'dtl.json':
            '3b154eefc057c7cb376d4ee53af47aeff0ef4e30c75e78a749f0ceefe6a28117',
    },
    'escape-stats-ball': {
        'escape.json':
            '7fc730e0c96094cf4d76e3193f86ddb79a6c91aaddc2dba55d67bd710e4f8e3d',
    },
    'green-two-maps': {
        'green.csv':
            '74b37cea0d640600c9ec721f471e61e6039bb59019ed53031b4510a7e730737d',
        'green.json':
            '3f4d22cda75ea2b6766b3b9be30efe7628ec6168c5d24b67b024a5747e7a2545',
    },
    'lyapunov-ball': {
        'lyapunov.json':
            '8e2283ba750deb12673108222098877f3c4f8d5ac667fc5a0d4318aacd3234fb',
    },
    'lyapunov-one-map': {
        'lyapunov.json':
            'a8aa19cd41d4e5f43c38999aa2048748479ecb1b5aea78f7ff0d97fe449325f5',
    },
    'minsets-ball': {
        'minsets.json':
            '9fe984a42844312e67fa626f0c007d70916c46841673722d213d356ce504ac50',
    },
    'mop-one-map': {
        'mop.json':
            'db0c2e581afd382eeece3e15318d8160836a7efab51cbef0695a93d6e5315cb7',
    },
    'render-julia-ball': {
        'julia.json':
            '12b0396003effe4c5dcccd15c51c819f0d4f7075f7eb3bcb833202d58a4f0755',
        'julia.pgm':
            '474458534bbc2c0019ceba1e0d24e7fc5983ec57dab3a266d652f48fd6c51a69',
    },
    'tl-ball': {
        'tl.json':
            '015054529996d7ff48b07d3bde14b7e9938c27cc83e0a1cc4ddfef8ecc7c5ed0',
    },
    'tl-one-map': {
        'tl.json':
            'f72c396c1cc060f730227cca48799cfa28339959d31b0c10ea8c1832b1a54b0f',
    },
    'tl-two-maps': {
        'tl.json':
            '3f3ab7a9861af4766104aaaeaa3e324ec01d10ed528f26175b2fc51d644325bd',
    },
}


def artifact_hashes(name: str, threads: int, root: str) -> dict:
    """Run case ``name`` at ``threads`` under ``root``; artifact name ->
    sha256 of its bytes."""
    command, cfg = CASES[name]
    path = os.path.join(root, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    out = os.path.join(root, f"{name}-t{threads}")
    code = run_cli([command, "--config", path, "--out", out, "--threads", str(threads)])
    assert code == 0, (name, threads, code)
    hashes = {}
    for art in sorted(os.listdir(out)):
        with open(os.path.join(out, art), "rb") as fh:
            hashes[art] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_artifacts(tmp_path, name, threads):
    assert artifact_hashes(name, threads, str(tmp_path)) == GOLDEN[name]


def test_golden_table_covers_every_command():
    from henonlab.cli import _COMMANDS

    assert {c for c, _ in CASES.values()} == set(_COMMANDS) - {"selftest"}
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for case in sorted(CASES):
            print(f"    {case!r}: {{")
            for art, digest in artifact_hashes(case, 1, tmp).items():
                print(f"        {art!r}:\n            {digest!r},")
            print("    },")
        print("}")

"""Config schema, artifact writers, and the command-line front end."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from henonlab import __version__
from henonlab.cli import run_cli
from henonlab.config import (
    ConfigError,
    Field,
    Resolver,
    as_complex,
    dist_from,
    family_from,
    load_text,
    map_from,
    points_from,
    slice_from,
)
from henonlab.dist import BallNoise, FiniteDist, NoiseFamily, SequenceSeed, condition_a_params
from henonlab.output import canonical_json, write_csv, write_json, write_pgm16

PRESET_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "henonlab", "presets")

QUAD_CFG = {
    "maps": [{"alpha": 0.0, "delta": 0.1, "poly": [1.0, -1.3, 0.0]}],
    "weights": [1.0],
    "seed": 7,
    "points": [[[0.0, 0.0], [3.0, 0.0]]],
}


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# ---------------------------------------------------------------------------
# schema errors carry JSON pointers


def test_missing_delta_pointer():
    with pytest.raises(ConfigError) as exc:
        map_from({"alpha": 0.0, "poly": [1.0, 0.0, 0.0]}, "/maps/0")
    assert "/maps/0/delta" in str(exc.value)


def test_bad_poly_pointer():
    with pytest.raises(ConfigError) as exc:
        map_from({"alpha": 0.0, "delta": 0.1, "poly": [1.0, "x", 0.0]}, "/maps/0")
    assert "/maps/0/poly/1" in str(exc.value)


def test_short_poly_rejected():
    with pytest.raises(ConfigError) as exc:
        map_from({"alpha": 0.0, "delta": 0.1, "poly": [1.0, 0.0]}, "/maps/0")
    assert "/maps/0/poly" in str(exc.value)


def test_weight_count_mismatch():
    with pytest.raises(ConfigError) as exc:
        dist_from(
            {"maps": [{"alpha": 0.0, "delta": 0.1, "poly": [1.0, 0.0, 0.0]}],
             "weights": [0.5, 0.5]},
            "",
        )
    assert "/weights" in str(exc.value)


def test_complex_forms():
    assert as_complex(2, "/x") == 2 + 0j
    assert as_complex([1.5, -0.5], "/x") == 1.5 - 0.5j
    with pytest.raises(ConfigError):
        as_complex("2", "/x")
    with pytest.raises(ConfigError):
        as_complex([1.0], "/x")


def test_invalid_json_is_config_error():
    with pytest.raises(ConfigError):
        load_text("{nope")
    with pytest.raises(ConfigError):
        load_text('{"seed": ' + "9" * 5000 + "}")  # past the int digit limit


def test_equal_weights_default():
    d = dist_from(
        {"maps": [
            {"alpha": 0.0, "delta": 0.1, "poly": [1.0, 0.0, 0.0]},
            {"alpha": 0.0, "delta": 0.2, "poly": [1.0, 0.0, 0.0]},
        ]},
        "",
    )
    assert isinstance(d, FiniteDist)
    assert d.weights == (0.5, 0.5)


def test_grid_points_row_major():
    pts = points_from(
        {"grid": {"x_min": 0.0, "x_max": 2.0, "y_min": 0.0, "y_max": 4.0,
                  "nx": 2, "ny": 2}},
        "",
    )
    # pixel centers, x varying fastest
    assert pts == [(0.5 + 0j, 1 + 0j), (1.5 + 0j, 1 + 0j),
                   (0.5 + 0j, 3 + 0j), (1.5 + 0j, 3 + 0j)]


def test_slice_dir_defaults():
    spec = slice_from({"anchor": [[0, 0], [0, 0]], "extent": 1.0, "resolution": 8}, "")
    assert spec.dir1 == (1 + 0j, 0j)
    assert spec.dir2 == (0j, 1 + 0j)


def test_resolver_records_defaults():
    r = Resolver({"seed": 3})
    vals = r.read({"max_iter": Field("int", 500, lo=1), "tol": Field("float", 1e-6, lo=0.0)})
    assert vals == {"max_iter": 500, "tol": 1e-6}
    r.seed_field()
    assert r.resolved == {"max_iter": 500, "tol": 1e-6, "seed": 3, "stream": 0}


def test_resolver_rejects_wrong_types():
    r = Resolver({"n": 2.5, "flag": "yes"})
    with pytest.raises(ConfigError):
        r.read({"n": Field("int", 1)})
    with pytest.raises(ConfigError):
        r.read({"flag": Field("bool", False)})


# ---------------------------------------------------------------------------
# artifact writers


def test_json_writer_sanitizes(tmp_path):
    p = tmp_path / "r.json"
    write_json(str(p), {"a": float("inf"), "b": float("nan"), "c": 1 + 2j,
                        "d": np.float64(0.5), "e": np.int64(3)})
    back = json.loads(p.read_text())
    assert back == {"a": "inf", "b": "nan", "c": [1.0, 2.0], "d": 0.5, "e": 3}
    assert p.read_text().endswith("\n")


def test_json_writer_is_atomic_and_sorted(tmp_path):
    p = tmp_path / "r.json"
    write_json(str(p), {"b": 1, "a": 2})
    write_json(str(p), {"b": 3, "a": 4})
    assert json.loads(p.read_text()) == {"a": 4, "b": 3}
    assert p.read_text().index('"a"') < p.read_text().index('"b"')
    leftovers = [f for f in os.listdir(tmp_path) if f != "r.json"]
    assert leftovers == []


def test_pgm_bytes(tmp_path):
    p = tmp_path / "img.pgm"
    data = np.array([[0, 1], [65535, 258]], dtype=np.uint16)
    written = write_pgm16(str(p), data, comment="hello")
    raw = p.read_bytes()
    assert written == raw
    assert raw.startswith(b"P5\n# hello\n2 2\n65535\n")
    body = raw.split(b"65535\n", 1)[1]
    # big-endian 16-bit rows
    assert body == b"\x00\x00\x00\x01\xff\xff\x01\x02"


def test_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        write_pgm16(str(tmp_path / "x.pgm"), np.array([[70000]]))


def test_csv_bytes(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(str(p), ("a", "b"), [(0.5, 'he,"llo'), (float("nan"), 3)])
    raw = p.read_bytes()
    assert raw == b'a,b\n0.5,"he,""llo"\nnan,3\n'


def test_canonical_json_single_line():
    s = canonical_json({"b": [1.0, float("inf")], "a": 0.1})
    assert "\n" not in s
    assert s == '{"a":0.1,"b":[1.0,"inf"]}'


# ---------------------------------------------------------------------------
# CLI behaviour


def test_cli_missing_delta_exit_2(tmp_path, capsys):
    cfg = {"maps": [{"alpha": 0.0, "poly": [1.0, 0.0, 0.0]}], "seed": 7,
           "points": [[[0, 0], [3, 0]]]}
    code = run_cli(["green", "--config", _write_cfg(tmp_path, cfg),
                    "--out", str(tmp_path)])
    assert code == 2
    assert "/maps/0/delta" in capsys.readouterr().err


def test_cli_unreadable_config_exit_2(tmp_path, capsys):
    code = run_cli(["green", "--config", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path)])
    assert code == 2


def test_cli_computational_failure_exit_3(tmp_path, capsys):
    cfg = {"maps": [{"alpha": 0.0, "delta": 1.0, "poly": [1.0, 0.0, 0.0]}],
           "seed": 7, "z": [[0, 0], [50, 0]], "samples": 10, "n": 200}
    code = run_cli(["lyapunov", "--config", _write_cfg(tmp_path, cfg),
                    "--out", str(tmp_path)])
    assert code == 3
    assert "AllEscaped" in capsys.readouterr().err


def test_cli_green_report(tmp_path):
    code = run_cli(["green", "--config", _write_cfg(tmp_path, QUAD_CFG),
                    "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "green.json").read_text())
    assert rep["version"] == __version__
    assert rep["config"]["seed"] == 7
    pt = rep["result"]["points"][0]
    assert pt["value"] > 0 and pt["error_bound"] <= 2e-6
    csv_lines = (tmp_path / "green.csv").read_text().split("\n")
    assert csv_lines[0].startswith("index,x_re")
    assert len(csv_lines) == 3  # header, one row, trailing LF


def test_cli_seed_override_recorded(tmp_path):
    run_cli(["green", "--config", _write_cfg(tmp_path, QUAD_CFG),
             "--out", str(tmp_path), "--seed", "99"])
    rep = json.loads((tmp_path / "green.json").read_text())
    assert rep["config"]["seed"] == 99


def test_cli_stdin_config(tmp_path, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(QUAD_CFG)))
    assert run_cli(["green", "--config", "-", "--out", str(tmp_path)]) == 0


def test_cli_argparse_codes(capsys):
    assert run_cli(["--help"]) == 0
    assert run_cli(["nosuch"]) == 2
    assert run_cli(["green"]) == 2  # --config is required
    capsys.readouterr()


CYCLE_CFG = {
    "maps": [{"alpha": 0.0, "delta": 0.1, "poly": [1.0, -1.3, 0.0]}],
    "seed": 7,
    "points": [[[0.1, 0], [0.1, 0]]],
}
TWO_MAP_CFG = dict(CYCLE_CFG, maps=CYCLE_CFG["maps"] + [
    {"alpha": 0.0, "delta": 0.1, "poly": [1.0, -1.3, 0.02]},
])


FAMILY_CFG = {
    "family": {"base": CYCLE_CFG["maps"][0], "v": 0.05, "u": 0.77},
    "seed": 7,
    "points": CYCLE_CFG["points"],
}


@pytest.mark.parametrize("cmd, cfg, pointer", [
    ("minsets", dict(CYCLE_CFG, burn_in=500), "/burn_in"),
    ("minsets", dict(CYCLE_CFG, cluster_eps=0), "/cluster_eps"),
    ("minsets", dict(CYCLE_CFG, rho_margin=0), "/rho_margin"),
    ("tl", dict(CYCLE_CFG, discovery=dict(CYCLE_CFG, burn_in=500)), "/discovery/burn_in"),
    ("mop", dict(CYCLE_CFG, discovery=CYCLE_CFG, powers=[1], ramp_width=0), "/ramp_width"),
    ("mop", dict(TWO_MAP_CFG, discovery=TWO_MAP_CFG, powers=[5], budget=4, mc_samples=1),
     "/mc_samples"),
    ("bifurcate", dict(FAMILY_CFG, t_grid=[0.5]), "/t_grid"),
    ("bifurcate", dict(FAMILY_CFG, t_grid=[0.5, 0.2]), "/t_grid"),
    ("mop", dict(CYCLE_CFG, discovery=CYCLE_CFG, fit=True, powers=[1, 2]), "/powers"),
    ("dtl", dict(TWO_MAP_CFG, discovery=TWO_MAP_CFG, z=CYCLE_CFG["points"][0], index=0,
                 eps_trunc=0), "/eps_trunc"),
])
def test_cli_library_bounds_exit_2(tmp_path, capsys, cmd, cfg, pointer):
    code = run_cli([cmd, "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert f"{pointer}:" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, cfg", [
    ("minsets", CYCLE_CFG),
    ("bifurcate", dict(FAMILY_CFG, t_grid=[0.0, 1.0])),
])
def test_cli_cluster_eps_below_int64_lattice_exit_2(tmp_path, capsys, cmd, cfg):
    # below 4 R / 2**62 the eps/4 lattice index of a cloud point overflows int64
    path = _write_cfg(tmp_path, dict(cfg, cluster_eps=1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli([cmd, "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "/cluster_eps:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / f"{cmd}.json").exists()


NOISE_CFG = dict(CYCLE_CFG, noise={"base": CYCLE_CFG["maps"][0], "radius": 0.05})
del NOISE_CFG["maps"]
SKEWED_CFG = dict(TWO_MAP_CFG, weights=[0.9, 0.1])
FAR_MAP = dict(CYCLE_CFG["maps"][0], alpha=1e308)  # 2 |alpha| overflows the certificate
GRID = {"x_min": 0.0, "x_max": 0.2, "y_min": 0.0, "y_max": 0.2, "nx": 2, "ny": 2}
SLICE = {"anchor": [[0, 0], [0, 0]], "extent": 2.0, "resolution": 4}


@pytest.mark.parametrize("cmd, cfg, pointer", [
    # the inverse maps of a noise ball have no closed form
    ("lyapunov", dict(NOISE_CFG, z=CYCLE_CFG["points"][0], direction="backward"), "/direction"),
    # h pushes a weight out of [0, 1]
    ("dtl", dict(TWO_MAP_CFG, discovery=CYCLE_CFG, z=CYCLE_CFG["points"][0], index=0, h=1.0),
     "/h"),
    ("dtl", dict(SKEWED_CFG, discovery=CYCLE_CFG, z=CYCLE_CFG["points"][0], index=0, h=0.2),
     "/h"),
    # the certificate radius overflows
    ("green", dict(QUAD_CFG, rho_margin=1e308), "/rho_margin"),
    # 2 * extent overflows, so the pixel grid would be nan
    ("render-julia", dict(QUAD_CFG, slice={"anchor": [[0, 0], [0, 0]], "extent": 1e308,
                                           "resolution": 4}), "/slice"),
    ("tl", dict(CYCLE_CFG, discovery=CYCLE_CFG, samples=0), "/samples"),
    # the pitch is finite, but the corner pixels' x leaves the double range
    ("render-julia", dict(QUAD_CFG, slice={"anchor": [[1.7e308, 0], [0, 0]], "extent": 8e307,
                                           "resolution": 4}), "/slice"),
    # the support's own certificate radius overflows
    ("lyapunov", dict(NOISE_CFG, z=CYCLE_CFG["points"][0],
                      noise=dict(NOISE_CFG["noise"], radius=1e308)), "/noise"),
    ("lyapunov", dict(QUAD_CFG, z=CYCLE_CFG["points"][0], maps=[FAR_MAP]), "/maps"),
    ("bifurcate", dict(FAMILY_CFG, t_grid=[0.0, 1.0],
                       family=dict(FAMILY_CFG["family"], v=1e300, u=1e308)), "/family"),
    ("minsets", dict(CYCLE_CFG, maps=[FAR_MAP]), "/maps"),
    # cross-field rules of the library's constructors
    ("green", dict(QUAD_CFG, weights=[0.5]), "/weights"),
    ("escape-stats", {"maps": CYCLE_CFG["maps"], "seed": 7,
                      "grid": dict(GRID, x_min=1.0, x_max=0.5)}, "/grid"),
    ("bifurcate", dict(FAMILY_CFG, t_grid=[0.0, 1.0], family=dict(FAMILY_CFG["family"], v=0.9)),
     "/family"),
    ("render-julia", dict(QUAD_CFG, slice=dict(SLICE, dir1=[[2, 0], [0, 0]])), "/slice"),
    ("render-julia", dict(QUAD_CFG, slice=dict(SLICE, dir2=[[1, 0], [0, 0]])), "/slice"),
    ("green", dict(QUAD_CFG, maps=[dict(QUAD_CFG["maps"][0], delta=0)]), "/maps/0"),
    # cluster_eps far above the certificate radius (R = 18.2) would lump the
    # whole cloud into a one-point "minimal set" at the origin
    ("minsets", dict(NOISE_CFG, cluster_eps=1e300), "/cluster_eps"),
])
def test_cli_bad_field_exit_2_before_any_work(tmp_path, capsys, monkeypatch, cmd, cfg, pointer):
    from henonlab import cli

    def started(*args, **kwargs):
        raise AssertionError("computation started on a config that should be refused")

    for name in ("raster_slice", "green_points", "lyapunov_statistics",
                 "backward_lyapunov_statistics", "escape_census"):
        monkeypatch.setattr(cli, name, started)
    # the discovery commands look these up where they are defined
    monkeypatch.setattr("henonlab.minsets.discover_minimal_sets", started)
    monkeypatch.setattr("henonlab.bifurcation.scan_family", started)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli([cmd, "--config", _write_cfg(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {pointer}:" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path / "out") == []


def test_cli_green_undecided_point_exit_3(tmp_path, capsys):
    # (3690, 20) maps to (20, 5): outside the bidisk, outside the cone
    cfg = dict(QUAD_CFG, points=[[[0, 0], [3, 0]], [[3690, 0], [20, 0]]], max_iter=1)
    code = run_cli(["green", "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 3
    assert "point 1:" in capsys.readouterr().err
    assert not (tmp_path / "green.json").exists()
    assert not (tmp_path / "green.csv").exists()


def test_cli_bad_flag_values(tmp_path, capsys):
    path = _write_cfg(tmp_path, QUAD_CFG)
    assert run_cli(["green", "--config", path, "--out", str(tmp_path),
                    "--threads", "0"]) == 2
    assert run_cli(["green", "--config", path, "--out", str(tmp_path),
                    "--seed", "-1"]) == 2
    capsys.readouterr()


def test_render_rerun_from_resolved_config(tmp_path):
    cfg = dict(QUAD_CFG)
    cfg["slice"] = {"anchor": [[0, 0], [0, 0]], "extent": 2.5, "resolution": 32}
    cfg["max_iter"] = 200
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(["render-julia", "--config", _write_cfg(tmp_path, cfg),
                    "--out", str(a)]) == 0
    resolved = json.loads((a / "julia.json").read_text())["config"]
    assert run_cli(["render-julia", "--config", _write_cfg(tmp_path, resolved, "r2.json"),
                    "--out", str(b)]) == 0
    assert (a / "julia.pgm").read_bytes() == (b / "julia.pgm").read_bytes()
    assert (a / "julia.json").read_bytes() == (b / "julia.json").read_bytes()


def test_escape_stats_rerun_from_resolved_config(tmp_path):
    # [0.7, 0.2, 0.1] does not sum to 1.0 in floating point; the report embeds
    # the weights as given, so a re-run embeds the same ones
    cfg = dict(TWO_MAP_CFG, maps=TWO_MAP_CFG["maps"] + [CYCLE_CFG["maps"][0]],
               weights=[0.7, 0.2, 0.1], max_iter=50)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(["escape-stats", "--config", _write_cfg(tmp_path, cfg), "--out", str(a)]) == 0
    resolved = json.loads((a / "escape.json").read_text())["config"]
    assert resolved["weights"] == [0.7, 0.2, 0.1]
    assert run_cli(["escape-stats", "--config", _write_cfg(tmp_path, resolved, "r2.json"),
                    "--out", str(b)]) == 0
    assert (a / "escape.json").read_bytes() == (b / "escape.json").read_bytes()


def test_escape_stats_records_a_grid_as_written(tmp_path):
    # the 10,000 points of a 100 x 100 grid are recorded as the grid itself,
    # which a re-run expands to the same points
    cfg = dict(QUAD_CFG, max_iter=5,
               grid={"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0,
                     "nx": 100, "ny": 100})
    del cfg["points"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["escape-stats", "--config", _write_cfg(tmp_path, cfg), "--out", str(a)]) == 0
    first = (a / "escape.json").read_bytes()
    rep = json.loads(first)
    assert rep["config"]["grid"] == cfg["grid"] and "points" not in rep["config"]
    assert rep["result"]["total"] == 10_000 and len(first) < 4096
    assert run_cli(["escape-stats", "--config", _write_cfg(tmp_path, rep["config"], "r2.json"),
                    "--out", str(b)]) == 0
    assert (b / "escape.json").read_bytes() == first


@pytest.mark.parametrize("error", [ValueError("boom"), ZeroDivisionError("boom")],
                         ids=["ValueError", "ZeroDivisionError"])
def test_cli_unanticipated_library_errors_exit_3(tmp_path, monkeypatch, capsys, error):
    # a library failure that no field bound anticipated exits 3 with its
    # message, not 1 with a traceback, and writes no report
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("henonlab.cli.escape_census", fail)
    out = tmp_path / "out"
    assert run_cli(["escape-stats", "--config", _write_cfg(tmp_path, QUAD_CFG),
                    "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"computation failed: {type(error).__name__}: boom\n"
    assert list(out.iterdir()) == []


def test_render_report_matches_artifact(tmp_path):
    cfg = dict(QUAD_CFG)
    cfg["slice"] = {"anchor": [[0, 0], [0, 0]], "extent": 2.5, "resolution": 32}
    cfg["max_iter"] = 200
    run_cli(["render-julia", "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    rep = json.loads((tmp_path / "julia.json").read_text())
    digest = hashlib.sha256((tmp_path / "julia.pgm").read_bytes()).hexdigest()
    assert rep["result"]["pgm_sha256"] == digest
    head = (tmp_path / "julia.pgm").read_bytes().split(b"\n", 2)
    assert head[0] == b"P5"
    assert head[1].startswith(b"# cfg {")
    counts = rep["result"]["pixels"]
    assert counts["bounded"] + counts["escaped"] + counts["uncertain"] == 32 * 32


def test_cli_threads_do_not_change_bytes(tmp_path):
    cfg = {
        "noise": {"base": {"alpha": 0.0, "delta": 0.1, "poly": [1.0, -1.3, 0.0]},
                  "radius": 0.05},
        "seed": 7,
        "discovery": {"points": [[[0.1, 0], [0.1, 0]]], "n_record": 100,
                      "cluster_eps": 0.05},
        "points": [[[0.3, 0], [0.2, 0]], [[0, 0], [5, 0]]],
        "samples": 200,
        "max_iter": 500,
    }
    path = _write_cfg(tmp_path, cfg)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(["tl", "--config", path, "--out", str(a), "--threads", "1"]) == 0
    assert run_cli(["tl", "--config", path, "--out", str(b), "--threads", "8"]) == 0
    assert (a / "tl.json").read_bytes() == (b / "tl.json").read_bytes()


def test_cli_tl_probes_match_one_probe_estimates(tmp_path):
    # tl walks all probes at once; each entry must be the one-probe estimate
    # on that probe's own phase seed
    from henonlab import cli
    from henonlab.minsets import discover_minimal_sets, estimate_TL

    cfg = {
        "noise": {"base": {"alpha": 0.0, "delta": 0.1, "poly": [1.0, -1.3, 0.0]},
                  "radius": 0.05},
        "seed": 11,
        "discovery": {"points": [[[0.1, 0], [0.1, 0]]], "n_record": 100,
                      "cluster_eps": 0.05},
        "points": [[[0.3, 0], [0.2, 0]], [[0, 0], [5, 0]], [[0, 0], [0, 0]]],
        "samples": 150,
        "max_iter": 40,
    }
    path = _write_cfg(tmp_path, cfg)
    assert run_cli(["tl", "--config", path, "--out", str(tmp_path / "out"), "--threads", "2"]) == 0
    got = json.loads((tmp_path / "out" / "tl.json").read_text())["result"]["points"]

    # rebuild the discovery from the resolved config the report embeds
    resolved = json.loads((tmp_path / "out" / "tl.json").read_text())["config"]
    dist = dist_from(resolved, "")
    seed = SequenceSeed(resolved["seed"], resolved["stream"])
    params = condition_a_params(dist, resolved["rho_margin"])
    disc = resolved["discovery"]
    sets = discover_minimal_sets(
        dist, params, points_from(disc, "/discovery"), cli._phase(seed, 0),
        burn_in=disc["burn_in"], n_record=disc["n_record"], cluster_eps=disc["cluster_eps"],
    )
    probes = points_from(resolved, "")
    assert probes == points_from(cfg, "")
    assert len(got) == len(probes) == 3
    for i, z in enumerate(probes):
        est = estimate_TL(dist, sets, z, 150, 40, cli._phase(seed, 1, i), params)
        want = {"point": z, **cli._basin_json(est)}
        assert got[i] == json.loads(canonical_json(want)), i
    assert len({json.dumps(e["counts"], sort_keys=True) for e in got}) == 3


def test_cli_selftest_passes(tmp_path, capsys):
    assert run_cli(["selftest", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("selftest:") >= 4
    rep = json.loads((tmp_path / "selftest.json").read_text())
    assert rep["version"] == __version__


def _python(*args):
    """A fresh interpreter on the source tree, run with args."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_cli_loads_scipy_only_for_discovery(tmp_path):
    # scipy is most of the CLI's start-up: it loads with the discovery
    # modules, which only the discovery commands import
    cfg = _write_cfg(tmp_path, dict(QUAD_CFG, max_iter=10))
    script = f"""
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m in ("henonlab.minsets", "henonlab.transition", "henonlab.bifurcation"))
import henonlab.cli as cli
seen = [loaded()]
assert cli.run_cli(["selftest"]) == 0
seen.append(loaded())
assert cli.run_cli(["escape-stats", "--config", {cfg!r}, "--out", {str(tmp_path)!r}]) == 0
seen.append(loaded())
import henonlab.minsets
seen.append(loaded())
print(json.dumps(seen))
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    *clean, control = json.loads(proc.stdout.splitlines()[-1])
    assert clean == [[], [], []]
    assert "scipy.spatial" in control and "henonlab.minsets" in control


def test_console_entry_point():
    proc = _python("-m", "henonlab.cli", "--help")
    assert proc.returncode == 0
    for cmd in ("render-julia", "green", "lyapunov", "minsets", "tl", "mop",
                "dtl", "bifurcate", "escape-stats", "selftest"):
        assert cmd in proc.stdout


def test_cli_render_never_steps_pixels_outside_the_window(tmp_path):
    # every pixel starts with |x| >= 4e307, far outside the exact window: the
    # two in the cone keep their step-0 Green value, the rest stay uncertain
    # and are never stepped, so no overflow warning turns into an error
    cfg = dict(QUAD_CFG, slice={"anchor": [[1e308, 0], [0, 0]], "extent": 8e307,
                                "resolution": 4})
    proc = _python("-W", "error", "-m", "henonlab.cli", "render-julia",
                   "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0 and proc.stderr == ""
    rep = json.loads((tmp_path / "out" / "julia.json").read_text())["result"]
    assert rep["pixels"] == {"bounded": 0, "escaped": 2, "uncertain": 14}


_FAR = [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]
_FAR_CFG = {"maps": [{"alpha": 0.0, "delta": 2.0, "poly": [1.0, 0.0, 0.0]}], "seed": 7,
            "points": _FAR, "discovery": {"points": _FAR}, "samples": 20, "max_iter": 50}


@pytest.mark.parametrize("cmd, report, cfg", [
    pytest.param("escape-stats", "escape.json", _FAR_CFG, id="escape-stats-escape.json"),
    pytest.param("minsets", "minsets.json", _FAR_CFG, id="minsets-minsets.json"),
    pytest.param("tl", "tl.json", _FAR_CFG, id="tl-tl.json"),
])
def test_cli_walkers_never_step_starts_outside_the_window(tmp_path, cmd, report, cfg):
    # a start outside the exact window and not in the cone is never stepped,
    # so no overflow warning turns into an error; one that starts in the cone
    # still counts as escaped
    proc = _python("-W", "error", "-m", "henonlab.cli", cmd,
                   "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0 and proc.stderr == ""
    rep = json.loads((tmp_path / "out" / report).read_text())["result"]
    if cmd == "escape-stats":
        assert (rep["escaped"], rep["bounded"], rep["uncertain"]) == (1, 0, 1)
    elif cmd == "minsets":
        assert rep["finite_count"] == 0
    else:
        assert [(p["unresolved"], p["probabilities"]) for p in rep["points"]] == \
            [(1.0, {"infinity": 0.0}), (0.0, {"infinity": 1.0})]


@pytest.mark.parametrize("budget", [None, 1], ids=["tree", "monte-carlo"])
def test_cli_mop_paths_outside_the_window_contribute_zero(tmp_path, budget):
    # the far point starts outside the exact window: its paths retire and
    # read 0 at every power, with no overflow warning (an error here); a
    # one-map support stays on the path tree at any budget, so the Monte
    # Carlo run gives the same map twice
    with open(os.path.join(PRESET_DIR, "quad-attracting.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.update(points=[[[1e308, 0], [0, 0]], [0.3, 0.65]], powers=[0, 1, 3], ramp_width=2.0)
    if budget is not None:
        cfg.update(budget=budget, maps=cfg["maps"] * 2, weights=[0.5, 0.5])
    proc = _python("-W", "error", "-m", "henonlab.cli", "mop",
                   "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0 and proc.stderr == ""
    far, near = json.loads((tmp_path / "out" / "mop.json").read_text())["result"]["values"]
    assert [r["value"] for r in far["powers"]] == [0.0, 0.0, 0.0]
    assert all(r["value"] > 0.5 for r in near["powers"])
    assert [r["exact"] for r in far["powers"]] == [True] + [budget is None] * 2


# ---------------------------------------------------------------------------
# shipped presets parse into the objects they claim


def test_preset_quad_attracting():
    cfg = json.loads(open(os.path.join(PRESET_DIR, "quad-attracting.json")).read())
    d = dist_from(cfg, "")
    assert isinstance(d, FiniteDist)
    assert len(d.maps) == 1
    assert d.maps[0].delta == 0.1
    spec = slice_from(cfg["slice"], "/slice")
    assert spec.resolution == 512
    assert cfg["seed"] > 0


def test_preset_quad_volume():
    cfg = json.loads(open(os.path.join(PRESET_DIR, "quad-volume.json")).read())
    d = dist_from(cfg, "")
    assert isinstance(d, BallNoise)
    assert d.base.delta == 1.0
    pts = points_from(cfg, "")
    assert len(pts) == 10_000


def test_preset_family_noise():
    cfg = json.loads(open(os.path.join(PRESET_DIR, "family-noise.json")).read())
    fam = family_from(cfg["family"], "/family")
    assert isinstance(fam, NoiseFamily)
    assert 0 < fam.v < fam.u
    ts = cfg["t_grid"]
    assert ts == sorted(ts) and ts[0] == 0.0 and ts[-1] == 1.0


def test_render_golden_hash(tmp_path):
    # reference raster of the bundled attracting preset, pinned once
    golden = "a61186f67fbedc97bcd4cf42c6dd929ab53c7ab87ae75fb6b9789514a5fe1d5e"
    preset = os.path.join(PRESET_DIR, "quad-attracting.json")
    assert run_cli(["render-julia", "--config", preset, "--out", str(tmp_path),
                    "--threads", "4"]) == 0
    digest = hashlib.sha256((tmp_path / "julia.pgm").read_bytes()).hexdigest()
    assert digest == golden

"""Config schema, artifact writers, and the command-line front end."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from henonlab import __version__
from henonlab.cli import run_cli
from henonlab.config import (
    ConfigError,
    Resolver,
    as_complex,
    dist_from,
    family_from,
    load_text,
    map_from,
    points_from,
    slice_from,
)
from henonlab.dist import BallNoise, FiniteDist, NoiseFamily
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
    assert r.int_field("max_iter", 500, lo=1) == 500
    assert r.float_field("tol", 1e-6, lo=0.0) == 1e-6
    r.seed_field()
    assert r.resolved == {"max_iter": 500, "tol": 1e-6, "seed": 3, "stream": 0}


def test_resolver_rejects_wrong_types():
    r = Resolver({"n": 2.5, "flag": "yes"})
    with pytest.raises(ConfigError):
        r.int_field("n", 1)
    with pytest.raises(ConfigError):
        r.bool_field("flag")


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
    write_pgm16(str(p), data, comment="hello")
    raw = p.read_bytes()
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


@pytest.mark.parametrize("cmd, cfg, pointer", [
    ("minsets", dict(CYCLE_CFG, burn_in=500), "/burn_in"),
    ("minsets", dict(CYCLE_CFG, cluster_eps=0), "/cluster_eps"),
    ("minsets", dict(CYCLE_CFG, rho_margin=0), "/rho_margin"),
    ("tl", dict(CYCLE_CFG, discovery=dict(CYCLE_CFG, burn_in=500)), "/discovery/burn_in"),
])
def test_cli_library_bounds_exit_2(tmp_path, capsys, cmd, cfg, pointer):
    code = run_cli([cmd, "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert f"{pointer}:" in capsys.readouterr().err


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


def test_cli_selftest_passes(tmp_path, capsys):
    assert run_cli(["selftest", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("selftest:") >= 4
    rep = json.loads((tmp_path / "selftest.json").read_text())
    assert rep["version"] == __version__


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "henonlab.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for cmd in ("render-julia", "green", "lyapunov", "minsets", "tl", "mop",
                "dtl", "bifurcate", "escape-stats", "selftest"):
        assert cmd in proc.stdout


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

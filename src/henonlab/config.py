"""JSON experiment configuration: parsing, validation, default resolution.

Every validation error carries the JSON pointer of the offending field so
the CLI can report "/maps/0/delta" style locations.  The Resolver records
each value it hands out, defaults included, producing the fully resolved
config that output files embed.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .core import HenonMap, Point, Poly
from .dist import BallNoise, FiniteDist, MapDistribution, NoiseFamily, SequenceSeed
from .escape import SliceSpec


class ConfigError(ValueError):
    """Schema violation, tagged with the JSON pointer of the bad field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        super().__init__(f"{self.pointer}: {message}")


def load_text(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("", f"invalid JSON: {e.msg} at line {e.lineno}")


def _get(node: Any, key: str, ptr: str) -> Any:
    if not isinstance(node, Mapping):
        raise ConfigError(ptr, "expected an object")
    if key not in node:
        raise ConfigError(f"{ptr}/{key}", "missing required field")
    return node[key]


def _is_num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def as_complex(v: Any, ptr: str) -> complex:
    if _is_num(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(_is_num(c) for c in v):
        return complex(v[0], v[1])
    raise ConfigError(ptr, "expected a number or an [re, im] pair")


def as_float(v: Any, ptr: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    if not _is_num(v):
        raise ConfigError(ptr, "expected a number")
    f = float(v)
    if not (lo <= f <= hi) or not math.isfinite(f):
        raise ConfigError(ptr, f"must lie in [{lo}, {hi}]")
    return f


def as_int(v: Any, ptr: str, lo: int = 0, hi: int = (1 << 63) - 1) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(ptr, "expected an integer")
    if not lo <= v <= hi:
        raise ConfigError(ptr, f"must lie in [{lo}, {hi}]")
    return v


def jsonify_complex(c: complex) -> List[float]:
    return [float(c.real), float(c.imag)]


def jsonify_point(z: Point) -> List[List[float]]:
    return [jsonify_complex(complex(z[0])), jsonify_complex(complex(z[1]))]


# ---------------------------------------------------------------------------
# dynamical objects


def map_from(node: Any, ptr: str) -> HenonMap:
    alpha = as_complex(_get(node, "alpha", ptr), f"{ptr}/alpha")
    delta = as_complex(_get(node, "delta", ptr), f"{ptr}/delta")
    raw = _get(node, "poly", ptr)
    if not isinstance(raw, list) or len(raw) < 3:
        raise ConfigError(f"{ptr}/poly", "expected at least 3 coefficients, leading first")
    coeffs = tuple(as_complex(c, f"{ptr}/poly/{i}") for i, c in enumerate(raw))
    try:
        return HenonMap(alpha=alpha, delta=delta, poly=Poly(coeffs))
    except ValueError as e:
        raise ConfigError(ptr, str(e))


def jsonify_map(f: HenonMap) -> Dict[str, Any]:
    return {
        "alpha": jsonify_complex(complex(f.alpha)),
        "delta": jsonify_complex(complex(f.delta)),
        "poly": [jsonify_complex(complex(c)) for c in f.poly.coeffs],
    }


def dist_from(node: Any, ptr: str) -> MapDistribution:
    if not isinstance(node, Mapping):
        raise ConfigError(ptr, "expected an object")
    if "noise" in node:
        nn = node["noise"]
        nptr = f"{ptr}/noise"
        base = map_from(_get(nn, "base", nptr), f"{nptr}/base")
        radius = as_float(_get(nn, "radius", nptr), f"{nptr}/radius")
        try:
            return BallNoise(base, radius)
        except ValueError as e:
            raise ConfigError(f"{nptr}/radius", str(e))
    if "maps" in node:
        raw = node["maps"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{ptr}/maps", "expected a nonempty list of maps")
        maps = tuple(map_from(m, f"{ptr}/maps/{i}") for i, m in enumerate(raw))
        if "weights" in node:
            wraw = node["weights"]
            if not isinstance(wraw, list) or len(wraw) != len(maps):
                raise ConfigError(f"{ptr}/weights", "expected one weight per map")
            weights = tuple(
                as_float(w, f"{ptr}/weights/{i}") for i, w in enumerate(wraw)
            )
        else:
            weights = tuple(1.0 / len(maps) for _ in maps)
        try:
            return FiniteDist(maps=maps, weights=weights)
        except ValueError as e:
            raise ConfigError(f"{ptr}/weights", str(e))
    raise ConfigError(ptr, "expected either a maps list or a noise block")


def jsonify_dist(dist: MapDistribution) -> Dict[str, Any]:
    if isinstance(dist, FiniteDist):
        return {
            "maps": [jsonify_map(f) for f in dist.maps],
            "weights": [float(w) for w in dist.weights],
        }
    return {"noise": {"base": jsonify_map(dist.base), "radius": float(dist.radius)}}


def family_from(node: Any, ptr: str) -> NoiseFamily:
    base = map_from(_get(node, "base", ptr), f"{ptr}/base")
    v = as_float(_get(node, "v", ptr), f"{ptr}/v")
    u = as_float(_get(node, "u", ptr), f"{ptr}/u")
    try:
        return NoiseFamily(base=base, v=v, u=u)
    except ValueError as e:
        raise ConfigError(ptr, str(e))


def jsonify_family(fam: NoiseFamily) -> Dict[str, Any]:
    return {"base": jsonify_map(fam.base), "v": float(fam.v), "u": float(fam.u)}


def point_from(v: Any, ptr: str) -> Point:
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError(ptr, "expected an [x, y] pair")
    return (as_complex(v[0], f"{ptr}/0"), as_complex(v[1], f"{ptr}/1"))


def points_from(node: Any, ptr: str) -> List[Point]:
    """Probe points, either explicit or as a real rectangular lattice."""
    if not isinstance(node, Mapping):
        raise ConfigError(ptr, "expected an object")
    if "points" in node:
        raw = node["points"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{ptr}/points", "expected a nonempty list")
        return [point_from(p, f"{ptr}/points/{i}") for i, p in enumerate(raw)]
    if "grid" in node:
        g = node["grid"]
        gp = f"{ptr}/grid"
        x0 = as_float(_get(g, "x_min", gp), f"{gp}/x_min")
        x1 = as_float(_get(g, "x_max", gp), f"{gp}/x_max")
        y0 = as_float(_get(g, "y_min", gp), f"{gp}/y_min")
        y1 = as_float(_get(g, "y_max", gp), f"{gp}/y_max")
        nx = as_int(_get(g, "nx", gp), f"{gp}/nx", lo=1, hi=4096)
        ny = as_int(_get(g, "ny", gp), f"{gp}/ny", lo=1, hi=4096)
        if x1 < x0 or y1 < y0:
            raise ConfigError(gp, "empty ranges")
        xs = [x0 + (x1 - x0) * (i + 0.5) / nx for i in range(nx)]
        ys = [y0 + (y1 - y0) * (j + 0.5) / ny for j in range(ny)]
        return [(complex(x), complex(y)) for y in ys for x in xs]
    raise ConfigError(ptr, "expected either points or grid")


def slice_from(node: Any, ptr: str) -> SliceSpec:
    anchor = point_from(_get(node, "anchor", ptr), f"{ptr}/anchor")
    dir1 = point_from(node.get("dir1", [[1.0, 0.0], [0.0, 0.0]]), f"{ptr}/dir1")
    dir2 = point_from(node.get("dir2", [[0.0, 0.0], [1.0, 0.0]]), f"{ptr}/dir2")
    extent = as_float(_get(node, "extent", ptr), f"{ptr}/extent")
    resolution = as_int(_get(node, "resolution", ptr), f"{ptr}/resolution")
    try:
        return SliceSpec(anchor=anchor, dir1=dir1, dir2=dir2, extent=extent, resolution=resolution)
    except ValueError as e:
        raise ConfigError(ptr, str(e))


def jsonify_slice(spec: SliceSpec) -> Dict[str, Any]:
    return {
        "anchor": jsonify_point(spec.anchor),
        "dir1": jsonify_point(spec.dir1),
        "dir2": jsonify_point(spec.dir2),
        "extent": float(spec.extent),
        "resolution": int(spec.resolution),
    }


def seed_from(cfg: Any, ptr: str, override: Optional[int] = None) -> SequenceSeed:
    """Master seed from the config (required unless overridden on the CLI)."""
    if override is not None:
        master = override
    else:
        master = as_int(_get(cfg, "seed", ptr), f"{ptr}/seed", lo=0, hi=(1 << 64) - 1)
    stream = 0
    if isinstance(cfg, Mapping) and "stream" in cfg:
        stream = as_int(cfg["stream"], f"{ptr}/stream", lo=0, hi=(1 << 64) - 1)
    return SequenceSeed(master_seed=master, stream_id=stream)


class Resolver:
    """Field reader that records everything it resolves, defaults included."""

    def __init__(self, cfg: Any, ptr: str = ""):
        if not isinstance(cfg, Mapping):
            raise ConfigError(ptr, "expected an object")
        self.cfg = cfg
        self.ptr = ptr
        self.resolved: Dict[str, Any] = {}

    def _raw(self, key: str, default: Any, required: bool) -> Any:
        if key in self.cfg:
            return self.cfg[key]
        if required:
            raise ConfigError(f"{self.ptr}/{key}", "missing required field")
        return default

    def int_field(self, key: str, default: Optional[int] = None,
                  lo: int = 0, hi: int = (1 << 63) - 1) -> int:
        raw = self._raw(key, default, default is None)
        val = as_int(raw, f"{self.ptr}/{key}", lo=lo, hi=hi)
        self.resolved[key] = val
        return val

    def float_field(self, key: str, default: Optional[float] = None,
                    lo: float = -math.inf, hi: float = math.inf) -> float:
        raw = self._raw(key, default, default is None)
        val = as_float(raw, f"{self.ptr}/{key}", lo=lo, hi=hi)
        self.resolved[key] = val
        return val

    def bool_field(self, key: str, default: bool = False) -> bool:
        raw = self._raw(key, default, False)
        if not isinstance(raw, bool):
            raise ConfigError(f"{self.ptr}/{key}", "expected true or false")
        self.resolved[key] = raw
        return raw

    def opt_float_field(self, key: str, lo: float = -math.inf,
                        hi: float = math.inf) -> Optional[float]:
        if key not in self.cfg or self.cfg[key] is None:
            self.resolved[key] = None
            return None
        return self.float_field(key, lo=lo, hi=hi)

    def seed_field(self, override: Optional[int] = None) -> SequenceSeed:
        seed = seed_from(self.cfg, self.ptr, override)
        self.resolved["seed"] = seed.master_seed
        self.resolved["stream"] = seed.stream_id
        return seed

    def dist_field(self) -> MapDistribution:
        dist = dist_from(self.cfg, self.ptr)
        self.resolved.update(jsonify_dist(dist))
        return dist

    def family_field(self) -> NoiseFamily:
        fam = family_from(_get(self.cfg, "family", self.ptr), f"{self.ptr}/family")
        self.resolved["family"] = jsonify_family(fam)
        return fam

    def points_field(self) -> List[Point]:
        pts = points_from(self.cfg, self.ptr)
        self.resolved["points"] = [jsonify_point(p) for p in pts]
        return pts

    def slice_field(self) -> SliceSpec:
        spec = slice_from(_get(self.cfg, "slice", self.ptr), f"{self.ptr}/slice")
        self.resolved["slice"] = jsonify_slice(spec)
        return spec

    def point_field(self, key: str) -> Point:
        pt = point_from(_get(self.cfg, key, self.ptr), f"{self.ptr}/{key}")
        self.resolved[key] = jsonify_point(pt)
        return pt

    def float_list_field(self, key: str, lo: float = -math.inf,
                         hi: float = math.inf) -> List[float]:
        raw = self._raw(key, None, True)
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{self.ptr}/{key}", "expected a nonempty list")
        vals = [as_float(v, f"{self.ptr}/{key}/{i}", lo=lo, hi=hi) for i, v in enumerate(raw)]
        self.resolved[key] = vals
        return vals

    def int_list_field(self, key: str, lo: int = 0, hi: int = (1 << 63) - 1) -> List[int]:
        raw = self._raw(key, None, True)
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{self.ptr}/{key}", "expected a nonempty list")
        vals = [as_int(v, f"{self.ptr}/{key}/{i}", lo=lo, hi=hi) for i, v in enumerate(raw)]
        self.resolved[key] = vals
        return vals

    def choice_field(self, key: str, choices: Sequence[str], default: str) -> str:
        raw = self._raw(key, default, False)
        if raw not in choices:
            raise ConfigError(f"{self.ptr}/{key}", f"expected one of {', '.join(choices)}")
        self.resolved[key] = raw
        return raw

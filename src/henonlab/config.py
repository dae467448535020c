"""JSON experiment configuration: parsing, validation, default resolution.

Every validation error carries the JSON pointer of the offending field so
the CLI can report "/maps/0/delta" style locations.  The Resolver records
each value it hands out, defaults included, producing the fully resolved
config that output files embed.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

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
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise ConfigError("", f"invalid JSON: {e}")


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
    try:
        f = float(v)
    except OverflowError:  # an integer too large for a double
        f = math.inf
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


REQUIRED: Any = object()  # default of a field the config must give
_INT_MAX = (1 << 63) - 1


class Field(NamedTuple):
    """One scalar or list field of a config.

    ``kind`` is int, float, pos (a float above ``lo`` and above 0), bool,
    choice, or ints/floats (a nonempty list of that kind).  Bounds are
    inclusive, except pos's ``lo``; an int with no upper bound must still
    fit in int64.  A string in ``choices`` is taken as it is, in place of a
    value of the kind.  A field whose default is None also takes null.
    """

    kind: str
    default: Any = REQUIRED
    lo: float = -math.inf
    hi: float = math.inf
    choices: Tuple[str, ...] = ()

    def check(self, raw: Any, ptr: str) -> Any:
        if raw is None and self.default is None:
            return None
        if isinstance(raw, str) and raw in self.choices:
            return raw
        if self.kind in ("ints", "floats"):
            if not isinstance(raw, list) or not raw:
                raise ConfigError(ptr, "expected a nonempty list")
            item = self._replace(kind=self.kind[:-1], default=REQUIRED)
            return [item.check(v, f"{ptr}/{i}") for i, v in enumerate(raw)]
        if self.kind == "bool":
            if not isinstance(raw, bool):
                raise ConfigError(ptr, "expected true or false")
            return raw
        if self.kind == "choice":
            raise ConfigError(ptr, f"expected one of {', '.join(self.choices)}")
        if self.kind == "int":
            return as_int(raw, ptr, self.lo, _INT_MAX if self.hi == math.inf else self.hi)
        val = as_float(raw, ptr, self.lo, self.hi)
        if self.kind == "pos" and not val > max(self.lo, 0.0):
            raise ConfigError(ptr, f"must exceed {max(self.lo, 0.0):.3g}")
        return val


class Resolver:
    """Field reader that records everything it resolves, defaults included."""

    def __init__(self, cfg: Any, ptr: str = ""):
        if not isinstance(cfg, Mapping):
            raise ConfigError(ptr, "expected an object")
        self.cfg = cfg
        self.ptr = ptr
        self.resolved: Dict[str, Any] = {}

    def read(self, fields: Mapping[str, Field]) -> Dict[str, Any]:
        """Check every field of the table, then record and return the values
        in table order."""
        vals = {}
        for key, field in fields.items():
            raw = self.cfg.get(key, field.default)
            if raw is REQUIRED:
                raise ConfigError(f"{self.ptr}/{key}", "missing required field")
            vals[key] = field.check(raw, f"{self.ptr}/{key}")
        self.resolved.update(vals)
        return vals

    def sub(self, key: str) -> "Resolver":
        """Reader of the required object at ``key``, recorded under that key."""
        child = Resolver(_get(self.cfg, key, self.ptr), f"{self.ptr}/{key}")
        self.resolved[key] = child.resolved
        return child

    def seed_field(self, override: Optional[int] = None) -> SequenceSeed:
        """Master seed from the config (required unless overridden on the CLI)."""
        table = {"stream": Field("int", 0, lo=0, hi=(1 << 64) - 1)}
        if override is None:
            table["seed"] = Field("int", lo=0, hi=(1 << 64) - 1)
        vals = self.read(table)
        seed = SequenceSeed(vals.get("seed", override), vals["stream"])
        self.resolved["seed"] = seed.master_seed
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

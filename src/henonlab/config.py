"""JSON experiment configuration: parsing, validation, default resolution.

Every validation error carries the JSON pointer of the offending field so
the CLI can report "/maps/0/delta" style locations.  Every value is read
through a ``Field`` table by ``Resolver.read``, which records it, defaults
included, producing the fully resolved config that output files embed.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, TypeVar

from .core import HenonMap, Point, Poly
from .dist import (
    BallNoise,
    FiniteDist,
    MapDistribution,
    NoiseFamily,
    SequenceSeed,
    condition_a_params,
    family_at,
)
from .escape import SLICE_RESOLUTION, SliceSpec

T = TypeVar("T")


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


def checked(ptr: str, make: Callable[..., T], *args: Any, **kwargs: Any) -> T:
    """make(*args, **kwargs), with its ValueError refused at ptr: the library's
    own rules, cross-field ones included, stay in its constructors."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(ptr, str(e))


def _get(node: Any, key: str, ptr: str) -> Any:
    if not isinstance(node, Mapping):
        raise ConfigError(ptr, "expected an object")
    if key not in node:
        raise ConfigError(f"{ptr}/{key}", "missing required field")
    return node[key]


def _is_num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def as_complex(v: Any, ptr: str) -> complex:
    pair = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
    if not all(_is_num(c) for c in pair):
        raise ConfigError(ptr, "expected a number or an [re, im] pair")
    return complex(*(as_float(c, ptr) for c in pair))


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


REQUIRED: Any = object()  # default of a field the config must give
_INT_MAX = (1 << 63) - 1
LIST_ITEM = {"ints": "int", "floats": "float", "complexes": "complex", "points": "point"}


class Field(NamedTuple):
    """One field of a config.

    ``kind`` is int, float, pos (a float above ``lo`` and above 0), bool,
    choice, complex (a finite number or [re, im] pair), point (an [x, y]
    pair of complex), or one of the list kinds in LIST_ITEM (a nonempty
    list of that kind, each item within the bounds).  Bounds are inclusive,
    except pos's ``lo``; an int with no upper bound must still fit in int64.
    A string in ``choices`` is taken as it is, in place of a value of the
    kind.  A field whose default is None also takes null.
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
        if self.kind in LIST_ITEM:
            if not isinstance(raw, list) or not raw:
                raise ConfigError(ptr, "expected a nonempty list")
            item = self._replace(kind=LIST_ITEM[self.kind], default=REQUIRED)
            return [item.check(v, f"{ptr}/{i}") for i, v in enumerate(raw)]
        if self.kind == "point":
            if not isinstance(raw, list) or len(raw) != 2:
                raise ConfigError(ptr, "expected an [x, y] pair")
            return (as_complex(raw[0], f"{ptr}/0"), as_complex(raw[1], f"{ptr}/1"))
        if self.kind == "complex":
            return as_complex(raw, ptr)
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


_MAP = {"alpha": Field("complex"), "delta": Field("complex"), "poly": Field("complexes")}
_GRID = {
    **{k: Field("float") for k in ("x_min", "x_max", "y_min", "y_max")},
    "nx": Field("int", lo=1, hi=4096),
    "ny": Field("int", lo=1, hi=4096),
}
_SLICE = {
    "anchor": Field("point"),
    "dir1": Field("point", [[1.0, 0.0], [0.0, 0.0]]),
    "dir2": Field("point", [[0.0, 0.0], [1.0, 0.0]]),
    "extent": Field("pos"),
    "resolution": Field("int", lo=SLICE_RESOLUTION[0], hi=SLICE_RESOLUTION[1]),
}


class Resolver:
    """Field reader that records everything it resolves, defaults included.
    A complex value is recorded as complex and a point as a tuple; the JSON
    writer turns both into [re, im] lists."""

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

    def subs(self, key: str) -> List["Resolver"]:
        """Readers of the required nonempty list of objects at ``key``,
        recorded as a list under that key."""
        raw = _get(self.cfg, key, self.ptr)
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{self.ptr}/{key}", "expected a nonempty list of objects")
        kids = [Resolver(v, f"{self.ptr}/{key}/{i}") for i, v in enumerate(raw)]
        self.resolved[key] = [k.resolved for k in kids]
        return kids

    def seed_field(self, override: Optional[int] = None) -> SequenceSeed:
        """Master seed from the config (required unless overridden on the CLI)."""
        table = {"stream": Field("int", 0, lo=0, hi=(1 << 64) - 1)}
        if override is None:
            table["seed"] = Field("int", lo=0, hi=(1 << 64) - 1)
        vals = self.read(table)
        seed = SequenceSeed(vals.get("seed", override), vals["stream"])
        self.resolved["seed"] = seed.master_seed
        return seed

    def henon_map(self) -> HenonMap:
        """This object as a map f(x, y) = (y + alpha, p(y) - delta x)."""
        alpha, delta, coeffs = self.read(_MAP).values()
        poly = checked(f"{self.ptr}/poly", Poly, tuple(coeffs))
        return checked(self.ptr, HenonMap, alpha=alpha, delta=delta, poly=poly)

    def dist(self) -> MapDistribution:
        """The driving distribution: a noise ball (``noise``) or a weighted
        finite support (``maps``, ``weights``; 1/m each by default, recorded
        as given).  Its escape certificate at the default margin must be
        finite, so a support whose radius overflows is refused here."""
        if "noise" in self.cfg:
            noise = self.sub("noise")
            base = noise.sub("base").henon_map()
            dist: MapDistribution = BallNoise(base, noise.read({"radius": Field("pos")})["radius"])
        else:
            maps = tuple(m.henon_map() for m in self.subs("maps"))
            weights = self.read({"weights": Field("floats", [1.0 / len(maps)] * len(maps))})
            dist = checked(f"{self.ptr}/weights", FiniteDist, maps, tuple(weights["weights"]))
        support = "noise" if isinstance(dist, BallNoise) else "maps"
        checked(f"{self.ptr}/{support}", condition_a_params, dist)
        return dist

    def family(self) -> NoiseFamily:
        """This object as a noise family (base, v, u).  The certificate radius
        grows with the ball's, so it is checked at t = 1, the largest."""
        base = self.sub("base").henon_map()
        fam = checked(self.ptr, NoiseFamily, base=base,
                      **self.read({"v": Field("float"), "u": Field("float")}))
        checked(self.ptr, condition_a_params, family_at(fam, 1.0))
        return fam

    def points(self) -> List[Point]:
        """Probe points, either explicit or as a real rectangular lattice of
        cell centres, x fastest; a lattice is recorded as its points."""
        if "points" in self.cfg or "grid" not in self.cfg:
            return self.read({"points": Field("points")})["points"]
        gp = f"{self.ptr}/grid"
        g = Resolver(self.cfg["grid"], gp).read(_GRID)
        if g["x_max"] < g["x_min"] or g["y_max"] < g["y_min"]:
            raise ConfigError(gp, "empty ranges")
        xs = [g["x_min"] + (g["x_max"] - g["x_min"]) * (i + 0.5) / g["nx"] for i in range(g["nx"])]
        ys = [g["y_min"] + (g["y_max"] - g["y_min"]) * (j + 0.5) / g["ny"] for j in range(g["ny"])]
        pts = self.resolved["points"] = [(complex(x), complex(y)) for y in ys for x in xs]
        return pts

    def slice_spec(self) -> SliceSpec:
        """This object as a raster slice; dir1 and dir2 default to the x and
        y axes."""
        return checked(self.ptr, SliceSpec, **self.read(_SLICE))


# entry points for callers holding a parsed config node


def map_from(node: Any, ptr: str) -> HenonMap:
    return Resolver(node, ptr).henon_map()


def dist_from(node: Any, ptr: str) -> MapDistribution:
    return Resolver(node, ptr).dist()


def family_from(node: Any, ptr: str) -> NoiseFamily:
    return Resolver(node, ptr).family()


def points_from(node: Any, ptr: str) -> List[Point]:
    return Resolver(node, ptr).points()


def slice_from(node: Any, ptr: str) -> SliceSpec:
    return Resolver(node, ptr).slice_spec()

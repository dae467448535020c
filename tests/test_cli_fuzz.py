"""Every CLI field is checked before any computation starts.

The library calls the CLI makes are replaced by stubs that raise
``Reached``, and each command runs once on a tiny valid config while
``Resolver.read`` records the ``(pointer, Field)`` pairs it checks, so the
cases below come from the same tables the commands read, bounds that
depend on the input included, and reach the structured fields (maps,
noise, family, points, grid, slice) down to each map's coefficients.  A
value at a bound or just inside it, or the config's own value for a field
with no finite bound, must reach a stub; a value just outside, of the
wrong type, or drawn by Hypothesis outside the field's domain must exit 2
with that field's pointer, write nothing and reach no stub.  The object
constructors are not stubbed, so a valid case also passes the library's
own checks.  Nothing is computed.  The resolved config a command records
must resolve to itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from henonlab import bifurcation, cli, minsets
from henonlab.config import LIST_ITEM, REQUIRED, Resolver
from henonlab.output import canonical_json

INT64_MAX = (1 << 63) - 1
# the discovery commands import their entry points on first use, so they
# are stubbed where the commands look them up
STUBBED = {
    cli: ("raster_slice", "green_points", "lyapunov_statistics",
          "backward_lyapunov_statistics", "escape_census"),
    minsets: ("discover_minimal_sets",),
    bifurcation: ("scan_family",),
}


class Reached(Exception):
    """A stubbed library call ran: the config passed every check."""


def _stub(*args, **kwargs):
    raise Reached


@contextlib.contextmanager
def _stubbed():
    with contextlib.ExitStack() as stack:
        for mod, names in STUBBED.items():
            stack.enter_context(mock.patch.multiple(mod, **{n: _stub for n in names}))
        yield


def _map(c):
    return {"alpha": 0.0, "delta": 0.1, "poly": [1.0, -1.3, c]}


FINITE = {"maps": [_map(0.0), _map(0.01), _map(0.02)], "weights": [0.25, 0.25, 0.5], "seed": 7}
NOISE = {"noise": {"base": _map(0.0), "radius": 0.05}, "seed": 7}
PTS = {"points": [[[0.1, 0], [0.1, 0]]]}
GRID = {"grid": {"x_min": 0.0, "x_max": 0.2, "y_min": -0.1, "y_max": 0.1, "nx": 1, "ny": 1}}
Z = [[0.1, 0], [0.1, 0]]
CONFIGS = {
    "render-julia": dict(FINITE, slice={"anchor": [[0, 0], [0, 0]], "extent": 2.0,
                                        "resolution": 4}),
    "green": dict(FINITE, **PTS),
    "lyapunov": dict(FINITE, z=Z),
    "minsets": dict(NOISE, **PTS),
    "tl": dict(FINITE, **PTS, discovery=PTS),
    "mop": dict(FINITE, **PTS, discovery=PTS, powers=[1, 2, 3], fit=True),
    "dtl": dict(FINITE, discovery=PTS, z=Z, index=0),
    "bifurcate": {"family": {"base": _map(0.0), "v": 0.05, "u": 0.77}, "seed": 7, **PTS,
                  "t_grid": [0.0, 1.0]},
    "escape-stats": dict(FINITE, **GRID),
}
OUT = tempfile.mkdtemp(prefix="henonlab-cli-fuzz-")


def _run(cmd, cfg):
    """(exit code, stderr), or Reached when a stub ran."""
    err = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(cfg))), \
            contextlib.redirect_stderr(err):
        code = cli.run_cli([cmd, "--config", "-", "--out", OUT, "--threads", "1"])
    return code, err.getvalue()


def _collect():
    """(command, pointer, Field) for every field each command reads."""
    seen = []
    read = Resolver.read

    def recording(self, fields):
        seen.extend((f"{self.ptr}/{key}", f) for key, f in fields.items())
        return read(self, fields)

    cases = []
    with _stubbed(), mock.patch.object(Resolver, "read", recording):
        for cmd, cfg in CONFIGS.items():
            seen.clear()
            with pytest.raises(Reached):
                _run(cmd, cfg)
            cases += [(cmd, ptr, f) for ptr, f in seen]
    return cases


CASES = _collect()
IDS = [f"{cmd}{ptr}" for cmd, ptr, _ in CASES]


@pytest.fixture(scope="module", autouse=True)
def stubbed():
    with _stubbed():
        yield
    shutil.rmtree(OUT)


def _parent(cfg, ptr):
    """(the object holding the field at ptr, the field's key)."""
    *path, key = ptr.strip("/").split("/")
    for k in path:
        cfg = cfg[int(k)] if isinstance(cfg, list) else cfg[k]
    return cfg, key


def _with(cfg, ptr, value, index=None):
    """Copy of cfg with value at ptr, or at element ``index`` of the list
    there; value REQUIRED removes the field.  The copy shares no list or
    object, as configs built from the same parts would."""
    out = json.loads(json.dumps(cfg))
    node, key = _parent(out, ptr)
    if value is REQUIRED:
        del node[key]
    elif index is None:
        node[key] = value
    else:
        node[key][index] = value
    return out


def _own(cfg, ptr, f):
    """The value at ptr in cfg, or the field's default where cfg has none."""
    node, key = _parent(cfg, ptr)
    return node.get(key, f.default)


def _bounds(f):
    """(lo, hi) of one value of the field, as its check applies them."""
    if f.kind in ("int", "ints"):
        return f.lo, INT64_MAX if f.hi == math.inf else f.hi
    return (max(f.lo, 0.0) if f.kind == "pos" else f.lo), f.hi


def _edges(f, own):
    """(valid, invalid) lists of (value, list index) at each finite bound,
    one step inside it and one step outside; a list field takes the value
    in its first element at the lower bound and its last at the upper.  A
    field with no finite bound takes its own value ``own`` as the valid
    case."""
    if f.kind in ("bool", "choice"):
        return [(v, None) for v in (True, False) if f.kind == "bool"] + \
            [(c, None) for c in f.choices], []
    lo, hi = _bounds(f)
    first, last = (0, -1) if f.kind in LIST_ITEM else (None, None)
    if f.kind in ("int", "ints"):
        up, down = (lambda v: v + 1), (lambda v: v - 1)
    else:
        up, down = (lambda v: math.nextafter(v, math.inf)), (lambda v: math.nextafter(v, -math.inf))
    near = [(c, None) for c in f.choices]
    if math.isfinite(lo):
        near += [(lo, first), (up(lo), first), (down(lo), first)]
    if math.isfinite(hi):
        near += [(hi, last), (down(hi), last), (up(hi), last)]

    def ok(v):
        return isinstance(v, str) or ((v > lo if f.kind == "pos" else v >= lo) and v <= hi)

    valid = [p for p in near if ok(p[0])] or [(own, None)]
    return valid, [p for p in near if not ok(p[0])]


WRONG_TYPES = {
    "int": [1.5, "1", True, [1]],
    "float": ["1.0", True, [0.5]],
    "pos": ["1.0", True, [0.5]],
    "bool": [1, "true"],
    "choice": [1, ["forward"]],
    "complex": ["1", True, {}, [1.0], [1.0, 0.0, 0.0], [True, 0.0], [0.0, "0"]],
    "point": ["x", 0.5, [[0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], "x"], [True, 0]],
    "ints": ["x", 1, [], [None]],
    "floats": ["x", 0.5, [], [None]],
    "complexes": ["x", 0.5, [], [None], [[1.0]]],
    "points": ["x", 0.5, [], [None], [0.5], [[[0, 0]]]],
}

FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_A_NUMBER = st.text() | st.booleans() | st.none() | st.dictionaries(st.text(), st.integers())


def _outside_complex():
    bad = NON_FINITE | NOT_A_NUMBER
    return st.one_of(
        bad,
        st.lists(FINITE_FLOATS, max_size=1),
        st.lists(FINITE_FLOATS, min_size=3, max_size=4),
        st.tuples(bad, FINITE_FLOATS).map(list),
        st.tuples(FINITE_FLOATS, bad).map(list),
    )


def _outside(f):
    """Hypothesis strategy for one value outside the field's domain (one
    item outside it, for a list field)."""
    if f.kind in LIST_ITEM:
        return _outside(f._replace(kind=LIST_ITEM[f.kind]))
    if f.kind == "bool":
        return st.integers() | st.text() | st.floats()
    if f.kind == "choice":
        return st.text().filter(lambda s: s not in f.choices) | st.integers()
    if f.kind == "complex":
        return _outside_complex()
    if f.kind == "point":
        return st.one_of(
            NOT_A_NUMBER, FINITE_FLOATS,
            st.lists(FINITE_FLOATS, max_size=1),
            st.lists(FINITE_FLOATS, min_size=3, max_size=3),
            st.tuples(_outside_complex(), FINITE_FLOATS).map(list),
            st.tuples(FINITE_FLOATS, _outside_complex()).map(list),
        )
    lo, hi = _bounds(f)
    parts = [st.text().filter(lambda s: s not in f.choices), st.booleans()]
    if f.kind == "int":
        parts += [st.floats(), st.integers(min_value=hi + 1)]
        if math.isfinite(lo):
            parts.append(st.integers(max_value=lo - 1))
    else:
        parts.append(NON_FINITE)
        if math.isfinite(lo):
            parts += [st.floats(max_value=lo, exclude_max=f.kind != "pos"),
                      st.integers(max_value=math.ceil(lo) - 1)]
        if math.isfinite(hi):
            parts += [st.floats(min_value=hi, exclude_min=True, allow_infinity=False),
                      st.integers(min_value=math.floor(hi) + 1)]
    return st.one_of(parts)


def _assert_refused(cmd, cfg, ptr):
    code, err = _run(cmd, cfg)
    assert code == 2, err
    reported = err.removeprefix("config error: ").split(": ", 1)[0]
    assert reported == ptr or reported.startswith(f"{ptr}/"), err
    assert "Traceback" not in err
    assert os.listdir(OUT) == []


def test_every_command_reads_fields():
    assert {cmd for cmd, _, _ in CASES} == set(CONFIGS)
    pointers = {(cmd, ptr) for cmd, ptr, _ in CASES}
    assert len(pointers) == len(CASES)  # no pointer read twice
    for want in [("tl", "/samples"), ("tl", "/discovery/cluster_eps"), ("dtl", "/h"),
                 ("mop", "/tl_samples"), ("lyapunov", "/direction"), ("green", "/rho_margin"),
                 ("render-julia", "/slice/resolution"), ("render-julia", "/slice/dir2"),
                 ("green", "/maps/0/delta"), ("dtl", "/maps/2/poly"), ("escape-stats", "/weights"),
                 ("escape-stats", "/grid/nx"), ("minsets", "/noise/radius"),
                 ("minsets", "/noise/base/alpha"), ("bifurcate", "/family/v"),
                 ("bifurcate", "/family/base/poly"), ("tl", "/discovery/points"),
                 ("lyapunov", "/z"), ("dtl", "/z")]:
        assert want in pointers, want


@pytest.mark.parametrize("cmd, ptr, field", CASES, ids=IDS)
def test_field_bounds(cmd, ptr, field):
    valid, invalid = _edges(field, _own(CONFIGS[cmd], ptr, field))
    assert valid
    for value, index in valid:
        with pytest.raises(Reached):
            _run(cmd, _with(CONFIGS[cmd], ptr, value, index))
    wrong = WRONG_TYPES[field.kind] + ([] if field.default is None else [None])
    if field.default is REQUIRED:
        wrong.append(REQUIRED)
    for value, index in invalid + [(w, None) for w in wrong]:
        _assert_refused(cmd, _with(CONFIGS[cmd], ptr, value, index), ptr)


@pytest.mark.parametrize("cmd, ptr, field", CASES, ids=IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_field_outside_domain(cmd, ptr, field, data):
    value = data.draw(_outside(field), label="value")
    index = data.draw(st.sampled_from([0, -1]), label="index") if field.kind in LIST_ITEM else None
    _assert_refused(cmd, _with(CONFIGS[cmd], ptr, value, index), ptr)


def _resolved(cmd, cfg):
    """Canonical bytes of the config a command resolves from cfg."""
    roots = []

    class Root(Resolver):
        def __init__(self, *args):
            super().__init__(*args)
            roots.append(self)

    with mock.patch.object(cli, "Resolver", Root), pytest.raises(Reached):
        _run(cmd, cfg)
    return canonical_json(roots[0].resolved)


@pytest.mark.parametrize("cmd", sorted(CONFIGS))
def test_resolved_config_is_a_fixed_point(cmd):
    # normalizing [0.7, 0.2, 0.1] moves it, and normalizing that moves it again
    cfg = CONFIGS[cmd]
    if "weights" in cfg:
        cfg = dict(cfg, weights=[0.7, 0.2, 0.1])
    once = _resolved(cmd, cfg)
    assert _resolved(cmd, json.loads(once)) == once

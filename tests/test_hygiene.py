"""Source hygiene: every module-level import and private helper in the
library is used, the vector overflow-window check, the scipy import and the
thread pool each have one home, the escape census and basin capture stay off
the thread pool, and every name the benchmark's span recorder wraps is still
live and still counts."""

from __future__ import annotations

import ast
import glob
import importlib.util
import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

from henonlab import lanes, minsets
from henonlab.dist import BallNoise, FiniteDist, SequenceSeed, condition_a_params
from henonlab.escape import escape_census

from conftest import QUAD_C

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "henonlab")
# __init__ imports names to re-export them
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")


def _imported_names(tree: ast.Module) -> dict:
    """Name bound at module level -> line of its import."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_module_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"unused imports in {os.path.basename(path)}: {unused}"


def _private_definitions(tree: ast.Module) -> dict:
    """Private (single-underscore) function, class or constant defined at
    module level -> line of its definition."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _loaded_names(tree: ast.AST) -> set:
    """Names read anywhere in the tree, as bare names or as attributes."""
    used = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
    return used


def test_no_dead_private_helpers():
    trees = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    used = set().union(*map(_loaded_names, trees.values()))
    dead = {f"{mod}:{line} {name}"
            for mod, tree in trees.items()
            for name, line in _private_definitions(tree).items() if name not in used}
    assert not dead, f"private helpers nothing in src/ uses: {sorted(dead)}"


@pytest.mark.parametrize("name, homes", [
    ("outside", {"lanes.py"}),
    ("OVERFLOW_LIMIT", {"core.py", "lanes.py"}),
], ids=["outside", "OVERFLOW_LIMIT"])
def test_vector_window_check_has_one_home(name, homes):
    # lanes leave the exact-arithmetic window only through lanes.Walk; the
    # scalar path checks the limit in core.eval_map
    users = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            if name in _loaded_names(ast.parse(fh.read())):
                users.add(os.path.basename(path))
    assert users <= homes, f"{name} used outside {sorted(homes)}: {sorted(users - homes)}"


def test_lane_draws_only_through_walks():
    # a walker draws its steps through lanes.Walk (time-blocked, bound to its
    # distribution); only lanes.py calls the per-step lanes.draw
    users = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and n.attr == "draw"
                    and isinstance(n.value, ast.Name) and n.value.id == "lanes"):
                users.add(os.path.basename(path))
            elif (isinstance(n, ast.ImportFrom) and (n.module or "").endswith("lanes")
                    and any(a.name == "draw" for a in n.names)):
                users.add(os.path.basename(path))
    assert not users - {"lanes.py"}, f"lanes.draw used in {sorted(users)}"


def test_kd_queries_have_one_home():
    # every nearest-neighbor query in minsets goes through one helper, which
    # groups and threads them: a per-map query must not creep back
    with open(os.path.join(SRC, "minsets.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Attribute) and n.func.attr == "query"]
    assert len(calls) == 1, [c.lineno for c in calls]
    assert "distance_upper_bound" in {k.arg for k in calls[0].keywords}


def test_census_stays_off_the_pool():
    # the census and basin capture walk one refilling lane pool on the
    # calling thread: a pool of fixed walker blocks pays one tail of slow
    # lanes per block, and threads only contend over these small steps
    for module, entry, chunk in (("escape", "escape_census", "_census_chunk"),
                                 ("minsets", "estimate_TL_many", "_tl_chunk")):
        with open(os.path.join(SRC, f"{module}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        for name in (entry, chunk):
            assert not _loaded_names(defs[name]) & {"run_blocks", "ThreadPoolExecutor"}, name
            assert "threads" not in {a.arg for a in defs[name].args.args}, name
        calls = [n for n in ast.walk(defs[entry]) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Name) and n.func.id == chunk]
        assert len(calls) == 1, entry
    assert not hasattr(lanes, "run_blocks")


def _spans():
    """perfbench/spans.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_spans_reach_discovery_layers():
    # perfbench/spans.py wraps module-level names of the library; a renamed
    # or reshaped name must fail here rather than in a traced benchmark run
    spans = _spans()

    dist = FiniteDist((QUAD_C,), (1.0,))
    params = condition_a_params(dist)
    grid = [(0.15, 0.05), (-0.05, 0.25)]
    seed = SequenceSeed(11, 2)
    # a one-map support walks one lane per probe; two copies of the map
    # draw per lane, so the estimate walks all its lanes
    drawn = FiniteDist((QUAD_C, QUAD_C), (0.5, 0.5))

    def run():
        descs = minsets.discover_minimal_sets(dist, params, grid, seed, cluster_eps=0.01)
        return descs, minsets.estimate_TL(drawn, descs, grid[0], 50, 100, seed, params)

    plain = run()
    saturate = minsets._saturate
    tr = spans.Tracer()
    inst = spans.install(tr)
    try:
        traced = run()
    finally:
        inst.undo()
    assert minsets._saturate is saturate and minsets.cKDTree is cKDTree
    assert traced == plain
    assert len(plain[0]) == 2  # the 2-cycle and infinity
    m = spans.layer_metrics(tr)
    for name in ("minsets._candidates_at.calls", "minsets._saturate.calls",
                 "minsets.kd.builds", "minsets.estimate_TL.calls",
                 "minsets._link_radius.s", "minsets._components.s", "minsets._node_edges.s"):
        assert m[name][0] > 0, name
    # spans.py counts basin-capture lanes from _tl_chunk's 6th argument, the
    # lane streams: one estimate of 50 samples must read 50
    assert m["minsets._tl_chunk.lanes"][0] == 50


def test_benchmark_spans_count_ball_words():
    # spans.py reads the ball accept ratio as lanes per four words of the
    # rng.word64_array spans under dist.ball_offsets_array: the kernel must
    # still hash its words through word64_array, and its passes must not
    # hash much past the first accepted attempt (pi^2 / 32 = 0.308 at best)
    spans = _spans()

    dist = BallNoise(QUAD_C, 0.05)
    xs = np.linspace(-2.0, 2.0, 16)
    pts = [(complex(x), complex(y)) for x in xs for y in xs]
    tr = spans.Tracer()
    inst = spans.install(tr)
    try:
        escape_census(dist, pts, condition_a_params(dist), 100, SequenceSeed(5, 1))
    finally:
        inst.undo()
    m = spans.layer_metrics(tr)
    assert m["dist.ball_offsets_array.calls"][0] > 0
    assert 0.2 < m["dist.ball_offsets_array.accept_ratio"][0] < 0.31


def _imported_packages(tree: ast.Module) -> set:
    """Top-level packages a module imports at module level."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_thread_pool_has_one_home():
    # concurrent.futures (logging with it) costs the CLI's start-up several
    # ms: no module imports it at module level, and only the raster's block
    # runner, escape._lane_green, builds a thread pool
    users, pools = set(), set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        if "concurrent" in _imported_packages(tree):
            users.add(os.path.basename(path))
        pools.update(f"{os.path.basename(path)}:{n.name}" for n in tree.body
                     if isinstance(n, ast.FunctionDef)
                     and "ThreadPoolExecutor" in _loaded_names(n))
    assert not users, f"concurrent imported at module level in {sorted(users)}"
    assert pools == {"escape.py:_lane_green"}


def test_scipy_has_one_home():
    # scipy is most of the CLI's start-up: only minsets imports it at module
    # level, and the CLI imports minsets only in the commands that run it
    users = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            if "scipy" in _imported_packages(ast.parse(fh.read())):
                users.add(os.path.basename(path))
    assert users <= {"minsets.py"}, f"scipy imported at module level in {sorted(users)}"

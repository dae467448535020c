"""In-memory span recorder that wraps henonlab's module-level names.

The benchmark measures each layer from outside: ``install`` swaps a
module-level function (or class) of henonlab for a wrapper that records a
span (name, start, end, parent, work) around every call, and
``Installed.undo`` puts the originals back.  Nothing under ``src/`` is edited.

A name is replaced in every loaded henonlab module that holds the same
object, so calls through a ``from .dist import ball_offsets_array`` binding
are seen as well as calls through ``dist.ball_offsets_array``.

Spans are kept in typed arrays while the traced pass runs and summarised
by :func:`layer_metrics` afterwards.  A span's self time is its duration
minus the part of its interval covered by its child spans; spans started
on a worker thread with an empty stack are parented to the innermost open
span of the main thread, which is blocked waiting for them.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

WorkFn = Callable[[tuple, dict, Any], int]


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._cols = {k: array("q") for k in ("name", "id", "parent", "t0", "t1", "work")}
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._counters: Dict[str, int] = {}
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[int] = []
        self.origin_ns = time.perf_counter_ns()

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str) -> None:
        """Bump a plain counter (calls too frequent or too cheap for a span)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + 1

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def span(self, name: str, fn: Callable, work: Optional[WorkFn] = None) -> Callable:
        """Wrapper around ``fn`` recording one span per call."""
        nid = self.name_id(name)
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if (stack is not main_stack and main_stack) else -1
            stack.append(sid)
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                w = work(args, kwargs, result) if work is not None and result is not None else 0
                self._record(nid, sid, parent, t0, t1, w)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _record(self, nid: int, sid: int, parent: int, t0: int, t1: int, work: int) -> None:
        c = self._cols
        with self._lock:
            c["name"].append(nid)
            c["id"].append(sid)
            c["parent"].append(parent)
            c["t0"].append(t0 - self.origin_ns)
            c["t1"].append(t1 - self.origin_ns)
            c["work"].append(int(work))

    # -- output ------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        with self._lock:
            return {k: np.frombuffer(v, dtype=np.int64).copy() for k, v in self._cols.items()}

    def save(self, path: str) -> None:
        """Write every span plus the counters, as a compressed npz."""
        cols = self.arrays()
        with self._lock:
            counters = dict(self._counters)
        np.savez_compressed(
            path, names=np.array(self.names), counter_names=np.array(list(counters)),
            counter_values=np.array(list(counters.values()), dtype=np.int64), **cols,
        )


def self_times(cols: Dict[str, np.ndarray]) -> np.ndarray:
    """Per-span duration minus the union of its children's intervals (ns)."""
    dur = cols["t1"] - cols["t0"]
    n = dur.size
    if n == 0:
        return dur
    order = np.argsort(cols["id"])
    row_of = np.empty(int(cols["id"].max()) + 1, dtype=np.int64)
    row_of[cols["id"][order]] = order
    has_parent = cols["parent"] >= 0
    child = np.nonzero(has_parent)[0]
    cover = np.zeros(n, dtype=np.int64)
    if child.size:
        prow = row_of[cols["parent"][child]]
        lo = np.maximum(cols["t0"][child], cols["t0"][prow])
        hi = np.minimum(cols["t1"][child], cols["t1"][prow])
        hi = np.maximum(hi, lo)
        # sweep children in start order within each parent; offsetting each
        # parent's times keeps the running maximum from leaking across groups
        big = np.int64(1 << 40)
        srt = np.lexsort((lo, prow))
        prow, lo, hi = prow[srt], lo[srt], hi[srt]
        off = prow * big
        run_end = np.maximum.accumulate(hi + off) - off
        prev_end = np.concatenate([[np.iinfo(np.int64).min], run_end[:-1]])
        first = np.concatenate([[True], prow[1:] != prow[:-1]])
        prev_end = np.where(first, lo, prev_end)
        gain = np.maximum(hi - np.maximum(lo, prev_end), 0)
        np.add.at(cover, prow, gain)
    return dur - cover


# ---------------------------------------------------------------------------
# installing wrappers


def _henonlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "henonlab" or name.startswith("henonlab."))]


class Installed:
    """Record of replaced names, so the originals can be restored."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace_everywhere(self, original: Any, replacement: Any) -> None:
        for mod in _henonlab_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, replacement)

    def replace_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()


def _lanes(args: tuple, kwargs: dict, result: Any) -> int:
    """Lane count of a draw call: the size of its streams argument."""
    return int(np.asarray(args[2]).size)


def _words(args: tuple, kwargs: dict, result: Any) -> int:
    return int(np.asarray(result).size)


def install(tr: Tracer) -> Installed:
    """Wrap the layer boundaries the benchmark reports on."""
    from henonlab import bifurcation, cli, dist, escape, lyapunov, minsets, output, rng, transition

    inst = Installed()

    def wrap(mod: Any, attr: str, name: str, work: Optional[WorkFn] = None) -> None:
        orig = getattr(mod, attr)
        inst.replace_everywhere(orig, tr.span(name, orig, work))

    # rng: scalar words are only counted, array words get spans
    word64 = rng.word64

    def counted_word64(*args, **kwargs):
        tr.count("rng.word64.calls")
        return word64(*args, **kwargs)

    inst.replace_everywhere(word64, counted_word64)
    wrap(rng, "word64_array", "rng.word64_array", _words)

    wrap(dist, "ball_offsets_array", "dist.ball_offsets_array", _lanes)
    wrap(dist, "finite_choices_array", "dist.finite_choices_array", _lanes)
    wrap(dist, "sample_map", "dist.sample_map")

    wrap(escape, "raster_slice", "escape.raster_slice",
         lambda a, k, r: int(r.verdict.size))
    wrap(escape, "_raster_block", "escape._raster_block")
    wrap(escape, "green_plus", "escape.green_plus")
    wrap(escape, "escape_census", "escape.escape_census")
    wrap(escape, "_census_chunk", "escape._census_chunk")

    wrap(lyapunov, "_batch_runs", "lyapunov._batch_runs",
         lambda a, k, r: int(a[2]) * int(a[3]))

    wrap(minsets, "_record_orbits", "minsets._record_orbits")
    wrap(minsets, "_candidates_at", "minsets._candidates_at")
    saturate = minsets._saturate

    def saturate_closed(*args, **kwargs):
        xs, ys, ok = saturate(*args, **kwargs)
        if ok:
            tr.count("minsets._saturate.closed")
        return xs, ys, ok

    inst.replace_everywhere(
        saturate, tr.span("minsets._saturate", saturate_closed, lambda a, k, r: int(r[0].size))
    )
    for attr in ("_node_edges", "_components", "_link_radius", "_pair_tracking"):
        wrap(minsets, attr, f"minsets.{attr}")
    wrap(minsets, "estimate_TL", "minsets.estimate_TL")
    wrap(minsets, "_tl_chunk", "minsets._tl_chunk", lambda a, k, r: int(np.asarray(a[5]).size))

    kd_tree = minsets.cKDTree
    build = tr.span("minsets.kd.build", kd_tree)

    class TracedKD:
        """Stands in for the cKDTree name that minsets looks up."""

        def __init__(self, data, *args, **kwargs):
            self._tree = build(data, *args, **kwargs)
            self.query = tr.span("minsets.kd.query", self._tree.query,
                                 lambda a, k, r: int(np.asarray(a[0]).shape[0]))

        def __getattr__(self, attr):
            return getattr(self._tree, attr)

    inst.replace_attr(minsets, "cKDTree", TracedKD)

    wrap(transition, "iterate_M", "transition.iterate_M")
    cache_cls = transition._TLCache
    call, trivial = cache_cls.__call__, cache_cls._trivial

    def cache_call(self, z):
        before = self.misses
        value = call(self, z)
        if self.misses > before:
            tr.count("transition._TLCache.misses")
        return value

    def cache_trivial(self, z):
        value = trivial(self, z)
        if value is None:  # not an escape-cone or capture point: a store lookup
            tr.count("transition._TLCache.lookups")
        return value

    inst.replace_attr(cache_cls, "__call__", cache_call)
    inst.replace_attr(cache_cls, "_trivial", cache_trivial)

    wrap(bifurcation, "scan_family", "bifurcation.scan_family")
    wrap(cli, "run_cli", "cli.run_cli")
    wrap(output, "write_json", "output.write_json")
    wrap(output, "write_pgm16", "output.write_pgm16")
    return inst


# ---------------------------------------------------------------------------
# summary


def layer_metrics(tr: Tracer) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics named as in BENCHMARK.json, as (value, unit)."""
    cols = tr.arrays()
    selfs = self_times(cols)
    dur = cols["t1"] - cols["t0"]
    names = tr.names

    def pick(name: str) -> np.ndarray:
        return cols["name"] == names.index(name) if name in names else np.zeros(dur.size, bool)

    def calls(name: str) -> int:
        return int(pick(name).sum())

    def secs(name: str) -> float:
        return float(dur[pick(name)].sum()) * 1e-9

    def self_s(name: str) -> float:
        return float(selfs[pick(name)].sum()) * 1e-9

    def work(name: str) -> int:
        return int(cols["work"][pick(name)].sum())

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    # words drawn under ball draws: word64_array spans whose parent is a
    # ball_offsets_array span
    ball_words = 0
    if "dist.ball_offsets_array" in names and "rng.word64_array" in names:
        ball_ids = cols["id"][pick("dist.ball_offsets_array")]
        under = pick("rng.word64_array") & np.isin(cols["parent"], ball_ids)
        ball_words = int(cols["work"][under].sum())

    lookups = tr.counter("transition._TLCache.lookups")
    misses = tr.counter("transition._TLCache.misses")
    m: Dict[str, Tuple[float, str]] = {
        "rng.word64.calls": (tr.counter("rng.word64.calls"), "count"),
        "rng.word64_array.calls": (calls("rng.word64_array"), "count"),
        "rng.word64_array.words": (work("rng.word64_array"), "count"),
        "rng.word64_array.self_s": (self_s("rng.word64_array"), "s"),
        "dist.ball_offsets_array.calls": (calls("dist.ball_offsets_array"), "count"),
        "dist.ball_offsets_array.lanes": (work("dist.ball_offsets_array"), "count"),
        "dist.ball_offsets_array.self_s": (self_s("dist.ball_offsets_array"), "s"),
        "dist.ball_offsets_array.accept_ratio": (
            rate(work("dist.ball_offsets_array"), ball_words / 4.0), "ratio"),
        "dist.finite_choices_array.calls": (calls("dist.finite_choices_array"), "count"),
        "dist.finite_choices_array.lanes": (work("dist.finite_choices_array"), "count"),
        "dist.finite_choices_array.s": (secs("dist.finite_choices_array"), "s"),
        "dist.sample_map.calls": (calls("dist.sample_map"), "count"),
        "dist.sample_map.s": (secs("dist.sample_map"), "s"),
        "escape.raster_slice.s": (secs("escape.raster_slice"), "s"),
        "escape.raster_slice.pixels_per_s": (
            rate(work("escape.raster_slice"), secs("escape.raster_slice")), "1/s"),
        "escape._raster_block.calls": (calls("escape._raster_block"), "count"),
        "escape._raster_block.s": (secs("escape._raster_block"), "s"),
        "escape.green_plus.calls": (calls("escape.green_plus"), "count"),
        "escape.green_plus.s": (secs("escape.green_plus"), "s"),
        "escape.escape_census.s": (secs("escape.escape_census"), "s"),
        "escape._census_chunk.calls": (calls("escape._census_chunk"), "count"),
        "escape._census_chunk.s": (secs("escape._census_chunk"), "s"),
        "lyapunov._batch_runs.s": (secs("lyapunov._batch_runs"), "s"),
        "lyapunov.lane_steps_per_s": (
            rate(work("lyapunov._batch_runs"), secs("lyapunov._batch_runs")), "1/s"),
        "minsets._record_orbits.s": (secs("minsets._record_orbits"), "s"),
        "minsets._candidates_at.calls": (calls("minsets._candidates_at"), "count"),
        "minsets._saturate.calls": (calls("minsets._saturate"), "count"),
        "minsets._saturate.s": (secs("minsets._saturate"), "s"),
        "minsets._saturate.cloud_points": (work("minsets._saturate"), "count"),
        "minsets._saturate.closed_ratio": (
            rate(tr.counter("minsets._saturate.closed"), calls("minsets._saturate")), "ratio"),
        "minsets.kd.builds": (calls("minsets.kd.build"), "count"),
        "minsets.kd.points_queried": (work("minsets.kd.query"), "count"),
        "minsets.kd.query_s": (secs("minsets.kd.query"), "s"),
        "minsets._node_edges.s": (secs("minsets._node_edges"), "s"),
        "minsets._components.s": (secs("minsets._components"), "s"),
        "minsets._link_radius.s": (secs("minsets._link_radius"), "s"),
        "minsets._pair_tracking.s": (secs("minsets._pair_tracking"), "s"),
        "minsets.estimate_TL.calls": (calls("minsets.estimate_TL"), "count"),
        "minsets.estimate_TL.s": (secs("minsets.estimate_TL"), "s"),
        "minsets._tl_chunk.lanes": (work("minsets._tl_chunk"), "count"),
        "transition.iterate_M.calls": (calls("transition.iterate_M"), "count"),
        "transition.iterate_M.s": (secs("transition.iterate_M"), "s"),
        "transition._TLCache.hits": (lookups - misses, "count"),
        "transition._TLCache.misses": (misses, "count"),
        "bifurcation.scan_family.self_s": (self_s("bifurcation.scan_family"), "s"),
        "cli.run_cli.self_s": (self_s("cli.run_cli"), "s"),
        "output.write_json.s": (secs("output.write_json"), "s"),
        "output.write_pgm16.s": (secs("output.write_pgm16"), "s"),
    }
    return m

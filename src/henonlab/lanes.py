"""Lane kernel: one random step for a batch of walkers.

Each lane follows its own i.i.d. map sequence.  Draws are counter-based, so
lane k's map at step n is a pure function of (master seed, stream k, n),
however the lanes are batched, compacted or split, and in whatever order
the (lane, step) cells are hashed.  Every vectorised walker in the library
steps through this module, which also checks the exact-arithmetic window,
the escape cone and the central bidisk.  A :class:`Walk` holds a batch's
live lanes: it moves, retires and admits them, and draws their steps in
time blocks (:func:`draw_steps`).  :func:`refill_walk` is the one refilling
pool: the escape census, basin capture and orbit recording read their
lanes' fates from it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .core import OVERFLOW_LIMIT, HenonMap
from .dist import FiniteDist, MapDistribution, ball_offsets_array, finite_choices_array


def horner(coeffs, y: np.ndarray) -> np.ndarray:
    """Leading-first polynomial coefficients evaluated at every lane.  Starts
    at the leading coefficient: a Poly has degree >= 2, so there are always
    at least two (its derivative included).  The accumulator is a fresh
    array, so the later steps update it in place, with the same bits as
    ``acc * y + c``: at 32k lanes a temporary per operation costs several
    times the arithmetic.  One element is multiplied out of place: in place,
    numpy multiplies it by its scalar complex formula, which rounds apart
    from its array loop, so a lone lane would step apart from a batch."""
    acc = coeffs[0] * y
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc = acc * y if acc.size == 1 else np.multiply(acc, y, out=acc)
        acc += c
    return acc


def image(f: HenonMap, X: np.ndarray, Y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Image of every lane under one fixed map."""
    return Y + f.alpha, horner(f.poly.coeffs, Y) - f.delta * X


def draw(dist: MapDistribution, master: int, streams: np.ndarray, n):
    """Per-lane draw for step n: support indices for a finite support,
    (alpha, constant) offsets for a noise ball, None for a one-map support
    (whose draw is constant, so nothing is hashed).  n may be an array that
    broadcasts with streams, which draws every (stream, step) cell at once."""
    if isinstance(dist, FiniteDist):
        return None if len(dist.maps) == 1 else finite_choices_array(dist, master, streams, n)
    return ball_offsets_array(dist, master, streams, n)


def apply(dist: MapDistribution, drawn, X: np.ndarray, Y: np.ndarray) -> tuple:
    """Lane images (X', Y') under the drawn maps: on a finite support, by one
    formula on each lane's column of the support's table (core.map_table),
    alpha through delta; under :func:`image` when nothing is drawn."""
    if isinstance(dist, FiniteDist):
        if drawn is None:  # one map: its scalars, not a column of numpy scalars
            return image(dist.maps[0], X, Y)
        table = dist._table  # type: ignore[attr-defined]
        t = table[:len(table) // 2 + 2, drawn]
        return Y + t[0], horner(t[1:-1], Y) - t[-1] * X
    a, b = drawn
    base = dist.base
    return Y + base.alpha + a, horner(base.poly.coeffs, Y) + b - base.delta * X


def jacobian_rows(dist: MapDistribution, drawn, Y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Second rows (-delta, p'(y)) of the drawn maps' differentials
    [[0, 1], [-delta, p'(y)]] at every lane, for drawn and Y of any one
    shape (a finite support's table from delta on).  A ball's offsets enter
    no differential: its drawn is not read."""
    if isinstance(dist, FiniteDist):
        table = dist._table  # type: ignore[attr-defined]
        t = table[len(table) // 2 + 1:, 0 if drawn is None else drawn]
        return np.full_like(Y, -t[0]), horner(t[1:], Y)
    f = dist.base
    return np.full_like(Y, -f.delta), horner(f.poly._deriv, Y)  # type: ignore[attr-defined]


_BLOCK_CELLS = 4096  # (lane, step) cells drawn per refill, at most
_BLOCK_STEPS = 32  # steps drawn per refill, at most


def draw_steps(live: int) -> int:
    """Steps T drawn per refill of a walk with ``live`` lanes:
    min(_BLOCK_STEPS, max(1, _BLOCK_CELLS // live)).

    A draw call costs mostly its fixed numpy overhead over few cells and
    about 0.6 us per cell over thousands.  Measured per step of a ball draw
    (2-core x86 box, numpy 2.4): 149 us at 1 lane drawn one step at a time,
    6.0 us in 32-step blocks and 3.4 us in 64-step blocks; at 100 lanes
    242 us one step at a time and 76 us in 32-step blocks; 2,330 us for one
    4,096-lane step.  Bounding the cells keeps a refill's arrays, and peak
    memory, at the size of one 4,096-lane step, so large walks keep T = 1.
    Steps that a lane draws but never takes (it retires, or the walk ends)
    are wasted, which caps T: on the 10,000-walker census of the
    quad-volume preset, which walks one refilling pool, 64- and 128-step
    blocks ran no faster than 32-step ones (medians 0.37-0.38 s over 12
    runs each, quartiles overlapping; 2-core x86 box, numpy 2.4)."""
    return min(_BLOCK_STEPS, max(1, _BLOCK_CELLS // max(live, 1)))


def _each(drawn, fn):
    # a ball's draw is an (alpha, constant) pair of arrays
    return tuple(map(fn, drawn)) if isinstance(drawn, tuple) else fn(drawn)


class Walk:
    """The live lanes of a batch: positions X, Y, draw streams (None for a
    batch that shares one map sequence) with each lane's start step
    (``start``), each lane's index in the batch (``lane``) and per-lane
    ``carry`` arrays.  A walk that draws its steps is bound to one
    distribution and master seed; at walk step n a lane takes the cell
    (stream, n - start) of its stream, so a lane that :meth:`admit` adds
    late draws the sequence it would draw walking from step 0.  Retiring
    compacts the lanes in lane order, along with the steps drawn ahead and
    not yet taken.  :meth:`in_cone` and :meth:`in_bidisk` reuse the |X|,
    |Y| that the last :meth:`move` took for its window check.  Arrays are
    rebound, never written in place, so a caller may keep a reference to
    any of them."""

    def __init__(self, X: np.ndarray, Y: np.ndarray, streams: Optional[np.ndarray] = None,
                 dist: Optional[MapDistribution] = None, master: int = 0,
                 **carry: np.ndarray):
        self.X = X
        self.Y = Y
        self.streams = streams
        self.start = None if streams is None else np.zeros(X.size, dtype=np.uint64)
        self.dist = dist
        self.master = master
        self.lane = np.arange(X.size)
        self.carry: Dict[str, np.ndarray] = carry
        # (first step, steps, steps x lanes draws): the drawn block, whose
        # rows before step _next have been taken
        self._block: Optional[tuple] = None
        self._next = 0
        self._admitted = X.size
        # (X, Y, |X|, |Y|): magnitudes taken by the last move, so that the
        # window check after a step and the cone check before the next one
        # share them; stale once X or Y is rebound other than by a retire
        self._mag: Optional[tuple] = None

    def __len__(self) -> int:
        return self.lane.size

    def retire(self, mask: np.ndarray) -> np.ndarray:
        """Drop the masked lanes; their batch indices, in lane order."""
        if not np.count_nonzero(mask):
            return self.lane[:0]
        gone = self.lane[mask]
        keep = ~mask
        mag = self._taken()
        self.X, self.Y, self.lane = self.X[keep], self.Y[keep], self.lane[keep]
        self._mag = None if mag is None else (self.X, self.Y, mag[0][keep], mag[1][keep])
        if self.streams is not None:
            self.streams, self.start = self.streams[keep], self.start[keep]
        self.carry = {k: v[keep] for k, v in self.carry.items()}
        if self._block is not None:
            # taken rows are dropped, not compacted; a used-up block goes
            first, width, drawn = self._block
            used = self._next - first
            self._block = None if used >= width else (
                self._next, width - used, _each(drawn, lambda d: d[used:, keep]))
        return gone

    def admit(self, X: np.ndarray, Y: np.ndarray, streams: np.ndarray, R: float,
              **carry) -> np.ndarray:
        """Offer lanes at X, Y on their draw streams, with a value or an array
        for each of the walk's carry arrays.  Those in the escape cone of
        radius R are not admitted: their batch indices are returned.  Those
        outside the exact-arithmetic window are dropped unseen.  The rest
        take their first step, as their step 0, at the walk's next step.
        Lane indices continue the batch's over every lane offered.  The
        steps drawn ahead for the walk's other lanes are let go, and the
        next step redraws them with the same bits."""
        ax, ay = np.abs(X), np.abs(Y)
        cone = _in_cone(ax, ay, R)
        kept = np.flatnonzero(~(cone | _outside(ax, ay)))
        self.X = np.concatenate((self.X, X[kept]))
        self.Y = np.concatenate((self.Y, Y[kept]))
        self.streams = np.concatenate((self.streams, streams[kept]))
        self.start = np.concatenate((self.start, np.full(kept.size, self._next, dtype=np.uint64)))
        self.lane = np.concatenate((self.lane, self._admitted + kept))
        self.carry = {k: np.concatenate((v, np.broadcast_to(carry[k], X.shape)[kept]))
                      for k, v in self.carry.items()}
        gone = self._admitted + np.flatnonzero(cone)
        self._admitted += X.size
        self._block = None
        return gone

    def move(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Rebind the lanes to their images X, Y, then retire the lanes that
        left the exact-arithmetic window; returns their batch indices."""
        self.X, self.Y = X, Y
        return self.retire(_outside(*self._magnitudes()))

    def _taken(self) -> Optional[tuple]:
        # (|X|, |Y|) if already taken of the current X, Y, else None
        m = self._mag
        return m[2:] if m is not None and m[0] is self.X and m[1] is self.Y else None

    def _magnitudes(self) -> tuple:
        mag = self._taken()
        if mag is None:
            mag = (np.abs(self.X), np.abs(self.Y))
            self._mag = (self.X, self.Y, *mag)
        return mag

    def in_cone(self, R: float) -> np.ndarray:
        """Live lanes inside the vertical escape cone |y| > max(R, |x|)."""
        return _in_cone(*self._magnitudes(), R)

    def in_bidisk(self, R: float) -> np.ndarray:
        """:func:`in_bidisk` of the live lanes."""
        return _in_bidisk(*self._magnitudes(), R)

    def draw(self, n: int):
        """Step n's draw for every live lane (see :func:`draw`), read from the
        drawn block; outside it, a refill draws steps n .. n + T - 1 of every
        live lane in one call, T = draw_steps(len(self)).  Every cell is the
        per-step draw's, so neither T nor the refill points change bits."""
        dist = self.dist
        self._next = n + 1
        if isinstance(dist, FiniteDist) and len(dist.maps) == 1:
            return None
        blk = self._block
        if blk is None or not 0 <= n - blk[0] < blk[1]:
            width = draw_steps(len(self))
            # steps along the rows, so each step reads a contiguous row; the
            # streams are given in the block's shape, so the call's streams
            # argument counts its (lane, step) cells
            cells = np.broadcast_to(self.streams, (width, len(self)))
            steps = np.arange(n, n + width, dtype=np.uint64)[:, None] - self.start
            blk = self._block = (n, width, draw(dist, self.master, cells, steps))
        return _each(blk[2], lambda d: d[n - blk[0]])

    def step(self, n: int) -> np.ndarray:
        """Take step n on every lane (see :meth:`move`)."""
        return self.move(*apply(self.dist, self.draw(n), self.X, self.Y))


def in_bidisk(X: np.ndarray, Y: np.ndarray, R: float) -> np.ndarray:
    """Lanes inside the open central bidisk max(|x|, |y|) < R."""
    return _in_bidisk(np.abs(X), np.abs(Y), R)


def window_radius(R: float) -> float:
    """min(R, the window's bound): lanes in the open bidisk of this radius
    are inside the window as well."""
    return min(R, OVERFLOW_LIMIT)


# window (non-finite lanes are outside), cone and bidisk tests on |X|, |Y|

def _outside(ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    return ~((ax <= OVERFLOW_LIMIT) & (ay <= OVERFLOW_LIMIT))


def _in_cone(ax: np.ndarray, ay: np.ndarray, R: float) -> np.ndarray:
    return ay > np.maximum(R, ax)


def _in_bidisk(ax: np.ndarray, ay: np.ndarray, R: float) -> np.ndarray:
    return np.maximum(ax, ay) < R


# live lanes of a refilling walk at most; a lane's fate does not depend on it
WALK_BLOCK = 4096

# int8 fates of refill_walk's lanes; a settle hook sets codes 0 .. 127 of its own
ESCAPED, BOUNDED, UNDECIDED = -1, -2, -3


def refill_walk(dist: MapDistribution, master: int, streams: np.ndarray, X: np.ndarray,
                Y: np.ndarray, R: float, max_iter: int, per: int = 1,
                settle: Optional[Callable] = None, **carry) -> np.ndarray:
    """Fate of each lane of one refilling walk, in lane order.

    Lane j starts at X[j // per], Y[j // per] and draws on streams[j].  At
    most WALK_BLOCK lanes are live; before each step the next lanes, with
    the values ``carry`` of their carry arrays, take the slots of retired
    ones.  A lane taken in at walk step s takes its step k, its stream's
    step-k draw, at walk step s + k, so its fate does not depend on when it
    was taken in.  It is ESCAPED at its first step k <= max_iter in the
    escape cone (at step 0 before the window check), BOUNDED at step
    max_iter inside the central bidisk, and UNDECIDED otherwise.
    ``settle(w, n, fate)`` runs on the live lanes before walk step n: it may
    retire lanes with codes 0 .. 127 of its own in ``fate``, and may return a
    lane count below the walk's, at which the walk stops taking lanes in
    and ends the live ones beyond it UNDECIDED.
    """
    total = streams.size
    fate = np.full(total, UNDECIDED, dtype=np.int8)
    w = Walk(X[:0], Y[:0], streams[:0], dist, master,
             **{k: np.zeros(0, np.asarray(v).dtype) for k, v in carry.items()})
    fed = n = 0
    while True:
        room = min(WALK_BLOCK - len(w), total - fed)
        if room > 0:
            p = slice(fed, fed + room) if per == 1 else np.arange(fed, fed + room) // per
            fate[w.admit(X[p], Y[p], streams[fed:fed + room], R, **carry)] = ESCAPED
            fed += room
        if settle is not None and len(w):
            cut = settle(w, n, fate)
            if cut is not None and cut < total:
                total = cut
                w.retire(w.lane >= total)
        if n >= max_iter:  # lanes at the cap end here
            done = w.start == n - max_iter
            inside = w.in_bidisk(R)[done]
            fate[w.retire(done)[inside]] = BOUNDED
        if not len(w) and fed >= total:
            return fate
        w.step(n)
        fate[w.retire(w.in_cone(R))] = ESCAPED
        n += 1

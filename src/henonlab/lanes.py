"""Lane kernel: one random step for a batch of walkers.

Each lane follows its own i.i.d. map sequence.  Draws are counter-based, so
lane k's map at step n is a pure function of (master seed, stream k, n) and
does not depend on how the lanes are batched, compacted or split across
threads.  Every vectorised walker in the library draws and steps through
this module, checks the exact-arithmetic window, the escape cone and the
central bidisk here and runs its fixed blocks on the pool here.  A
:class:`Walk` holds a batch's live lanes, with per-lane streams or under
one shared sequence: it moves them, retires lanes (those that leave the
window among them) and compacts the survivors with their carry arrays.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from .core import OVERFLOW_LIMIT, HenonMap
from .dist import FiniteDist, MapDistribution, ball_offsets_array, finite_choices_array

T = TypeVar("T")
Tangents = Tuple[np.ndarray, np.ndarray]


def horner(coeffs, y: np.ndarray) -> np.ndarray:
    """Leading-first polynomial coefficients evaluated at every lane.  Starts
    at the leading coefficient: a Poly has degree >= 2, so there are always
    at least two (its derivative included)."""
    acc = coeffs[0] * y + coeffs[1]
    for c in coeffs[2:]:
        acc = acc * y + c
    return acc


def image(f: HenonMap, X: np.ndarray, Y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Image of every lane under one fixed map."""
    return Y + f.alpha, horner(f.poly.coeffs, Y) - f.delta * X


def _tangent_y(f: HenonMap, Y: np.ndarray, V1: np.ndarray, V2: np.ndarray) -> np.ndarray:
    # second row of the differential [[0, 1], [-delta, p'(y)]]; the first row
    # maps V to V2, and a ball's offsets enter neither
    return -f.delta * V1 + horner(f.poly._deriv, Y) * V2  # type: ignore[attr-defined]


def draw(dist: MapDistribution, master: int, streams: np.ndarray, n: int):
    """Per-lane draw for step n: support indices for a finite support,
    (alpha, constant) offsets for a noise ball, None for a one-map support
    (whose draw is constant, so nothing is hashed)."""
    if isinstance(dist, FiniteDist):
        if len(dist.maps) == 1:
            return None
        return finite_choices_array(dist, master, streams, n)
    return ball_offsets_array(dist, master, streams, n)


def apply(dist: MapDistribution, drawn, X: np.ndarray, Y: np.ndarray,
          V: Optional[Tangents] = None) -> tuple:
    """Lane images (X', Y') under the drawn maps; with tangent vectors
    V = (V1, V2) the images (X', Y', W1, W2) of both."""
    if drawn is None:
        f = dist.maps[0]
        nx, ny = image(f, X, Y)
        w2 = None if V is None else _tangent_y(f, Y, *V)
    elif isinstance(dist, FiniteDist):
        nx = np.empty_like(X)
        ny = np.empty_like(Y)
        w2 = None if V is None else np.empty_like(V[1])
        for j, f in enumerate(dist.maps):
            m = drawn == j
            if np.count_nonzero(m):
                nx[m], ny[m] = image(f, X[m], Y[m])
                if V is not None:
                    w2[m] = _tangent_y(f, Y[m], V[0][m], V[1][m])
    else:
        a, b = drawn
        base = dist.base
        nx = Y + base.alpha + a
        ny = horner(base.poly.coeffs, Y) + b - base.delta * X
        w2 = None if V is None else _tangent_y(base, Y, *V)
    return (nx, ny) if V is None else (nx, ny, V[1], w2)


def step(dist: MapDistribution, master: int, streams: np.ndarray, n: int,
         X: np.ndarray, Y: np.ndarray, V: Optional[Tangents] = None) -> tuple:
    """Draw step n for every lane, then apply it (see :func:`apply`)."""
    return apply(dist, draw(dist, master, streams, n), X, Y, V)


class Walk:
    """The live lanes of a batch: positions X, Y, draw streams (None for a
    batch that shares one map sequence), each lane's index in the starting
    batch (``lane``) and per-lane ``carry`` arrays.  Retiring compacts them
    all in lane order.  Arrays are rebound, never written in place, so a
    caller may keep a reference to any of them."""

    def __init__(self, X: np.ndarray, Y: np.ndarray, streams: Optional[np.ndarray] = None,
                 **carry: np.ndarray):
        self.X = X
        self.Y = Y
        self.streams = streams
        self.lane = np.arange(X.size)
        self.carry: Dict[str, np.ndarray] = carry

    def __len__(self) -> int:
        return self.lane.size

    def retire(self, mask: np.ndarray) -> np.ndarray:
        """Drop the masked lanes; their batch indices, in lane order."""
        if not np.count_nonzero(mask):
            return self.lane[:0]
        gone = self.lane[mask]
        keep = ~mask
        self.X, self.Y, self.lane = self.X[keep], self.Y[keep], self.lane[keep]
        if self.streams is not None:
            self.streams = self.streams[keep]
        self.carry = {k: v[keep] for k, v in self.carry.items()}
        return gone

    def move(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Rebind the lanes to their images X, Y, then retire the lanes that
        left the exact-arithmetic window; returns their batch indices."""
        self.X, self.Y = X, Y
        return self.retire(outside(X, Y))

    def step(self, dist: MapDistribution, master: int, n: int) -> np.ndarray:
        """Take step n on every lane (see :meth:`move`)."""
        return self.move(*step(dist, master, self.streams, n, self.X, self.Y))


def outside(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Lanes that left the exact-arithmetic window, non-finite ones included."""
    return ~((np.abs(X) <= OVERFLOW_LIMIT) & (np.abs(Y) <= OVERFLOW_LIMIT))


def in_cone(X: np.ndarray, Y: np.ndarray, R: float) -> np.ndarray:
    """Lanes inside the vertical escape cone |y| > max(R, |x|)."""
    return np.abs(Y) > np.maximum(R, np.abs(X))


def in_bidisk(X: np.ndarray, Y: np.ndarray, R: float) -> np.ndarray:
    """Lanes inside the open central bidisk max(|x|, |y|) < R."""
    return np.maximum(np.abs(X), np.abs(Y)) < R


WALK_BLOCK = 4096  # fixed, so results never depend on the thread count


def run_blocks(work: Callable[[int, int], T], total: int, size: int, threads: int) -> List[T]:
    """work(a, b) over the fixed blocks [a, a + size) of range(total), in
    block order.  The partition never depends on the thread count, so the
    results do not either."""
    starts = range(0, total, size)
    ends = [min(a + size, total) for a in starts]
    if threads > 1 and len(ends) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(work, starts, ends))
    return [work(a, b) for a, b in zip(starts, ends)]

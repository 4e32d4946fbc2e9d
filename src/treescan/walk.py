"""The walk, the schedule of the scan passes over a rooted tree, and the
passes that read it.  ``tree_walk`` alone orders the vertices and cuts them
into levels, at their depths: row k holds vertex ``order[k]``, the
vertices by (depth, vertex), so the root is row 0 and every level is a
contiguous slice.  The passes run on arrays in the walk's ``layout``: at
height 1 that row order, above it the band plan's, in which every band
offset's rows are a contiguous slice.  A kernel gathers its inputs into the
layout once, as C-contiguous memory, walks, and gathers its outputs back by
the layout's ``pos`` (cheaper than a scatter).

A walk of height 1 takes one numpy step per level; the leaf-to-root step
is one ``np.add.at`` over the level's rows and lanes, into the array
viewed flat, at an index built once per chunk of levels.  A level wider
than ``ROW_BLOCK_BYTES`` steps by row blocks.  A walk of height k
walks bands of k consecutive levels, O(k + depth / k) steps in place of
depth (``_up``, ``_down``); ``tree_walk`` picks k = isqrt(depth) on a
deep, narrow tree.  The banded walks re-associate the products, so their
outputs differ from the per-level walk's in the last bits.  In both
layouts a parent's children sit in walk order, and every leaf-to-root add
is an ``np.add.at`` in index order, so each parent adds them in vertex order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import isqrt, prod
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .mst import SpanningTree

# Mean rows per level below which a tree of depth D is walked by bands of
# isqrt(D) levels instead of one level per step (measured: README "Banded
# walks").
BAND_ROWS_MAX = 4
# Bytes per operand of one row block: the passes' level steps and their
# chunks of index entries hold at most this much (and ``scan``'s chained
# elementwise tails, so that a block stays in cache through its chain).
ROW_BLOCK_BYTES = 1 << 17


@dataclass(eq=False)
class BandPlan:
    """A tree's levels below the root cut into bands of a walk's ``height``
    = k consecutive levels, and the row layout in which the banded passes
    run.  Band b holds levels 1 + b * k onwards, up to k of them (the last
    band may hold fewer).  A row's offset is its level's place in its band;
    its band top is its ancestor at offset 0.

    Pass row r holds vertex ``order[r]``: row 0 the root, then the band
    tops band by band (band b's are the rows ``tops[b]`` to ``tops[b +
    1]``), then the rows of each offset j = 1 .. k - 1 (``offsets[j]`` to
    ``offsets[j + 1]``, ``offsets[0]`` = 1 the first top and ``offsets[k]``
    = L), band by band; a level's rows keep the walk's order.  A row's
    place among the rows of its offset is the row minus the offset's first
    row.

    Per row: ``pos`` is the inverse of ``order``, ``ppos`` each row's parent
    row (0 at the root), ``top`` its band top (the root and the band tops
    are their own) and ``anc`` the index in ``links`` of its band top's
    parent.  ``links`` is the root, then the rows that parent the next
    band's tops, all among the last offset's rows, in row order, so band by
    band (band b's are ``links[link_bounds[b]: link_bounds[b + 1]]``).
    """

    order: np.ndarray
    pos: np.ndarray
    ppos: np.ndarray
    tops: list[int]
    offsets: list[int]
    top: np.ndarray
    links: np.ndarray
    link_bounds: list[int]
    anc: np.ndarray


@dataclass(eq=False)
class Walk:
    """The schedule of the scan passes over a tree, read off its depths.
    ``bands`` is built on first read, from each row's parent vertex,
    ``order[ppos]``, and level, off ``bounds``; the walk in another
    ``height`` is ``dataclasses.replace(walk, height=...)``."""

    order: np.ndarray  # (L,) the vertices by (depth, vertex): row k holds vertex order[k]
    pos: np.ndarray  # (L,) the row of every vertex, the inverse of order
    ppos: np.ndarray  # (L,) the parent row of every row, 0 at the root (row 0)
    bounds: list[int]  # the first row of every level, then L (ints: no conversion to slice)
    height: int  # levels per band: 1 for a walk of one level a step

    @property
    def layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The row layout of the passes, ``(order, pos)``: the walk's own at
        height 1, the band plan's above it."""
        plan = self.bands
        return (self.order, self.pos) if plan is None else (plan.order, plan.pos)

    @cached_property
    def bands(self) -> BandPlan | None:
        """The plan of bands of ``height`` = k levels (the tree has more than
        k); None at 1."""
        if self.height == 1:
            return None
        n, k, sizes = len(self.order), self.height, np.diff(self.bounds)  # rows per level
        off = (np.repeat(np.arange(len(sizes)), sizes)[1:] - 1) % k  # of rows 1, 2, ...
        lay = np.concatenate([[0], _stable_argsort(off) + 1])  # the walk row of each pass row
        offsets = [1, *(np.cumsum(np.bincount(off, minlength=k)) + 1).tolist()]
        inv = np.empty(n, dtype=np.int64)
        inv[lay] = np.arange(n)
        ppos = inv[self.ppos[lay]]
        tops = [1, *(np.cumsum(sizes[1::k]) + 1).tolist()]
        # band tops by pointer jumping up the parents, a band top stopping at
        # itself: 2^r jumps after r gathers, and a row is under k jumps from its top
        top = ppos.copy()
        top[1 : tops[-1]] = np.arange(1, tops[-1])
        for _ in range((k - 1).bit_length()):
            top = top[top]
        index = np.zeros(n, dtype=np.int64)  # marks the links, then numbers them
        index[ppos[tops[1] : tops[-1]]] = 1
        links = np.concatenate([[0], np.flatnonzero(index)])
        # the links' band tops ascend by band, all that the search compares
        link_bounds = np.searchsorted(top[links[1:]], tops) + 1
        index[links] = np.arange(len(links))
        return BandPlan(order=self.order[lay], pos=inv[self.pos], ppos=ppos, tops=tops,
                        offsets=offsets, top=top, links=links,
                        link_bounds=link_bounds.tolist(), anc=index[ppos[top]])


class Levels(Sequence):
    """A walk's ``order`` cut into depth levels at its ``bounds``, read-only:
    its length is the level count, and item d is the view ``order[bounds[d]:
    bounds[d + 1]]``, made when it is read."""

    def __init__(self, walk: Walk):
        self._walk = walk

    def __len__(self) -> int:
        return len(self._walk.bounds) - 1

    def __getitem__(self, d):
        if isinstance(d, slice):
            return [self[i] for i in range(len(self))[d]]
        d = range(len(self))[d]  # negative from the end; IndexError outside
        lo, hi = self._walk.bounds[d : d + 2]
        return self._walk.order[lo:hi]


def tree_walk(tree: SpanningTree) -> Walk:
    """The walk of ``tree``: bands of isqrt(depth) levels when the levels
    hold fewer than ``BAND_ROWS_MAX`` rows on average, else one a step.
    Raises like ``tree.depths``."""
    n, depths = tree.num_vertices, tree.depths
    order = _stable_argsort(depths)
    bounds = [0] + np.cumsum(np.bincount(depths)).tolist()
    depth = len(bounds) - 1
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    height = isqrt(depth) if n < BAND_ROWS_MAX * depth else 1
    return Walk(order, pos, pos[tree.parent[order]], bounds, height)


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of nonnegative int64 keys: keys
    below 2^16 as ``uint16``, which numpy sorts by one radix pass; larger
    keys by the comparison sort."""
    if int(key.max(initial=0)) >> 16:
        return np.argsort(key, kind="stable")
    return np.argsort(key.astype(np.uint16), kind="stable")


def _block_rows(u: np.ndarray) -> int:
    """The rows of ``u`` in one ``ROW_BLOCK_BYTES`` block, at least 1; a
    row of no lanes counts as one byte."""
    return max(1, ROW_BLOCK_BYTES // max(u[0].nbytes, 1))


def _chunks(cuts: list[int], rows: int) -> list[tuple[int, int, list]]:
    """The steps of a leaf-to-root pass over the slices of rows between
    ``cuts`` (levels, or band offsets), the first slice excepted, in chunks
    of at most ``rows`` rows, deepest first: ``(lo, hi, steps)``, the
    chunk's rows lo .. hi and its steps (s, e).  A chunk holds whole
    consecutive slices, one step each, deepest first, or one row block of
    a slice that has more rows; a slice's blocks go in row order.
    ``_down`` takes the steps backwards."""
    slices = [*zip(cuts[1:-1], cuts[2:])]  # slice d's rows at d - 1
    runs, d = [], 1  # the chunks of each run of slices, in row order
    while d < len(cuts) - 1:
        e = bisect_right(cuts, cuts[d] + rows) - 1  # slices d .. e - 1 fit
        if e > d:
            runs.append([(cuts[d], cuts[e], slices[d - 1 : e - 1][::-1])])
        else:  # slice d alone has more rows: its row blocks
            e, blocks = d + 1, [*range(cuts[d], cuts[d + 1], rows), cuts[d + 1]]
            runs.append([(s, t, [(s, t)]) for s, t in zip(blocks, blocks[1:])])
        d = e
    return [chunk for run in runs[::-1] for chunk in run]


def _flat_lanes(u: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """``u`` viewed flat (a ValueError where that would copy), its lanes a
    row in that view, and whether they are pairs: an even count of float64
    lanes as complex128, whose add is exactly the two float adds, so that
    ``np.add.at`` adds half as many; the values added are viewed alike."""
    m, flat = prod(u.shape[1:]), u.reshape(-1, copy=False)
    if m % 2 or u.dtype != np.float64:
        return flat, m, False
    return flat.view(np.complex128), m // 2, True


def _lane_index(rows: np.ndarray, m: int) -> np.ndarray:
    """The flat index of every lane of ``rows``, row by row, at m lanes a row."""
    return (rows[:, None] * m + np.arange(m)).ravel()


def _scatter_add(u: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
    """``u[rows] += vals`` in place, a repeated row adding once per repeat,
    in index order: one ``np.add.at`` over the rows' lanes."""
    (flat, m, pairs), vals = _flat_lanes(u), vals.ravel()
    np.add.at(flat, _lane_index(rows, m), vals.view(np.complex128) if pairs else vals)


def _up(walk: Walk, u: np.ndarray, a: np.ndarray) -> None:
    """Leaf-to-root pass in place on arrays in the walk's ``layout``: u[i]
    += sum over children j of u[j] * a[j].  ``u`` must be C-contiguous: it
    is viewed flat (``_flat_lanes``), and any other layout, whose flat form
    would be a copy, raises a ValueError instead of adding into the copy.
    One step a slice of rows, deepest first: one ``np.add.at`` into the flat
    ``u`` at ppos * m + lane, m lanes a row, so that each parent adds its
    children in row order, at an index built once per chunk of slices
    (``_chunks``, at most ``ROW_BLOCK_BYTES`` of entries).  The slices are
    the levels at height 1.  Above it, the band offsets first (phase 1,
    band-local subtree sums, all bands at once), then ``_up_bands`` finishes
    every row below level 1, and one step joins band 0's tops to the root.
    ``a`` is not changed."""
    flat, m, pairs = _flat_lanes(u)

    def steps(ppos, cuts):  # the slices between cuts, the first excepted
        for lo, hi, chunk in _chunks(cuts, _block_rows(u)):
            index = _lane_index(ppos[lo:hi], m)
            for s, e in chunk:
                step = (u[s:e] * a[s:e]).ravel()
                np.add.at(flat, index[(s - lo) * m : (e - lo) * m],
                          step.view(np.complex128) if pairs else step)
            del index  # not held while the next chunk's is built

    bands = walk.bands
    if bands is None:
        steps(walk.ppos, walk.bounds)
    else:
        steps(bands.ppos, bands.offsets)
        _up_bands(walk, u, a)
        steps(bands.ppos, [0, *bands.tops[:2]])  # level 1 alone


def _up_bands(walk: Walk, u: np.ndarray, a: np.ndarray) -> None:
    """Phases 2 and 3 of ``_up`` by ``bands``, on band-local subtree sums
    in ``u``, on slices of its layout, each add one ``np.add.at``
    (``_flat_lanes``):

    2. the band tops, last band first, each band's final: each top of bands
       1, 2, ... adds (u * a) * q into its parent's band top, one add a
       band, q the product of a from that parent up to just below the band
       top; then every such top adds u * a into ``below`` (compact, one row
       per offset-(height - 1) row);
    3. the rows below the tops, offset height - 1 up to 1, take ``below``,
       the sum over the next band's tops under them, carried up from offset
       to offset in compact buffers, one add an offset."""
    bands = walk.bands
    k, o, ppos = walk.height, bands.offsets, bands.ppos

    def places(j):  # the places of offset j's parents among offset j - 1's rows
        return ppos[o[j] : o[j + 1]] - o[j - 1]

    q = a[o[1] : o[2]]
    for j in range(2, k):
        q = a[o[j] : o[j + 1]] * q.take(places(j), axis=0)
    t, (flat, m, pairs) = bands.tops, _flat_lanes(u)
    at = ppos[t[1] : t[-1]] - o[k - 1]  # the tops' parents among the last offset's rows
    to_top = _lane_index(bands.top[ppos[t[1] : t[-1]]], m)
    for lo, hi in reversed([*zip(t[1:-1], t[2:])]):  # the tops of bands 1, 2, ...
        top = (u[lo:hi] * a[lo:hi] * q.take(at[lo - t[1] : hi - t[1]], axis=0)).ravel()
        np.add.at(flat, to_top[(lo - t[1]) * m : (hi - t[1]) * m],
                  top.view(np.complex128) if pairs else top)
    del q  # not held through phase 3
    below = np.zeros((o[k] - o[k - 1],) + u.shape[1:])
    _scatter_add(below, at, u[t[1] : t[-1]] * a[t[1] : t[-1]])
    for j in range(k - 1, 0, -1):
        u[o[j] : o[j + 1]] += below
        if j > 1:
            below *= a[o[j] : o[j + 1]]
            up = np.zeros((o[j] - o[j - 1],) + u.shape[1:])
            _scatter_add(up, places(j), below)
            below = up


def _down(walk: Walk, u: np.ndarray, a: np.ndarray) -> None:
    """Root-to-leaf pass in place on arrays in the walk's ``layout``: u[i]
    += a[i] * u[parent] below the root, by ``_up``'s steps backwards, one
    slice a step, root first (a slice wider than ``ROW_BLOCK_BYTES`` by row
    blocks, ``_chunks``): at height 1 the levels.  Above it, by ``bands``
    in two phases, and ``a`` is overwritten:

    1. within bands, all bands at once, the steps on the band offsets 1 to
       height - 1, each followed by a *= a[parent], so that a row holds its
       sum and its path product from its band top down;
    2. the final values of the ``links``, the rows that parent the next
       band's tops, band by band in a compact buffer, f = u + a * f[anc];
       then every row below the root, one offset's rows a step (the band
       tops first): u += a * f[anc], anc the link that parents its band
       top."""
    bands = walk.bands
    ppos, cuts = (walk.ppos, walk.bounds) if bands is None else (bands.ppos, bands.offsets)
    # the slices root first, a wide slice's blocks last first (each reads
    # only the slice above)
    for *_, steps in reversed(_chunks(cuts, _block_rows(u))):
        for lo, hi in reversed(steps):
            par = ppos[lo:hi]
            step = u.take(par, axis=0)
            step *= a[lo:hi]
            u[lo:hi] += step
            del step  # not held while the next gather runs
            if bands is not None:
                a[lo:hi] *= a.take(par, axis=0)
    if bands is None:
        return
    anc, links, lb = bands.anc, bands.links, bands.link_bounds
    f, f_a, f_anc = u.take(links, axis=0), a.take(links, axis=0), anc[links]
    for lo, hi in zip(lb, lb[1:]):
        step = f.take(f_anc[lo:hi], axis=0)
        step *= f_a[lo:hi]
        f[lo:hi] += step
    o = bands.offsets
    for lo, hi in zip(o, o[1:]):
        step = f.take(anc[lo:hi], axis=0)
        step *= a[lo:hi]
        u[lo:hi] += step

"""The walk, the schedule of the scan passes over a rooted tree, and the
passes that read it.  ``tree_walk`` alone orders the vertices, and it lays
them out in the rows the passes run on: row r holds vertex ``order[r]``,
the root is row 0, and every level is one contiguous slice of rows, its
vertices ascending.  At height 1 the levels follow by depth, the (depth,
vertex) order; above it by (offset in band, band), so that every band
offset's rows are one contiguous slice too.  A kernel gathers its inputs
into the walk's rows once, as C-contiguous memory, walks, and gathers its
outputs back by ``pos`` (cheaper than a scatter).

A walk of height 1 takes one numpy step per level; the leaf-to-root step
is one ``np.add.at`` over the level's rows and lanes, into the array
viewed flat, at an index built once per chunk of levels.  A level wider
than ``ROW_BLOCK_BYTES`` steps by row blocks.  A walk of height k
walks bands of k consecutive levels, O(k + depth / k) steps in place of
depth (``_up``, ``_down``); ``tree_walk`` picks k = isqrt(depth) on a
deep, narrow tree.  The banded walks re-associate the products, so their
outputs differ from the per-level walk's in the last bits.  At every
height a parent's children sit in vertex order, and every leaf-to-root add
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
    """The links between the bands of a walk of ``height`` = k > 1: band b
    holds levels 1 + b * k onwards, up to k of them (the last band may hold
    fewer).  A row's offset is its level's place in its band; its band top
    is its ancestor at offset 0.  The walk's rows run: row 0 the root, then
    the band tops band by band (band b's are the rows ``tops[b]`` to
    ``tops[b + 1]``), then the rows of each offset j = 1 .. k - 1 (the
    walk's ``cuts[j - 1]`` to ``cuts[j]``), band by band.  A row's place
    among the rows of its offset is the row minus the offset's first row.

    Per row: ``top`` is its band top (the root and the band tops are their
    own) and ``anc`` the index in ``links`` of its band top's parent.
    ``links`` is the root, then the rows that parent the next band's tops,
    all among the last offset's rows, in row order, so band by band (band
    b's are ``links[link_bounds[b]: link_bounds[b + 1]]``).
    """

    tops: list[int]
    top: np.ndarray
    links: np.ndarray
    link_bounds: list[int]
    anc: np.ndarray


@dataclass(eq=False)
class Walk:
    """The schedule of the scan passes over a tree, in the rows they run on
    (``tree_walk``): a pass steps through the slices of rows between
    ``cuts``, the levels below the root at height 1, the band offsets 1 to
    height - 1 above it.  ``bands`` is built on first read."""

    order: np.ndarray  # (L,) the vertex of every row: row r holds vertex order[r]
    pos: np.ndarray  # (L,) the row of every vertex, the inverse of order
    ppos: np.ndarray  # (L,) the parent row of every row, 0 at the root (row 0)
    height: int  # levels per band: 1 for a walk of one level a step
    cuts: list[int]  # the first row of every slice, then L (ints: no conversion to slice)
    spans: np.ndarray  # (levels, 2) the first row and the end of every level, by depth

    @cached_property
    def bands(self) -> BandPlan | None:
        """The links between the bands of ``height`` = k levels (the tree
        has more than k); None at 1."""
        if self.height == 1:
            return None
        n, k, ppos = len(self.order), self.height, self.ppos
        tops = [*self.spans[1::k, 0].tolist(), self.cuts[0]]
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
        return BandPlan(tops=tops, top=top, links=links, link_bounds=link_bounds.tolist(),
                        anc=index[ppos[top]])


class Levels(Sequence):
    """A walk's ``order`` cut into depth levels at its ``spans``, read-only:
    its length is the level count, and item d is the view ``order[lo:hi]``
    at ``spans[d]``, made when it is read."""

    def __init__(self, walk: Walk):
        self._walk = walk

    def __len__(self) -> int:
        return len(self._walk.spans)

    def __getitem__(self, d):
        if isinstance(d, slice):
            return [self[i] for i in range(len(self))[d]]
        d = range(len(self))[d]  # negative from the end; IndexError outside
        lo, hi = self._walk.spans[d]
        return self._walk.order[lo:hi]


def tree_walk(tree: SpanningTree, height: int | None = None) -> Walk:
    """The walk of ``tree`` by bands of ``height`` levels; by default
    isqrt(depth) when the levels hold fewer than ``BAND_ROWS_MAX`` rows on
    average, else 1.  One stable sort lays out the rows: at height 1 the
    vertices by depth, one level a slice; above it by the rank of their
    level, the root's 0, then the levels below it by (offset, band), one
    offset 1 .. height - 1 a slice.  Raises like ``tree.depths``."""
    n, depths = tree.num_vertices, tree.depths
    sizes = np.bincount(depths)  # rows per level
    depth = len(sizes)
    if height is None:
        height = isqrt(depth) if n < BAND_ROWS_MAX * depth else 1
    if height == 1:  # the levels by depth
        order, ends = _stable_argsort(depths, depth), np.cumsum(sizes)  # the levels' end rows
        cuts = ends.tolist()
    else:  # the levels by rank: the root, then by (offset, band)
        below = np.arange(depth - 1)  # levels 1, 2, ... less 1
        off = below % height
        # the first rank of every offset, then depth
        firsts = np.cumsum([1, *np.bincount(off, minlength=height).tolist()])
        rank = np.concatenate([[0], firsts[off] + below // height])  # of every level
        order = _stable_argsort(rank[depths], depth)
        ends = np.zeros(depth, dtype=np.int64)
        ends[rank] = sizes
        np.cumsum(ends, out=ends)  # the end row of every rank
        cuts, ends = ends[firsts[1:] - 1].tolist(), ends[rank]
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    spans = np.array([ends - sizes, ends]).T
    return Walk(order, pos, pos[tree.parent[order]], height, cuts, spans)


def _stable_argsort(key: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of int64 keys in [0, bound): keys
    below 2^16 as ``uint16``, which numpy sorts by one radix pass; larger
    keys by the comparison sort."""
    if bound > 1 << 16:
        return np.argsort(key, kind="stable")
    return np.argsort(key.astype(np.uint16), kind="stable")


def _block_rows(u: np.ndarray) -> int:
    """The rows of ``u`` in one ``ROW_BLOCK_BYTES`` block, at least 1; a
    row of no lanes counts as one byte."""
    return max(1, ROW_BLOCK_BYTES // max(u[0].nbytes, 1))


def _chunks(cuts: list[int], rows: int) -> list[tuple[int, int, list]]:
    """The steps of a leaf-to-root pass over the slices of rows between
    ``cuts`` (a walk's levels or band offsets, or the band tops of level 1),
    in chunks of at most ``rows`` rows, deepest first: ``(lo, hi, steps)``,
    the chunk's rows lo .. hi and its steps (s, e).  A chunk holds whole
    consecutive slices, one step each, deepest first, or one row block of
    a slice that has more rows; a slice's blocks go in row order.
    ``_down`` takes the steps backwards."""
    slices = [*zip(cuts, cuts[1:])]
    runs, d = [], 0  # the chunks of each run of slices, in row order
    while d < len(cuts) - 1:
        e = bisect_right(cuts, cuts[d] + rows) - 1  # slices d .. e - 1 fit
        if e > d:
            runs.append([(cuts[d], cuts[e], slices[d:e][::-1])])
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
    """Leaf-to-root pass in place on arrays in the walk's rows: u[i]
    += sum over children j of u[j] * a[j].  ``u`` must be C-contiguous: it
    is viewed flat (``_flat_lanes``), and any other layout, whose flat form
    would be a copy, raises a ValueError instead of adding into the copy.
    One step a slice of rows, deepest first: one ``np.add.at`` into the flat
    ``u`` at ppos * m + lane, m lanes a row, so that each parent adds its
    children in row order, at an index built once per chunk of slices
    (``_chunks``, at most ``ROW_BLOCK_BYTES`` of entries), the slices
    between the walk's ``cuts``: the levels at height 1.  Above it, the band
    offsets (phase 1, band-local subtree sums, all bands at once), then
    ``_up_bands`` finishes every row below level 1, and one step joins band
    0's tops to the root.  ``a`` is not changed."""
    flat, m, pairs = _flat_lanes(u)

    def steps(cuts):  # the slices between cuts
        for lo, hi, chunk in _chunks(cuts, _block_rows(u)):
            index = _lane_index(walk.ppos[lo:hi], m)
            for s, e in chunk:
                step = (u[s:e] * a[s:e]).ravel()
                np.add.at(flat, index[(s - lo) * m : (e - lo) * m],
                          step.view(np.complex128) if pairs else step)
            del index  # not held while the next chunk's is built

    steps(walk.cuts)
    if walk.bands is not None:
        _up_bands(walk, u, a)
        steps(walk.bands.tops[:2])  # level 1 alone


def _up_bands(walk: Walk, u: np.ndarray, a: np.ndarray) -> None:
    """Phases 2 and 3 of ``_up`` by ``bands``, on band-local subtree sums
    in ``u``, on slices of the walk's rows, each add one ``np.add.at``
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
    k, o, ppos = walk.height, [1, *walk.cuts], walk.ppos  # o: every offset's first row, then L

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
    """Root-to-leaf pass in place on arrays in the walk's rows: u[i]
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
    bands, ppos = walk.bands, walk.ppos
    # the slices root first, a wide slice's blocks last first (each reads
    # only the slice above)
    for *_, steps in reversed(_chunks(walk.cuts, _block_rows(u))):
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
    o = [1, *walk.cuts]  # every offset's first row, then L
    for lo, hi in zip(o, o[1:]):
        step = f.take(anc[lo:hi], axis=0)
        step *= a[lo:hi]
        u[lo:hi] += step

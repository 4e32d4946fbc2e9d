"""The walk, the schedule of the scan passes over a rooted tree, and the
passes that read it.  ``tree_walk`` alone orders the vertices and cuts them
into levels, at their depths.  The passes run on arrays in row order: row k
holds vertex ``order[k]``, the vertices by (depth, vertex), so the root is
row 0 and every level is a contiguous slice.  A kernel gathers its inputs
into row order once, as C-contiguous memory, walks, and gathers its outputs
back by ``pos`` (cheaper than a scatter).

A walk of height 1 takes one numpy step per level; the leaf-to-root step
is one ``np.add.at`` over the level's rows and lanes, into the array
viewed flat.  A walk of height k
walks bands of k consecutive levels, O(k + depth / k) steps in place of
depth (``_up``, ``_down``); ``tree_walk`` picks k = isqrt(depth) on a
deep, narrow tree.  The banded walks re-associate the products, so their
outputs differ from the per-level walk's in the last bits.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .mst import SpanningTree

# Mean rows per level below which a tree of depth D is walked by bands of
# isqrt(D) levels instead of one level per step (measured: README "Banded
# walks").
BAND_ROWS_MAX = 4


@dataclass(eq=False)
class BandPlan:
    """A tree's levels below the root cut into bands of a walk's ``height``
    consecutive levels, as the banded walks read them: integer arrays of
    rows.  Band b holds levels 1 + b * height onwards, up to ``height`` of
    them (the last band may hold fewer), so its rows start at ``bounds[1 +
    b * height]``.  A row's offset is its level's place in its band; its
    band top is its ancestor at offset 0.  For every offset j in 1 ..
    height - 1 (index 0 of the lists is unused):

    - ``rows[j]``, the offset-j rows of every band, cut by the bounds
      ``groups[j]`` into one group per run index within a level: no group
      holds a parent twice, so that each is one plain indexed add;
    - ``parents[j]``, their parent rows.

    Per row: ``top``, its band top (the root and the band tops are their
    own), and ``place``, its place among the rows of its offset (in
    ``rows[j]`` for offset j >= 1; 0 at the root).
    """

    rows: list[np.ndarray]
    groups: list[list[int]]
    parents: list[np.ndarray]
    top: np.ndarray
    place: np.ndarray


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

    @cached_property
    def bands(self) -> BandPlan | None:
        """The plan of bands of ``height`` = k levels (the tree has more than
        k); None at 1.  Its rank groups are the runs of each level, counted
        from the level's start: a run is a stretch of rows in which the
        parent ids climb, so it holds no parent twice."""
        if self.height == 1:
            return None
        n, k, ppos, b = len(self.order), self.height, self.ppos, self.bounds
        par = self.order[ppos]  # each row's parent vertex
        level = np.repeat(np.arange(len(b) - 1), np.diff(b))
        new_level = level[1:] != level[:-1]
        run = np.cumsum((par[1:] <= par[:-1]) | new_level)  # of rows 1, 2, ... (row 0 is run 0)
        rank = run - np.maximum.accumulate(np.where(new_level, run, 0))  # run within the level
        off = (level[1:] - 1) % k
        # by offset, then rank, then row: the rows are in band order already
        key = off * (int(rank.max()) + 1) + rank
        by_key = np.argsort(key, kind="stable")
        inner, key = by_key + 1, key[by_key]
        at = np.searchsorted(off[by_key], np.arange(k + 1)).tolist()  # offset j from at[j]
        place = np.zeros(n, dtype=np.int64)  # a row's place among the rows of its offset
        place[inner] = np.arange(n - 1) - np.repeat(at[:-1], np.diff(at))
        cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()  # rank groups, all offsets
        rows, groups, parents = [None], [None], [None]
        for lo, hi in zip(at[1:-1], at[2:]):
            rows.append(inner[lo:hi])
            inside = cuts[bisect_right(cuts, lo) : bisect_left(cuts, hi)]
            groups.append([0, *(c - lo for c in inside), hi - lo])
            parents.append(ppos[inner[lo:hi]])
        # band tops by pointer jumping up the parents, a band top stopping at
        # itself: 2^r jumps after r gathers, and a row is under k jumps from its top
        top = ppos.copy()
        top[1:][off == 0] = np.flatnonzero(off == 0) + 1
        for _ in range((k - 1).bit_length()):
            top = top[top]
        return BandPlan(rows=rows, groups=groups, parents=parents, top=top, place=place)


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


def _up(walk: Walk, u: np.ndarray, a: np.ndarray) -> None:
    """Leaf-to-root pass in place on row-order arrays: u[i] += sum over
    children j of u[j] * a[j].  ``u`` must be C-contiguous: it is viewed
    flat, and any other layout, whose flat form would be a copy, raises a
    ValueError instead of adding into the copy.  One level step a level,
    deepest first: one ``np.add.at`` into the flat ``u`` at ``pm`` + lane
    for every (row, lane) of the level, ``pm`` = ppos * m with m the lanes,
    so that each parent adds its children in row order.  Above height 1,
    ``_up_bands`` first finishes every row below level 1, and one level
    step joins band 0's tops to the root.  ``a`` is not changed."""
    if not u.flags.c_contiguous:
        raise ValueError("_up needs a C-contiguous u: viewing it flat would copy")
    flat, b = u.reshape(-1), walk.bounds
    if walk.bands is not None:
        _up_bands(walk, u, a)
        b = b[:3]  # level 1 alone
    m = u[0].size
    pm, lanes = walk.ppos * m, np.arange(m)
    for lo, hi in reversed([*zip(b[1:-1], b[2:])]):
        np.add.at(flat, (pm[lo:hi, None] + lanes).ravel(), (u[lo:hi] * a[lo:hi]).ravel())


def _up_bands(walk: Walk, u: np.ndarray, a: np.ndarray) -> None:
    """``_up`` below level 1 by ``bands``, in three phases:

    1. band-local subtree sums, all bands at once, offset height - 1 up to
       1, one plain indexed add per rank group;
    2. the band tops, last band first, each band's final: each top of bands
       1, 2, ... adds (u * a) * q into its parent's band top by one
       ``np.add.at`` a band, q the product of a from that parent up to just
       below the band top, and u * a into ``below`` (both compact, one row
       per offset-(height - 1) row);
    3. the rows below the tops, offset height - 1 up to 1, take ``below``,
       the sum over the next band's tops under them, carried up from offset
       to offset in compact buffers by rank groups like phase 1."""
    bands, b = walk.bands, walk.bounds
    k, rows, groups, place = walk.height, bands.rows, bands.groups, bands.place
    cpar = [None, None, *(place[par] for par in bands.parents[2:])]  # places in rows[j - 1]
    q = a.take(rows[1], axis=0)
    for j in range(2, k):
        q_j = a.take(rows[j], axis=0)
        q_j *= q.take(cpar[j], axis=0)
        q = q_j
    for j in range(k - 1, 0, -1):
        g, par = groups[j], bands.parents[j]
        step = u.take(rows[j], axis=0)
        step *= a.take(rows[j], axis=0)
        for s, e in zip(g, g[1:]):
            u[par[s:e]] += step[s:e]
    below = np.zeros(q.shape)  # phase 3's start, gathered from the tops in phase 2
    ppos = walk.ppos
    for lo, hi in reversed([*zip(b[1 + k :: k], b[2 + k :: k])]):  # the tops of bands 1, 2, ...
        top = u[lo:hi] * a[lo:hi]
        at = place[ppos[lo:hi]]
        np.add.at(below, at, top)
        top *= q.take(at, axis=0)
        np.add.at(u, bands.top[ppos[lo:hi]], top)
    del q  # not held through phase 3
    for j in range(k - 1, 0, -1):
        u[rows[j]] += below
        if j > 1:
            below *= a.take(rows[j], axis=0)
            g, up = groups[j], np.zeros((len(rows[j - 1]),) + u.shape[1:])
            for s, e in zip(g, g[1:]):
                up[cpar[j][s:e]] += below[s:e]
            below = up


def _down(walk: Walk, u: np.ndarray, a: np.ndarray) -> None:
    """Root-to-leaf pass in place on row-order arrays: u[i] += a[i] *
    u[parent] below the root, one band of ``height`` levels a step; above
    height 1, by ``bands`` in two phases, and ``a`` is overwritten:

    1. within bands, all bands at once, offset 1 to height - 1: u += a *
       u[parent], then a *= a[parent], so that a row holds its sum and its
       path product from its band top down;
    2. one step per band, first band first: u[band] += a[band] *
       u[anc[band]], anc the parent of each row's band top (``ppos[top]``)."""
    anc, bands = walk.ppos, walk.bands  # at height 1, each row's own parent
    if bands is not None:
        for r, par in zip(bands.rows[1:], bands.parents[1:]):
            a_r = a.take(r, axis=0)
            step = u.take(par, axis=0)
            step *= a_r
            u[r] += step
            a_r *= a.take(par, axis=0)
            a[r] = a_r
        anc = walk.ppos[bands.top]
    b = walk.bounds
    cuts = [*b[1:-1:walk.height], b[-1]]  # the bands' row bounds
    for lo, hi in zip(cuts, cuts[1:]):
        u[lo:hi] += a[lo:hi] * u.take(anc[lo:hi], axis=0)

"""State-space scan kernels on sequences and trees.

Everything here operates on per-lane scalars: a lane is one (channel, state)
coordinate pair, carried as the trailing two axes of (L, C, N) arrays.  The
transition scalar of vertex i, ``a_bar[i]``, is attached to the tree edge
between i and its parent under the rooting of the tree that is passed in;
path weights are products of these child-keyed scalars.

The tree scan computes, for every vertex i, the aggregation over all vertices
j of (path weight from j to i) * b_bar[j] * x[j].  Done directly that costs
O(L^2); the two-pass dynamic program below does it in O(L): a leaf-to-root
pass accumulates subtree sums (xi), then a root-to-leaf pass combines each
subtree sum with the complement flowing down from the parent.  The backward
pass has the same structure run on the output gradients.

The passes run on copies of the arrays in BFS position order: row k holds
vertex ``tree.bfs_order[k]``, the root is row 0, every level is a contiguous
slice (``tree.level_bounds``) and ``tree.ppos`` gives each row's parent row.
Each kernel gathers its inputs into that order once, walks the tree, and
gathers its outputs back to vertex order once, by ``tree.pos``, the tree's
cached inverse permutation (a gather is cheaper than a scatter).

A walk takes one numpy step per level, unless ``tree.bands`` holds a band
plan: on a deep, narrow tree (fewer than ``mst.BAND_ROWS_MAX`` rows a level
on average) the kernels walk bands of k = isqrt(depth) consecutive levels,
a step per band offset in each phase and one per band, O(k + depth / k)
steps in place of depth (``_up``, ``_down``).  The plan holds, per band
offset, its rows, their rank groups and their parents, and per row its band
top and its place among the rows of its offset; the band bounds are every
k-th of ``tree.level_bounds``.  The banded walks re-associate the
products, so their outputs differ from the per-level walk's in the last
bits; every other tree takes exactly the per-level walk.
``affinity_map`` is one per-level root-to-leaf pass on the same layout, on
the tree it is given.  The per-level leaf-to-root step of a level with at
least ``RANK_BLOCK_MIN`` rows x lanes is one plain indexed add per run of
``tree.run_bounds`` (a run holds no parent twice; on a ``root_tree`` level
the runs are its rank blocks: every parent's first child, then every second
child, and so on); any other level takes one ``np.add.at``.  Either way each
parent adds its children in ``bfs_order`` order, so both give bitwise
identical results.  The banded leaf-to-root walk adds by the same runs: one
plain indexed add per run index, over that run of every band at one offset.

Outside the walks, every stage of a training step is held to a budget of
full-size (L, C, N) passes and fresh full-size arrays: at training sizes a
pass costs about a millisecond, and a fresh array more, as its pages fault
in.  Arithmetic runs in place where a buffer exists, and a chain that needs
a temporary runs by row blocks of ``ROW_BLOCK_BYTES`` so the temporary is
block-sized and the block stays in cache.  ``tests/test_budget.py`` pins
each stage's full-size arrays at the peak (outputs included), and README
"Pass and allocation budget" says how each stage keeps to them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .lattice import FeatureMap
from .mst import BandPlan, SpanningTree

NAIVE_SCAN_GUARD = 4096
# Rows x lanes from which a level's leaf-to-root step is cheaper as one plain
# indexed add per rank block than as one np.add.at over the level (measured
# on the benchmark workloads' trees, 2-core VM).
RANK_BLOCK_MIN = 500
# Per-token sums of squares inside which the RMS projection uses h as it is.
# Outside it a token's squares lose digits to underflow or overflow, or the
# backward's per-token factor ~ |d_y c_out| / (r^2 sqrt(m)) leaves the float
# range, so the token is first divided by its max-abs.
SQUARES_RANGE = (1e-200, 1e200)
# Bytes per operand of one row block of the chained elementwise tails (the
# vision d_a_bar, the projection's d_h): a block stays in cache through its
# chain and the tail holds no full-size temporary.
ROW_BLOCK_BYTES = 1 << 17


@dataclass
class ContinuousScanParams:
    """Continuous-time parameters before discretization.

    Shapes: a (C, N) state matrix, b (L, N) per-token input matrix, c_out
    (L, N) per-token output matrix, d (C,) feedthrough, delta (L, C) positive
    sampling time-scales.
    """

    a: np.ndarray
    b: np.ndarray
    c_out: np.ndarray
    d: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c_out = np.asarray(self.c_out, dtype=np.float64)
        self.d = np.asarray(self.d, dtype=np.float64)
        self.delta = np.asarray(self.delta, dtype=np.float64)
        if self.a.ndim != 2:
            raise ValueError("a must be (C, N)")
        c, n = self.a.shape
        if self.delta.ndim != 2 or self.delta.shape[1] != c:
            raise ValueError("delta must be (L, C) with C matching a")
        length = self.delta.shape[0]
        if self.b.shape != (length, n):
            raise ValueError(f"b must be (L, N) = ({length}, {n}), got {self.b.shape}")
        if self.c_out.shape != (length, n):
            raise ValueError(f"c_out must be (L, N) = ({length}, {n}), got {self.c_out.shape}")
        if self.d.shape != (c,):
            raise ValueError(f"d must be (C,) = ({c},), got {self.d.shape}")
        for name, arr in (("a", self.a), ("b", self.b), ("c_out", self.c_out),
                          ("d", self.d), ("delta", self.delta)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains NaN or Inf")
        if np.any(self.delta <= 0):
            raise ValueError("delta entries must be > 0")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.delta.shape[0], self.a.shape[0], self.a.shape[1])


@dataclass
class DiscreteScanParams:
    """Per-token transition and input scalars, shape (L, C, N) each; a zero
    transition (``discretize``'s exp underflowing) cuts its edge."""

    a_bar: np.ndarray
    b_bar: np.ndarray

    def __post_init__(self):
        self.a_bar = np.asarray(self.a_bar, dtype=np.float64)
        self.b_bar = np.asarray(self.b_bar, dtype=np.float64)
        if self.a_bar.ndim != 3 or self.a_bar.shape != self.b_bar.shape:
            raise ValueError("a_bar and b_bar must both be (L, C, N)")
        # min and max of each array: four reductions, no boolean temporaries
        ends = [f(arr) for arr in (self.a_bar, self.b_bar) for f in (np.min, np.max)
                if arr.size]
        if not np.all(np.isfinite(ends)):
            raise ValueError("discrete parameters contain NaN or Inf")
        if ends and ends[0] < 0:
            raise ValueError("a_bar entries must be >= 0")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.a_bar.shape


@dataclass
class GradBundle:
    """Gradients of a scalar loss: d_x (L, C), d_a_bar and d_b_bar (L, C, N)."""

    d_x: np.ndarray
    d_a_bar: np.ndarray
    d_b_bar: np.ndarray


def discretize(params: ContinuousScanParams) -> DiscreteScanParams:
    """Zero-order-hold transition with first-order-Taylor input scalars.

    a_bar[i,c,n] = exp(delta[i,c] * a[c,n]) and b_bar[i,c,n] = delta[i,c] *
    b[i,n]; the output matrix and feedthrough pass through unchanged (they
    stay on ``params``).
    """
    a_bar = np.einsum("lc,cn->lcn", params.delta, params.a)
    np.exp(a_bar, out=a_bar)
    b_bar = np.einsum("lc,ln->lcn", params.delta, params.b)
    return DiscreteScanParams(a_bar, b_bar)


def _check_instance(
    x: FeatureMap,
    p: DiscreteScanParams | ContinuousScanParams,
    tree: SpanningTree | None = None,
    causal: bool = False,
    **states: np.ndarray,
) -> None:
    """Shape checks shared by every kernel and the output projection;
    ``states`` are (L, C, N) arrays such as d_h, and ``causal`` requires the
    tree's root at the last token."""
    length, channels, _ = p.shape
    if x.data.shape != (length, channels):
        raise ValueError(
            f"feature map shape {x.data.shape} does not match params (L, C) = ({length}, {channels})"
        )
    if tree is not None and tree.num_vertices != length:
        raise ValueError(f"tree has {tree.num_vertices} vertices, params expect {length}")
    if causal and tree.root != tree.num_vertices - 1:
        raise ValueError(
            f"causal scan requires the tree to be rooted at the last token "
            f"{tree.num_vertices - 1}, got root {tree.root}"
        )
    for name, arr in states.items():
        if np.shape(arr) != p.shape:
            raise ValueError(f"{name} shape {np.shape(arr)} does not match params shape {p.shape}")


def _up_level(tree: SpanningTree, u: np.ndarray, a: np.ndarray, lo: int, hi: int) -> None:
    """One leaf-to-root step: the rows lo:hi, one level, add u * a into
    their parents, by runs of ``tree.run_bounds`` when the level has at
    least ``RANK_BLOCK_MIN`` rows x lanes and by one ``np.add.at`` otherwise."""
    ppos = tree.ppos
    if (hi - lo) * u[0].size >= RANK_BLOCK_MIN:
        runs = tree.run_bounds
        i = bisect_left(runs, lo)
        j = bisect_left(runs, hi, i)
        for s, e in zip(runs[i:j], runs[i + 1 : j + 1]):
            u[ppos[s:e]] += u[s:e] * a[s:e]
    else:
        np.add.at(u, ppos[lo:hi], u[lo:hi] * a[lo:hi])


def _up(tree: SpanningTree, u: np.ndarray, a: np.ndarray, bands: BandPlan | None = None) -> None:
    """Leaf-to-root pass in place on BFS-position arrays: u[i] += sum over
    children j of u[j] * a[j].  Without ``bands``, one level per step
    (``_up_level``), deepest first.  With them, in three phases:

    1. band-local subtree sums, all bands at once, offset height - 1 up to
       1, one plain indexed add per sibling-rank group;
    2. the band tops, last band first, each band's final: each top adds
       (u * a) * q into its parent's band top by one ``np.add.at`` a band,
       q the product of a from that parent up to just below the band top,
       and u * a into ``below`` (both compact, one row per
       offset-(height - 1) row); band 0's tops join the root by one level
       step;
    3. the rows below the tops, offset height - 1 up to 1, take ``below``,
       the sum over the next band's tops under them, carried up from offset
       to offset in compact buffers by rank groups like phase 1.

    ``a`` is not changed."""
    if bands is None:
        b = tree.level_bounds
        for lo, hi in reversed([*zip(b[1:-1], b[2:])]):
            _up_level(tree, u, a, lo, hi)
        return
    k, rows, groups, place = bands.height, bands.rows, bands.groups, bands.place
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
    b, ppos = tree.level_bounds, tree.ppos
    for lo, hi in reversed([*zip(b[1 + k :: k], b[2 + k :: k])]):  # the tops of bands 1, 2, ...
        top = u[lo:hi] * a[lo:hi]
        at = place[ppos[lo:hi]]
        np.add.at(below, at, top)
        top *= q.take(at, axis=0)
        np.add.at(u, bands.top[ppos[lo:hi]], top)
    _up_level(tree, u, a, *b[1:3])
    del q  # not held through phase 3
    for j in range(k - 1, 0, -1):
        u[rows[j]] += below
        if j > 1:
            below *= a.take(rows[j], axis=0)
            g, up = groups[j], np.zeros((len(rows[j - 1]),) + u.shape[1:])
            for s, e in zip(g, g[1:]):
                up[cpar[j][s:e]] += below[s:e]
            below = up


def _down(tree: SpanningTree, u: np.ndarray, a: np.ndarray, bands: BandPlan | None = None) -> None:
    """Root-to-leaf pass in place on BFS-position arrays: u[i] += a[i] *
    u[parent] below the root, one band of levels a step.  Without ``bands``
    a band is one level.  With them, in two phases, and ``a`` is overwritten:

    1. within bands, all bands at once, offset 1 to height - 1: u += a *
       u[parent], then a *= a[parent], so that a row holds its sum and its
       path product from its band top down;
    2. one step per band, first band first: u[band] += a[band] *
       u[anc[band]], anc the parent of each row's band top (``ppos[top]``)."""
    height, anc = 1, tree.ppos  # one level a band, each row's own parent
    if bands is not None:
        for r, par in zip(bands.rows[1:], bands.parents[1:]):
            a_r = a.take(r, axis=0)
            step = u.take(par, axis=0)
            step *= a_r
            u[r] += step
            a_r *= a.take(par, axis=0)
            a[r] = a_r
        height, anc = bands.height, tree.ppos[bands.top]
    b = tree.level_bounds
    cuts = [*b[1:-1:height], b[-1]]  # the bands' row bounds
    for lo, hi in zip(cuts, cuts[1:]):
        u[lo:hi] += a[lo:hi] * u.take(anc[lo:hi], axis=0)


def _row_blocks(rows: int, row_bytes: int):
    """Consecutive row slices of about ``ROW_BLOCK_BYTES`` each."""
    step = max(1, ROW_BLOCK_BYTES // max(row_bytes, 1))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _input_terms(x: FeatureMap, p: DiscreteScanParams, order: np.ndarray) -> np.ndarray:
    """b_bar * x in BFS position order: one gather, then one product in place."""
    u = p.b_bar.take(order, axis=0)
    u *= x.data.take(order, axis=0)[:, :, None]
    return u


def _all_roots(tree: SpanningTree, agg: np.ndarray, a: np.ndarray) -> np.ndarray:
    """On BFS-position arrays, turn ``agg`` into subtree sums in place
    (``_up``), then return the aggregation over every vertex: (1 - a^2) *
    agg pushed down by ``_down``, with ``agg`` kept at the root.  ``a``,
    the caller's own BFS-order copy, may be overwritten."""
    _up(tree, agg, a, tree.bands)
    out = a * a
    np.subtract(1.0, out, out=out)
    out *= agg
    out[0] = agg[0]
    _down(tree, out, a, tree.bands)
    return out


def _gradients(x: FeatureMap, p: DiscreteScanParams, tree: SpanningTree, rho: np.ndarray,
               d_a_bar: np.ndarray) -> GradBundle:
    """Gradient tail shared by both backward passes, given rho, the loss
    gradient of each vertex's subtree sum in vertex order, and ``d_a_bar``,
    whose root row (its transition is unused) is set to 0 here.  ``rho``
    becomes d_b_bar in place."""
    d_a_bar[tree.root] = 0.0
    d_x = np.einsum("lcn,lcn->lc", p.b_bar, rho)
    rho *= x.data[:, :, None]
    return GradBundle(d_x, d_a_bar, rho)


def tree_scan_vision_forward(
    x: FeatureMap, p: DiscreteScanParams, tree: SpanningTree
) -> tuple[np.ndarray, np.ndarray]:
    """All-roots tree aggregation in two traversals.

    Pass 1 (leaf to root) builds xi[i], the aggregation over i's subtree;
    pass 2 (root to leaf) turns it into h[i], the aggregation over every
    vertex, via h[i] = (1 - a_bar[i]^2) * xi[i] + a_bar[i] * h[parent].
    Returns ``(h, xi)``, both (L, C, N); the backward pass consumes xi.
    """
    _check_instance(x, p, tree)
    order = tree.bfs_order
    xi = _input_terms(x, p, order)
    h = _all_roots(tree, xi, p.a_bar.take(order, axis=0)).take(tree.pos, axis=0)
    return h, xi.take(tree.pos, axis=0)


def tree_scan_vision_backward(
    x: FeatureMap,
    p: DiscreteScanParams,
    tree: SpanningTree,
    xi: np.ndarray,
    h: np.ndarray,
    d_h: np.ndarray,
) -> GradBundle:
    """Analytic gradients of the all-roots tree scan.

    Runs the same two traversals on the output gradients: eta aggregates d_h
    leaf-to-root, rho propagates it back down; then per lane

        d_x[i]     = sum_n b_bar[i] * rho[i]
        d_b_bar[i] = x[i] * rho[i]
        d_a_bar[i] = eta[i] * h[parent] + xi[i] * rho[parent]
                     - 2 * a_bar[i] * eta[i] * xi[i]      (0 at the root)

    ``xi`` and ``h`` must come from the matching forward call; that pairing
    is the caller's contract and cannot be checked here.
    """
    _check_instance(x, p, tree, d_h=d_h, xi=xi, h=h)
    order = tree.bfs_order
    eta = np.asarray(d_h).take(order, axis=0)
    rho = _all_roots(tree, eta, p.a_bar.take(order, axis=0)).take(tree.pos, axis=0)
    eta = eta.take(tree.pos, axis=0)
    par = tree.parent
    # (eta * h[par] + xi * rho[par]) - ((2 * a_bar) * eta) * xi, in that
    # order, by row blocks, with one block-sized term buffer
    d_a_bar = np.empty(h.shape)
    for r in _row_blocks(len(h), d_a_bar[0].nbytes):
        out = d_a_bar[r]
        np.multiply(h.take(par[r], axis=0), eta[r], out=out)
        term = rho.take(par[r], axis=0)
        term *= xi[r]
        out += term
        np.multiply(p.a_bar[r], 2.0, out=term)
        term *= eta[r]
        term *= xi[r]
        out -= term
    del eta  # not held through the tail's d_x
    return _gradients(x, p, tree, rho, d_a_bar)


def tree_scan_language_forward(
    x: FeatureMap, p: DiscreteScanParams, tree: SpanningTree
) -> np.ndarray:
    """Causal tree aggregation: one leaf-to-root pass, root fixed at the last token.

    h[i] = xi[i] = b_bar[i]*x[i] + sum over children j of xi[j]*a_bar[j], so
    each token only sees its own subtree.  Raises unless tree.root == L - 1.
    """
    _check_instance(x, p, tree, causal=True)
    order = tree.bfs_order
    h = _input_terms(x, p, order)
    _up(tree, h, p.a_bar.take(order, axis=0), tree.bands)
    return h.take(tree.pos, axis=0)


def tree_scan_language_backward(
    x: FeatureMap,
    p: DiscreteScanParams,
    tree: SpanningTree,
    h: np.ndarray,
    d_h: np.ndarray,
) -> GradBundle:
    """Gradients of the causal tree aggregation, one root-to-leaf pass.

    rho[i] = d_h[i] + a_bar[i] * rho[parent] accumulates how the loss sees
    xi[i]; then d_x[i] = sum_n b_bar[i]*rho[i], d_b_bar[i] = x[i]*rho[i], and
    d_a_bar[i] = rho[parent] * h[i] (zero at the root, whose transition is
    unused).
    """
    _check_instance(x, p, tree, causal=True, d_h=d_h, h=h)
    order = tree.bfs_order
    rho = np.asarray(d_h).take(order, axis=0)
    _down(tree, rho, p.a_bar.take(order, axis=0), tree.bands)
    rho = rho.take(tree.pos, axis=0)
    d_a_bar = rho.take(tree.parent, axis=0)
    d_a_bar *= h
    return _gradients(x, p, tree, rho, d_a_bar)


def naive_tree_scan(
    x: FeatureMap,
    p: DiscreteScanParams,
    tree: SpanningTree,
    roots: str | list[int] | np.ndarray = "all",
    force: bool = False,
) -> np.ndarray:
    """Direct quadratic evaluation of the tree aggregation; the reference
    the fast kernels are checked against.

    For each requested vertex i it walks the tree depth-first from i,
    multiplying a_bar along each path (crossing the edge between v and its
    parent multiplies by a_bar[v]), and sums weight * b_bar[j] * x[j] over
    all j.  ``roots="all"`` returns (L, C, N); ``roots="single"`` evaluates
    only the tree root and returns (C, N); a sequence of vertex ids returns
    their rows, (len(roots), C, N).  Refuses L > 4096 unless ``force=True``.
    """
    _check_instance(x, p, tree)
    n = tree.num_vertices
    if isinstance(roots, str) and roots in ("all", "single"):
        targets = range(n) if roots == "all" else [tree.root]
    else:
        ids = np.asarray(roots)  # any other string has ndim 0
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise ValueError("roots must be 'all', 'single' or a sequence of vertex ids")
        bad = ids[(ids < 0) | (ids >= n)]
        if bad.size:
            raise ValueError(f"root id {bad[0]} out of range for {n} vertices")
        targets = ids.tolist()
    if n > NAIVE_SCAN_GUARD and not force:
        raise ValueError(
            f"naive scan is O(L^2); refusing L = {n} > {NAIVE_SCAN_GUARD} without force=True"
        )
    unit = p.b_bar * x.data[:, :, None]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (neighbour, edge key)
    for v, u in enumerate(tree.parent.tolist()):
        if u != v:
            adj[v].append((u, v))  # edge (v, parent) keyed by child v
            adj[u].append((v, v))
    out = np.empty((len(targets),) + unit.shape[1:], dtype=unit.dtype)
    prod = np.empty_like(unit)
    for row, source in enumerate(targets):
        seen = [False] * n
        seen[source] = True
        prod[source] = 1.0
        stack = [source]
        while stack:
            v = stack.pop()
            for nb, key in adj[v]:
                if not seen[nb]:
                    seen[nb] = True
                    prod[nb] = prod[v] * p.a_bar[key]
                    stack.append(nb)
        out[row] = np.einsum("lcn,lcn->cn", prod, unit)
    return out[0] if isinstance(roots, str) and roots == "single" else out


def _rms_scale(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-token RMS normalization over the flattened (C, N) entries, as
    factors: returns ``(g, inv, k)`` with h = k * g per token and
    g * inv the normalized state, g / rms(g).

    g is h itself and k is 1, unless a nonzero token's sum of squares
    leaves ``SQUARES_RANGE`` (its squares under- or overflow, or its 1/rms^3
    would); such tokens are divided by their max-abs in a copy of h, so the
    result does not depend on the scale of h.  An all-zero token has inv 0.
    """
    flat = h.reshape(len(h), -1)
    m = flat.shape[1]
    squares = np.einsum("lk,lk->l", flat, flat)
    k = np.ones(len(h))
    lo, hi = SQUARES_RANGE
    far = np.flatnonzero((squares < lo) | (squares > hi))
    mx = np.abs(flat[far]).max(axis=1, initial=0.0)
    far, mx = far[mx > 0], mx[mx > 0]
    if far.size:
        h = h.copy()
        h[far] /= mx[:, None, None]
        k[far] = mx
        rows = h[far].reshape(len(far), -1)
        squares[far] = np.einsum("lk,lk->l", rows, rows)
    inv = np.divide(1.0, np.sqrt(squares / m), out=np.zeros_like(squares), where=squares > 0)
    return h, inv, k


def output_projection(h: np.ndarray, p: ContinuousScanParams, x: FeatureMap) -> FeatureMap:
    """Project hidden states to output features.

    y[i,c] = sum_n c_out[i,n] * hn[i,c,n] + d[c] * x[i,c], where hn is h
    RMS-normalized per token over all C*N hidden entries (an all-zero token
    stays zero).  hn is never formed: the 1/rms factor scales the (L, C)
    contraction.
    """
    _check_instance(x, p, h=h)
    g, inv, _ = _rms_scale(h)
    y = np.einsum("ln,lcn->lc", p.c_out, g)
    y *= inv[:, None]
    y += p.d[None, :] * x.data
    return FeatureMap(y, spatial=x.spatial)


def output_projection_backward(
    h: np.ndarray, p: ContinuousScanParams, x: FeatureMap, d_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Local derivatives of ``output_projection``.

    Returns ``(d_h, d_c_out, d_d, d_x)`` for an upstream gradient d_y of
    shape (L, C).  It backpropagates through the per-token RMS
    normalization; tokens with all-zero hidden state get zero gradient.
    Neither hn nor its gradient is formed: with r = rms(h),

        d_h = (d_y outer c_out) / r - h * <d_y outer c_out, h> / (m r^3),

    one outer product minus one scaled h, the per-token factor taken as
    ((inner / r) / r) * (1 / (m r)) so that r^3 is never formed.
    """
    _check_instance(x, p, h=h)
    d_y = np.asarray(d_y, dtype=np.float64)
    if d_y.shape != x.data.shape:
        raise ValueError("d_y must have the feature map's (L, C) shape")
    g, inv, k = _rms_scale(h)
    m = h[0].size
    scale = inv / k  # d_h = d_g / k on rescaled tokens
    d_h = np.empty(g.shape)
    d_c_out = np.empty(p.c_out.shape)
    for r in _row_blocks(len(g), d_h[0].nbytes):
        g_r, d_y_r, c_r = g[r], d_y[r], p.c_out[r]
        inner = np.einsum("lc,lc->l", d_y_r, np.einsum("lcn,ln->lc", g_r, c_r))
        np.einsum("lc,ln->lcn", d_y_r, c_r * scale[r, None], out=d_h[r])
        d_h[r] -= g_r * (((inner * inv[r]) * inv[r]) * (scale[r] / m))[:, None, None]
        np.einsum("lc,lcn->ln", d_y_r, g_r, out=d_c_out[r])
    d_c_out *= inv[:, None]
    d_d = np.einsum("lc,lc->c", d_y, x.data)
    d_x = d_y * p.d[None, :]
    return d_h, d_c_out, d_d, d_x


def discretization_backward(
    p: ContinuousScanParams,
    disc: DiscreteScanParams,
    d_a_bar: np.ndarray,
    d_b_bar: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chain rule from (d_a_bar, d_b_bar) back to the continuous parameters.

    Uses d(a_bar)/d(delta) = a * a_bar, d(a_bar)/d(a) = delta * a_bar,
    d(b_bar)/d(delta) = b and d(b_bar)/d(b) = delta.  Returns
    ``(d_a, d_b, d_delta)`` with shapes (C, N), (L, N), (L, C).
    """
    d_a_bar = np.asarray(d_a_bar, dtype=np.float64)
    d_b_bar = np.asarray(d_b_bar, dtype=np.float64)
    for name, arr in (("d_a_bar", d_a_bar), ("d_b_bar", d_b_bar), ("disc", disc)):
        if arr.shape != p.shape:
            raise ValueError(f"{name} shape {arr.shape} does not match params shape {p.shape}")
    d_a = np.einsum("lcn,lc,lcn->cn", d_a_bar, p.delta, disc.a_bar)
    d_b = np.einsum("lcn,lc->ln", d_b_bar, p.delta)
    d_delta = np.einsum("lcn,cn,lcn->lc", d_a_bar, p.a, disc.a_bar) + np.einsum(
        "lcn,ln->lc", d_b_bar, p.b
    )
    return d_a, d_b, d_delta


def affinity_map(tree: SpanningTree, p: DiscreteScanParams, anchor: int) -> np.ndarray:
    """Mean path weight from every vertex to the anchor, an L-vector in [0, 1].

    Entry j is the lane-mean of the product of transition scalars along the
    tree path from j to the anchor; the anchor itself is exactly 1.  On the
    tree as given, the rows from the anchor up to the root get their
    products by one cumulative product along that path, and their
    transitions are set to 0 so that they keep them; one root-to-leaf pass
    (``_down``) then carries the products to every other vertex.  Requires
    every a_bar entry in [0, 1] so products stay in [0, 1].
    """
    n = tree.num_vertices
    if isinstance(anchor, bool) or not isinstance(anchor, (int, np.integer)) or not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} out of range for {n} vertices")
    if p.shape[0] != n:
        raise ValueError("params length does not match the tree")
    if np.any(p.a_bar > 1.0):
        raise ValueError("affinity map requires a_bar entries in [0, 1]")
    path = [int(tree.pos[anchor])]  # BFS rows from the anchor up to the root
    while path[-1]:
        path.append(int(tree.ppos[path[-1]]))
    a = p.a_bar.take(tree.bfs_order, axis=0)
    prod = np.zeros(p.shape)
    prod[path[0]] = 1.0
    prod[path[1:]] = np.cumprod(a[path[:-1]], axis=0)
    a[path] = 0.0
    _down(tree, prod, a)
    return prod.take(tree.pos, axis=0).reshape(n, -1).mean(axis=1)

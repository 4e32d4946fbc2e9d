"""State-space scan kernels on sequences and trees.

Everything here operates on per-lane scalars: a lane is one (channel, state)
coordinate pair, carried as the trailing two axes of (L, C, N) arrays.  The
transition scalar of vertex i, ``a_bar[i]``, is attached to the tree edge
between i and its parent under the rooting of the tree that is passed in;
path weights are products of these child-keyed scalars.

Every full-size lane array allocated here is state-major: C-contiguous
(L, N, C) memory, handed out as its (L, C, N) view ``.transpose(0, 2, 1)``,
so that numpy's inner loops run over the C channels, not over the few
states.  With N > 1 such a view is not C-contiguous, and reshaping it
copies.  ``DiscreteScanParams`` copies a_bar and b_bar of any other layout
into this one; the kernels read h, xi and d_h of any layout in their
gathers (an index reads any strides) into fresh state-major memory, which
the leaf-to-root pass views flat, and the projections read h by row
blocks, so an h of another layout costs a block copy.  Outputs do not
depend on the layout of the inputs.

The tree scan computes, for every vertex i, the aggregation over all vertices
j of (path weight from j to i) * b_bar[j] * x[j].  Done directly that costs
O(L^2); the two-pass dynamic program below does it in O(L): a leaf-to-root
pass accumulates subtree sums (xi), then a root-to-leaf pass combines each
subtree sum with the complement flowing down from the parent.  The backward
pass has the same structure run on the output gradients.

The passes are ``walk._up`` and ``walk._down`` on the tree's walk
(``tree.walk``); ``affinity_map`` is one per-level root-to-leaf pass.

Outside the walks, every stage of a training step is held to a budget of
full-size (L, C, N) passes and fresh full-size arrays: at training sizes a
pass costs about a millisecond, and a fresh array more, as its pages fault
in.  Arithmetic runs in place where a buffer exists, and a chain that needs
a temporary runs by row blocks of ``ROW_BLOCK_BYTES`` so the temporary is
block-sized and the block stays in cache.  Broadcasts of (L, C) arrays and
outer products run along C, and each contraction over N or C is one
``einsum`` written in (L, N, C) order.  ``tests/test_budget.py`` pins
each stage's full-size arrays at the peak (outputs included), and README
"Pass and allocation budget" says how each stage keeps to them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .lattice import FeatureMap
from .mst import SpanningTree
from .walk import ROW_BLOCK_BYTES, Walk, _down, _up

NAIVE_SCAN_GUARD = 4096
# Per-token sums of squares inside which the RMS projection uses h as it is.
# Outside it a token's squares lose digits to underflow or overflow, or the
# backward's per-token factor ~ |d_y c_out| / (r^2 sqrt(m)) leaves the float
# range, so the token is first divided by its max-abs.
SQUARES_RANGE = (1e-200, 1e200)


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
    """Per-token transition and input scalars, shape (L, C, N) each, held as
    float64 views of state-major memory (copied only if not already so); a
    zero transition (``discretize``'s exp underflowing) cuts its edge."""

    a_bar: np.ndarray
    b_bar: np.ndarray

    def __post_init__(self):
        a_bar, b_bar = np.asarray(self.a_bar), np.asarray(self.b_bar)
        if a_bar.ndim != 3 or a_bar.shape != b_bar.shape:
            raise ValueError("a_bar and b_bar must both be (L, C, N)")
        self.a_bar, self.b_bar = _swap(_state_major(a_bar)), _swap(_state_major(b_bar))
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


def _swap(arr: np.ndarray) -> np.ndarray:
    """The (L, N, C) view of an (L, C, N) array, and back."""
    return arr.transpose(0, 2, 1)


def _state_major(arr: np.ndarray) -> np.ndarray:
    """The (L, N, C) float64 C-contiguous memory of an (L, C, N) array of
    any layout, copied only if it is not already that."""
    return np.ascontiguousarray(_swap(arr), dtype=np.float64)


def discretize(params: ContinuousScanParams) -> DiscreteScanParams:
    """Zero-order-hold transition with first-order-Taylor input scalars.

    a_bar[i,c,n] = exp(delta[i,c] * a[c,n]) and b_bar[i,c,n] = delta[i,c] *
    b[i,n]; the output matrix and feedthrough pass through unchanged (they
    stay on ``params``).
    """
    length, channels, states = params.shape
    a_bar = np.einsum("lc,nc->lnc", params.delta, params.a.T.copy(),
                      out=np.empty((length, states, channels)))
    np.exp(a_bar, out=a_bar)
    b_bar = np.einsum("lc,ln->lnc", params.delta, params.b)
    return DiscreteScanParams(_swap(a_bar), _swap(b_bar))


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


def _row_blocks(rows: int, row_bytes: int):
    """Consecutive row slices of about ``ROW_BLOCK_BYTES`` each (``walk``'s,
    for the chained elementwise tails: the vision d_a_bar, the projection's
    d_h)."""
    step = max(1, ROW_BLOCK_BYTES // max(row_bytes, 1))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _input_terms(x: FeatureMap, p: DiscreteScanParams, order: np.ndarray) -> np.ndarray:
    """b_bar * x in the row order ``order``, (L, N, C): one gather, then one
    product in place."""
    u = _swap(p.b_bar).take(order, axis=0)
    u *= x.data.take(order, axis=0)[:, None, :]
    return u


def _gather(arr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows of a caller's (L, C, N) array, of any layout, as fresh (len(rows),
    N, C) state-major memory (an index, unlike ``take``, reads any strides
    without first copying the whole array, but keeps the caller's memory
    order, which is then copied once)."""
    return np.ascontiguousarray(_swap(np.asarray(arr))[rows])


def _all_roots(walk: Walk, agg: np.ndarray, a: np.ndarray) -> np.ndarray:
    """On arrays in the walk's ``layout``, turn ``agg`` into subtree sums
    in place (``_up``), then return the aggregation over every vertex: (1 -
    a^2) * agg pushed down by ``_down``, with ``agg`` kept at the root.
    ``a``, the caller's own copy in the layout, may be overwritten."""
    _up(walk, agg, a)
    out = a * a
    np.subtract(1.0, out, out=out)
    out *= agg
    out[0] = agg[0]
    _down(walk, out, a)
    return out


def _gradients(x: FeatureMap, p: DiscreteScanParams, tree: SpanningTree, rho: np.ndarray,
               d_a_bar: np.ndarray) -> GradBundle:
    """Gradient tail shared by both backward passes, given rho, the loss
    gradient of each vertex's subtree sum in vertex order, and ``d_a_bar``,
    whose root row (its transition is unused) is set to 0 here, both
    (L, N, C).  ``rho`` becomes d_b_bar in place."""
    d_a_bar[tree.root] = 0.0
    d_x = np.einsum("lnc,lnc->lc", _swap(p.b_bar), rho)
    rho *= x.data[:, None, :]
    return GradBundle(d_x, _swap(d_a_bar), _swap(rho))


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
    walk = tree.walk
    order, pos = walk.layout
    xi = _input_terms(x, p, order)
    h = _all_roots(walk, xi, _swap(p.a_bar).take(order, axis=0)).take(pos, axis=0)
    return _swap(h), _swap(xi.take(pos, axis=0))


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
    walk = tree.walk
    order, pos = walk.layout
    a_bar = _swap(p.a_bar)
    eta = _gather(d_h, order)
    rho = _all_roots(walk, eta, a_bar.take(order, axis=0)).take(pos, axis=0)
    eta = eta.take(pos, axis=0)
    par, xi = tree.parent, _swap(np.asarray(xi))
    # (eta * h[par] + xi * rho[par]) - ((2 * a_bar) * eta) * xi, in that
    # order, by row blocks, with one block-sized term buffer
    d_a_bar = np.empty(rho.shape)
    for r in _row_blocks(len(rho), d_a_bar[0].nbytes):
        out = d_a_bar[r]
        np.multiply(_gather(h, par[r]), eta[r], out=out)
        term = rho.take(par[r], axis=0)
        term *= xi[r]
        out += term
        np.multiply(a_bar[r], 2.0, out=term)
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
    walk = tree.walk
    order, pos = walk.layout
    h = _input_terms(x, p, order)
    _up(walk, h, _swap(p.a_bar).take(order, axis=0))
    return _swap(h.take(pos, axis=0))


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
    walk = tree.walk
    order, pos = walk.layout
    rho = _gather(d_h, order)
    _down(walk, rho, _swap(p.a_bar).take(order, axis=0))
    rho = rho.take(pos, axis=0)
    d_a_bar = rho.take(tree.parent, axis=0)
    d_a_bar *= _swap(np.asarray(h))
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
    out = _swap(np.empty((len(targets), unit.shape[2], unit.shape[1])))
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
    """Per-token RMS normalization over the flattened (C, N) entries of h,
    of any layout, as factors: returns ``(inv, k, far)`` with h = k * g per
    token and g * inv the normalized state, g / rms(g), g's rows read by
    ``_rms_rows``.  The sums of squares run by row blocks of state-major
    memory, so a foreign layout costs a block copy, not a full one.

    g is h and k is 1, unless a nonzero token's sum of squares leaves
    ``SQUARES_RANGE`` (its squares under- or overflow, or its 1/rms^3
    would); such tokens, ``far`` (ascending), are divided by their max-abs,
    so the result does not depend on the scale of h.  An all-zero token has
    inv 0.
    """
    squares = np.empty(len(h))
    for r in _row_blocks(len(h), h[0].nbytes):
        flat = _state_major(h[r]).reshape(len(squares[r]), -1)
        np.einsum("lk,lk->l", flat, flat, out=squares[r])
    lo, hi = SQUARES_RANGE
    far = np.flatnonzero((squares < lo) | (squares > hi))
    mx = np.abs(h[far]).max(axis=(1, 2), initial=0.0)
    far, mx = far[mx > 0], mx[mx > 0]
    k = np.ones(len(h))
    k[far] = mx
    m = h[0].size
    rows = _state_major(h[far]).reshape(len(far), m) / mx[:, None]
    squares[far] = np.einsum("lk,lk->l", rows, rows)
    inv = np.divide(1.0, np.sqrt(squares / m), out=np.zeros_like(squares), where=squares > 0)
    return inv, k, far


def _rms_rows(h: np.ndarray, r: slice, k: np.ndarray, far: np.ndarray) -> np.ndarray:
    """The rows ``r`` of ``_rms_scale``'s g as (rows, N, C) state-major
    memory: a view of h, or a block copy if h is not state-major or the
    block holds ``far`` tokens."""
    g = _state_major(h[r])
    i, j = bisect_left(far, r.start), bisect_left(far, r.stop)
    if i < j:
        g = g.copy()
        g[far[i:j] - r.start] /= k[far[i:j], None, None]
    return g


def output_projection(h: np.ndarray, p: ContinuousScanParams, x: FeatureMap) -> FeatureMap:
    """Project hidden states to output features.

    y[i,c] = sum_n c_out[i,n] * hn[i,c,n] + d[c] * x[i,c], where hn is h
    RMS-normalized per token over all C*N hidden entries (an all-zero token
    stays zero).  hn is never formed: the 1/rms factor scales the (L, C)
    contraction, by row blocks, so an h of any layout is read in place.
    """
    _check_instance(x, p, h=h)
    inv, k, far = _rms_scale(h)
    y = np.empty(x.data.shape)
    for r in _row_blocks(len(y), h[0].nbytes):
        y_r = np.einsum("ln,lnc->lc", p.c_out[r], _rms_rows(h, r, k, far), out=y[r])
        y_r *= inv[r, None]
        y_r += p.d[None, :] * x.data[r]
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
    ((inner / r) / r) * (1 / (m r)) so that r^3 is never formed.  With
    s = <d_y, g> over C, d_c_out = s / r and inner = <s, c_out> over N.
    """
    _check_instance(x, p, h=h)
    d_y = np.asarray(d_y, dtype=np.float64)
    if d_y.shape != x.data.shape:
        raise ValueError("d_y must have the feature map's (L, C) shape")
    inv, k, far = _rms_scale(h)
    m = h[0].size
    scale = inv / k  # d_h = d_g / k on rescaled tokens
    d_h = np.empty((len(h), p.shape[2], p.shape[1]))
    d_c_out = np.empty(p.c_out.shape)
    for r in _row_blocks(len(d_h), d_h[0].nbytes):
        g, d_y_r, c_r = _rms_rows(h, r, k, far), d_y[r], p.c_out[r]
        s = np.einsum("lnc,lc->ln", g, d_y_r, out=d_c_out[r])  # scaled by 1 / r below
        inner = np.einsum("ln,ln->l", s, c_r)
        np.einsum("lc,ln->lnc", d_y_r, c_r * scale[r, None], out=d_h[r])
        d_h[r] -= g * (((inner * inv[r]) * inv[r]) * (scale[r] / m))[:, None, None]
    del g  # a block copy if h is not state-major; not held through d_x
    d_c_out *= inv[:, None]
    d_d = np.einsum("lc,lc->c", d_y, x.data)
    d_x = d_y * p.d[None, :]
    return _swap(d_h), d_c_out, d_d, d_x


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
    d_a_bar, d_b_bar = np.asarray(d_a_bar), np.asarray(d_b_bar)
    for name, arr in (("d_a_bar", d_a_bar), ("d_b_bar", d_b_bar), ("disc", disc)):
        if arr.shape != p.shape:
            raise ValueError(f"{name} shape {arr.shape} does not match params shape {p.shape}")
    d_a_bar, d_b_bar, a_bar = _state_major(d_a_bar), _state_major(d_b_bar), _swap(disc.a_bar)
    d_a = np.einsum("lnc,lc,lnc->nc", d_a_bar, p.delta, a_bar).T.copy()
    d_b = np.einsum("lnc,lc->ln", d_b_bar, p.delta)
    d_delta = np.einsum("lnc,nc,lnc->lc", d_a_bar, p.a.T.copy(), a_bar)
    d_delta += np.einsum("ln,lnc->lc", p.b, d_b_bar)
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
    walk = tree.walk
    path = [int(walk.pos[anchor])]  # rows from the anchor up to the root
    while path[-1]:
        path.append(int(walk.ppos[path[-1]]))
    a = _swap(p.a_bar).take(walk.order, axis=0)
    prod = np.zeros(a.shape)
    prod[path[0]] = 1.0
    prod[path[1:]] = np.cumprod(a[path[:-1]], axis=0)
    a[path] = 0.0
    _down(replace(walk, height=1), prod, a)
    return _swap(prod)[walk.pos].reshape(n, -1).mean(axis=1)  # lanes in (C, N) order

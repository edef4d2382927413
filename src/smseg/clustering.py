"""Pseudo-mask discovery over dense feature maps.

Candidate regions for never-annotated classes are produced in four steps:
seed a K-means run with overlapping-window means of the feature map at
several window sizes, run Lloyd iterations, merge clusters whose centroids
point the same way, then keep only masks that live inside the unannotated
region and are large enough to matter.

Determinism contract: every reduction below has a fixed order (window
sums accumulate f64 in row-major pixel order, per-cluster sums add in
pixel order), and K-means and fusion score in row blocks whose size
depends only on the number of centroids and a fixed byte budget, never on
threads or the host. No output depends on BLAS either. A K-means pick is
defined in float64: the centroid of largest cosine similarity under a dot
that adds channels in order, the first index among exact ties. A float32
BLAS product only proposes it. The proposal stands when its lead over the
runner-up exceeds a bound on the product's rounding error, which holds
for any order BLAS sums in; every other pixel is rescored by the
fixed-order dot over the centroids within that bound. Fusion joins two
centroids when their fixed-order float64 dot is at least ``tau``; a
float64 BLAS product proposes the dot, and only pairs within the same
kind of bound of ``tau`` are scored in fixed order. So identical inputs
give bitwise identical outputs however the surrounding process is
threaded.

K-means compares directions only (spherical K-means). It and fusion divide
each nonzero row by its own norm, with no floor, and scale a row by an
exact power of two first where its squares would underflow or overflow,
so a row normalizes at any scale; a zero row stays zero.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .losses import normalize_rows

_BLOCK_BYTES = 8 * 2 ** 20       # working-set budget of one scoring block
_SEED_BYTES = 2 * 2 ** 20        # working-set budget of one window-seed chunk


@dataclass(frozen=True)
class WindowConfig:
    """Knobs for seeding and clustering.

    ``window_sizes`` is normalized to a sorted tuple so seed order is
    well defined when callers pass a set.
    """

    window_sizes: tuple = (8, 16, 32)
    kmeans_iters: int = 10
    kmeans_tol: float = 1e-4

    def __post_init__(self):
        sizes = tuple(sorted(set(int(s) for s in self.window_sizes)))
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError(f"window sizes must be positive, got {self.window_sizes}")
        object.__setattr__(self, "window_sizes", sizes)
        if self.kmeans_iters < 1:
            raise ValueError("kmeans_iters must be >= 1")
        if not self.kmeans_tol > 0:
            raise ValueError("kmeans_tol must be > 0")


@dataclass
class ClusterResult:
    assignments: np.ndarray              # (H, W) int32, values in [0, k)
    centroids: np.ndarray                # (k, C) f32
    objective_trace: list


@dataclass
class CandidateMaskSet:
    """Candidate regions in the unannotated region, as one label map."""

    labels: np.ndarray                   # (H, W) int64, candidate index or -1
    centroids: np.ndarray                # (U, C) f32

    @property
    def count(self):
        return int(self.centroids.shape[0])

    @property
    def masks(self):
        """The (U, H, W) u8 stack of the pairwise disjoint candidate masks."""
        return (self.labels[None] == np.arange(self.count)[:, None, None]).view(np.uint8)


def window_starts(extent, size):
    """Window start offsets along one axis.

    An arithmetic progression of stride round(size/2) (halves round up)
    clipped to extent-size, with extent-size appended when the progression
    does not land on it, so the border is always covered.
    """
    if size > extent:
        raise ValueError(f"window {size} exceeds extent {extent}")
    stride = (size + 1) // 2
    starts = list(range(0, extent - size + 1, stride))
    if starts[-1] != extent - size:
        starts.append(extent - size)
    return starts


def window_seeds(feats, size):
    """Mean feature over every s x s window at the canonical start grid.

    ``feats`` is (C, H, W). Returns the (n_windows, C) float32 seeds,
    windows in row-major order of their starts. Window sums accumulate in
    float64 from 0.0, one window-local pixel at a time in row-major order,
    are divided by s^2, then rounded once to float32 — the exact sequence a
    naive per-window double loop performs.

    The taps are gathered by flat pixel index, a few channels at a time
    under ``_SEED_BYTES``, and each chunk is summed along its tap axis.
    """
    feats = np.asarray(feats)
    c, h, w = feats.shape
    if size > min(h, w):
        raise ValueError(f"window {size} exceeds feature map {h}x{w}")
    taps = np.arange(size)
    rows = np.add.outer(taps, window_starts(h, size)) * w       # (s, R): tap row offsets
    cols = np.add.outer(taps, window_starts(w, size))           # (s, C'): tap columns
    index = (rows[:, None, :, None] + cols[None, :, None, :]).reshape(size * size, -1)
    flat = feats.reshape(c, h * w)
    acc = np.empty((c, index.shape[1]))
    step = max(1, _SEED_BYTES // (8 * index.size))
    for lo in range(0, c, step):
        chunk = np.take(flat[lo:lo + step], index, axis=1)      # (k, s^2, windows)
        chunk = chunk.astype(np.float64, copy=False)
        if index.shape[1] == 1:      # numpy would sum a lone window's taps pairwise
            acc[lo:lo + step] = functools.reduce(np.add, chunk.transpose(1, 0, 2), 0.0)
        else:                        # initial=0.0 keeps 0.0 + (-0.0) = 0.0
            acc[lo:lo + step] = np.add.reduce(chunk, axis=1, initial=0.0)
    return (acc / float(size * size)).astype(np.float32).T.copy()


def multi_scale_seeds(feats, cfg):
    """(n, C) window seeds of every configured window size, ascending."""
    return np.concatenate([window_seeds(feats, size) for size in cfg.window_sizes])


def _blocks(n, size):
    """Slices of ``size`` items (at least 2) covering ``range(n)``; a lone
    last item joins the slice before it. numpy and BLAS take a one-row
    operand as a vector and sum it in another order than its rows in a
    larger block, so only a one-item ``n`` gives a one-item slice."""
    stops = list(range(max(2, size), n - 1, max(2, size))) + [n]
    return [slice(a, b) for a, b in zip([0] + stops[:-1], stops)]


def _group_sums(group, rows, n):
    """(n, C) per-group sums of ``rows``, each group added in row order."""
    return np.stack([np.bincount(group, weights=col, minlength=n)
                     for col in rows.T], axis=1)


def _propose(x, c):
    """BLAS dots of a row block with the rows of ``c``: a proposal that
    ``_margins`` certifies, never an output."""
    return x @ c.T


def _margins(norm, cents, dtype):
    """Per-row gap by which a proposal in ``dtype`` certainly holds.

    For C-wide rows, in any summation order, |x.c - fl(x.c)| <= eps =
    gamma_{C+2} |x| max|c| with gamma_n = n u / (1 - n u) for the unit
    roundoff u of ``dtype`` (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1), plus C (|x| + max|c| + 1) times the smallest
    subnormal for subnormal rounding unless x is zero (rows are unit or
    zero, so |x| is 0 only then). The margin is 2.5 eps: the errors of two
    scores plus half an eps, which covers any float64 dot, the fixed-order
    one included.
    """
    fmt = np.finfo(dtype)
    unit, tiny = float(fmt.eps) / 2, float(fmt.smallest_subnormal)
    width = cents.shape[1]
    norm_c = np.sqrt(np.max(np.sum(cents * cents, axis=1)))
    gamma = (width + 2) * unit / (1.0 - (width + 2) * unit)
    return 2.5 * (gamma * norm * norm_c
                  + (norm > 0) * (tiny * width * (norm + norm_c + 1.0)))


def _score(x_t, r, c_t, j):
    """Dots of rows ``r`` of ``x_t`` with rows ``j`` of ``c_t``.

    Both are channel-major (C, n). The dot adds one channel at a time in
    channel order with plain elementwise multiplies and adds, so no BLAS
    kernel, thread split or operand layout can move a bit of it
    (``np.einsum`` sums in a layout-dependent order).
    """
    d = x_t[0, r] * c_t[0, j]
    for q in range(1, len(c_t)):
        d += x_t[q, r] * c_t[q, j]
    return d


def _rescore(x_t, pairs, c_t, assign):
    """Set each listed pixel's pick to its exact best candidate.

    ``pairs`` holds (pixels, centroids) arrays, pixels ascending and each
    pixel's centroids ascending. The pick is the first index among exact
    maxima of the similarity.
    """
    pix = np.concatenate([p for p, _ in pairs])
    cols = np.concatenate([c for _, c in pairs])
    val = _score(x_t, pix, c_t, cols)
    starts = np.flatnonzero(np.diff(pix, prepend=-1))
    best = np.repeat(np.maximum.reduceat(val, starts), np.diff(starts, append=len(pix)))
    hits = np.where(val == best, np.arange(len(val)), len(val))
    assign[pix[starts]] = cols[np.minimum.reduceat(hits, starts)]


def _assign_step(x_t, norm, cents, assign):
    """One Lloyd assignment: propose in float32, certify, rescore the rest.

    ``x_t`` holds the (C, P) normalized pixels, channel-major float64, and
    ``norm`` their (P,) norms, 1 or 0 up to rounding. Fills ``assign`` with
    each pixel's pick and returns its similarity there. Uncertain pixels'
    candidate pairs are held until about ``hold`` of them accumulate, so
    rescoring memory stays bounded even when every pixel is uncertain.
    """
    k = len(cents)
    c32 = cents.astype(np.float32)
    c_t = np.ascontiguousarray(cents.T)
    margin = _margins(norm, cents, np.float32)
    rows = max(1, _BLOCK_BYTES // (4 * (k + len(x_t))))  # scores and proposal rows
    hold = _BLOCK_BYTES // 64
    step = max(1, hold // k)                  # uncertain pixels per batch
    pairs, held = [], 0
    for s in range(0, len(assign), rows):
        blk = slice(s, s + rows)
        scores = _propose(x_t[:, blk].T.astype(np.float32, order="C"), c32)
        pick = np.argmax(scores, axis=1)
        at = np.arange(len(pick))
        top = scores[at, pick]
        scores[at, pick] = -np.inf
        gap = top.astype(np.float64) - np.max(scores, axis=1)
        scores[at, pick] = top
        m = margin[blk]
        floor = top - m
        assign[blk] = pick
        # A zero margin is an all-zero pixel: every score is exactly zero
        # and argmax already took the first index.
        unsure = np.flatnonzero(~(gap > m) & (m > 0))
        for a in range(0, len(unsure), step):
            u = unsure[a:a + step]
            near, cols = np.nonzero(~(scores[u] < floor[u, None]))
            pairs.append((s + u[near], cols))
            held += len(cols)
            if held > hold:
                _rescore(x_t, pairs, c_t, assign)
                pairs, held = [], 0
        del scores                            # one block alive at a time
    if pairs:
        _rescore(x_t, pairs, c_t, assign)
    return _score(x_t, slice(None), c_t, assign)


def kmeans(feats, seeds, cfg):
    """Spherical K-means over (C, H, W) ``feats`` from the (n, C) ``seeds``.

    Pixels are L2-normalized once, centroids are renormalized after every
    update, and the distortion is sum(1 - cos) (Dhillon & Modha, Machine
    Learning 2001). Iteration stops at ``kmeans_iters`` or when the
    objective improves by less than ``kmeans_tol``. Clusters that lose all
    members are dropped and ids compacted; no reseeding, so the run stays
    deterministic. ``feats`` and ``seeds`` must be finite (ValueError
    otherwise).

    Each pixel takes the centroid of largest float64 similarity under a
    fixed-order dot, the first index among exact ties, so of equal seeds
    only the first ever takes pixels. A float32 product proposes the pick
    for ``_BLOCK_BYTES // (4 (k + C))`` pixels at a time (at least one), a
    rounding bound certifies it, and the few uncertified pixels are
    rescored in float64 (see the module docstring). Unit rows keep the
    float32 scores in range at any feature magnitude. The objective sums
    the fixed-order scores at the picks; centroid sums add in pixel order.

    Memory: one float64 (C, P) copy of the pixels, normalized in place
    ``_BLOCK_BYTES // (16 C)`` pixels at a time, plus one scoring block of
    ``_BLOCK_BYTES`` (float32 scores and the proposal rows built for it
    from that copy), plus (P,) vectors and a few (k, C) centroid arrays.
    """
    if len(seeds) == 0:
        raise ValueError("kmeans needs at least one seed")
    c, h, w = np.asarray(feats).shape
    # The one private copy of the pixels, channel-major and normalized in
    # place. Its pixel rows x are strided views, so each row's norm adds
    # its channels in order, in a block of any size but one row.
    x_t = np.array(feats, dtype=np.float64, order="C").reshape(c, h * w)
    x = x_t.T                                                     # (P, C)
    norm = np.empty(len(x))
    for blk in _blocks(len(x), _BLOCK_BYTES // (16 * max(c, 1))):
        rows = x[blk]
        if not np.isfinite(rows).all():
            raise ValueError("kmeans feats must be finite, got NaN or inf")
        normalize_rows(rows, out=rows)
        norm[blk] = np.sqrt(np.sum(rows * rows, axis=1))
    # C order: row norms and sums then reduce in one order whatever the
    # layout of ``seeds`` (window seeds come out column-major).
    cents = np.array(seeds, dtype=np.float64, order="C")
    if not np.isfinite(cents).all():
        raise ValueError("kmeans seeds must be finite, got NaN or inf")
    cents = normalize_rows(cents)
    # A later copy of a centroid ties with the first everywhere and never
    # takes a pixel, so copies are dropped before they are scored.
    cents = cents[np.sort(np.unique(cents, axis=0, return_index=True)[1])]

    trace = []
    assign = np.empty(len(x), dtype=np.int64)
    for it in range(cfg.kmeans_iters):
        chosen = _assign_step(x_t, norm, cents, assign)
        obj = float(np.sum(1.0 - chosen))
        trace.append(obj)
        if it > 0 and trace[-2] - obj < cfg.kmeans_tol:
            break
        if it == cfg.kmeans_iters - 1:
            break
        counts = np.bincount(assign, minlength=len(cents))
        sums = _group_sums(assign, x, len(cents))
        keep = counts > 0
        cents = normalize_rows(sums[keep] / counts[keep, None])

    # Compact: drop centroids the final assignment never uses.
    counts = np.bincount(assign, minlength=len(cents))
    keep = np.flatnonzero(counts > 0)
    remap = np.full(len(cents), -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    return ClusterResult(
        assignments=remap[assign].reshape(h, w).astype(np.int32),
        centroids=cents[keep].astype(np.float32),
        objective_trace=trace,
    )


def _hook(parent, i, j):
    """Join the ends of edges (i, j) in the forest ``parent``, where every
    node points at its root and a root is its component's smallest node.

    Each round hooks every larger root onto the smallest root it meets,
    then jumps pointers until each node points at its root again
    (Shiloach & Vishkin, J. Algorithms 1982). Hooks only ever lower a
    pointer, so the forest stays acyclic and the result does not depend on
    the order of the edges.
    """
    while True:
        # each edge as its ends' roots; one whose ends share a root is done
        i, j = parent[i], parent[j]
        split = i != j
        if not split.any():
            return parent
        i, j = i[split], j[split]
        np.minimum.at(parent, np.maximum(i, j), np.minimum(i, j))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _tau_components(cents, tau):
    """Each row's component in the graph joining rows whose dot is >= ``tau``,
    labelled by the component's smallest row.

    The dot is the fixed-order one of ``_score``. A float64 BLAS product
    proposes it for ``_BLOCK_BYTES // (64 * k)`` rows at a time (at least
    one) against the rows at or after the block. A proposal more than
    ``_margins`` away from ``tau`` stands; the others are decided by
    ``_score``, so no BLAS rounding reaches a label. Each block's edges are
    hooked into the forest at once and the block is freed: 64 bytes per
    entry cover its score and the index arrays ``_hook`` holds per edge,
    and no pair list outlives a block.
    """
    k = len(cents)
    c_t = np.ascontiguousarray(cents.T)
    margin = _margins(np.sqrt(np.sum(cents * cents, axis=1)), cents, np.float64)
    parent = np.arange(k)
    rows = max(1, _BLOCK_BYTES // (64 * k))
    for s in range(0, k - 1, rows):
        gap = _propose(cents[s:s + rows], cents[s:])
        gap -= tau
        r = len(gap)
        gap[:, :r][np.tri(r, dtype=bool)] = -np.inf        # pairs i < j only
        m = margin[s:s + r, None]
        i, j = np.nonzero(gap > m)
        near = np.abs(gap, out=gap) <= m
        del gap
        if near.any():
            ui, uj = np.nonzero(near)
            near = _score(c_t, s + ui, c_t, s + uj) >= tau
            i, j = np.concatenate([i, ui[near]]), np.concatenate([j, uj[near]])
        i += s
        j += s
        parent = _hook(parent, i, j)
    return parent


def fuse_masks(result, tau=0.9):
    """Merge clusters whose centroids agree in direction: (centroids,
    labels), the (G, C) f32 group centroids and the (H, W) int64 map of each
    pixel's group.

    Clusters are joined along every pair with centroid cosine >= ``tau``,
    transitively (connected components of the thresholded similarity
    graph, which do not depend on any scan order); each group's centroid
    is the member-pixel-count-weighted mean of the original centroids,
    renormalized. The cosine is the fixed-order float64 dot of the unit
    centroids; BLAS only proposes it (see ``_tau_components``), and the
    similarity is scored one row block at a time, so memory stays bounded
    by the block budget. Merge rounds repeat until no pair crosses
    ``tau``, so fusing the output again changes nothing. Groups are
    emitted in ascending order of their smallest original cluster id, and
    group sums add members in ascending id order.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    k = len(result.centroids)
    if k < 1:
        raise ValueError("fuse_masks needs at least one cluster")
    assignments = result.assignments
    weights = np.bincount(assignments.ravel(), minlength=k).astype(np.float64)
    vecs = weights[:, None] * np.asarray(result.centroids, dtype=np.float64)
    group_of = np.arange(k)                  # original cluster id -> group

    while len(vecs) > 1:
        cents = normalize_rows(vecs / np.maximum(weights, 1.0)[:, None])
        # Labels are each component's smallest group index, and group
        # indices follow smallest original id: np.unique keeps that order.
        roots, inverse = np.unique(_tau_components(cents, tau), return_inverse=True)
        if len(roots) == len(vecs):
            break
        vecs = _group_sums(inverse, vecs, len(roots))
        weights = np.bincount(inverse, weights=weights, minlength=len(roots))
        group_of = inverse[group_of]

    means = vecs / np.maximum(weights, 1.0)[:, None]
    # one norm per row: np.linalg.norm(axis=1) can round the last bit apart
    cents_out = [m / (np.linalg.norm(m) or 1.0) for m in means]
    return np.array(cents_out, dtype=np.float32), group_of[assignments]


def restrict_candidates(centroids, labels, region, min_area=16):
    """The groups of the (H, W) ``labels`` map with at least ``min_area``
    pixels in the nonzero unannotated ``region``, clipped to it.

    Candidates keep their group order. ``min_area`` below 1 would keep
    groups with no pixel there, so it raises ValueError.
    """
    if min_area < 1:
        raise ValueError(f"min_area must be >= 1, got {min_area}")
    labels = np.asarray(labels)
    inside = np.asarray(region) != 0
    if labels.shape != inside.shape:
        raise ValueError(f"label map {labels.shape} != unannotated region {inside.shape}")
    centroids = np.asarray(centroids, dtype=np.float32)
    keep = np.bincount(labels[inside], minlength=len(centroids)) >= min_area
    index = np.full(len(centroids), -1)
    index[keep] = np.arange(np.count_nonzero(keep))
    return CandidateMaskSet(labels=np.where(inside, index[labels], -1),
                            centroids=centroids[keep])

"""Pseudo-mask discovery over dense feature maps.

Candidate regions for never-annotated classes are produced in four steps:
seed a K-means run with overlapping-window means of the feature map at
several window sizes, run Lloyd iterations, merge clusters whose centroids
point the same way, then keep only masks that live inside the unannotated
region and are large enough to matter.

Determinism contract: every reduction below has a fixed order (window
sums accumulate f64 in row-major pixel order, per-cluster sums scatter in
pixel order), and K-means scores pixels in row blocks whose size depends
only on the number of centroids and a fixed byte budget, never on threads
or the host, so identical inputs give bitwise identical outputs no matter
how the surrounding process is threaded. The one exception is BLAS itself:
OpenBLAS may round the corner tiles of a matrix product (last rows x last
few columns) differently with other thread splits or row counts, so the
tests check whole pipeline runs across thread counts and the blocked
products against a single dense one.
"""

from dataclasses import dataclass, field

import numpy as np

_METRICS = ("cosine", "euclidean")
_NORM_FLOOR = 1e-12
_BLOCK_BYTES = 32 * 2 ** 20      # f64 similarity block budget of one K-means step


@dataclass(frozen=True)
class WindowConfig:
    """Knobs for seeding and clustering.

    ``window_sizes`` is normalized to a sorted tuple so seed order is
    well defined when callers pass a set.
    """

    window_sizes: tuple = (8, 16, 32)
    kmeans_iters: int = 10
    kmeans_tol: float = 1e-4
    metric: str = "cosine"

    def __post_init__(self):
        sizes = tuple(sorted(set(int(s) for s in self.window_sizes)))
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError(f"window sizes must be positive, got {self.window_sizes}")
        object.__setattr__(self, "window_sizes", sizes)
        if self.kmeans_iters < 1:
            raise ValueError("kmeans_iters must be >= 1")
        if not self.kmeans_tol > 0:
            raise ValueError("kmeans_tol must be > 0")
        if self.metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}")


@dataclass
class SeedSet:
    seeds: np.ndarray                    # (n, C) f32
    provenance: list = field(default_factory=list)   # (window, i, j) per seed

    def __len__(self):
        return len(self.seeds)


@dataclass
class ClusterResult:
    assignments: np.ndarray              # (H, W) int32, values in [0, k)
    centroids: np.ndarray                # (k, C) f32
    objective_trace: list


@dataclass
class CandidateMaskSet:
    """Binary candidate masks restricted to the unannotated region."""

    masks: np.ndarray                    # (U, H, W) u8, pairwise disjoint
    centroids: np.ndarray                # (U, C) f32

    @property
    def count(self):
        return int(self.masks.shape[0])


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

    ``feats`` is (C, H, W). Returns ((n_windows, C) float32, provenance).
    Window sums accumulate in float64, one window-local pixel at a time in
    row-major order, are divided by s^2, then rounded once to float32 —
    the exact sequence a naive per-window double loop performs.
    """
    feats = np.asarray(feats)
    c, h, w = feats.shape
    if size > min(h, w):
        raise ValueError(f"window {size} exceeds feature map {h}x{w}")
    rows = window_starts(h, size)
    cols = window_starts(w, size)
    f64 = feats.astype(np.float64)
    ri = np.array(rows)[:, None]
    cj = np.array(cols)[None, :]
    acc = np.zeros((c, len(rows), len(cols)), dtype=np.float64)
    for du in range(size):
        for dv in range(size):
            acc += f64[:, ri + du, cj + dv]
    seeds = (acc / float(size * size)).astype(np.float32)
    seeds = seeds.transpose(1, 2, 0).reshape(len(rows) * len(cols), c)
    provenance = [(size, i, j) for i in rows for j in cols]
    return seeds, provenance


def multi_scale_seeds(feats, cfg):
    """Concatenated window seeds over every configured window size."""
    chunks, provenance = [], []
    for size in cfg.window_sizes:
        seeds, prov = window_seeds(feats, size)
        chunks.append(seeds)
        provenance.extend(prov)
    return SeedSet(seeds=np.concatenate(chunks, axis=0), provenance=provenance)


def _normalize_rows(x):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.maximum(norms, _NORM_FLOOR)


def kmeans(feats, seeds, cfg):
    """Lloyd iterations initialized at the given seeds.

    Cosine metric runs spherical K-means: pixels are L2-normalized once,
    centroids are renormalized after every update, and the distortion is
    sum(1 - cos). Euclidean uses squared distance. Iteration stops at
    ``kmeans_iters`` or when the objective improves by less than
    ``kmeans_tol``. Clusters that lose all members are dropped and ids
    compacted; no reseeding, so the run stays deterministic.

    Pixels are scored against the centroids ``_BLOCK_BYTES // (8 * k)``
    rows at a time (at least one), so memory stays O(block) instead of
    O(pixels x k); the objective is still one sum over all pixels.
    """
    seed_rows = seeds.seeds if isinstance(seeds, SeedSet) else np.asarray(seeds)
    if len(seed_rows) == 0:
        raise ValueError("kmeans needs at least one seed")
    c, h, w = np.asarray(feats).shape
    x = np.asarray(feats, dtype=np.float64).reshape(c, h * w).T   # (P, C)
    cents = np.asarray(seed_rows, dtype=np.float64).copy()
    cosine = cfg.metric == "cosine"
    if cosine:
        x = _normalize_rows(x)
        cents = _normalize_rows(cents)

    trace = []
    assign = np.empty(len(x), dtype=np.int64)
    chosen = np.empty(len(x))                 # similarity or d2 at the pick
    sq_x = np.sum(x * x, axis=1)
    for it in range(cfg.kmeans_iters):
        rows = max(1, _BLOCK_BYTES // (8 * len(cents)))
        sq_c = np.sum(cents * cents, axis=1)
        for s in range(0, len(x), rows):
            blk = x[s:s + rows] @ cents.T
            if not cosine:            # (sq_x - 2 x.c) + sq_c, in place
                blk *= 2.0
                np.subtract(sq_x[s:s + rows, None], blk, out=blk)
                blk += sq_c
            pick = np.argmax(blk, axis=1) if cosine else np.argmin(blk, axis=1)
            assign[s:s + rows] = pick
            chosen[s:s + rows] = blk[np.arange(len(pick)), pick]
            del blk                   # one block alive at a time
        obj = float(np.sum(1.0 - chosen) if cosine
                    else np.sum(np.maximum(chosen, 0.0)))
        trace.append(obj)
        if it > 0 and trace[-2] - obj < cfg.kmeans_tol:
            break
        if it == cfg.kmeans_iters - 1:
            break
        counts = np.bincount(assign, minlength=len(cents))
        sums = np.zeros_like(cents)
        np.add.at(sums, assign, x)
        keep = counts > 0
        cents = sums[keep] / counts[keep, None]
        if cosine:
            cents = _normalize_rows(cents)

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


def fuse_masks(result, tau=0.9):
    """Merge clusters whose centroids agree in direction.

    Clusters are joined along every pair with centroid cosine >= ``tau``,
    transitively (connected components of the thresholded similarity
    graph, which do not depend on any scan order); each group's centroid
    is the member-pixel-count-weighted mean of the original centroids,
    renormalized. Merge rounds repeat until no pair crosses ``tau``, so
    fusing the output again changes nothing. Groups are emitted in
    ascending order of their smallest original cluster id, and group sums
    add members in ascending id order.
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
        cents = _normalize_rows(vecs / np.maximum(weights, 1.0)[:, None])
        src, dst = np.nonzero(np.triu(cents @ cents.T >= tau, 1))
        if len(src) == 0:
            break
        # Min-label propagation with pointer jumping: every node ends up
        # labelled with the smallest group index in its component. Group
        # indices follow smallest original id, and np.unique keeps that.
        labels = np.arange(len(vecs))
        while True:
            new = labels.copy()
            np.minimum.at(new, src, labels[dst])
            np.minimum.at(new, dst, labels[src])
            new = new[new]
            if np.array_equal(new, labels):
                break
            labels = new
        roots, inverse = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(roots), vecs.shape[1]))
        np.add.at(sums, inverse, vecs)
        merged = np.zeros(len(sums))
        np.add.at(merged, inverse, weights)
        vecs, weights, group_of = sums, merged, inverse[group_of]

    labels = group_of[assignments]
    masks = (labels[None] == np.arange(len(vecs))[:, None, None]).astype(np.uint8)
    means = vecs / np.maximum(weights, 1.0)[:, None]
    cents_out = [m / max(np.linalg.norm(m), _NORM_FLOOR) for m in means]
    return masks, np.array(cents_out, dtype=np.float32)


def restrict_candidates(masks, centroids, ignore_mask, min_area=16):
    """Clip masks to the unannotated region and drop tiny survivors."""
    masks = np.asarray(masks)
    ignore_mask = np.asarray(ignore_mask)
    if masks.shape[1:] != ignore_mask.shape:
        raise ValueError(
            f"mask shape {masks.shape[1:]} != ignore region {ignore_mask.shape}")
    clipped = (masks.astype(bool) & ignore_mask.astype(bool))
    areas = clipped.sum(axis=(1, 2))
    keep = areas >= min_area
    return CandidateMaskSet(
        masks=clipped[keep].astype(np.uint8),
        centroids=np.asarray(centroids, dtype=np.float32)[keep],
    )

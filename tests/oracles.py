"""Independent brute-force oracles the tests check the library against.

Everything here is written from the operation definitions, not from the
library code: naive double loops, exhaustive enumeration, per-output-pixel
formulas. Keep it that way — these are the other side of every dual-route
check.
"""

import itertools
import math

import numpy as np


def naive_window_starts(extent, size):
    stride = (size + 1) // 2          # round(size/2), halves up
    starts = []
    pos = 0
    while pos <= extent - size:
        starts.append(pos)
        pos += stride
    if starts[-1] != extent - size:
        starts.append(extent - size)
    return starts


def naive_window_seeds(feats, size):
    """O(H*W*s^2) double loop: f64 row-major accumulation, then one f32 cast."""
    c, h, w = feats.shape
    rows = naive_window_starts(h, size)
    cols = naive_window_starts(w, size)
    out = np.zeros((len(rows) * len(cols), c), dtype=np.float32)
    idx = 0
    for i in rows:
        for j in cols:
            for ch in range(c):
                acc = np.float64(0.0)
                for u in range(i, i + size):
                    for v in range(j, j + size):
                        acc += np.float64(feats[ch, u, v])
                out[idx, ch] = np.float32(acc / float(size * size))
            idx += 1
    return out


def brute_force_min_total(cost):
    """Exhaustive minimum over injective target->query maps (fsum totals)."""
    k, t = cost.shape
    best = None
    for perm in itertools.permutations(range(k), t):
        total = math.fsum(float(cost[perm[j], j]) for j in range(t))
        if best is None or total < best:
            best = total
    return best


def all_optimal_pairsets(cost):
    """Every optimal assignment as a frozenset of (query, target) pairs."""
    k, t = cost.shape
    best = brute_force_min_total(cost)
    out = []
    for perm in itertools.permutations(range(k), t):
        total = math.fsum(float(cost[perm[j], j]) for j in range(t))
        if total == best:
            out.append(frozenset((perm[j], j) for j in range(t)))
    return best, out


def lexicographic_optimum(cost):
    """Reference tie-break: smallest sorted (q, t) sequence among optima."""
    _, pairsets = all_optimal_pairsets(cost)
    return min(tuple(sorted(ps)) for ps in pairsets)


def naive_conv3x3(x, w, b):
    c, h, wd = x.shape
    co = w.shape[0]
    out = np.zeros((co, h, wd), dtype=np.float64)
    for o in range(co):
        for i in range(h):
            for j in range(wd):
                acc = float(b[o])
                for ci in range(c):
                    for du in range(3):
                        for dv in range(3):
                            u, v = i + du - 1, j + dv - 1
                            if 0 <= u < h and 0 <= v < wd:
                                acc += float(w[o, ci, du, dv]) * float(x[ci, u, v])
                out[o, i, j] = acc
    return out


def naive_bilinear(x, h_out, w_out):
    """Per-output-pixel half-pixel-center interpolation."""
    c, h, w = x.shape
    out = np.zeros((c, h_out, w_out), dtype=np.float64)
    for i in range(h_out):
        sy = min(max((i + 0.5) * h / h_out - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy)); y1 = min(y0 + 1, h - 1); fy = sy - y0
        for j in range(w_out):
            sx = min(max((j + 0.5) * w / w_out - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx)); x1 = min(x0 + 1, w - 1); fx = sx - x0
            for ch in range(c):
                top = (1 - fx) * x[ch, y0, x0] + fx * x[ch, y0, x1]
                bot = (1 - fx) * x[ch, y1, x0] + fx * x[ch, y1, x1]
                out[ch, i, j] = (1 - fy) * top + fy * bot
    return out


def naive_semantic_map(scores, mask_logits, class_ids):
    """Per-pixel score table with smallest-class-id tie-break."""
    k, n = scores.shape
    _, h, w = mask_logits.shape
    labels = np.zeros((h, w), dtype=np.int64)
    for i in range(h):
        for j in range(w):
            best_score, best_id = None, None
            for col in range(n):
                s = 0.0
                for q in range(k):
                    s += scores[q, col] / (1.0 + math.exp(-float(mask_logits[q, i, j])))
                cid = class_ids[col]
                if (best_score is None or s > best_score
                        or (s == best_score and cid < best_id)):
                    best_score, best_id = s, cid
            labels[i, j] = best_id
    return labels


def dyadic_matrix(rng, k, t, denom=64, hi=4096):
    """Random costs that are exact dyadic rationals: order-free f64 sums."""
    return rng.integers(0, hi, size=(k, t)).astype(np.float64) / denom


def _unit_rows(x):
    """Rows divided by their norms; an all-zero row stays zero. Every row is
    first scaled by the power of two that brings its largest entry into
    [0.5, 1), so no square underflows or overflows at any scale."""
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x), axis=1, keepdims=True))[1])
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)


def fixed_order_dot(x, y):
    """``x @ y`` summed one channel at a time in channel order: no BLAS
    rounding, the sum ``kmeans`` defines its picks by."""
    d = x[:, :1] * y[0]
    for q in range(1, x.shape[1]):
        d = d + x[:, q:q + 1] * y[q]
    return d


def naive_lloyd(feats, seeds, iters, tol, dot=np.matmul):
    """Unblocked spherical Lloyd: the whole (pixels x centroids) score
    matrix per step.

    Returns (assignments (H, W) int32, centroids (k, C) f32, objective
    trace), with unused centroids dropped and ids compacted. ``dot(x,
    cents.T)`` gives the scores: a BLAS product unless another is passed.
    """
    c, h, w = feats.shape
    x = _unit_rows(np.asarray(feats, dtype=np.float64).reshape(c, h * w).T)
    cents = _unit_rows(np.asarray(seeds, dtype=np.float64))
    trace = []
    for it in range(iters):
        sims = dot(x, cents.T)
        assign = np.argmax(sims, axis=1)
        obj = float(np.sum(1.0 - sims[np.arange(len(x)), assign]))
        trace.append(obj)
        if (it > 0 and trace[-2] - obj < tol) or it == iters - 1:
            break
        counts = np.bincount(assign, minlength=len(cents))
        sums = np.zeros_like(cents)
        np.add.at(sums, assign, x)
        cents = _unit_rows(sums[counts > 0] / counts[counts > 0, None])
    used = np.flatnonzero(np.bincount(assign, minlength=len(cents)))
    new_id = np.full(len(cents), -1, dtype=np.int64)
    new_id[used] = np.arange(len(used))
    return (new_id[assign].reshape(h, w).astype(np.int32),
            cents[used].astype(np.float32), trace)


def naive_fuse(assignments, centroids, tau):
    """Union-find over an ascending (i, j) pair scan, repeated to a fixpoint.
    The similarity is the whole fixed-order dot matrix: no BLAS rounding.

    Returns (masks (G, H, W) u8, centroids (G, C) f32), groups ordered by
    their smallest original cluster id.
    """
    k = len(centroids)
    counts = np.bincount(np.asarray(assignments).ravel(), minlength=k).astype(np.float64)
    base = np.asarray(centroids, dtype=np.float64)
    groups = [[i] for i in range(k)]
    vecs = [counts[i] * base[i] for i in range(k)]
    weights = [counts[i] for i in range(k)]

    def find(parent, i):
        while parent[i] != i:
            i = parent[i]
        return i

    while len(groups) > 1:
        cents = _unit_rows(np.array([v / max(wt, 1.0) for v, wt in zip(vecs, weights)]))
        sim = fixed_order_dot(cents, cents.T)
        parent = list(range(len(groups)))
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if sim[i, j] >= tau:
                    ri, rj = find(parent, i), find(parent, j)
                    parent[max(ri, rj)] = min(ri, rj)
                    merged = True
        if not merged:
            break
        buckets = {}
        for g in range(len(groups)):
            buckets.setdefault(find(parent, g), []).append(g)
        members = sorted(buckets.values(), key=lambda ms: min(min(groups[m]) for m in ms))
        groups = [sorted(sum((groups[m] for m in ms), [])) for ms in members]
        vecs = [sum(vecs[m] for m in ms) for ms in members]
        weights = [sum(weights[m] for m in ms) for ms in members]

    masks = np.zeros((len(groups), *np.shape(assignments)), dtype=np.uint8)
    cents_out = np.zeros((len(groups), base.shape[1]), dtype=np.float64)
    for g in range(len(groups)):
        masks[g] = np.isin(assignments, groups[g])
        mean = np.asarray(vecs[g]) / max(weights[g], 1.0)
        norm = np.linalg.norm(mean)
        cents_out[g] = mean / norm if norm else mean
    return masks, cents_out.astype(np.float32)


def naive_restrict(masks, centroids, region, min_area=16):
    """Clip each of the (G, H, W) ``masks`` to the nonzero ``region`` and
    drop those with fewer than ``min_area`` pixels left.

    Returns (masks (U, H, W) u8, centroids (U, C) f32) of the kept groups,
    in group order.
    """
    clipped = np.logical_and(masks, region)
    keep = clipped.sum(axis=(1, 2)) >= min_area
    return clipped[keep].view(np.uint8), np.asarray(centroids, dtype=np.float32)[keep]


def naive_grad_check(arrays, value_and_grads, step=1e-3):
    """Central differences where every perturbed evaluation runs the full
    value-and-gradients closure and keeps only the value; worst relative
    error over the arrays the closure differentiates."""
    _, analytic = value_and_grads(arrays)
    worst = 0.0
    for name, ana in analytic.items():
        flat = arrays[name].reshape(-1)
        ana_flat = np.asarray(ana, dtype=np.float64).reshape(-1)
        num = np.zeros_like(ana_flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = value_and_grads(arrays)[0]
            flat[i] = orig - step
            fm = value_and_grads(arrays)[0]
            flat[i] = orig
            num[i] = (fp - fm) / (2.0 * step)
        err = (np.linalg.norm(num - ana_flat)
               / max(np.linalg.norm(num), np.linalg.norm(ana_flat), 1e-8))
        worst = max(worst, err)
    return worst

"""Cost and loss kernels for matching, training, and verification.

All kernels compute in float64. Probabilities are clamped to
[1e-7, 1 - 1e-7] before any log. Overlap losses (dice, iou) share a +1.0
smoothing term in numerator and denominator so empty masks stay finite.
Focal, BCE and dice have one implementation each, a (K, T) term of K
queries against T targets: ``match_cost_matrix`` sums them weighted, once
per run (``matched_loss`` reads each pair's cost from the match),
``focal_map`` reads the per-pixel focal parts, and ``focal_loss``,
``bce_mask`` and ``dice_loss`` are its 1 x 1 case.

The scalar loss kernels (dice, iou, BCE, focal, cross entropy, cosine)
take leading batch axes on their first argument, the one a gradient is
taken of: the prediction's trailing axes must have the target's shape.
A batched call returns one float64 per item, each bitwise the unbatched
call, which returns a Python float. Each item's product is its own
``(1, P) @ (P, 1)`` dot and each reduction runs over the item's own
C-contiguous axis, so how many items share a call never moves a bit.
Each differentiable kernel has a ``*_grad`` twin taking one item and
returning the plain kernel's value and its gradient w.r.t. the kernel's
direct input, for the finite-difference harness in :mod:`smseg.mfe`.
"""

import math
from dataclasses import dataclass

import numpy as np

PROB_EPS = 1e-7
SMOOTH_EPS = 1.0


@dataclass(frozen=True)
class CostWeights:
    w_cls: float = 1.0
    w_bce: float = 1.0
    w_dice: float = 1.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    use_iou_in_loss: bool = True

    def __post_init__(self):
        if min(self.w_cls, self.w_bce, self.w_dice) < 0:
            raise ValueError("cost weights must be >= 0")
        if not 0.0 < self.focal_alpha < 1.0:
            raise ValueError("focal_alpha must lie in (0, 1)")
        if self.focal_gamma < 0:
            raise ValueError("focal_gamma must be >= 0")


def _clamp(p):
    return np.minimum(np.maximum(np.asarray(p, dtype=np.float64), PROB_EPS), 1.0 - PROB_EPS)


def sigmoid(x):
    """1 / (1 + exp(-x)) in float64; exp's overflow below -709 gives the limit 0.

    An array is worked in one float64 buffer, with the same IEEE operations
    and so the same bits as the plain formula.
    """
    with np.errstate(over="ignore"):
        if np.ndim(x) == 0:
            return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))
        t = np.negative(x, dtype=np.float64)
        np.exp(t, out=t)
        t += 1.0
        return np.reciprocal(t, out=t)


def normalize_rows(x, out=None):
    """Rows divided by their norms at any scale; an all-zero row stays zero.

    A row whose norm is zero or outside [2^-500, 2^500] is first scaled by
    an exact power of two, so its squares neither underflow nor overflow;
    every other row keeps the bits of the plain ``x / |x|``. ``out`` may be
    ``x`` itself, which then normalizes in place.
    """
    with np.errstate(over="ignore"):                 # such norms are redone below
        norms = np.linalg.norm(x, axis=1, keepdims=True)
    far = ~((norms >= 2.0 ** -500) & (norms <= 2.0 ** 500))[:, 0]
    rows = x[far]                                    # a copy, taken before ``out`` is written
    out = np.divide(x, np.where(norms > 0, norms, 1.0), out=out)
    if len(rows):
        rows = np.ldexp(rows, -np.frexp(np.max(np.abs(rows), axis=1, keepdims=True))[1])
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        out[far] = rows / np.where(norms > 0, norms, 1.0)
    return out


def class_similarity(v, matrix):
    """sigmoid(V . E^T): per-query activation against every row of the
    (N, C) class ``matrix``."""
    v = np.asarray(v, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if v.shape[-1] != matrix.shape[1]:
        raise ValueError(f"query width {v.shape[-1]} != embedding width {matrix.shape[1]}")
    return sigmoid(v @ matrix.T)


def _rows(a, shape):
    """``a`` as C-contiguous float64 rows (..., 1, P), one per item of the
    trailing ``shape``; ValueError naming both shapes when it does not end
    in ``shape``."""
    a = np.asarray(a, dtype=np.float64)
    lead = a.ndim - len(shape)
    if lead < 0 or a.shape[lead:] != tuple(shape):
        raise ValueError(f"prediction shape {a.shape} does not end in "
                         f"the target shape {tuple(shape)}")
    return np.ascontiguousarray(a).reshape(*a.shape[:lead], 1, math.prod(shape))


def _out(x):
    """One float64 per item; a Python float for an unbatched call."""
    return float(x) if np.ndim(x) == 0 else x


def _one(value):
    """A ``*_grad`` twin's value, which must be of one item."""
    if not isinstance(value, float):
        raise ValueError(f"a *_grad kernel takes one item, not a batch of {np.shape(value)}")
    return value


def _focal_parts(p, alpha, gamma):
    """Per-channel focal terms of clamped ``p``: (as a negative, as the target)."""
    p = _clamp(p)
    return (-(1.0 - alpha) * p**gamma * np.log1p(-p),
            -alpha * (1.0 - p)**gamma * np.log(p))


def _focal_term(s, ids, alpha, gamma):
    """(..., K, T) focal: all of row k's channels negatives but class ids[t]."""
    neg, pos = _focal_parts(s, alpha, gamma)
    ids = np.asarray(ids)
    return neg.sum(axis=-1)[..., :, None] - neg[..., ids] + pos[..., ids]


def _bce_term(x, y):
    """(..., K, T) mean BCE of logit rows x (..., K, P) on mask rows y (T, P)."""
    softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return (softplus.sum(axis=-1) / x.shape[-1])[..., :, None] - (x @ y.T) / x.shape[-1]


def _dice_term(m, y, eps=SMOOTH_EPS):
    """(..., K, T) dice of probability rows m (..., K, P) on mask rows y (T, P)."""
    return 1.0 - (2.0 * (m @ y.T) + eps) / (
        m.sum(axis=-1)[..., :, None] + y.sum(axis=-1)[None, :] + eps)


def dice_loss(m, y, eps=SMOOTH_EPS):
    """1 - (2*sum(m*y) + eps) / (sum(m) + sum(y) + eps)."""
    shape = np.shape(y)
    return _out(_dice_term(_rows(m, shape), _rows(y, shape), eps)[..., 0, 0])


def dice_loss_grad(m, y, eps=SMOOTH_EPS):
    value = _one(dice_loss(m, y, eps))
    m = np.asarray(m, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    num = 2.0 * float(np.sum(m * y)) + eps
    den = float(np.sum(m)) + float(np.sum(y)) + eps
    grad = -(2.0 * y * den - num) / den**2
    return value, grad


def iou_loss(m, y, eps=SMOOTH_EPS):
    """1 - (sum(min(m,y)) + eps) / (sum(max(m,y)) + eps), soft IoU."""
    shape = np.shape(y)
    m, y = _rows(m, shape)[..., 0, :], _rows(y, shape)[0]
    num = np.sum(np.minimum(m, y), axis=-1) + eps
    den = np.sum(np.maximum(m, y), axis=-1) + eps
    return _out(1.0 - num / den)


def iou_loss_grad(m, y, eps=SMOOTH_EPS):
    # subgradient at m == y assigns the tie to the max branch
    value = _one(iou_loss(m, y, eps))
    m = np.asarray(m, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    num = float(np.sum(np.minimum(m, y))) + eps
    den = float(np.sum(np.maximum(m, y))) + eps
    dnum = (m < y).astype(np.float64)
    dden = (m >= y).astype(np.float64)
    grad = -(dnum * den - num * dden) / den**2
    return value, grad


def bce_mask(logits, y):
    """Mean per-pixel binary cross entropy, computed from logits stably."""
    shape = np.shape(y)
    return _out(_bce_term(_rows(logits, shape), _rows(y, shape))[..., 0, 0])


def bce_mask_grad(logits, y):
    value = _one(bce_mask(logits, y))
    x = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return value, (sigmoid(x) - y) / x.size


def focal_loss(p, target, alpha=0.25, gamma=2.0):
    """Sigmoid focal loss over independent class channels, summed.

    ``p`` is a probability vector over the joint classes, or a batch of
    them along leading axes. The target channel contributes
    -alpha*(1-p)^gamma*log(p); every other channel contributes
    -(1-alpha)*p^gamma*log(1-p). ``target=None`` means "no object": all
    channels are negatives.
    """
    p = _rows(p, np.shape(p)[-1:])
    if target is None:
        return _out(_focal_parts(p, alpha, gamma)[0].sum(axis=-1)[..., 0])
    if not 0 <= target < p.shape[-1]:
        raise ValueError(f"target {target} outside {p.shape[-1]} channels")
    return _out(_focal_term(p, [target], alpha, gamma)[..., 0, 0])


def focal_loss_grad(p, target, alpha=0.25, gamma=2.0):
    value = _one(focal_loss(p, target, alpha, gamma))
    p = _clamp(p)                    # clamped, so p**(gamma - 1) stays finite at gamma 0
    grad = -(1.0 - alpha) * (gamma * p**(gamma - 1.0) * np.log1p(-p)
                             - p**gamma / (1.0 - p))
    if target is not None:
        pt = p[target]
        grad[target] = (alpha * gamma * (1.0 - pt)**(gamma - 1.0) * math.log(pt)
                        - alpha * (1.0 - pt)**gamma / pt)
    return value, grad


def cross_entropy_map(logits, labels, ignore_id=255):
    """Mean softmax cross entropy over pixels whose label is not ignored.

    ``logits`` is (..., N, *labels.shape): N class logits per pixel, for
    each item of the leading batch axes.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    lead = logits.ndim - labels.ndim - 1
    if lead < 0 or logits.shape[lead + 1:] != labels.shape:
        raise ValueError(f"logits shape {logits.shape} does not end in "
                         f"(classes, *{labels.shape}) of the labels")
    batch, n = logits.shape[:lead], logits.shape[lead]
    valid = (labels != ignore_id).ravel()
    picked = labels.ravel()[valid]
    if picked.size and (picked.min() < 0 or picked.max() >= n):
        raise ValueError(f"labels outside [0, {n})")
    if not picked.size:
        return _out(np.zeros(batch))
    # (..., V, N): each valid pixel's N logits contiguous, so its sum over
    # classes runs over its own row, as an unbatched (N, V) gather lays it out
    cols = np.ascontiguousarray(np.swapaxes(logits.reshape(*batch, n, labels.size), -1, -2)
                                [..., valid, :])
    mx = cols.max(axis=-1, keepdims=True)
    lse = mx[..., 0] + np.log(np.sum(np.exp(cols - mx), axis=-1))
    # the gather can come out strided; each item's mean runs over its own row
    nll = np.ascontiguousarray(lse - cols[..., np.arange(picked.size), picked])
    return _out(np.mean(nll, axis=-1))


def cross_entropy_map_grad(logits, labels, ignore_id=255):
    value = _one(cross_entropy_map(logits, labels, ignore_id))
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = logits.shape[0]
    valid = (labels != ignore_id).ravel()
    count = int(valid.sum())
    grad = np.zeros_like(logits).reshape(n, -1)
    if count:
        cols = logits.reshape(n, -1)[:, valid]
        mx = cols.max(axis=0)
        ex = np.exp(cols - mx)
        soft = ex / ex.sum(axis=0)
        soft[labels.ravel()[valid], np.arange(count)] -= 1.0
        grad[:, valid] = soft / count
    return value, grad.reshape(logits.shape)


def focal_map(logits, labels, ignore_id=255, alpha=0.25, gamma=2.0):
    """Mean per-pixel sigmoid focal loss of a class-logit map."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = logits.shape[0]
    valid = (labels != ignore_id).ravel()
    if not valid.any():
        return 0.0
    p = sigmoid(logits.reshape(n, -1)[:, valid])
    lab = labels.ravel()[valid]
    if lab.min() < 0 or lab.max() >= n:
        raise ValueError(f"labels outside [0, {n})")
    neg, pos = _focal_parts(p, alpha, gamma)
    cols = np.arange(lab.size)
    return float(np.mean(neg.sum(axis=0) - neg[lab, cols] + pos[lab, cols]))


def _dot(a, b):
    """a . b over the last axis, one (1, C) @ (C, 1) BLAS dot per item."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def cosine_loss(v_rows, c_rows, pairs):
    """Mean of 1 - cos(v_rows[..., q, :], c_rows[t]) over the (q, t) pairs.

    ``v_rows`` is (..., Q, C): query rows, for each item of the leading
    batch axes; ``c_rows`` is (T, C). A norm is the square root of the
    row's dot with itself.
    """
    v_rows = np.ascontiguousarray(v_rows, dtype=np.float64)
    c_rows = np.ascontiguousarray(c_rows, dtype=np.float64)
    if v_rows.ndim < 2 or c_rows.ndim != 2 or v_rows.shape[-1] != c_rows.shape[1]:
        raise ValueError(f"query rows {v_rows.shape} and class rows {c_rows.shape} "
                         f"are not (..., Q, C) and (T, C)")
    total = np.zeros(v_rows.shape[:-2])
    for q, t in pairs:
        if not (0 <= q < v_rows.shape[-2] and 0 <= t < len(c_rows)):
            raise ValueError(f"pair ({q}, {t}) outside {v_rows.shape[-2]} query rows "
                             f"and {len(c_rows)} class rows")
        a, b = v_rows[..., q, :], c_rows[t]
        denom = np.sqrt(_dot(a, a)) * np.sqrt(_dot(b, b))
        # a zero row has cosine 0 with any row; rounding can leak past 1
        cos = np.divide(_dot(a, b), denom, out=np.zeros_like(denom), where=denom != 0)
        total = total + (1.0 - np.clip(cos, -1.0, 1.0))
    return _out(total / len(pairs) if pairs else total)


def cosine_loss_grad(v_rows, c_rows, pairs):
    value = _one(cosine_loss(v_rows, c_rows, pairs))
    v_rows = np.asarray(v_rows, dtype=np.float64)
    c_rows = np.asarray(c_rows, dtype=np.float64)
    grad = np.zeros_like(v_rows)
    for q, t in pairs:
        a, b = v_rows[q], c_rows[t]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        denom = na * nb
        if denom:                    # a zero row's cosine is constant 0
            cos = float(a @ b) / denom
            grad[q] += -(b / denom - cos * a / (na * na)) / len(pairs)
    return value, grad


def match_cost_matrix(s, m_logits, targets, weights):
    """(K, T) assignment costs: w_cls*focal + w_bce*bce + w_dice*dice of
    every query against every (joint class id, binary mask) target.

    Every target id must lie in the joint space of ``s``'s columns.
    """
    if not targets:
        raise ValueError("match_cost_matrix needs at least one target")
    s = np.asarray(s, dtype=np.float64)
    ids = [int(t[0]) for t in targets]
    for cid in ids:
        if not 0 <= cid < s.shape[1]:
            raise ValueError(f"class id {cid} outside joint space {s.shape[1]}")
    masks = np.stack([np.asarray(t[1], dtype=np.float64).ravel() for t in targets])
    flat = np.asarray(m_logits, dtype=np.float64).reshape(len(s), -1)
    return (weights.w_cls * _focal_term(s, ids, weights.focal_alpha, weights.focal_gamma)
            + weights.w_bce * _bce_term(flat, masks)
            + weights.w_dice * _dice_term(sigmoid(flat), masks))


def matched_loss(assignment, s, m_logits, targets, weights):
    """Post-assignment training loss over all queries.

    Matched pairs average their ``Pair.cost``, which must be the pair's
    ``match_cost_matrix`` entry under the same ``weights``, plus w_dice*iou
    when ``use_iou_in_loss`` (the iou term shares the mask-loss weight).
    Unmatched queries average the all-negative ("no object") focal term.
    Either mean is 0 over an empty set.
    """
    s = np.asarray(s, dtype=np.float64)
    loss, pairs = 0.0, assignment.pairs
    for pair in pairs:
        if not (0 <= pair.query < len(s) and 0 <= pair.target < len(targets)):
            raise ValueError(f"assignment pair ({pair.query}, {pair.target}) out of range")
        if not isinstance(pair.cost, (int, float)) or not math.isfinite(pair.cost):
            raise ValueError(f"assignment pair ({pair.query}, {pair.target}) has cost "
                             f"{pair.cost!r}, not a finite number")
        loss += pair.cost
        if weights.use_iou_in_loss:
            loss += weights.w_dice * iou_loss(sigmoid(m_logits[pair.query]),
                                              targets[pair.target][1])
    if pairs:
        loss /= len(pairs)
    unmatched = assignment.unmatched_queries
    if not all(0 <= q < len(s) for q in unmatched):
        raise ValueError(f"unmatched queries {unmatched} outside [0, {len(s)})")
    if unmatched:
        neg, _ = _focal_parts(s[unmatched], weights.focal_alpha, weights.focal_gamma)
        loss += weights.w_cls * float(np.mean(neg.sum(axis=1)))
    return loss

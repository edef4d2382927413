"""Cost and loss kernels for matching, training, and verification.

All kernels compute in float64 and return python floats. Probabilities are
clamped to [1e-7, 1 - 1e-7] before any log. Overlap losses (dice, iou)
share a +1.0 smoothing term in numerator and denominator so empty masks
stay finite. Focal, BCE and dice have one implementation each, a (K, T)
term of K queries against T targets: ``match_cost_matrix`` and
``matched_loss`` read it whole, ``focal_map`` reads the per-pixel focal
parts, and ``focal_loss``, ``bce_mask`` and ``dice_loss`` are its 1 x 1
case. Each differentiable kernel has a ``*_grad`` twin returning the plain
kernel's value and its gradient w.r.t. the kernel's direct input, for the
finite-difference harness in :mod:`smseg.mfe`.
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


@dataclass
class CostMatrix:
    values: np.ndarray           # (K, T) f64
    row_group: str               # "seen" | "candidate"
    target_ids: tuple            # joint-class index per column


def _clamp(p):
    return np.minimum(np.maximum(np.asarray(p, dtype=np.float64), PROB_EPS), 1.0 - PROB_EPS)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def class_similarity(v, e):
    """sigmoid(V . E^T): per-query activation against every joint class."""
    matrix = e.matrix if hasattr(e, "matrix") else e
    v = np.asarray(v, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if v.shape[1] != matrix.shape[1]:
        raise ValueError(f"query width {v.shape[1]} != embedding width {matrix.shape[1]}")
    return sigmoid(v @ matrix.T)


def _row(a):
    return np.asarray(a, dtype=np.float64).reshape(1, -1)


def _focal_parts(p, alpha, gamma):
    """Per-channel focal terms of clamped ``p``: (as a negative, as the target)."""
    p = _clamp(p)
    return (-(1.0 - alpha) * p**gamma * np.log1p(-p),
            -alpha * (1.0 - p)**gamma * np.log(p))


def _focal_term(s, ids, alpha, gamma):
    """(K, T) focal: all of row k's channels negatives but class ids[t]."""
    neg, pos = _focal_parts(s, alpha, gamma)
    ids = np.asarray(ids)
    return neg.sum(axis=1)[:, None] - neg[:, ids] + pos[:, ids]


def _bce_term(x, y):
    """(K, T) mean BCE of logit rows x (K, P) on mask rows y (T, P)."""
    softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return (softplus.sum(axis=1) / x.shape[1])[:, None] - (x @ y.T) / x.shape[1]


def _dice_term(m, y, eps=SMOOTH_EPS):
    """(K, T) dice of probability rows m (K, P) on mask rows y (T, P)."""
    return 1.0 - (2.0 * (m @ y.T) + eps) / (
        m.sum(axis=1)[:, None] + y.sum(axis=1)[None, :] + eps)


def _weighted_costs(s, m_logits, targets, weights):
    """(K, T) w_cls*focal + w_bce*bce + w_dice*dice of every query against
    every (joint class id, mask) target."""
    ids = [int(t[0]) for t in targets]
    for cid in ids:
        if not 0 <= cid < s.shape[1]:
            raise ValueError(f"class id {cid} outside joint space {s.shape[1]}")
    masks = np.stack([np.asarray(t[1], dtype=np.float64).ravel() for t in targets])
    flat = np.asarray(m_logits, dtype=np.float64).reshape(len(s), -1)
    return (weights.w_cls * _focal_term(s, ids, weights.focal_alpha, weights.focal_gamma)
            + weights.w_bce * _bce_term(flat, masks)
            + weights.w_dice * _dice_term(sigmoid(flat), masks))


def dice_loss(m, y, eps=SMOOTH_EPS):
    """1 - (2*sum(m*y) + eps) / (sum(m) + sum(y) + eps)."""
    return float(_dice_term(_row(m), _row(y), eps)[0, 0])


def dice_loss_grad(m, y, eps=SMOOTH_EPS):
    m = np.asarray(m, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    num = 2.0 * float(np.sum(m * y)) + eps
    den = float(np.sum(m)) + float(np.sum(y)) + eps
    grad = -(2.0 * y * den - num) / den**2
    return dice_loss(m, y, eps), grad


def iou_loss(m, y, eps=SMOOTH_EPS):
    """1 - (sum(min(m,y)) + eps) / (sum(max(m,y)) + eps), soft IoU."""
    m = np.asarray(m, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    num = float(np.sum(np.minimum(m, y))) + eps
    den = float(np.sum(np.maximum(m, y))) + eps
    return 1.0 - num / den


def iou_loss_grad(m, y, eps=SMOOTH_EPS):
    # subgradient at m == y assigns the tie to the max branch
    m = np.asarray(m, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    num = float(np.sum(np.minimum(m, y))) + eps
    den = float(np.sum(np.maximum(m, y))) + eps
    dnum = (m < y).astype(np.float64)
    dden = (m >= y).astype(np.float64)
    grad = -(dnum * den - num * dden) / den**2
    return iou_loss(m, y, eps), grad


def bce_mask(logits, y):
    """Mean per-pixel binary cross entropy, computed from logits stably."""
    return float(_bce_term(_row(logits), _row(y))[0, 0])


def bce_mask_grad(logits, y):
    x = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return bce_mask(x, y), (sigmoid(x) - y) / x.size


def focal_loss(p, target, alpha=0.25, gamma=2.0):
    """Sigmoid focal loss over independent class channels, summed.

    ``p`` is a probability vector over the joint classes. The target
    channel contributes -alpha*(1-p)^gamma*log(p); every other channel
    contributes -(1-alpha)*p^gamma*log(1-p). ``target=None`` means
    "no object": all channels are negatives.
    """
    p = _row(p)
    if target is None:
        return float(_focal_parts(p, alpha, gamma)[0].sum())
    if not 0 <= target < p.shape[1]:
        raise ValueError(f"target {target} outside {p.shape[1]} channels")
    return float(_focal_term(p, [target], alpha, gamma)[0, 0])


def focal_loss_grad(p, target, alpha=0.25, gamma=2.0):
    p = _clamp(p)                    # clamped, so p**(gamma - 1) stays finite at gamma 0
    grad = -(1.0 - alpha) * (gamma * p**(gamma - 1.0) * np.log1p(-p)
                             - p**gamma / (1.0 - p))
    if target is not None:
        pt = p[target]
        grad[target] = (alpha * gamma * (1.0 - pt)**(gamma - 1.0) * math.log(pt)
                        - alpha * (1.0 - pt)**gamma / pt)
    return focal_loss(p, target, alpha, gamma), grad


def cross_entropy_map(logits, labels, ignore_id=255):
    """Mean softmax cross entropy over pixels whose label is not ignored."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = logits.shape[0]
    valid = labels != ignore_id
    picked = labels[valid]
    if picked.size and (picked.min() < 0 or picked.max() >= n):
        raise ValueError(f"labels outside [0, {n})")
    if not picked.size:
        return 0.0
    cols = logits.reshape(n, -1)[:, valid.ravel()]
    mx = cols.max(axis=0)
    lse = mx + np.log(np.sum(np.exp(cols - mx), axis=0))
    return float(np.mean(lse - cols[picked, np.arange(picked.size)]))


def cross_entropy_map_grad(logits, labels, ignore_id=255):
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
    return cross_entropy_map(logits, labels, ignore_id), grad.reshape(logits.shape)


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


def cosine_loss(v_rows, c_rows, pairs):
    """Mean of 1 - cos(v_rows[q], c_rows[t]) over candidate pairs."""
    if not pairs:
        return 0.0
    v_rows = np.asarray(v_rows, dtype=np.float64)
    c_rows = np.asarray(c_rows, dtype=np.float64)
    total = 0.0
    for q, t in pairs:
        if not (0 <= q < len(v_rows) and 0 <= t < len(c_rows)):
            raise ValueError(f"pair ({q}, {t}) outside the candidate group")
        a, b = v_rows[q], c_rows[t]
        denom = max(np.linalg.norm(a) * np.linalg.norm(b), 1e-12)
        cos = min(max(float(a @ b) / denom, -1.0), 1.0)   # rounding can leak past 1
        total += 1.0 - cos
    return float(total) / len(pairs)


def cosine_loss_grad(v_rows, c_rows, pairs):
    v_rows = np.asarray(v_rows, dtype=np.float64)
    c_rows = np.asarray(c_rows, dtype=np.float64)
    grad = np.zeros_like(v_rows)
    for q, t in pairs:
        a, b = v_rows[q], c_rows[t]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        denom = max(na * nb, 1e-12)
        cos = float(a @ b) / denom
        grad[q] += -(b / denom - cos * a / max(na * na, 1e-12)) / len(pairs)
    return cosine_loss(v_rows, c_rows, pairs), grad


def match_cost_matrix(s, m_logits, targets, group, weights, seen_count):
    """Assignment costs: w_cls*focal + w_bce*bce + w_dice*dice per (k, t).

    ``targets`` is a list of (joint class id, binary mask). Seen-group
    target ids must lie below ``seen_count``, candidate-group ids at or
    above it; the two groups never share a matrix.
    """
    if group not in ("seen", "candidate"):
        raise ValueError(f"unknown query group {group!r}")
    if not targets:
        raise ValueError("match_cost_matrix needs at least one target")
    s = np.asarray(s, dtype=np.float64)
    if len(targets) > len(s):
        raise ValueError(f"{len(targets)} targets exceed {len(s)} queries in group {group!r}")
    ids = tuple(int(t[0]) for t in targets)
    for cid in ids:
        if group == "seen" and cid >= seen_count:
            raise ValueError(f"seen group given candidate class id {cid}")
        if group == "candidate" and cid < seen_count:
            raise ValueError(f"candidate group given seen class id {cid}")
    return CostMatrix(values=_weighted_costs(s, m_logits, targets, weights),
                      row_group=group, target_ids=ids)


def matched_loss(assignment, s, m_logits, targets, weights):
    """Post-assignment training loss over all queries.

    Matched pairs average their (query, target) entries of the same
    w_cls*focal + w_bce*bce + w_dice*dice costs that ``match_cost_matrix``
    builds, plus w_dice*iou when ``use_iou_in_loss`` (the iou term shares
    the mask-loss weight). Unmatched queries average the all-negative
    ("no object") focal term. Either mean is 0 over an empty set.
    """
    s = np.asarray(s, dtype=np.float64)
    loss = 0.0
    pairs = assignment.pairs
    if pairs:
        for pair in pairs:
            if not (0 <= pair.query < len(s) and 0 <= pair.target < len(targets)):
                raise ValueError(f"assignment pair ({pair.query}, {pair.target}) out of range")
        costs = _weighted_costs(s, m_logits, targets, weights)
        matched_total = 0.0
        for pair in pairs:
            matched_total += costs[pair.query, pair.target]
            if weights.use_iou_in_loss:
                matched_total += weights.w_dice * iou_loss(
                    sigmoid(m_logits[pair.query]), targets[pair.target][1])
        loss = float(matched_total) / len(pairs)

    unmatched = assignment.unmatched_queries
    if unmatched:
        neg, _ = _focal_parts(s[unmatched], weights.focal_alpha, weights.focal_gamma)
        loss += weights.w_cls * float(np.mean(neg.sum(axis=1)))
    return loss


def sm_loss(matched, cos):
    """Split-matching total: matched-assignment loss plus cosine term."""
    return float(matched) + float(cos)


def mfe_loss(ce, focal, global_term=None):
    """Fusion-block supervision: cross entropy + focal (+ optional hook)."""
    return float(ce) + float(focal) + (0.0 if global_term is None else float(global_term))


def total_loss(sm, mfe):
    return float(sm) + float(mfe)

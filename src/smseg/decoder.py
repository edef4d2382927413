"""Minimal cross-attention decoder, random-query injection, map assembly.

The decoder is deliberately the smallest thing that turns a query bank
plus a dense feature map into per-query features and mask logits: one or
more residual cross-attention layers (queries attend over flattened
pixels), then mask logits as the dot product of each query feature with
each pixel feature. It is plumbing for exercising group-split matching
and random-query inference end to end, not a high-fidelity segmentation
decoder.

Queries are one (K, C) float32 matrix: seen-class rows, then candidate
rows, then, at inference, random rows. Each query attends over the pixels
on its own, so the decoder never needs the group boundaries; the caller
keeps the seen-row count for matching.

Random queries are appended at inference only, drawn from the library's
counter-based stream (:mod:`smseg.rng`) so two runs with the same seed
produce bitwise identical rows. For seed 0, width >= 8 and the default
sigma 0.02, the first eight appended values are the frozen contract
vector in ``RQ_SEED0_FIRST8``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .clustering import _BLOCK_BYTES, _blocks
from .embeddings import check_class_ids
from .losses import sigmoid

DEFAULT_RANDOM_QUERIES = 50
DEFAULT_RQ_SIGMA = 0.02

# First 8 values of sigma * gaussians(seed=0) at sigma = 0.02; frozen so any
# reimplementation of the stream can be checked against a constant.
RQ_SEED0_FIRST8 = np.array([
    -3.7678167e-02, 1.7290138e-02, 4.5521585e-03, -8.422537e-04,
    -4.428758e-03, 8.386657e-03, 1.6683709e-03, -1.2248142e-02],
    dtype=np.float32)


@dataclass
class DecoderParams:
    wq: np.ndarray                   # (C, C)
    wk: np.ndarray
    wv: np.ndarray
    layers: int = 1

    def __post_init__(self):
        c = self.wq.shape[0]
        for name in ("wq", "wk", "wv"):
            if getattr(self, name).shape != (c, c):
                raise ValueError(f"{name} must be square ({c}, {c})")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")

    @classmethod
    def zeros(cls, width, layers=1):
        """Identity decoder: V = Q exactly (residual path only)."""
        z = np.zeros((width, width), dtype=np.float32)
        return cls(wq=z, wk=z.copy(), wv=z.copy(), layers=layers)

    @classmethod
    def random(cls, width, seed=0, scale=0.1, layers=1):
        g = rng.gaussians(seed, 3 * width * width).astype(np.float32) * scale
        mats = g.reshape(3, width, width)
        return cls(wq=mats[0], wk=mats[1], wv=mats[2], layers=layers)


@dataclass
class Predictions:
    """Per-query features and mask logits, one row per query."""

    v: np.ndarray                    # (K, C)
    m: np.ndarray                    # (K, H, W)

    def __post_init__(self):
        if not (np.isfinite(self.v).all() and np.isfinite(self.m).all()):
            raise ValueError("predictions contain non-finite values")


def _softmax_rows(x):
    """Row softmax of ``x`` in place: exp(x - max) / sum, the same IEEE
    operations and so the same bits as out of place."""
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def decode(queries, feats, params):
    """Residual cross-attention over pixels, then dot-product mask logits.

    Per layer: A = softmax((Q Wq)(F' Wk)^T / sqrt(C)) over flattened
    pixels F', then Q <- Q + A (F' Wv). Afterwards V = Q and
    M[k, h, w] = V[k] . feats[:, h, w]. Queries and decoder weights must
    be as wide as ``feats`` has channels (ValueError otherwise).

    Memory: a layer's (K, P) attention logits are scaled and softmaxed in
    their one buffer, which is freed before the (K, P) mask logits are
    made. Beyond its outputs, decode holds that one (K, P) array and the
    (P, C) key and value products.
    """
    feats = np.asarray(feats)
    c, h, w = feats.shape
    q = np.asarray(queries, dtype=np.float32)
    if q.ndim != 2 or q.shape[1] != c:
        raise ValueError(f"queries must be (K, {c}) for {c} feature channels, "
                         f"got shape {q.shape}")
    if len(params.wq) != c:
        raise ValueError(f"decoder width {len(params.wq)} != {c} feature channels")
    pix = feats.reshape(c, h * w).T                      # (P, C)
    scale = 1.0 / np.sqrt(np.float32(c))
    for _ in range(params.layers):
        attn = (q @ params.wq) @ (pix @ params.wk).T
        attn *= scale
        q = q + _softmax_rows(attn) @ (pix @ params.wv)
        del attn
    m = (q @ pix.T).reshape(len(q), h, w)
    return Predictions(v=q, m=m)


def inject_random_queries(queries, k_r=DEFAULT_RANDOM_QUERIES, seed=0,
                          sigma=DEFAULT_RQ_SIGMA):
    """Append ``k_r`` rows of N(0, sigma^2) noise from the counter stream
    below the (K, C) ``queries``, whose rows keep their bits; ``k_r = 0``
    appends nothing."""
    if k_r < 0:
        raise ValueError("k_r must be >= 0")
    if np.ndim(queries) != 2:
        raise ValueError(f"queries must be a (K, C) matrix, got shape {np.shape(queries)}")
    width = queries.shape[1]
    rows = (sigma * rng.gaussians(seed, k_r * width)).astype(np.float32)
    return np.concatenate([queries, rows.reshape(k_r, width)])


def assemble_semantic_map(s, m, class_ids):
    """Mask-classification readout to a dense label map.

    score[c, h, w] = sum_k s[k, c] * sigmoid(m[k, h, w]); each pixel takes
    the argmax class, ties resolved toward the smallest dataset class id.
    Column j of ``s`` scores class ``class_ids[j]``. There must be at
    least one class id, and each must be nonnegative and fit int32
    (ValueError otherwise); the map is uint8 when every id is below 256.

    Memory: pixels are read ``_BLOCK_BYTES // (8 (K + 2 N))`` at a time
    (never one alone, which BLAS would sum as a vector), so the float64
    sigmoid of a block's K mask logits and its N class scores in two
    orders stay within the block budget at any H x W.
    """
    s = np.asarray(s, dtype=np.float64)
    m = np.asarray(m)
    ids = check_class_ids(class_ids)
    if not ids:
        raise ValueError("assemble_semantic_map needs at least one class id")
    if s.shape[1] != len(ids):
        raise ValueError(f"{s.shape[1]} score columns for {len(ids)} class ids")
    if s.shape[0] != m.shape[0]:
        raise ValueError("queries in scores and masks disagree")
    k, n = s.shape
    flat = m.reshape(k, math.prod(m.shape[1:]))
    order = np.argsort(ids, kind="stable")               # argmax in class-id order
    id_arr = np.array(ids)[order].astype(np.uint8 if max(ids) < 256 else np.int32)
    labels = np.empty(flat.shape[1], dtype=id_arr.dtype)
    for blk in _blocks(flat.shape[1], _BLOCK_BYTES // (8 * (k + 2 * n))):
        scores = np.tensordot(s, sigmoid(flat[:, blk]), axes=([0], [0]))   # (N, b)
        labels[blk] = id_arr[np.argmax(scores[order], axis=0)]
    return labels.reshape(m.shape[1:])

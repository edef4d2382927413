"""Multi-scale feature fusion: dense blocks, resize, residual merge.

A three-level feature pyramid (coarsest first) is folded into one map at
the finest resolution: refine level 0, upsample, add to refined level 1,
upsample, add to refined level 2. Each refinement is conv 3x3 -> group
norm -> ReLU. The block is exercised forward plus through analytic
gradients; ``grad_check`` compares those gradients against float64
central differences and is the acceptance mechanism for numerical
correctness, since no training loop lives here.

Forward ops preserve the input dtype (float32 in the pipeline, float64
under gradcheck) and use fixed reduction orders, so outputs are bitwise
reproducible.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .losses import (bce_mask, bce_mask_grad, class_similarity, cosine_loss,
                     cosine_loss_grad, cross_entropy_map, cross_entropy_map_grad,
                     dice_loss, dice_loss_grad, focal_loss, focal_loss_grad,
                     iou_loss, iou_loss_grad, sigmoid)

DEFAULT_TEMPERATURE = 0.07
_NORM_FLOOR = 1e-12


@dataclass
class DenseBlockParams:
    conv_w: np.ndarray               # (C, C, 3, 3)
    conv_b: np.ndarray               # (C,)
    gn_gamma: np.ndarray             # (C,)
    gn_beta: np.ndarray              # (C,)
    groups: int = 8
    eps: float = 1e-5

    def __post_init__(self):
        c = self.conv_w.shape[0]
        if self.conv_w.shape != (c, c, 3, 3):
            raise ValueError(f"conv weights must be (C, C, 3, 3), got {self.conv_w.shape}")
        for name in ("conv_b", "gn_gamma", "gn_beta"):
            if getattr(self, name).shape != (c,):
                raise ValueError(f"{name} must have shape ({c},)")
        if c % self.groups:
            raise ValueError(f"channels {c} not divisible by groups {self.groups}")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")

    @property
    def channels(self):
        return int(self.conv_w.shape[0])


@dataclass
class MfeParams:
    blocks: tuple                    # one DenseBlockParams per pyramid level

    def __post_init__(self):
        if len(self.blocks) != 3:
            raise ValueError("three dense blocks required, one per level")
        c = self.blocks[0].channels
        if any(b.channels != c for b in self.blocks):
            raise ValueError("dense blocks must share a channel count")


@dataclass
class FeaturePyramid:
    f0: np.ndarray                   # coarsest, (C, H2/r^2, W2/r^2)
    f1: np.ndarray
    f2: np.ndarray                   # finest, (C, H2, W2)
    scale: int = 2

    def __post_init__(self):
        c, h2, w2 = self.f2.shape
        r = self.scale
        for i, f in enumerate((self.f0, self.f1)):
            div = r ** (2 - i)
            if h2 % div or w2 % div:
                raise ValueError(f"finest {h2}x{w2} not divisible by scale^{2 - i}")
            if f.shape != (c, h2 // div, w2 // div):
                raise ValueError(
                    f"level {i} shape {f.shape} != expected {(c, h2 // div, w2 // div)}")


def conv2d_3x3(x, w, b):
    """Same-padded stride-1 cross correlation plus bias."""
    c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    if ci != c or (kh, kw) != (3, 3):
        raise ValueError(f"kernel {w.shape} incompatible with input {x.shape}")
    if b.shape != (co,):
        raise ValueError(f"bias shape {b.shape} != ({co},)")
    xpad = np.zeros((c, h + 2, wd + 2), dtype=x.dtype)
    xpad[:, 1:-1, 1:-1] = x
    out = np.zeros((co, h, wd), dtype=x.dtype)
    for du in range(3):
        for dv in range(3):
            out += np.einsum("oc,chw->ohw", w[:, :, du, dv],
                             xpad[:, du:du + h, dv:dv + wd])
    return out + b[:, None, None]


def conv2d_3x3_vjp(x, w, dout):
    c, h, wd = x.shape
    xpad = np.zeros((c, h + 2, wd + 2), dtype=x.dtype)
    xpad[:, 1:-1, 1:-1] = x
    db = dout.sum(axis=(1, 2))
    dw = np.zeros_like(w)
    dxpad = np.zeros_like(xpad)
    for du in range(3):
        for dv in range(3):
            patch = xpad[:, du:du + h, dv:dv + wd]
            dw[:, :, du, dv] = np.einsum("ohw,chw->oc", dout, patch)
            dxpad[:, du:du + h, dv:dv + wd] += np.einsum(
                "oc,ohw->chw", w[:, :, du, dv], dout)
    return dxpad[:, 1:-1, 1:-1], dw, db


def group_norm(x, gamma, beta, groups, eps=1e-5):
    """Normalize over (channels-in-group, H, W), then per-channel affine."""
    c, h, w = x.shape
    if c % groups:
        raise ValueError(f"channels {c} not divisible by groups {groups}")
    xg = x.reshape(groups, -1)
    mu = xg.mean(axis=1, keepdims=True)
    var = xg.var(axis=1, keepdims=True)
    xhat = ((xg - mu) / np.sqrt(var + eps)).reshape(c, h, w)
    return xhat * gamma[:, None, None] + beta[:, None, None]


def group_norm_vjp(x, gamma, groups, eps, dout):
    c, h, w = x.shape
    m = (c // groups) * h * w
    xg = x.reshape(groups, m)
    mu = xg.mean(axis=1, keepdims=True)
    var = xg.var(axis=1, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (xg - mu) * istd
    xhat_full = xhat.reshape(c, h, w)
    dgamma = (dout * xhat_full).sum(axis=(1, 2))
    dbeta = dout.sum(axis=(1, 2))
    dxhat = (dout * gamma[:, None, None]).reshape(groups, m)
    dx = istd / m * (m * dxhat
                     - dxhat.sum(axis=1, keepdims=True)
                     - xhat * (dxhat * xhat).sum(axis=1, keepdims=True))
    return dx.reshape(c, h, w), dgamma, dbeta


@functools.lru_cache(maxsize=64)
def _lin_weights(n_in, n_out):
    """1-D bilinear weights, half-pixel centers, rows sum to 1.

    Cached per size pair and returned read-only, since every caller
    shares the one array; callers ``astype`` a private copy.
    """
    if n_in == n_out:
        mat = np.eye(n_in, dtype=np.float64)
    else:
        src = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = src - lo
        mat = np.zeros((n_out, n_in), dtype=np.float64)
        np.add.at(mat, (np.arange(n_out), lo), 1.0 - frac)
        np.add.at(mat, (np.arange(n_out), hi), frac)
    mat.flags.writeable = False
    return mat


def bilinear_resize(x, h_out, w_out):
    """Separable bilinear resample with half-pixel center convention."""
    if h_out < 1 or w_out < 1:
        raise ValueError("target dims must be positive")
    _, h, w = x.shape
    wr = _lin_weights(h, h_out).astype(x.dtype)
    wc = _lin_weights(w, w_out).astype(x.dtype)
    tmp = np.tensordot(x, wc, axes=([2], [1]))          # (C, H, Wout)
    return np.tensordot(tmp, wr, axes=([1], [1])).transpose(0, 2, 1)


def bilinear_resize_vjp(dout, h_in, w_in):
    _, h_out, w_out = dout.shape
    wr = _lin_weights(h_in, h_out).astype(dout.dtype)
    wc = _lin_weights(w_in, w_out).astype(dout.dtype)
    tmp = np.tensordot(dout, wc, axes=([2], [0]))       # (C, Hout, Win)
    return np.tensordot(tmp, wr, axes=([1], [0])).transpose(0, 2, 1)


def relu(x):
    return np.maximum(x, 0)


def dense_block(x, p):
    """conv 3x3 -> group norm -> ReLU, shape preserving."""
    return _dense_block_cache(x, p)[0]


def _dense_block_cache(x, p):
    conv_out = conv2d_3x3(x, p.conv_w, p.conv_b)
    gn_out = group_norm(conv_out, p.gn_gamma, p.gn_beta, p.groups, p.eps)
    return relu(gn_out), (x, conv_out, gn_out)


def _dense_block_vjp(cache, p, dout):
    x, conv_out, gn_out = cache
    dgn = dout * (gn_out > 0)
    dconv, dgamma, dbeta = group_norm_vjp(conv_out, p.gn_gamma, p.groups, p.eps, dgn)
    dx, dw, db = conv2d_3x3_vjp(x, p.conv_w, dconv)
    return dx, {"conv_w": dw, "conv_b": db, "gn_gamma": dgamma, "gn_beta": dbeta}


def mfe_forward(pyr, params):
    """Residual coarse-to-fine fusion into a map shaped like the finest level."""
    return _mfe_forward_cache(pyr, params)[0]


def _mfe_forward_cache(pyr, params):
    y0, c0 = _dense_block_cache(pyr.f0, params.blocks[0])
    y1, c1 = _dense_block_cache(pyr.f1, params.blocks[1])
    a01 = y1 + bilinear_resize(y0, pyr.f1.shape[1], pyr.f1.shape[2])
    y2, c2 = _dense_block_cache(pyr.f2, params.blocks[2])
    fd = y2 + bilinear_resize(a01, pyr.f2.shape[1], pyr.f2.shape[2])
    return fd, (c0, c1, c2, pyr)


def _mfe_vjp(cache, params, dfd):
    c0, c1, c2, pyr = cache
    df2, dp2 = _dense_block_vjp(c2, params.blocks[2], dfd)
    da01 = bilinear_resize_vjp(dfd, pyr.f1.shape[1], pyr.f1.shape[2])
    df1, dp1 = _dense_block_vjp(c1, params.blocks[1], da01)
    da0 = bilinear_resize_vjp(da01, pyr.f0.shape[1], pyr.f0.shape[2])
    df0, dp0 = _dense_block_vjp(c0, params.blocks[0], da0)
    return (df0, df1, df2), (dp0, dp1, dp2)


def mfe_logits(fd, joint, temperature=DEFAULT_TEMPERATURE):
    """Per-pixel class logits: cos(F_d pixel, class row) / temperature."""
    matrix = joint.matrix if hasattr(joint, "matrix") else joint
    c, h, w = fd.shape
    if matrix.shape[1] != c:
        raise ValueError(f"embedding width {matrix.shape[1]} != channels {c}")
    flat = fd.reshape(c, h * w).astype(np.float64)
    flat = flat / np.maximum(np.linalg.norm(flat, axis=0, keepdims=True), _NORM_FLOOR)
    logits = (np.asarray(matrix, dtype=np.float64) @ flat) / temperature
    return logits.reshape(matrix.shape[0], h, w).astype(fd.dtype)


def init_mfe_params(channels, groups=8, seed=0, weight_scale=0.1):
    """Small random parameters for demos and pipelines, seed deterministic."""
    blocks = []
    for lvl in range(3):
        g = rng.gaussians(seed, channels * channels * 9 + channels,
                          start_pair=lvl * 100_000)
        blocks.append(DenseBlockParams(
            conv_w=(weight_scale * g[:channels * channels * 9]
                    ).reshape(channels, channels, 3, 3).astype(np.float32),
            conv_b=(weight_scale * g[channels * channels * 9:]).astype(np.float32),
            gn_gamma=np.ones(channels, dtype=np.float32),
            gn_beta=np.zeros(channels, dtype=np.float32),
            groups=groups,
        ))
    return MfeParams(blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# finite-difference verification harness
# ---------------------------------------------------------------------------

_KINK_MARGIN = 1e-2
# Group norm is scale invariant, so its curvature falls as the pre-norm
# variance rises; this floor keeps the central-difference truncation term
# h^2 * f'''/6 well below the 1e-4 relative bound at h = 1e-3.
_VAR_MARGIN = 0.4
# Composed-block fixtures are redrawn until every parameter array carries
# a macroscopic gradient; an all-but-dead array would pit pure difference
# noise against the 1e-8 denominator floor instead of testing anything.
_GRAD_NORM_FLOOR = 3e-3


def _grad_norms_clear(grads):
    return all(np.linalg.norm(np.asarray(g, dtype=np.float64)) >= _GRAD_NORM_FLOOR
               for g in grads.values())


def _draw(seed, stream, shape, lo=-1.0, hi=1.0):
    n = int(np.prod(shape))
    u = rng.uniform01(seed, n, start=stream * 1_000_003)
    return (lo + (hi - lo) * u).reshape(shape)


def _block_params_from(seed, stream, channels, groups):
    w = _draw(seed, stream, (channels, channels, 3, 3), -0.8, 0.8)
    b = _draw(seed, stream + 1, (channels,), -0.3, 0.3)
    gamma = _draw(seed, stream + 2, (channels,), 0.5, 1.5)
    beta = _draw(seed, stream + 3, (channels,), -0.3, 0.3)
    return {"conv_w": w, "conv_b": b, "gn_gamma": gamma, "gn_beta": beta,
            "groups": groups}


def _to_block(p):
    return DenseBlockParams(conv_w=p["conv_w"], conv_b=p["conv_b"],
                            gn_gamma=p["gn_gamma"], gn_beta=p["gn_beta"],
                            groups=p["groups"])


def _pyramid(arrays):
    return FeaturePyramid(f0=arrays["f0"], f1=arrays["f1"], f2=arrays["f2"])


def _block_of(a, prefix=""):
    return _to_block({**{k: a[prefix + k] for k in ("conv_w", "conv_b", "gn_gamma", "gn_beta")},
                      "groups": a["_groups"]})


def _mfe_params(arrays):
    return MfeParams(blocks=tuple(_block_of(arrays, f"b{i}_") for i in range(3)))


def _well_conditioned(x, blk):
    """Pre-ReLU values clear of zero and group variances clear of collapse.

    Both margins keep the central-difference error of the composed block
    well under the 1e-4 acceptance bound at step 1e-3: the first stops
    kink crossings, the second bounds the normalization curvature.
    """
    _, (_, conv_out, gn_out) = _dense_block_cache(x, blk)
    var = conv_out.reshape(blk.groups, -1).var(axis=1)
    return np.abs(gn_out).min() >= _KINK_MARGIN and var.min() >= _VAR_MARGIN


def _mfe_arrays_try(s, channels=2, size=8, groups=1):
    """One draw of an MFE fixture; None when a block is badly conditioned.

    Groups stay below the channel count: normalization cancels any
    per-group constant, so with one channel per group the conv bias would
    have an identically zero gradient and nothing left to verify.
    """
    arrays = {"f0": _draw(s, 0, (channels, size // 4, size // 4)),
              "f1": _draw(s, 1, (channels, size // 2, size // 2)),
              "f2": _draw(s, 2, (channels, size, size)),
              "_groups": groups}
    for i in range(3):
        for k, v in _block_params_from(s, 10 + 10 * i, channels, groups).items():
            if k != "groups":
                arrays[f"b{i}_{k}"] = v
    pyr, params = _pyramid(arrays), _mfe_params(arrays)
    ok = all(_well_conditioned(x, blk) for x, blk in
             ((pyr.f0, params.blocks[0]), (pyr.f1, params.blocks[1]),
              (pyr.f2, params.blocks[2])))
    return arrays if ok else None


def _mfe_value(arrays, composite_dice):
    fd = mfe_forward(_pyramid(arrays), _mfe_params(arrays))
    if composite_dice:
        value = 0.0
        for c in range(fd.shape[0]):
            value += dice_loss(sigmoid(fd[c]), arrays["_dice_y"][c])
        return value
    return float(np.sum(arrays["_probe"] * fd))


def _mfe_grads(arrays, composite_dice):
    pyr, params = _pyramid(arrays), _mfe_params(arrays)
    fd, cache = _mfe_forward_cache(pyr, params)
    if composite_dice:
        dfd = np.zeros_like(fd)
        for c in range(fd.shape[0]):
            m = sigmoid(fd[c])
            dfd[c] = dice_loss_grad(m, arrays["_dice_y"][c])[1] * m * (1.0 - m)
    else:
        dfd = arrays["_probe"]
    (df0, df1, df2), dps = _mfe_vjp(cache, params, dfd)
    grads = {"f0": df0, "f1": df1, "f2": df2}
    for i, dp in enumerate(dps):
        for k, v in dp.items():
            grads[f"b{i}_{k}"] = v
    return grads


def _probe(seed, shape):
    return _draw(seed, 999, shape, -1.0, 1.0)


def _build_case(op, seed):
    """Returns (arrays, value, grads) for one gradcheck op.

    ``value(arrays)`` runs only the forward pass and returns the scalar
    being differentiated; ``grads(arrays)`` returns its analytic gradient
    with respect to each checked array, keyed like ``arrays``.
    """
    if op in ("mfe", "mfe_dice"):
        composite = op == "mfe_dice"
        value = lambda a: _mfe_value(a, composite)
        grads = lambda a: _mfe_grads(a, composite)
        for attempt in range(512):
            s = seed + 7919 * attempt
            arrays = _mfe_arrays_try(s)
            if arrays is None:
                continue
            size = arrays["f2"].shape
            if op == "mfe":
                arrays["_probe"] = 0.5 * _probe(s, size)
            else:
                arrays["_dice_y"] = (rng.uniform01(s, int(np.prod(size)),
                                                   start=5_000_000)
                                     .reshape(size) > 0.5).astype(np.float64)
            if _grad_norms_clear(grads(arrays)):
                return arrays, value, grads
        raise RuntimeError(f"could not build a well-conditioned {op} fixture")

    if op == "conv":
        c, size = 3, 5
        arrays = {"x": _draw(seed, 0, (c, size, size)),
                  "w": _draw(seed, 1, (c, c, 3, 3), -0.5, 0.5),
                  "b": _draw(seed, 2, (c,), -0.3, 0.3),
                  "_probe": _probe(seed, (c, size, size))}

        def grads(a):
            dx, dw, db = conv2d_3x3_vjp(a["x"], a["w"], a["_probe"])
            return {"x": dx, "w": dw, "b": db}
        return (arrays,
                lambda a: float(np.sum(a["_probe"] * conv2d_3x3(a["x"], a["w"], a["b"]))),
                grads)

    if op == "group_norm":
        c, size, groups = 4, 4, 2
        arrays = {"x": _draw(seed, 0, (c, size, size)),
                  "gamma": _draw(seed, 1, (c,), 0.5, 1.5),
                  "beta": _draw(seed, 2, (c,), -0.3, 0.3),
                  "_probe": _probe(seed, (c, size, size))}

        def grads(a):
            dx, dgamma, dbeta = group_norm_vjp(a["x"], a["gamma"], groups,
                                               1e-5, a["_probe"])
            return {"x": dx, "gamma": dgamma, "beta": dbeta}
        return (arrays,
                lambda a: float(np.sum(a["_probe"] * group_norm(
                    a["x"], a["gamma"], a["beta"], groups))),
                grads)

    if op == "bilinear":
        arrays = {"x": _draw(seed, 0, (2, 3, 4)), "_probe": _probe(seed, (2, 5, 7))}
        return (arrays,
                lambda a: float(np.sum(a["_probe"] * bilinear_resize(a["x"], 5, 7))),
                lambda a: {"x": bilinear_resize_vjp(a["_probe"], 3, 4)})

    if op == "relu":
        x = _draw(seed, 0, (4, 4), -1.0, 1.0)
        x = x + np.where(x >= 0, 0.1, -0.1)          # keep 0.1 clear of the kink
        arrays = {"x": x, "_probe": _probe(seed, (4, 4))}
        return (arrays,
                lambda a: float(np.sum(a["_probe"] * relu(a["x"]))),
                lambda a: {"x": a["_probe"] * (a["x"] > 0)})

    if op == "dense_block":
        c, size, groups = 4, 4, 2

        def value(a):
            return float(np.sum(a["_probe"] * dense_block(a["x"], _block_of(a))))

        def grads(a):
            blk = _block_of(a)
            _, cache = _dense_block_cache(a["x"], blk)
            dx, dp = _dense_block_vjp(cache, blk, a["_probe"])
            return {"x": dx, **dp}

        for attempt in range(512):
            s = seed + 7919 * attempt
            p = _block_params_from(s, 10, c, groups)
            x = _draw(s, 0, (c, size, size))
            if not _well_conditioned(x, _to_block(p)):
                continue
            arrays = {"x": x, "_probe": 0.5 * _probe(s, (c, size, size)),
                      "_groups": groups}
            arrays.update({k: v for k, v in p.items() if k != "groups"})
            if _grad_norms_clear(grads(arrays)):
                return arrays, value, grads
        raise RuntimeError("could not build a well-conditioned dense_block fixture")

    if op == "dice":
        arrays = {"m": _draw(seed, 0, (8, 8), 0.05, 0.95),
                  "_y": (_draw(seed, 1, (8, 8), 0, 1) > 0.5).astype(np.float64)}
        return (arrays, lambda a: dice_loss(a["m"], a["_y"]),
                lambda a: {"m": dice_loss_grad(a["m"], a["_y"])[1]})

    if op == "iou":
        arrays = {"m": _draw(seed, 0, (8, 8), 0.05, 0.95),
                  "_y": (_draw(seed, 1, (8, 8), 0, 1) > 0.5).astype(np.float64)}
        return (arrays, lambda a: iou_loss(a["m"], a["_y"]),
                lambda a: {"m": iou_loss_grad(a["m"], a["_y"])[1]})

    if op == "bce":
        arrays = {"x": _draw(seed, 0, (8, 8), -2.0, 2.0),
                  "_y": (_draw(seed, 1, (8, 8), 0, 1) > 0.5).astype(np.float64)}
        return (arrays, lambda a: bce_mask(a["x"], a["_y"]),
                lambda a: {"x": bce_mask_grad(a["x"], a["_y"])[1]})

    if op == "focal":
        # probabilities kept off the clamp boundary: the target term's
        # curvature grows as 1/p^3, which central differences cannot track
        n = 12
        arrays = {"p": _draw(seed, 0, (n,), 0.15, 0.85)}
        target = int(rng.raw64(seed, 1, start=77)[0] % n)
        return (arrays, lambda a: focal_loss(a["p"], target),
                lambda a: {"p": focal_loss_grad(a["p"], target)[1]})

    if op == "cross_entropy":
        n, size = 5, 6
        labels = (rng.raw64(seed, size * size, start=33) % (n + 1)).astype(np.int64)
        labels = np.where(labels == n, 255, labels).reshape(size, size)
        arrays = {"x": _draw(seed, 0, (n, size, size), -2.0, 2.0), "_labels": labels}
        return (arrays, lambda a: cross_entropy_map(a["x"], a["_labels"], 255),
                lambda a: {"x": cross_entropy_map_grad(a["x"], a["_labels"], 255)[1]})

    if op == "cosine":
        arrays = {"v": _draw(seed, 0, (3, 6), -1.0, 1.0),
                  "_c": _draw(seed, 1, (3, 6), -1.0, 1.0)}
        pairs = [(0, 1), (2, 0)]
        return (arrays, lambda a: cosine_loss(a["v"], a["_c"], pairs),
                lambda a: {"v": cosine_loss_grad(a["v"], a["_c"], pairs)[1]})

    if op == "class_similarity":
        k, n, c = 3, 4, 6
        arrays = {"v": _draw(seed, 0, (k, c), -1.0, 1.0),
                  "_e": _draw(seed, 1, (n, c), -1.0, 1.0),
                  "_probe": _probe(seed, (k, n))}

        def grads(a):
            s = sigmoid(a["v"] @ a["_e"].T)
            return {"v": (a["_probe"] * s * (1.0 - s)) @ a["_e"]}
        return (arrays,
                lambda a: float(np.sum(a["_probe"] * class_similarity(a["v"], a["_e"]))),
                grads)

    raise ValueError(f"gradcheck does not support op {op!r}")


GRADCHECK_OPS = ("conv", "group_norm", "bilinear", "relu", "dense_block",
                 "mfe", "mfe_dice", "dice", "iou", "bce", "focal",
                 "cross_entropy", "cosine", "class_similarity")


def grad_check(op, seed=0, step=1e-3):
    """Max relative error between analytic and central-difference gradients.

    For each differentiable input array of ``op``, the full numeric
    gradient is assembled coordinate by coordinate in float64 and compared
    as |num - ana| / max(|num|, |ana|, 1e-8) with |.| the Euclidean norm
    over that array; the maximum across arrays is returned. The analytic
    gradients are computed once; the 2N perturbed evaluations of an array
    with N entries run the op's forward pass only.

    A non-finite error on any array (NaN or inf in either gradient) is
    returned as is, so it fails every ``err < bound`` test. ``step`` must
    be finite and > 0, else ValueError.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    arrays, value, grads = _build_case(op, seed)
    worst = 0.0
    for name, ana in grads(arrays).items():
        arr = arrays[name]
        flat = arr.reshape(-1)
        ana_flat = np.asarray(ana, dtype=np.float64).reshape(-1)
        num = np.zeros_like(ana_flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = value(arrays)
            flat[i] = orig - step
            fm = value(arrays)
            flat[i] = orig
            num[i] = (fp - fm) / (2.0 * step)
        err = (np.linalg.norm(num - ana_flat)
               / max(np.linalg.norm(num), np.linalg.norm(ana_flat), 1e-8))
        if not math.isfinite(err):
            return err
        worst = max(worst, err)
    return worst

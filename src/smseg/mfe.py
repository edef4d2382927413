"""Multi-scale feature fusion: dense blocks, resize, residual merge.

A three-level feature pyramid (coarsest first) is folded into one map at
the finest resolution: refine level 0, upsample, add to refined level 1,
upsample, add to refined level 2. Each refinement is conv 3x3 -> group
norm -> ReLU. The block is exercised forward plus through analytic
gradients; ``grad_check`` compares those gradients against float64
central differences and is the acceptance mechanism for numerical
correctness, since no training loop lives here. Its fixtures form a
table of cases, one row per op: a seeded draw, the forward value and the
analytic gradients (a VJP, or a loss kernel's ``*_grad`` twin).

Forward ops preserve the input dtype (float32 in the pipeline, float64
under gradcheck) and use fixed reduction orders, so outputs are bitwise
reproducible. The forwards broadcast over leading batch dimensions of any
input array or parameter, several at once (shapes are validated on their
trailing dimensions), and a batched call equals the stack of per-item calls
bit for bit: ``grad_check`` runs all perturbed copies of a group of arrays
as one batch.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import rng
from .losses import (bce_mask, bce_mask_grad, class_similarity, cosine_loss,
                     cosine_loss_grad, cross_entropy_map, cross_entropy_map_grad,
                     dice_loss, dice_loss_grad, focal_loss, focal_loss_grad,
                     iou_loss, iou_loss_grad, normalize_rows, sigmoid)

DEFAULT_TEMPERATURE = 0.07


@dataclass
class DenseBlockParams:
    conv_w: np.ndarray               # (C, C, 3, 3)
    conv_b: np.ndarray               # (C,)
    gn_gamma: np.ndarray             # (C,)
    gn_beta: np.ndarray              # (C,)
    groups: int = 8
    eps: float = 1e-5

    def __post_init__(self):
        c = self.channels if self.conv_w.ndim >= 4 else -1
        if self.conv_w.shape[-4:] != (c, c, 3, 3):
            raise ValueError(f"conv weights must be (..., C, C, 3, 3), got {self.conv_w.shape}")
        for name in ("conv_b", "gn_gamma", "gn_beta"):
            if getattr(self, name).shape[-1:] != (c,):
                raise ValueError(f"{name} must have shape (..., {c})")
        if self.groups < 1 or c % self.groups:
            raise ValueError(f"channels {c} not divisible by groups {self.groups}")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")

    @property
    def channels(self):
        return int(self.conv_w.shape[-4])


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
    """Three levels, each twice the resolution of the one before."""

    f0: np.ndarray                   # coarsest, (C, H2/4, W2/4)
    f1: np.ndarray                   # (C, H2/2, W2/2)
    f2: np.ndarray                   # finest, (C, H2, W2)

    def __post_init__(self):
        if self.f2.ndim < 3:
            raise ValueError(f"finest level must be (..., C, H, W), got {self.f2.shape}")
        c, h2, w2 = self.f2.shape[-3:]
        for i, f in enumerate((self.f0, self.f1)):
            div = 2 ** (2 - i)
            if h2 % div or w2 % div:
                raise ValueError(f"finest {h2}x{w2} not divisible by {div}")
            if f.shape[-3:] != (c, h2 // div, w2 // div):
                raise ValueError(
                    f"level {i} shape {f.shape} != expected {(c, h2 // div, w2 // div)}")


def conv2d_3x3(x, w, b):
    """Same-padded stride-1 cross correlation plus bias."""
    c, h, wd = x.shape[-3:]
    co, ci, kh, kw = w.shape[-4:]
    if ci != c or (kh, kw) != (3, 3):
        raise ValueError(f"kernel {w.shape} incompatible with input {x.shape}")
    if b.shape[-1:] != (co,):
        raise ValueError(f"bias shape {b.shape} != (..., {co})")
    xpad = np.zeros((*x.shape[:-2], h + 2, wd + 2), dtype=x.dtype)
    xpad[..., 1:-1, 1:-1] = x
    lead = np.broadcast_shapes(x.shape[:-3], w.shape[:-4])
    out = np.zeros((*lead, co, h, wd), dtype=x.dtype)
    for du in range(3):
        for dv in range(3):
            out += np.einsum("...oc,...chw->...ohw", w[..., du, dv],
                             xpad[..., du:du + h, dv:dv + wd])
    return out + b[..., None, None]


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
    c = x.shape[-3]
    if c % groups:
        raise ValueError(f"channels {c} not divisible by groups {groups}")
    xg = x.reshape(*x.shape[:-3], groups, -1)
    d = xg - xg.mean(axis=-1, keepdims=True)
    # a group whose deviations reach 1 scales down by an exact power of two
    # (eps by its square): float32 squares stay finite and no output bit moves
    s = np.ldexp(x.dtype.type(1), -np.maximum(np.frexp(abs(d).max(-1, keepdims=True))[1], 0))
    d *= s
    d /= np.sqrt(np.mean(d ** 2, axis=-1, keepdims=True) + eps * s * s)
    return d.reshape(x.shape) * gamma[..., None, None] + beta[..., None, None]


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
    h, w = x.shape[-2:]
    wr = _lin_weights(h, h_out).astype(x.dtype)
    wc = _lin_weights(w, w_out).astype(x.dtype)
    tmp = np.tensordot(x, wc, axes=([-1], [1]))         # (..., C, H, Wout)
    return np.tensordot(tmp, wr, axes=([-2], [1])).swapaxes(-1, -2)


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
    levels = (pyr.f0, pyr.f1, pyr.f2)
    return _fuse(lambda i: _dense_block_cache(levels[i], params.blocks[i]))


def _fuse(level):
    """(F_d, block caches) of the three levels, coarsest first, where
    ``level(i)`` is level i's ``_dense_block_cache`` output: upsample
    level 0 and add level 1, then upsample that and add level 2."""
    (y0, c0), (y1, c1) = level(0), level(1)
    a01 = y1 + bilinear_resize(y0, *y1.shape[-2:])
    y2, c2 = level(2)
    return y2 + bilinear_resize(a01, *y2.shape[-2:]), (c0, c1, c2)


def _mfe_vjp(caches, params, dfd):
    c0, c1, c2 = caches
    df2, dp2 = _dense_block_vjp(c2, params.blocks[2], dfd)
    da01 = bilinear_resize_vjp(dfd, *c1[0].shape[-2:])
    df1, dp1 = _dense_block_vjp(c1, params.blocks[1], da01)
    da0 = bilinear_resize_vjp(da01, *c0[0].shape[-2:])
    df0, dp0 = _dense_block_vjp(c0, params.blocks[0], da0)
    return (df0, df1, df2), (dp0, dp1, dp2)


def mfe_logits(fd, matrix, temperature=DEFAULT_TEMPERATURE):
    """Per-pixel class logits: (N, C) ``matrix`` rows . unit F_d pixels /
    temperature, the cosine for a bank's unit rows; a zero pixel scores 0."""
    c, h, w = fd.shape
    if matrix.shape[1] != c:
        raise ValueError(f"embedding width {matrix.shape[1]} != channels {c}")
    pix = normalize_rows(fd.reshape(c, h * w).astype(np.float64).T)   # (P, C)
    logits = (np.asarray(matrix, dtype=np.float64) @ pix.T) / temperature
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

# A check passes when its relative error is below this bound; the
# fixtures' margins below are set for it at step 1e-3.
GRADCHECK_BOUND = 1e-4
_KINK_MARGIN = 1e-2
# Group norm is scale invariant, so its curvature falls as the pre-norm
# variance rises; this floor keeps the central-difference truncation term
# h^2 * f'''/6 well below GRADCHECK_BOUND at h = 1e-3.
_VAR_MARGIN = 0.4
# Composed-block fixtures are redrawn until every parameter array carries
# a macroscopic gradient; an all-but-dead array would pit pure difference
# noise against the 1e-8 denominator floor instead of testing anything.
_GRAD_NORM_FLOOR = 3e-3


def _draws(seed, specs):
    """One array per (stream, shape, lo, hi) of ``specs``: uniform in
    [lo, hi) from the first entries of stream ``stream`` of ``seed``, each
    stream 1,000,003 words long. All are hashed in one pass over their
    stream positions; each value depends only on (seed, position)."""
    sizes = [math.prod(shape) for _, shape, _, _ in specs]
    u = rng.uniform01_at(seed, np.concatenate(
        [np.arange(n) + spec[0] * 1_000_003 for spec, n in zip(specs, sizes)]))
    return [(lo + (hi - lo) * part).reshape(shape) for (_, shape, lo, hi), part
            in zip(specs, np.split(u, np.cumsum(sizes)[:-1]))]


def _draw(seed, stream, shape, lo=-1.0, hi=1.0):
    return _draws(seed, ((stream, shape, lo, hi),))[0]


def _probe(seed, shape):
    return _draw(seed, 999, shape, -1.0, 1.0)


def _binary(seed, start, shape):
    u = rng.uniform01(seed, int(np.prod(shape)), start=start).reshape(shape)
    return (u > 0.5).astype(np.float64)


_BLOCK_KEYS = ("conv_w", "conv_b", "gn_gamma", "gn_beta")


def _draw_level(seed, x_key, x_stream, x_shape, stream, c, prefix=""):
    """One fixture level in one ``_draws`` pass: the input ``x_key`` in
    [-1, 1) from stream ``x_stream``, and the four arrays of a c-channel
    dense block, keyed ``{prefix}conv_w`` etc., from streams ``stream`` to
    ``stream + 3``."""
    return dict(zip((x_key, *(prefix + k for k in _BLOCK_KEYS)), _draws(seed, (
        (x_stream, x_shape, -1.0, 1.0), (stream, (c, c, 3, 3), -0.8, 0.8),
        (stream + 1, (c,), -0.3, 0.3), (stream + 2, (c,), 0.5, 1.5),
        (stream + 3, (c,), -0.3, 0.3)))))


def _block(a, prefix=""):
    return DenseBlockParams(*(a[prefix + k] for k in _BLOCK_KEYS), groups=a["_groups"])


def _mfe_params(arrays):
    return MfeParams(blocks=tuple(_block(arrays, f"b{i}_") for i in range(3)))


def _block_inputs(a, x_key, prefix=""):
    """The arrays one dense block of fixture ``a`` reads: ``a[x_key]`` and
    the block keyed ``{prefix}conv_w`` etc."""
    return (a[x_key], *(a[prefix + k] for k in _BLOCK_KEYS))


def _level(a, x_key, prefix=""):
    """``_dense_block_cache`` of one dense block of fixture ``a``.

    ``a["_kept"]`` may map ``x_key`` to (inputs, output) of that block as
    its draw ran it. The output is taken, and the block not run again,
    while every one of those inputs is the very array that ``a`` holds;
    the pair holds its inputs, so no other array can take their ids.
    """
    inputs = _block_inputs(a, x_key, prefix)
    kept = a.get("_kept", {}).get(x_key)
    if kept and all(map(operator.is_, kept[0], inputs)):
        return kept[1]
    return _dense_block_cache(inputs[0], _block(a, prefix))


def _fused(a):
    """(F_d, block caches) of an mfe fixture, each block through ``_level``."""
    return _fuse(lambda i: _level(a, f"f{i}", f"b{i}_"))


def _well_conditioned(x, blk):
    """``_dense_block_cache(x, blk)`` when the block's pre-ReLU values are
    clear of zero and its group variances clear of collapse, else None.

    Both margins keep the central-difference error of the composed block
    well under ``GRADCHECK_BOUND`` at step 1e-3: the first stops
    kink crossings, the second bounds the normalization curvature.
    """
    out = _dense_block_cache(x, blk)
    _, (_, conv_out, gn_out) = out
    var = conv_out.reshape(blk.groups, -1).var(axis=1)
    return out if np.abs(gn_out).min() >= _KINK_MARGIN and var.min() >= _VAR_MARGIN else None


def _keep(a, kept, x_key, prefix=""):
    """Whether one dense block of ``a`` is ``_well_conditioned``; when it
    is, its inputs and output go into ``kept`` under ``x_key``."""
    inputs = _block_inputs(a, x_key, prefix)
    out = _well_conditioned(inputs[0], _block(a, prefix))
    if out:
        kept[x_key] = (inputs, out)
    return bool(out)


def _draw_dense_block(seed, c=4, size=4):
    """One dense-block fixture that keeps its block's output under
    ``"_kept"``; None when the block is badly conditioned, before the
    probe is drawn. ``x`` (stream 0) and the block (streams 10-13) are
    one ``_draw_level``."""
    a, kept = {**_draw_level(seed, "x", 0, (c, size, size), 10, c), "_groups": 2}, {}
    if not _keep(a, kept, "x"):
        return None
    return {**a, "_probe": 0.5 * _probe(seed, (c, size, size)), "_kept": kept}


def _draw_mfe(seed, target, c=2, size=8):
    """One MFE fixture, drawn and conditioned one pyramid level at a time.

    Level i draws ``f{i}`` (stream i) and block i's four arrays (streams
    10 + 10i to 13 + 10i) in one ``_draw_level`` pass, then checks the
    block with ``_well_conditioned``; the draw returns None at the first
    level that fails, before the next level is drawn. The row's fixed
    arrays, ``target(seed)``, are drawn once all three levels pass. The
    fixture keeps the three block outputs under ``"_kept"`` (see
    ``_level``), so neither its gradient floor nor its analytic gradients
    run a block forward again.

    Groups stay below the channel count: normalization cancels any
    per-group constant, so with one channel per group the conv bias would
    have an identically zero gradient and nothing left to verify.
    """
    a, kept = {"_groups": 1}, {}
    for i, n in enumerate((size // 4, size // 2, size)):
        a.update(_draw_level(seed, f"f{i}", i, (c, n, n), 10 + 10 * i, c, f"b{i}_"))
        if not _keep(a, kept, f"f{i}", f"b{i}_"):
            return None
    return {**a, **target(seed), "_kept": kept}


def _draw_relu(seed):
    x = _draw(seed, 0, (4, 4))                   # shifted 0.1 off the kink below
    return {"x": x + np.where(x >= 0, 0.1, -0.1), "_probe": _probe(seed, (4, 4))}


def _draw_target(seed, key, lo, hi):
    """An 8x8 prediction under ``key`` in [lo, hi) and a binary target ``_y``."""
    return {key: _draw(seed, 0, (8, 8), lo, hi), "_y": _binary(seed, 1_000_003, (8, 8))}


def _draw_labels(seed, n=5, size=6):
    labels = (rng.raw64(seed, size * size, start=33) % (n + 1)).astype(np.int64)
    labels = np.where(labels == n, 255, labels).reshape(size, size)
    return {"x": _draw(seed, 0, (n, size, size), -2.0, 2.0), "_labels": labels}


def _probed(forward, vjp):
    """(value, grads) of probe * forward(a) summed over the probe's axes, one
    sum per leading batch index of the output; grads are ``vjp(a, probe)``."""
    def value(a):
        out = a["_probe"] * forward(a)
        return np.sum(out, axis=tuple(range(out.ndim - a["_probe"].ndim, out.ndim)))
    return value, lambda a: vjp(a, a["_probe"])


def _conditioned(draw, value, grads):
    """A row whose draw is also redrawn while a gradient's norm is under the
    floor; an accepted draw returns ``(arrays, grads(arrays))``, so the
    gradients it checked are not taken again."""
    def clear(seed):
        a = draw(seed)
        if a is not None:
            g = grads(a)
            if all(np.linalg.norm(v) >= _GRAD_NORM_FLOOR for v in g.values()):
                return a, g
    return clear, value, grads


def _dense_block_grads(a, dout):
    dx, dp = _dense_block_vjp(_level(a, "x")[1], _block(a), dout)
    return {"x": dx, **dp}


def _mfe_grads(a, dfd):
    """Gradients of a scalar of the fused map ``fd``, given its own as ``dfd(fd)``."""
    fd, caches = _fused(a)
    dfs, dps = _mfe_vjp(caches, _mfe_params(a), dfd(fd))
    return {**dict(zip(("f0", "f1", "f2"), dfs)),
            **{f"b{i}_{k}": v for i, dp in enumerate(dps) for k, v in dp.items()}}


def _dice_sum(a):
    """Sum over channels of dice(sigmoid(fd[c]), _dice_y[c]): one float per
    leading batch index of ``fd``, a Python float when it has none. Each
    channel's maps take one batched ``dice_loss`` call, and the channels
    add in order."""
    fd = _fused(a)[0]
    total = 0.0
    for c, y in enumerate(a["_dice_y"]):
        total = total + dice_loss(sigmoid(fd[..., c, :, :]), y)
    return total


def _dice_sum_dfd(a, fd):
    dfd = np.zeros_like(fd)
    for c, f in enumerate(fd):
        m = sigmoid(f)
        dfd[c] = dice_loss_grad(m, a["_dice_y"][c])[1] * m * (1.0 - m)
    return dfd


def _class_similarity_vjp(a, dout):
    s = sigmoid(a["v"] @ a["_e"].T)
    return {"v": (dout * s * (1.0 - s)) @ a["_e"]}


# op -> (draw(seed), value(arrays), grads(arrays)), as ``_case`` returns
# them. Keys that start with "_" are held fixed. Kernels are looked up when a
# case runs, so a patched module attribute is the one checked. A loss row's
# kernel takes the whole batch of perturbed copies in one call. The fusion
# rows' values and gradients run each block through ``_level``.
_CASES = {
    "conv": (
        lambda s: {"x": _draw(s, 0, (3, 5, 5)), "w": _draw(s, 1, (3, 3, 3, 3), -0.5, 0.5),
                   "b": _draw(s, 2, (3,), -0.3, 0.3), "_probe": _probe(s, (3, 5, 5))},
        *_probed(lambda a: conv2d_3x3(a["x"], a["w"], a["b"]),
                 lambda a, d: dict(zip(("x", "w", "b"), conv2d_3x3_vjp(a["x"], a["w"], d))))),
    "group_norm": (
        lambda s: {"x": _draw(s, 0, (4, 4, 4)), "gamma": _draw(s, 1, (4,), 0.5, 1.5),
                   "beta": _draw(s, 2, (4,), -0.3, 0.3), "_probe": _probe(s, (4, 4, 4))},
        *_probed(lambda a: group_norm(a["x"], a["gamma"], a["beta"], 2),
                 lambda a, d: dict(zip(("x", "gamma", "beta"),
                                       group_norm_vjp(a["x"], a["gamma"], 2, 1e-5, d))))),
    "bilinear": (lambda s: {"x": _draw(s, 0, (2, 3, 4)), "_probe": _probe(s, (2, 5, 7))},
                 *_probed(lambda a: bilinear_resize(a["x"], 5, 7),
                          lambda a, d: {"x": bilinear_resize_vjp(d, 3, 4)})),
    "relu": (_draw_relu,
             *_probed(lambda a: relu(a["x"]), lambda a, d: {"x": d * (a["x"] > 0)})),
    "dense_block": _conditioned(
        _draw_dense_block,
        *_probed(lambda a: dense_block(a["x"], _block(a)), _dense_block_grads)),
    "mfe": _conditioned(
        lambda s: _draw_mfe(s, lambda s: {"_probe": 0.5 * _probe(s, (2, 8, 8))}),
        *_probed(lambda a: _fused(a)[0], lambda a, d: _mfe_grads(a, lambda fd: d))),
    "mfe_dice": _conditioned(
        lambda s: _draw_mfe(s, lambda s: {"_dice_y": _binary(s, 5_000_000, (2, 8, 8))}),
        _dice_sum, lambda a: _mfe_grads(a, lambda fd: _dice_sum_dfd(a, fd))),
    "dice": (lambda s: _draw_target(s, "m", 0.05, 0.95),
             lambda a: dice_loss(a["m"], a["_y"]),
             lambda a: {"m": dice_loss_grad(a["m"], a["_y"])[1]}),
    "iou": (lambda s: _draw_target(s, "m", 0.05, 0.95),
            lambda a: iou_loss(a["m"], a["_y"]),
            lambda a: {"m": iou_loss_grad(a["m"], a["_y"])[1]}),
    "bce": (lambda s: _draw_target(s, "x", -2.0, 2.0),
            lambda a: bce_mask(a["x"], a["_y"]),
            lambda a: {"x": bce_mask_grad(a["x"], a["_y"])[1]}),
    # probabilities kept off the clamp boundary: the target term's
    # curvature grows as 1/p^3, which central differences cannot track
    "focal": (lambda s: {"p": _draw(s, 0, (12,), 0.15, 0.85),
                         "_target": int(rng.raw64(s, 1, start=77)[0] % 12)},
              lambda a: focal_loss(a["p"], a["_target"]),
              lambda a: {"p": focal_loss_grad(a["p"], a["_target"])[1]}),
    "cross_entropy": (_draw_labels,
                      lambda a: cross_entropy_map(a["x"], a["_labels"], 255),
                      lambda a: {"x": cross_entropy_map_grad(a["x"], a["_labels"], 255)[1]}),
    "cosine": (lambda s: {"v": _draw(s, 0, (3, 6)), "_c": _draw(s, 1, (3, 6))},
               lambda a: cosine_loss(a["v"], a["_c"], [(0, 1), (2, 0)]),
               lambda a: {"v": cosine_loss_grad(a["v"], a["_c"], [(0, 1), (2, 0)])[1]}),
    "class_similarity": (
        lambda s: {"v": _draw(s, 0, (3, 6)), "_e": _draw(s, 1, (4, 6)),
                   "_probe": _probe(s, (3, 4))},
        *_probed(lambda a: class_similarity(a["v"], a["_e"]), _class_similarity_vjp)),
}

GRADCHECK_OPS = tuple(_CASES)


def _case(op, seed):
    """Returns (arrays, value, grads, analytic, kept) for one gradcheck op.

    ``value(arrays)`` runs only the forward pass and returns the scalar
    being differentiated, or one per item when an array is stacked along a
    leading batch axis; ``grads(arrays)`` returns its analytic gradient
    with respect to each checked array, keyed like ``arrays``; ``analytic``
    is those gradients when the draw already took them, else None. ``kept``
    holds the block outputs the draw ran, for a value's arrays to carry as
    ``"_kept"`` (see ``_level``); ``arrays`` comes without them, so
    ``value(arrays)`` reads nothing but the arrays, even when a caller
    writes into one. A draw that returns None is retried at
    ``seed + 7919 * attempt``.
    """
    if op not in _CASES:
        raise ValueError(f"gradcheck does not support op {op!r}")
    draw, value, grads = _CASES[op]
    for attempt in range(512):
        drawn = draw(seed + 7919 * attempt)
        if drawn is not None:
            arrays, analytic = drawn if isinstance(drawn, tuple) else (drawn, None)
            kept = arrays.pop("_kept", {})
            return arrays, value, grads, analytic, kept
    raise RuntimeError(f"could not build a well-conditioned {op} fixture")


def _groups(arrays, kept, names):
    """The checked arrays ``names`` in perturbation groups: for each kept
    dense block, the names whose arrays are its inputs (by identity), then
    one group of all the rest; empty groups are left out."""
    blocks = [[n for n in names if any(arrays[n] is x for x in inputs)]
              for inputs, _ in kept.values()]
    rest = [n for n in names if not any(n in g for g in blocks)]
    return [g for g in (*blocks, rest) if g]


def _central_differences(value, arrays, group, step):
    """name -> central-difference gradient of ``value`` for every array of
    ``group``, from one call of ``value`` on a batch of 2N items, N the
    group's entries in total: item k moves entry k of the group's
    flattened arrays, taken in order, by +step, item N + k by -step, and
    every other array of the group keeps its value in that item."""
    sizes = [arrays[n].size for n in group]
    total = sum(sizes)
    batch, start = {}, 0
    for name, n in zip(group, sizes):
        b = np.repeat(arrays[name].reshape(1, n), 2 * total, axis=0)
        at = np.arange(n)
        b[start + at, at] += step
        b[total + start + at, at] -= step
        batch[name] = b.reshape(2 * total, *arrays[name].shape)
        start += n
    vals = np.broadcast_to(value({**arrays, **batch}), (2 * total,))
    num = (vals[:total] - vals[total:]) / (2.0 * step)
    return dict(zip(group, np.split(num, np.cumsum(sizes)[:-1])))


def grad_check(op, seed=0, step=1e-3):
    """Max relative error between analytic and central-difference gradients.

    For each differentiable input array of ``op``, the full numeric
    gradient is taken in float64 and compared as |num - ana| /
    max(|num|, |ana|, 1e-8) with |.| the Euclidean norm over that array;
    the maximum across arrays is returned. The analytic gradients are
    computed once.

    The central differences run the op's forward value once per group of
    arrays: one group per dense block the draw kept, of the arrays that
    are that block's inputs, and one group of all other arrays. A group
    of N entries in all is stacked into a batch of 2N items, one entry of
    one array moved by +step or -step in each, every array of the group
    carrying the batch axis; N central differences come from the 2N
    values (a single value is broadcast to all 2N). Each item's value is
    bitwise that of its own unbatched call.

    Each dense-block forward runs once per fixture: the draw keeps the
    block outputs it conditioned on, its gradient floor and the analytic
    gradients start from them, and in a group's batch every other block
    takes its kept output. So the ``mfe`` rows make three value calls,
    each running one block on its batch, and every other row one. Nothing
    is kept between calls; the results are those of running every forward.

    The errors are reduced in the gradients' key order, and the first
    non-finite one (NaN or inf in either gradient) is returned as is, so
    it fails every ``err < GRADCHECK_BOUND`` test. ``step`` must be finite and > 0,
    else ValueError.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    arrays, value, grads, analytic, kept = _case(op, seed)
    arrays["_kept"] = kept
    analytic = analytic or grads(arrays)
    numeric = {}
    for group in _groups(arrays, kept, list(analytic)):
        numeric.update(_central_differences(value, arrays, group, step))
    worst = 0.0
    for name, ana in analytic.items():
        num = numeric[name]
        ana_flat = np.asarray(ana, dtype=np.float64).reshape(-1)
        err = (np.linalg.norm(num - ana_flat)
               / max(np.linalg.norm(num), np.linalg.norm(ana_flat), 1e-8))
        if not math.isfinite(err):
            return err
        worst = max(worst, err)
    return worst

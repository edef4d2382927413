import hashlib
import math

import numpy as np
import pytest

import smseg
from smseg import losses, mfe
from smseg import rng as srng
from smseg.embeddings import ClassEmbeddings, build_joint_embedding

from oracles import (naive_bilinear, naive_conv3x3, naive_grad_check,
                     sequential_conditioned_case)


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5, 5)).astype(np.float32)
    w = np.zeros((3, 3, 3, 3), dtype=np.float32)
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    out = mfe.conv2d_3x3(x, w, np.zeros(3, dtype=np.float32))
    assert np.array_equal(out, x)


def test_conv_zero_weights_bias_only():
    x = np.ones((2, 4, 4), dtype=np.float32)
    out = mfe.conv2d_3x3(x, np.zeros((2, 2, 3, 3), dtype=np.float32),
                         np.array([1.5, -2.0], dtype=np.float32))
    assert np.all(out[0] == 1.5) and np.all(out[1] == -2.0)


def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 3, 3))
    w = rng.standard_normal((1, 1, 3, 3))
    b = rng.standard_normal(1)
    assert np.allclose(mfe.conv2d_3x3(x, w, b), naive_conv3x3(x, w, b), atol=1e-12)
    x = rng.standard_normal((2, 4, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    assert np.allclose(mfe.conv2d_3x3(x, w, b), naive_conv3x3(x, w, b), atol=1e-12)


def test_group_norm_constant_input_gives_beta():
    x = np.full((4, 3, 3), 7.0)
    beta = np.array([0.5, -1.0, 0.0, 2.0])
    out = mfe.group_norm(x, np.ones(4), beta, groups=2)
    for c in range(4):
        assert np.allclose(out[c], beta[c], atol=1e-3)


def test_group_norm_standardizes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 6, 6)) * 3.0 + 5.0
    out = mfe.group_norm(x, np.ones(4), np.zeros(4), groups=2)
    for g in range(2):
        vals = out[2 * g:2 * g + 2].ravel()
        assert abs(vals.mean()) < 1e-10
        assert abs(vals.var() - 1.0) < 1e-4


def test_group_norm_hand_case():
    # 2 channels, 1 group, 1x2 each: values 0,1,2,3 -> mean 1.5, var 1.25
    x = np.arange(4, dtype=np.float64).reshape(2, 1, 2)
    out = mfe.group_norm(x, np.ones(2), np.zeros(2), groups=1, eps=0.0)
    expect = (x - 1.5) / np.sqrt(1.25)
    assert np.allclose(out, expect, atol=1e-12)


def test_group_norm_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4, 4))
    gamma, beta = rng.standard_normal(4), rng.standard_normal(4)
    a = mfe.group_norm(x, gamma, beta, groups=2)
    b = mfe.group_norm(x + 11.0, gamma, beta, groups=2)
    assert np.allclose(a, b, atol=1e-5)


def test_group_norm_divisibility():
    with pytest.raises(ValueError):
        mfe.group_norm(np.zeros((3, 2, 2)), np.ones(3), np.zeros(3), groups=2)


def test_bilinear_constant_and_identity():
    x = np.full((2, 3, 4), 2.25, dtype=np.float32)
    out = mfe.bilinear_resize(x, 7, 5)
    assert np.allclose(out, 2.25, atol=1e-6)
    y = np.random.default_rng(4).standard_normal((2, 4, 4)).astype(np.float32)
    assert np.array_equal(mfe.bilinear_resize(y, 4, 4), y)


def test_bilinear_matches_naive_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 2, 2))
    assert np.allclose(mfe.bilinear_resize(x, 4, 4), naive_bilinear(x, 4, 4),
                       atol=1e-12)
    x = rng.standard_normal((3, 5, 3))
    assert np.allclose(mfe.bilinear_resize(x, 2, 7), naive_bilinear(x, 2, 7),
                       atol=1e-12)


def test_lin_weights_cached_and_read_only():
    for n_in, n_out in ((3, 5), (4, 4)):
        w = mfe._lin_weights(n_in, n_out)
        assert w is mfe._lin_weights(n_in, n_out)
        with pytest.raises(ValueError):
            w[0, 0] = 2.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilinear_bitwise_repeatable_with_cached_weights(dtype):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4)).astype(dtype)
    dout = rng.standard_normal((2, 5, 7)).astype(dtype)

    def run():
        return [mfe.bilinear_resize(x, 5, 7), mfe.bilinear_resize(x, 3, 9),
                mfe.bilinear_resize_vjp(dout, 3, 4)]

    mfe._lin_weights.cache_clear()
    fresh = run()
    for _ in range(2):
        for a, b in zip(fresh, run()):
            assert b.dtype == dtype and b.flags.writeable
            assert a.tobytes() == b.tobytes()


def _random_block(rng, c=2, groups=2):
    return mfe.DenseBlockParams(
        conv_w=rng.standard_normal((c, c, 3, 3)) * 0.5,
        conv_b=rng.standard_normal(c) * 0.1,
        gn_gamma=rng.uniform(0.5, 1.5, c),
        gn_beta=rng.standard_normal(c) * 0.1,
        groups=groups)


def test_dense_block_zero_params_and_nonneg():
    c = 2
    p = mfe.DenseBlockParams(conv_w=np.zeros((c, c, 3, 3)), conv_b=np.zeros(c),
                             gn_gamma=np.ones(c), gn_beta=np.zeros(c), groups=1)
    x = np.random.default_rng(6).standard_normal((c, 4, 4))
    assert np.all(mfe.dense_block(x, p) == 0.0)
    p2 = _random_block(np.random.default_rng(7))
    assert np.all(mfe.dense_block(x, p2) >= 0.0)


def test_dense_block_composition():
    rng = np.random.default_rng(8)
    p = _random_block(rng)
    x = rng.standard_normal((2, 5, 5))
    expect = mfe.relu(mfe.group_norm(mfe.conv2d_3x3(x, p.conv_w, p.conv_b),
                                     p.gn_gamma, p.gn_beta, p.groups, p.eps))
    assert np.array_equal(mfe.dense_block(x, p), expect)


def _pyramid(rng, c=2, size=8):
    return mfe.FeaturePyramid(
        f0=rng.standard_normal((c, size // 4, size // 4)),
        f1=rng.standard_normal((c, size // 2, size // 2)),
        f2=rng.standard_normal((c, size, size)))


def test_mfe_forward_zero_params():
    rng = np.random.default_rng(9)
    pyr = _pyramid(rng)
    zero = mfe.DenseBlockParams(conv_w=np.zeros((2, 2, 3, 3)), conv_b=np.zeros(2),
                                gn_gamma=np.ones(2), gn_beta=np.zeros(2), groups=1)
    params = mfe.MfeParams(blocks=(zero, zero, zero))
    assert np.all(mfe.mfe_forward(pyr, params) == 0.0)


def test_mfe_forward_fine_path_only():
    rng = np.random.default_rng(10)
    pyr = _pyramid(rng)
    zero = mfe.DenseBlockParams(conv_w=np.zeros((2, 2, 3, 3)), conv_b=np.zeros(2),
                                gn_gamma=np.ones(2), gn_beta=np.zeros(2), groups=1)
    fine = _random_block(rng)
    params = mfe.MfeParams(blocks=(zero, zero, fine))
    out = mfe.mfe_forward(pyr, params)
    assert np.array_equal(out, mfe.dense_block(pyr.f2, fine))


def test_mfe_forward_recomposition():
    rng = np.random.default_rng(11)
    pyr = _pyramid(rng, c=4, size=8)
    params = mfe.MfeParams(blocks=tuple(_random_block(rng, c=4, groups=2)
                                        for _ in range(3)))
    out = mfe.mfe_forward(pyr, params)
    a0 = mfe.dense_block(pyr.f0, params.blocks[0])
    a01 = mfe.dense_block(pyr.f1, params.blocks[1]) + mfe.bilinear_resize(a0, 4, 4)
    expect = mfe.dense_block(pyr.f2, params.blocks[2]) + mfe.bilinear_resize(a01, 8, 8)
    assert np.array_equal(out, expect)
    assert out.shape == pyr.f2.shape


def test_mfe_additive_linearity_in_fine_gamma():
    rng = np.random.default_rng(12)
    pyr = _pyramid(rng)
    zero = mfe.DenseBlockParams(conv_w=np.zeros((2, 2, 3, 3)), conv_b=np.zeros(2),
                                gn_gamma=np.ones(2), gn_beta=np.zeros(2), groups=1)
    fine = _random_block(rng)
    doubled = mfe.DenseBlockParams(conv_w=fine.conv_w, conv_b=fine.conv_b,
                                   gn_gamma=2.0 * fine.gn_gamma,
                                   gn_beta=2.0 * fine.gn_beta, groups=fine.groups)
    base = mfe.mfe_forward(pyr, mfe.MfeParams(blocks=(zero, zero, fine)))
    twice = mfe.mfe_forward(pyr, mfe.MfeParams(blocks=(zero, zero, doubled)))
    assert np.allclose(twice, 2.0 * base, atol=1e-12)


def _zero_block(**kw):
    return mfe.DenseBlockParams(np.zeros((2, 2, 3, 3)), np.zeros(2), np.ones(2), np.zeros(2),
                                groups=1, **kw)


@pytest.mark.parametrize("call, message", [
    (lambda: _zero_block(eps=0.0), "eps must be > 0"),
    (lambda: mfe.MfeParams(blocks=(_zero_block(), _zero_block())),
     "three dense blocks required"),
    (lambda: mfe.bilinear_resize(np.zeros((2, 3, 4)), 0, 3), "target dims must be positive"),
    (lambda: mfe.mfe_logits(np.ones((2, 4, 4)), np.ones((5, 3))),
     "embedding width 3 != channels 2"),
], ids=["eps-zero", "two-blocks", "resize-to-zero", "logits-width"])
def test_fusion_value_errors_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_pyramid_shape_validation():
    with pytest.raises(ValueError):
        mfe.FeaturePyramid(f0=np.zeros((2, 3, 3)), f1=np.zeros((2, 4, 4)),
                           f2=np.zeros((2, 8, 8)))


def test_mfe_logits_values():
    bank = build_joint_embedding(
        ClassEmbeddings.from_matrix(np.eye(3, dtype=np.float32), (0, 1, 2)),
        np.zeros((0, 3), dtype=np.float32))
    fd = np.zeros((3, 1, 2), dtype=np.float32)
    fd[:, 0, 0] = [2.0, 0.0, 0.0]          # normalizes to e0
    fd[:, 0, 1] = [0.0, 0.0, -1.0]
    logits = mfe.mfe_logits(fd, bank.matrix, temperature=0.07)
    assert abs(logits[0, 0, 0] - 1.0 / 0.07) < 1e-4
    assert abs(logits[1, 0, 0]) < 1e-6
    assert np.abs(logits).max() <= 1.0 / 0.07 + 1e-4


def test_grad_checks_all_ops():
    for op in mfe.GRADCHECK_OPS:
        err = mfe.grad_check(op, seed=3, step=1e-3)
        assert err < 1e-4, (op, err)


def test_grad_check_linear_op_is_tight():
    assert mfe.grad_check("bilinear", seed=1) < 1e-6


def test_grad_check_unknown_op():
    with pytest.raises(ValueError):
        mfe.grad_check("nope")


def _value_before(op, seed):
    """The value half of ``op``'s value-and-gradients closure as it was when
    every evaluation also ran the backward pass: through the forward that
    keeps the VJP cache, or the loss kernel's ``*_grad`` twin."""
    def probed(a, out):
        return float(np.sum(a["_probe"] * out))

    def mfe_value(a):
        pyr = mfe.FeaturePyramid(a["f0"], a["f1"], a["f2"])
        fd, _ = mfe._mfe_forward_cache(pyr, mfe._mfe_params(a))
        if op == "mfe":
            return probed(a, fd)
        total = 0.0
        for c in range(fd.shape[0]):
            total += losses.dice_loss_grad(losses.sigmoid(fd[c]), a["_dice_y"][c])[0]
        return total

    def block(a):
        return mfe.DenseBlockParams(conv_w=a["conv_w"], conv_b=a["conv_b"],
                                    gn_gamma=a["gn_gamma"], gn_beta=a["gn_beta"],
                                    groups=a["_groups"])

    target = int(srng.raw64(seed, 1, start=77)[0] % 12)
    return {
        "conv": lambda a: probed(a, mfe.conv2d_3x3(a["x"], a["w"], a["b"])),
        "group_norm": lambda a: probed(a, mfe.group_norm(a["x"], a["gamma"],
                                                         a["beta"], 2)),
        "bilinear": lambda a: probed(a, mfe.bilinear_resize(a["x"], 5, 7)),
        "relu": lambda a: probed(a, mfe.relu(a["x"])),
        "dense_block": lambda a: probed(a, mfe._dense_block_cache(a["x"], block(a))[0]),
        "mfe": mfe_value,
        "mfe_dice": mfe_value,
        "dice": lambda a: losses.dice_loss_grad(a["m"], a["_y"])[0],
        "iou": lambda a: losses.iou_loss_grad(a["m"], a["_y"])[0],
        "bce": lambda a: losses.bce_mask_grad(a["x"], a["_y"])[0],
        "focal": lambda a: losses.focal_loss_grad(a["p"], target)[0],
        "cross_entropy": lambda a: losses.cross_entropy_map_grad(
            a["x"], a["_labels"], 255)[0],
        "cosine": lambda a: losses.cosine_loss_grad(a["v"], a["_c"], [(0, 1), (2, 0)])[0],
        "class_similarity": lambda a: probed(a, losses.sigmoid(a["v"] @ a["_e"].T)),
    }[op]


@pytest.mark.parametrize("op", mfe.GRADCHECK_OPS)
def test_value_closure_equals_full_closure_value(op):
    arrays, value, grads = mfe._case(op, 0)[:3]
    before = _value_before(op, 0)
    assert float(value(arrays)).hex() == float(before(arrays)).hex()
    flat = arrays[next(iter(grads(arrays)))].reshape(-1)
    flat[0] += 1e-3
    assert float(value(arrays)).hex() == float(before(arrays)).hex()


@pytest.mark.parametrize("op", mfe.GRADCHECK_OPS)
def test_grad_check_bitwise_equals_full_closure_loop(op):
    for seed in (0, 1):
        arrays, _, grads = mfe._case(op, seed)[:3]
        before = _value_before(op, seed)
        want = naive_grad_check(arrays, lambda a: (before(a), grads(a)), 1e-3)
        assert float(mfe.grad_check(op, seed=seed)).hex() == float(want).hex(), seed


def _poisoned(kernel, index, poison):
    """``kernel`` with output ``index`` replaced by ``poison`` of a copy."""
    def patched(*args):
        out = list(kernel(*args))
        out[index] = poison(np.array(out[index], dtype=np.float64))
        return tuple(out)
    return patched


def _nan_first(g):
    g.flat[0] = np.nan
    return g


@pytest.mark.parametrize("op, name, index, poison", [
    ("bce", "bce_mask_grad", 1, lambda g: np.full_like(g, np.nan)),
    ("dice", "dice_loss_grad", 1, _nan_first),
    ("group_norm", "group_norm_vjp", 2, _nan_first),     # last of three arrays
])
def test_grad_check_fails_on_nan_analytic_gradient(op, name, index, poison,
                                                   monkeypatch):
    monkeypatch.setattr(mfe, name, _poisoned(getattr(mfe, name), index, poison))
    err = mfe.grad_check(op, seed=0)
    assert math.isnan(err) and not err < 1e-4


def test_grad_check_fails_on_nan_value(monkeypatch):
    monkeypatch.setattr(mfe, "bce_mask", lambda x, y: float("nan"))
    err = mfe.grad_check("bce", seed=0)
    assert math.isnan(err) and not err < 1e-4


@pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf")])
def test_grad_check_rejects_bad_step(step):
    with pytest.raises(ValueError, match="step"):
        mfe.grad_check("relu", step=step)


def test_gradcheck_exported_from_package():
    assert smseg.GRADCHECK_OPS is mfe.GRADCHECK_OPS
    assert smseg.grad_check is mfe.grad_check


# SHA-256 over seeds 0-19 of every ndarray in ``_case(op, seed)[0]``:
# key, dtype, shape and bytes, in sorted key order. The draws are SplitMix64
# followed by exact affine maps, so the digests hold on any host.
FIXTURE_SHA256 = {
    "conv": "0830b0ac906451cadc95052b7660111e011dd5c960c5ed3a3d4cf589606a18f4",
    "group_norm": "cb9d77a7b051266625e6cad6cb3befea05bb63315f9f217808d8520a1c9d7422",
    "bilinear": "0aa0f2fba95f0fe8a85be3753ecc388a6eaa6ccb4fc9543f0de3ad1e12188c30",
    "relu": "b18db80e8813bf7e4a3c58e4873f466ad5af10d850ee6b885a75ebf4265cc905",
    "dense_block": "527d251b97629dad6d7a6f79b1f85841b43893a87b1e486656b5d445de048164",
    "mfe": "d8cf1b8452feca23631e1dfd598a33d7cfe094778b6dc193a842d9e78cda17a0",
    "mfe_dice": "93269b617926ce5c13156bfaa336459c2042a4dd1574734ad571afef8f65402e",
    "dice": "739eb264a40f59e6d867d7ea6c3e0d40aa1770fa9facd5cf89bd38af1681fb49",
    "iou": "739eb264a40f59e6d867d7ea6c3e0d40aa1770fa9facd5cf89bd38af1681fb49",
    "bce": "65ee5499699164a0e787a7b0e141bf59e570cf134a893588eab4330f40f1c941",
    "focal": "d8ad15860731faed67857690ebfef079012724e50fa61642b27f0bf2934d96b5",
    "cross_entropy": "339d13bd7ecf8e8b6d9c3e6d6e27ddf13b532004078b120f5df0061a40a0e69b",
    "cosine": "8cd21828051cda02e630ebc4a12d4ab3155c970c2910acb95aee493927e6b261",
    "class_similarity": "0bd076d5783c6b319f59535e9dc71d446e361f3de6473df773835234008ae958",
}


def _fixture_digest(op):
    h = hashlib.sha256()
    for seed in range(20):
        arrays = mfe._case(op, seed)[0]
        for key in sorted(arrays):
            v = arrays[key]
            if isinstance(v, np.ndarray):
                for part in (key, v.dtype.str, repr(v.shape)):
                    h.update(part.encode())
                h.update(np.ascontiguousarray(v).tobytes())
    return h.hexdigest()


def test_gradcheck_fixtures_pinned():
    assert mfe.GRADCHECK_OPS == tuple(FIXTURE_SHA256)
    for op, want in FIXTURE_SHA256.items():
        assert _fixture_digest(op) == want, op


# ``float.hex`` of ``grad_check(op, seed)`` at seeds 0-2 under numpy 2.4.6 (as CI
# pins it). The harness must keep every result bit for bit however it batches.
GRAD_CHECK_HEX = {
    "conv": [
        "0x1.6882178ac2a8bp-41", "0x1.00ed39e530bb5p-41", "0x1.26850bc01920ap-41"],
    "group_norm": [
        "0x1.65ea8b3698de4p-25", "0x1.020812e84b5a4p-24", "0x1.f492764b5477bp-25"],
    "bilinear": [
        "0x1.763f145a2789cp-42", "0x1.2b0e9d8692a72p-42", "0x1.071955b92b11fp-43"],
    "relu": [
        "0x1.ff4567eae54f8p-45", "0x1.6f200612a60e4p-44", "0x1.142de05bf06eap-44"],
    "dense_block": [
        "0x1.fe94f7a1a7f05p-25", "0x1.3a3a1ac65e6c6p-24", "0x1.a8c31aec4fe41p-24"],
    "mfe": [
        "0x1.972f54a52ef41p-21", "0x1.b8cbf6d72b995p-23", "0x1.66981460b4ebdp-22"],
    "mfe_dice": [
        "0x1.1830ab51d69aap-21", "0x1.5f650bfa8a1e0p-22", "0x1.ae54e8c617dbfp-21"],
    "dice": [
        "0x1.add5510e91231p-33", "0x1.ee14fbe6a16a0p-33", "0x1.06f45dd2e505ap-32"],
    "iou": [
        "0x1.cf6b1908a8b9cp-34", "0x1.3408493488829p-33", "0x1.312e181c68a69p-33"],
    "bce": [
        "0x1.8db277983c255p-26", "0x1.8a948e1b331ecp-26", "0x1.8b2b62093ca78p-26"],
    "focal": [
        "0x1.4e1def455507ap-17", "0x1.27ea655e8e361p-17", "0x1.362c64551a57bp-18"],
    "cross_entropy": [
        "0x1.8eccf7c328358p-26", "0x1.c57e0516eddd4p-26", "0x1.cee003914f2cbp-26"],
    "cosine": [
        "0x1.f66ee1b727f9dp-21", "0x1.e83951ca19dc1p-22", "0x1.6c95790e17b23p-21"],
    "class_similarity": [
        "0x1.941c273d7f11ap-25", "0x1.7d8351af22313p-25", "0x1.e629e619215ebp-26"],
}


def test_grad_check_results_pinned():
    assert mfe.GRADCHECK_OPS == tuple(GRAD_CHECK_HEX)
    for op, want in GRAD_CHECK_HEX.items():
        assert [float(mfe.grad_check(op, seed=s)).hex() for s in range(3)] == want, op


@pytest.mark.parametrize("op", ["dense_block", "mfe", "mfe_dice"])
def test_grad_check_reuses_a_conditioned_draws_gradients(op, monkeypatch):
    # the draw takes the gradients for its norm floor; grad_check takes none
    calls = []
    vjp = mfe._dense_block_vjp
    monkeypatch.setattr(mfe, "_dense_block_vjp", lambda *a: calls.append(1) or vjp(*a))
    mfe._case(op, 0)
    drawn = len(calls)
    mfe.grad_check(op, seed=0)
    assert drawn > 0 and len(calls) == 2 * drawn


@pytest.mark.parametrize("op", ["dense_block", "mfe", "mfe_dice"])
def test_build_case_gives_up_with_named_error(op, monkeypatch):
    calls = []
    monkeypatch.setattr(mfe, "_well_conditioned", lambda cache, groups: calls.append(
        len(cache[0])) or np.zeros(len(cache[0]), dtype=bool))
    with pytest.raises(RuntimeError, match=f"well-conditioned {op} fixture"):
        mfe._case(op, 0)
    assert calls == [mfe._ATTEMPT_BATCH] * (512 // mfe._ATTEMPT_BATCH)   # 512 attempts


# ``conv2d_3x3`` calls per ``grad_check(op, seed)`` at seeds 0-2: one per
# level of every batch of redraw attempts tried (each of these seeds takes
# one batch), then one per dense block's group of perturbed arrays, as the
# draw's kept block outputs stand in for every other forward.
GRAD_CHECK_CONV_CALLS = {"dense_block": [2, 2, 2], "mfe": [6, 6, 6],
                         "mfe_dice": [6, 6, 6]}


def test_grad_check_conv_calls_pinned(monkeypatch):
    calls = []
    conv = mfe.conv2d_3x3
    monkeypatch.setattr(mfe, "conv2d_3x3", lambda *a: calls.append(1) or conv(*a))
    for op, want in GRAD_CHECK_CONV_CALLS.items():
        got = []
        for seed in range(3):
            before = len(calls)
            mfe.grad_check(op, seed=seed)
            got.append(len(calls) - before)
        assert got == want, op


@pytest.mark.parametrize("op", ["dense_block", "mfe", "mfe_dice"])
def test_a_draw_failing_at_level_0_draws_only_that_level(op, monkeypatch):
    passes = []
    draws = mfe._draws
    monkeypatch.setattr(mfe, "_draws", lambda s, specs: passes.append(
        [spec[0] for spec in specs]) or draws(s, specs))
    monkeypatch.setattr(mfe, "_binary", lambda *a: pytest.fail("target drawn"))
    monkeypatch.setattr(mfe, "_well_conditioned",
                        lambda cache, groups: np.zeros(len(cache[0]), dtype=bool))
    assert mfe._CASES[op][0](0) is None
    # the input and the block's four, one pass per batch of attempts
    assert passes == [[0, 10, 11, 12, 13]] * (512 // mfe._ATTEMPT_BATCH)


def _leaves(obj):
    """(dtype, shape, bytes) of every array in nested tuples and dicts, in
    order; any other leaf as itself."""
    if isinstance(obj, dict):
        return [(k, *_leaves(v)) for k, v in sorted(obj.items())]
    if isinstance(obj, tuple):
        return [leaf for item in obj for leaf in _leaves(item)]
    if isinstance(obj, np.ndarray):
        return [(obj.dtype.str, obj.shape, obj.tobytes())]
    return [obj]


@pytest.mark.parametrize("op", ["dense_block", "mfe", "mfe_dice"])
def test_batched_attempts_take_the_sequential_attempt(op):
    # each item of a batch of attempts is drawn and run bitwise as its seed
    # alone gives it, and the first attempt passing every check is taken
    for seed in (*range(200), -123_457):
        arrays, _, _, _, kept = mfe._case(op, seed)
        want, want_kept = sequential_conditioned_case(mfe, op, seed)
        assert _leaves(arrays) == _leaves(want), seed
        assert _leaves(kept) == _leaves(want_kept), seed


# ``value`` calls per ``grad_check(op, seed)``: one per group of perturbed
# arrays, that is one per dense block the draw keeps and one for the
# arrays of an op without blocks.
GRAD_CHECK_VALUE_CALLS = {op: 1 for op in mfe.GRADCHECK_OPS} | {"mfe": 3, "mfe_dice": 3}


def test_grad_check_value_calls_pinned(monkeypatch):
    calls = []
    case = mfe._case

    def counted(op, seed):
        arrays, value, *rest = case(op, seed)
        return (arrays, lambda a: calls.append(op) or value(a), *rest)

    monkeypatch.setattr(mfe, "_case", counted)
    for op, want in GRAD_CHECK_VALUE_CALLS.items():
        for seed in range(2):
            calls.clear()
            mfe.grad_check(op, seed=seed)
            assert len(calls) == want, (op, seed)


def test_groups_follow_the_kept_blocks_inputs():
    arrays, _, grads, _, kept = mfe._case("mfe", 0)
    names = list(grads(arrays))
    want = [[f"f{i}", *(f"b{i}_{k}" for k in mfe._BLOCK_KEYS)] for i in range(3)]
    assert mfe._groups(arrays, kept, names) == want
    copied = {**arrays, "b1_conv_b": arrays["b1_conv_b"].copy()}   # no longer block 1's
    assert mfe._groups(copied, kept, names) == [want[0], want[1][:2] + want[1][3:], want[2],
                                                ["b1_conv_b"]]
    arrays, _, grads, _, kept = mfe._case("conv", 0)
    assert kept == {} and mfe._groups(arrays, kept, list(grads(arrays))) == [["x", "w", "b"]]


def test_kept_block_output_needs_its_very_inputs():
    arrays, _, _, _, kept = mfe._case("mfe", 0)
    held = {**arrays, "_kept": kept}
    for i in range(3):
        assert mfe._level(held, f"f{i}", f"b{i}_") is kept[f"f{i}"][1]
    copied = {**held, "b1_conv_b": arrays["b1_conv_b"].copy()}
    y, cache = mfe._level(copied, "f1", "b1_")
    assert cache is not kept["f1"][1][1]
    assert y.tobytes() == kept["f1"][1][0].tobytes()


def _same_as_stacked(fn, batch):
    """``fn`` of a batch equals the stack of ``fn`` of each item, bit for bit."""
    want = np.stack([fn(item) for item in batch])
    got = fn(batch)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype, c, sizes, groups", [
    (np.float64, 2, (2, 4, 8), 1),         # the mfe gradcheck fixture
    (np.float64, 4, (1, 2, 4), 2),         # the dense_block one
    (np.float32, 16, (16, 32, 64), 8),     # pipeline-small's pyramid
])
def test_fusion_forwards_batch_bitwise(dtype, c, sizes, groups):
    rng = np.random.default_rng(14)

    def draw(*shape, lo=-1.0, hi=1.0):
        return rng.uniform(lo, hi, (3, *shape)).astype(dtype)

    n = sizes[-1]
    x, w = draw(c, n, n), draw(c, c, 3, 3, lo=-0.3, hi=0.3)
    b, g = draw(c, lo=-0.3, hi=0.3), draw(c, lo=0.5, hi=1.5)
    _same_as_stacked(lambda x: mfe.conv2d_3x3(x, w[0], b[0]), x)
    _same_as_stacked(lambda w: mfe.conv2d_3x3(x[0], w, b[0]), w)
    _same_as_stacked(lambda b: mfe.conv2d_3x3(x[0], w[0], b), b)
    _same_as_stacked(lambda x: mfe.group_norm(x, g[0], b[0], groups), x)
    _same_as_stacked(lambda g: mfe.group_norm(x[0], g, b[0], groups), g)
    _same_as_stacked(lambda b: mfe.group_norm(x[0], g[0], b, groups), b)
    for size in sizes[:-1]:
        _same_as_stacked(lambda x: mfe.bilinear_resize(x, size, size), x)
        _same_as_stacked(lambda f: mfe.bilinear_resize(f, n, n), draw(c, size, size))

    def block(w=w[0], b=b[0], g=g[0]):
        return mfe.DenseBlockParams(w, b, g, b[..., ::-1], groups=groups)

    _same_as_stacked(lambda x: mfe.dense_block(x, block()), x)
    _same_as_stacked(lambda w: mfe.dense_block(x[0], block(w=w)), w)
    _same_as_stacked(lambda g: mfe.dense_block(x[0], block(g=g)), g)
    levels = [draw(c, size, size) for size in sizes]
    params = mfe.MfeParams(blocks=(block(), block(w=w[1]), block(w=w[2])))
    for i in range(3):
        _same_as_stacked(lambda f: mfe.mfe_forward(mfe.FeaturePyramid(
            *(f if j == i else levels[j][0] for j in range(3))), params), levels[i])
        _same_as_stacked(lambda b: mfe.mfe_forward(mfe.FeaturePyramid(
            *(f[0] for f in levels)), mfe.MfeParams(blocks=tuple(
                block(b=b) if j == i else params.blocks[j] for j in range(3)))), b)


def test_batched_shapes_validate_trailing_dimensions():
    x, w, b = np.zeros((5, 2, 4, 4)), np.zeros((5, 2, 2, 3, 3)), np.zeros((5, 2))
    assert mfe.conv2d_3x3(x, w, b).shape == (5, 2, 4, 4)
    for args in ((x, np.zeros((2, 3, 3, 3)), b[0]), (x, w[0], np.zeros((5, 3))),
                 (x, np.zeros((4, 2, 2, 3, 3)), b[0])):
        with pytest.raises(ValueError):
            mfe.conv2d_3x3(*args)
    with pytest.raises(ValueError):
        mfe.group_norm(np.zeros((5, 3, 4, 4)), np.ones(3), np.zeros(3), groups=2)
    with pytest.raises(ValueError):
        mfe.group_norm(x, np.ones((5, 3)), np.zeros(2), groups=2)
    for conv_w, conv_b in ((np.zeros((5, 2, 3, 3, 3)), b), (w, np.zeros((5, 3))),
                           (np.zeros((2, 3, 3)), b)):
        with pytest.raises(ValueError):
            mfe.DenseBlockParams(conv_w, conv_b, np.ones(2), np.zeros(2), groups=1)
    block = mfe.DenseBlockParams(w, b, np.ones(2), np.zeros(2), groups=1)
    assert block.channels == 2
    with pytest.raises(ValueError):
        mfe.MfeParams(blocks=(block, block, mfe.DenseBlockParams(
            np.zeros((3, 3, 3, 3)), np.zeros(3), np.ones(3), np.zeros(3), groups=1)))
    f0, f1, f2 = np.zeros((2, 2, 2)), np.zeros((2, 4, 4)), np.zeros((7, 2, 8, 8))
    assert mfe.FeaturePyramid(f0, f1, f2).f2.shape == (7, 2, 8, 8)
    for levels in ((f0, np.zeros((7, 2, 4, 3)), f2), (np.zeros((2, 2)), f1, f2),
                   (f0, f1, np.zeros((8, 8)))):
        with pytest.raises(ValueError):
            mfe.FeaturePyramid(*levels)


def _loss_kernels():
    """name -> (kernel of the argument it differentiates, draw(*batch)).
    Masks of 135 pixels pass numpy's 128-element pairwise block, and 12
    classes its 8-element unrolled one; class row 2 of the cosine is zero."""
    rng = np.random.default_rng(20)
    y = (rng.random((9, 15)) > 0.5).astype(np.float64)
    labels = rng.integers(0, 12, (9, 15))
    labels[0, :4] = 255
    c = rng.standard_normal((3, 7))
    c[2] = 0.0

    def uniform(*shape):
        return lambda *batch: rng.uniform(0.05, 0.95, (*batch, *shape))

    def normal(*shape):
        return lambda *batch: 2.0 * rng.standard_normal((*batch, *shape))

    return {
        "dice": (lambda m: losses.dice_loss(m, y), uniform(9, 15)),
        "iou": (lambda m: losses.iou_loss(m, y), uniform(9, 15)),
        "bce": (lambda x: losses.bce_mask(x, y), normal(9, 15)),
        "focal": (lambda p: losses.focal_loss(p, 3), uniform(12)),
        "focal_no_object": (lambda p: losses.focal_loss(p, None), uniform(12)),
        "cross_entropy": (lambda x: losses.cross_entropy_map(x, labels), normal(12, 9, 15)),
        "cosine": (lambda v: losses.cosine_loss(v, c, [(0, 1), (3, 2), (0, 0)]), normal(4, 7)),
    }


@pytest.mark.parametrize("name", list(_loss_kernels()))
def test_loss_kernels_batch_bitwise(name):
    kernel, draw = _loss_kernels()[name]
    assert type(kernel(draw())) is float
    _same_as_stacked(kernel, draw(3))
    _same_as_stacked(kernel, draw(2, 3))
    _same_as_stacked(kernel, np.moveaxis(np.ascontiguousarray(np.moveaxis(draw(3), 0, -1)),
                                         -1, 0))            # items interleaved in memory
    _same_as_stacked(kernel, draw(6)[::2])                  # every other item of a stack


@pytest.mark.parametrize("op", mfe.GRADCHECK_OPS)
def test_value_of_a_batch_equals_per_item_values(op):
    arrays, value, grads, _, kept = mfe._case(op, 0)
    for name in grads(arrays):
        items = [arrays[name] + 1e-3 * k for k in (-1, 0, 2)]
        got = value({**arrays, name: np.stack(items)})
        assert got.shape == (3,), name
        want = [float(value({**arrays, name: item})).hex() for item in items]
        assert [float(v).hex() for v in got] == want, name
    # as grad_check batches a group: every array of the group stacked, each
    # item moving one of them, the other blocks' kept outputs taken
    held = {**arrays, "_kept": kept}
    for group in mfe._groups(held, kept, list(grads(arrays))):
        items = [{**{n: arrays[n] for n in group}, name: arrays[name] + 1e-3 * k}
                 for name in group for k in (-1, 2)]
        got = value({**held, **{n: np.stack([item[n] for item in items]) for n in group}})
        assert got.shape == (len(items),), group
        want = [float(value({**arrays, **item})).hex() for item in items]
        assert [float(v).hex() for v in got] == want, group

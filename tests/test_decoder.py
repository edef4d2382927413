import tracemalloc

import numpy as np
import pytest

from smseg import decoder as dec
from smseg import rng
from smseg import synth
from smseg.embeddings import ClassEmbeddings

from oracles import naive_semantic_map


def _feats(rng_np, c=4, h=3, w=3):
    return rng_np.standard_normal((c, h, w)).astype(np.float32)


def test_decode_residual_identity_when_wv_zero():
    rng_np = np.random.default_rng(0)
    feats = _feats(rng_np)
    q = rng_np.standard_normal((3, 4)).astype(np.float32)
    params = dec.DecoderParams(
        wq=rng_np.standard_normal((4, 4)).astype(np.float32),
        wk=rng_np.standard_normal((4, 4)).astype(np.float32),
        wv=np.zeros((4, 4), dtype=np.float32))
    preds = dec.decode(q, feats, params)
    assert np.array_equal(preds.v, q)
    expect_m = q @ feats.reshape(4, -1)
    assert np.allclose(preds.m.reshape(3, -1), expect_m, atol=1e-6)


def test_decode_single_pixel_attention_is_one():
    rng_np = np.random.default_rng(1)
    feats = _feats(rng_np, h=1, w=1)
    q = rng_np.standard_normal((2, 4)).astype(np.float32)
    params = dec.DecoderParams.random(4, seed=5)
    preds = dec.decode(q, feats, params)
    # with one pixel softmax weight is exactly 1: residual is pix @ Wv
    pix = feats.reshape(4, 1).T
    expect_v = q + pix @ params.wv
    assert np.allclose(preds.v, expect_v, atol=1e-6)


def test_decode_matches_step_by_step_oracle():
    rng_np = np.random.default_rng(2)
    feats = _feats(rng_np, c=3, h=2, w=2)
    q0 = rng_np.standard_normal((2, 3)).astype(np.float32)
    params = dec.DecoderParams.random(3, seed=9)
    preds = dec.decode(q0, feats, params)

    pix = feats.reshape(3, -1).T.astype(np.float64)
    q = q0.astype(np.float64)
    logits = (q @ params.wq.astype(np.float64)) @ (
        pix @ params.wk.astype(np.float64)).T / np.sqrt(3.0)
    attn = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn /= attn.sum(axis=1, keepdims=True)
    assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-5)
    v = q + attn @ (pix @ params.wv.astype(np.float64))
    m = v @ pix.T
    assert np.allclose(preds.v, v, atol=1e-4)
    assert np.allclose(preds.m.reshape(2, -1), m, atol=1e-3)


def test_decode_permutation_equivariant():
    rng_np = np.random.default_rng(3)
    feats = _feats(rng_np)
    q = rng_np.standard_normal((5, 4)).astype(np.float32)
    params = dec.DecoderParams.random(4, seed=1)
    base = dec.decode(q, feats, params)
    perm = [3, 0, 4, 1, 2]
    swapped = dec.decode(q[perm], feats, params)
    assert np.array_equal(swapped.v, base.v[perm])
    assert np.array_equal(swapped.m, base.m[perm])


def test_decode_two_layers_compose():
    rng_np = np.random.default_rng(7)
    feats = _feats(rng_np)
    q = rng_np.standard_normal((3, 4)).astype(np.float32)
    one = dec.DecoderParams.random(4, seed=2, layers=1)
    two = dec.DecoderParams(wq=one.wq, wk=one.wk, wv=one.wv, layers=2)
    mid = dec.decode(q, feats, one)
    out = dec.decode(mid.v, feats, one)
    direct = dec.decode(q, feats, two)
    assert np.array_equal(direct.v, out.v)
    assert np.array_equal(direct.m, out.m)


def test_decode_width_mismatch():
    with pytest.raises(ValueError):
        dec.decode(np.zeros((2, 5), dtype=np.float32),
                   np.zeros((4, 2, 2), dtype=np.float32),
                   dec.DecoderParams.zeros(5))


def test_inject_zero_is_noop():
    qs = np.ones((2, 6), dtype=np.float32)
    out = dec.inject_random_queries(qs, k_r=0, seed=3)
    assert out[2:].shape == (0, 6)
    assert np.array_equal(out, qs)


def test_inject_deterministic_and_seed_sensitive():
    qs = np.zeros((1, 8), dtype=np.float32)
    a = dec.inject_random_queries(qs, k_r=4, seed=7)
    b = dec.inject_random_queries(qs, k_r=4, seed=7)
    c = dec.inject_random_queries(qs, k_r=4, seed=8)
    assert a[1:].tobytes() == b[1:].tobytes()
    assert a[1:].tobytes() != c[1:].tobytes()
    assert a[:1].tobytes() == qs.tobytes()         # prefix untouched


def test_inject_seed0_contract_vector():
    qs = np.zeros((1, 8), dtype=np.float32)
    out = dec.inject_random_queries(qs, k_r=1, seed=0, sigma=0.02)
    assert out[1].tobytes() == dec.RQ_SEED0_FIRST8.tobytes()


def test_injected_rows_do_not_perturb_predictions():
    rng_np = np.random.default_rng(4)
    feats = _feats(rng_np)
    q = rng_np.standard_normal((3, 4)).astype(np.float32)
    params = dec.DecoderParams(
        wq=rng_np.standard_normal((4, 4)).astype(np.float32),
        wk=rng_np.standard_normal((4, 4)).astype(np.float32),
        wv=np.zeros((4, 4), dtype=np.float32))
    base = dec.decode(q, feats, params)
    grown = dec.decode(dec.inject_random_queries(q, k_r=5, seed=0), feats, params)
    assert np.array_equal(grown.v[:3], base.v)
    assert np.array_equal(grown.m[:3], base.m)
    assert len(grown.v) == len(grown.m) == 8


def test_assemble_one_hot_queries():
    s = np.array([[0.0, 1.0, 0.0]])
    m = np.full((1, 2, 2), 5.0)
    labels = dec.assemble_semantic_map(s, m, (0, 1, 2))
    assert np.all(labels == 1)
    assert labels.dtype == np.uint8


def test_assemble_two_disjoint_regions():
    s = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = np.zeros((2, 2, 4))
    m[0, :, :2] = 50.0
    m[0, :, 2:] = -50.0
    m[1] = -m[0]
    labels = dec.assemble_semantic_map(s, m, (3, 7))
    assert np.all(labels[:, :2] == 3)
    assert np.all(labels[:, 2:] == 7)


def test_assemble_matches_per_pixel_oracle():
    rng_np = np.random.default_rng(5)
    s = rng_np.random((2, 2))
    m = rng_np.standard_normal((2, 2, 2))
    ids = (1, 0)                                    # unordered on purpose
    got = dec.assemble_semantic_map(s, m, ids)
    expect = naive_semantic_map(s, m, ids)
    assert np.array_equal(got.astype(np.int64), expect)


def test_assemble_tie_breaks_to_smallest_id():
    s = np.array([[0.5, 0.5]])
    m = np.zeros((1, 1, 1))
    assert dec.assemble_semantic_map(s, m, (4, 2)).item() == 2


def test_assemble_scale_invariance():
    rng_np = np.random.default_rng(6)
    s = rng_np.random((3, 4))
    m = rng_np.standard_normal((3, 3, 3))
    a = dec.assemble_semantic_map(s, m, (0, 1, 2, 3))
    b = dec.assemble_semantic_map(4.0 * s, m, (0, 1, 2, 3))
    assert np.array_equal(a, b)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("h, w", [(64, 64), (256, 256)])
def test_assemble_peak_memory_bounded_by_block_budget(h, w):
    # The readout takes the sigmoid, class scores and argmax one pixel
    # block at a time: its peak is one block plus the uint8 map, at any
    # H x W. At 256 x 256 one float64 mask stack alone is 24 MiB.
    k, n = 48, 4
    rng_np = np.random.default_rng(7)
    s = rng_np.random((k, n))
    m = rng_np.standard_normal((k, h, w)).astype(np.float32)
    labels, peak = _traced_peak(dec.assemble_semantic_map, s, m, range(n))
    assert labels.dtype == np.uint8
    assert peak <= dec._BLOCK_BYTES + h * w + 64 * 1024, peak


@pytest.mark.parametrize("budget", [1, 8 * 9 * 3, 8 * 9 * 5])
def test_assemble_blocks_match_per_pixel_oracle(monkeypatch, budget):
    # 5 queries, 2 classes, 63 pixels: blocks of 2, 3 and 5 pixels. Of
    # 2-pixel blocks, the last takes the lone leftover pixel.
    rng_np = np.random.default_rng(8)
    s = rng_np.random((5, 2))
    m = rng_np.standard_normal((5, 9, 7))
    monkeypatch.setattr(dec, "_BLOCK_BYTES", budget)
    got = dec.assemble_semantic_map(s, m, (7, 3))
    assert got.shape == (9, 7)
    assert np.array_equal(got.astype(np.int64), naive_semantic_map(s, m, (7, 3)))


@pytest.mark.parametrize("ids, match", [
    ((-1, 3), "class id -1 is negative"),
    ((0, 2 ** 31), "class id 2147483648 does not fit int32"),
])
def test_class_ids_outside_int32_range_are_rejected(ids, match):
    # -1 used to come out as 255, the default ignore id, in a uint8 map.
    with pytest.raises(ValueError, match=match):
        dec.assemble_semantic_map(np.zeros((2, 2)), np.zeros((2, 3, 3)), ids)
    with pytest.raises(ValueError, match=match):
        ClassEmbeddings.from_matrix(np.eye(2), ids)


def test_assemble_needs_a_class_id():
    with pytest.raises(ValueError, match="at least one class id"):
        dec.assemble_semantic_map(np.zeros((2, 0)), np.zeros((2, 3, 3)), ())


def test_assemble_keeps_the_largest_int32_id():
    labels = dec.assemble_semantic_map(np.array([[0.0, 1.0]]), np.zeros((1, 2, 2)),
                                       (0, 2 ** 31 - 1))
    assert labels.dtype == np.int32 and np.all(labels == 2 ** 31 - 1)


def _decode_out_of_place(queries, feats, params):
    """decode as written before its softmax went in place: a fresh array
    for every step."""
    c, h, w = feats.shape
    pix = feats.reshape(c, h * w).T
    q = np.asarray(queries, dtype=np.float32)
    scale = 1.0 / np.sqrt(np.float32(c))
    for _ in range(params.layers):
        x = (q @ params.wq) @ (pix @ params.wk).T * scale
        x = x - x.max(axis=1, keepdims=True)
        e = np.exp(x)
        q = q + (e / e.sum(axis=1, keepdims=True)) @ (pix @ params.wv)
    return q, (q @ pix.T).reshape(len(q), h, w)


@pytest.mark.parametrize("layers", [1, 3])
def test_decode_in_place_softmax_bitwise_vs_out_of_place(layers):
    rng_np = np.random.default_rng(11)
    feats = _feats(rng_np, c=8, h=9, w=7)
    q = rng_np.standard_normal((6, 8)).astype(np.float32)
    params = dec.DecoderParams.random(8, seed=4, scale=0.5, layers=layers)
    preds = dec.decode(q, feats, params)
    v, m = _decode_out_of_place(q, feats, params)
    assert preds.v.tobytes() == v.tobytes()
    assert preds.m.tobytes() == m.tobytes()


@pytest.mark.parametrize("layers", [1, 3])
def test_decode_peak_memory_is_one_logit_buffer_beyond_outputs(layers):
    # 200 queries over 64 x 64 pixels: one (K, P) float32 array is 3.1 MiB.
    # The attention logits are scaled and softmaxed in one buffer, freed
    # before the mask logits; the (P, C) key and value products and small
    # (K, C) arrays come on top.
    k, c, h, w = 200, 16, 64, 64
    rng_np = np.random.default_rng(12)
    feats = _feats(rng_np, c=c, h=h, w=w)
    q = rng_np.standard_normal((k, c)).astype(np.float32)
    params = dec.DecoderParams.random(c, seed=3, layers=layers)
    preds, peak = _traced_peak(dec.decode, q, feats, params)
    outputs = preds.v.nbytes + preds.m.nbytes
    buffer, pix = k * h * w * 4, h * w * c * 4
    assert peak <= outputs + buffer + 2 * pix + 64 * 1024, (peak, outputs, buffer)


def test_gaussian_stream_offsets():
    full = rng.gaussians(5, 8)
    tail = rng.gaussians(5, 4, start_pair=2)
    assert np.array_equal(full[4:], tail)
    # odd counts, and offsets at and past the end of one gen_synth chunk
    chunk = 2 * (synth._BLOCK_BYTES // 64)
    full = rng.gaussians(5, chunk + 41)
    for start_pair, count in [(0, 7), (3, 1), (3, 9), (chunk // 2 - 1, 5),
                              (chunk // 2, 41), (chunk // 2 + 5, 31)]:
        got = rng.gaussians(5, count, start_pair=start_pair)
        assert got.tobytes() == full[2 * start_pair:2 * start_pair + count].tobytes()

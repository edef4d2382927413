import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from smseg import clustering as cl
from smseg.synth import gen_synth

from oracles import (fixed_order_dot, naive_fuse, naive_lloyd, naive_window_seeds,
                     naive_window_starts)

# K-means is cosine only; these cases keep the ids they had under two metrics.
cosine = pytest.mark.parametrize("metric", ["cosine"])


def test_window_starts_match_stated_rule():
    assert cl.window_starts(4, 2) == [0, 1, 2]
    assert cl.window_starts(5, 4) == [0, 1]
    assert cl.window_starts(64, 8) == naive_window_starts(64, 8)
    assert cl.window_starts(7, 7) == [0]
    with pytest.raises(ValueError):
        cl.window_starts(4, 5)


def test_window_seeds_constant_map():
    feats = np.full((3, 6, 6), 2.5, dtype=np.float32)
    seeds = cl.window_seeds(feats, 4)
    assert np.all(seeds == np.float32(2.5))


def test_window_seeds_hand_case():
    feats = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
    seeds = cl.window_seeds(feats, 2)
    assert seeds[0, 0] == np.float32(2.5)        # (0+1+4+5)/4


def test_window_seeds_bitwise_vs_naive_oracle():
    rng = np.random.default_rng(11)
    for h, w, s in [(4, 4, 2), (5, 5, 4), (9, 7, 3), (6, 6, 6), (12, 10, 5)]:
        feats = rng.standard_normal((3, h, w)).astype(np.float32)
        seeds = cl.window_seeds(feats, s)
        expect = naive_window_seeds(feats, s)
        assert seeds.dtype == np.float32
        assert np.array_equal(seeds, expect)


@pytest.mark.parametrize("budget", [1, 3000, cl._SEED_BYTES])
def test_window_seeds_chunks_bitwise_vs_naive_oracle(budget, monkeypatch):
    # budget 1 takes one channel a chunk, 3000 bytes a few; bytes compare signs
    monkeypatch.setattr(cl, "_SEED_BYTES", budget)
    rng = np.random.default_rng(12)
    for c, h, w, s in [(5, 9, 7, 3), (4, 12, 10, 5), (3, 6, 6, 6), (1, 5, 5, 5), (1, 9, 9, 4)]:
        feats = (rng.standard_normal((c, h, w)) * 10.0 ** rng.uniform(-3, 3, (c, h, w))
                 ).astype(np.float32)
        feats[0, :s, :s] = -0.0                  # window 0 of channel 0 is all -0.0
        got = cl.window_seeds(feats, s)
        assert got[0, 0].tobytes() == np.float32(0.0).tobytes()
        assert got.tobytes() == naive_window_seeds(feats, s).tobytes(), (c, h, w, s)


@pytest.mark.parametrize("c, h, w", [(1, 4, 4), (2, 4, 4), (1, 4, 5)])
def test_window_seeds_sum_in_tap_order_where_pairwise_rounds_apart(c, h, w):
    # Taps 1, 2^-54 (x7), 2^-24, 2^-54 (x7) sum in order to the float32 tie
    # 1 + 2^-24, which rounds to even; numpy's pairwise sum would carry the
    # 2^-54s past the tie, so window 0 would round up.
    feats = np.full((c, h, w), 2.0 ** -54, dtype=np.float32)
    feats[:, 0, 0] = 1.0
    feats[:, 2, 0] = 2.0 ** -24
    got = cl.window_seeds(feats, 4)
    assert got[0].tolist() == [0.0625] * c
    assert got.tobytes() == naive_window_seeds(feats, 4).tobytes()


def test_multi_scale_seed_count_64():
    feats = np.zeros((2, 64, 64), dtype=np.float32)
    cfg = cl.WindowConfig(window_sizes=(8, 16, 32))
    seeds = cl.multi_scale_seeds(feats, cfg)
    per_axis = [len(cl.window_starts(64, s)) for s in (8, 16, 32)]
    assert per_axis == [15, 7, 3]
    assert len(seeds) == sum(n * n for n in per_axis) == 283


def test_multi_scale_single_equals_window_seeds():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((2, 10, 10)).astype(np.float32)
    cfg = cl.WindowConfig(window_sizes=(4,))
    got = cl.multi_scale_seeds(feats, cfg)
    expect = cl.window_seeds(feats, 4)
    assert np.array_equal(got, expect)


def test_multi_scale_deterministic():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((2, 20, 20)).astype(np.float32)
    cfg = cl.WindowConfig(window_sizes=(4, 8))
    a = cl.multi_scale_seeds(feats, cfg)
    b = cl.multi_scale_seeds(feats, cfg)
    assert a.tobytes() == b.tobytes()


def test_kmeans_single_seed():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((3, 4, 4)).astype(np.float32)
    cfg = cl.WindowConfig(window_sizes=(4,), kmeans_iters=5)
    result = cl.kmeans(feats, cl.multi_scale_seeds(feats, cl.WindowConfig(
        window_sizes=(4,))), cfg)
    assert result.centroids.shape[0] == 1
    assert np.all(result.assignments == 0)
    pix = feats.reshape(3, -1).T.astype(np.float64)
    pix = pix / np.linalg.norm(pix, axis=1, keepdims=True)
    mean = pix.mean(axis=0)
    expect = mean / np.linalg.norm(mean)
    assert np.allclose(result.centroids[0], expect, atol=1e-6)


def test_kmeans_two_orthogonal_populations():
    feats = np.zeros((2, 2, 4), dtype=np.float32)
    feats[0, :, :2] = 1.0            # left half points along e0
    feats[1, :, 2:] = 1.0            # right half along e1
    seeds = np.array([[0.9, 0.1], [0.1, 0.9]], dtype=np.float32)
    cfg = cl.WindowConfig(kmeans_iters=3, window_sizes=(2,))
    result = cl.kmeans(feats, seeds, cfg)
    assign = result.assignments
    assert np.all(assign[:, :2] == assign[0, 0])
    assert np.all(assign[:, 2:] == assign[0, 2])
    assert assign[0, 0] != assign[0, 2]
    # brute-force nearest-centroid agreement
    pix = feats.reshape(2, -1).T.astype(np.float64)
    pix = pix / np.linalg.norm(pix, axis=1, keepdims=True)
    sims = pix @ result.centroids.astype(np.float64).T
    assert np.array_equal(np.argmax(sims, axis=1), assign.ravel())
    assert len(result.objective_trace) <= 3


@cosine
def test_kmeans_objective_non_increasing(metric):
    rng = np.random.default_rng(7)
    for trial in range(10):
        feats = rng.standard_normal((4, 8, 8)).astype(np.float32)
        cfg = cl.WindowConfig(window_sizes=(4,), kmeans_iters=8, kmeans_tol=1e-12)
        result = cl.kmeans(feats, cl.multi_scale_seeds(feats, cfg), cfg)
        trace = result.objective_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_kmeans_duplicate_seeds_compact():
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((3, 6, 6)).astype(np.float32)
    seed = rng.standard_normal(3).astype(np.float32)
    seeds = np.stack([seed, seed, seed])
    cfg = cl.WindowConfig(window_sizes=(2,), kmeans_iters=4)
    result = cl.kmeans(feats, seeds, cfg)
    assert result.centroids.shape[0] == 1
    assert np.all(result.assignments == 0)


def test_kmeans_zero_seeds_error():
    cfg = cl.WindowConfig()
    with pytest.raises(ValueError):
        cl.kmeans(np.zeros((2, 4, 4), dtype=np.float32),
                  np.zeros((0, 2), dtype=np.float32), cfg)


def _blob_features(h, w, dim=16, seed=0):
    """An h x w crop of a synthetic blob fixture (4 blobs, small noise)."""
    fix = gen_synth(seed=seed, blobs=4, seen=2, size=max(h, w), dim=dim)
    return np.ascontiguousarray(fix.features[:, :h, :w])


def _assert_lloyd_oracle(feats, seeds, cfg):
    # The objective adds a fixed-order dot per pixel where the oracle reads
    # a BLAS product, so it is compared to rounding; the rest bitwise.
    result = cl.kmeans(feats, seeds, cfg)
    assign, cents, trace = naive_lloyd(feats, seeds, cfg.kmeans_iters, cfg.kmeans_tol)
    assert result.assignments.dtype == np.int32
    assert result.assignments.tobytes() == assign.tobytes()
    assert result.centroids.tobytes() == cents.tobytes()
    assert len(result.objective_trace) == len(trace)
    assert np.allclose(result.objective_trace, trace, rtol=1e-12, atol=0.0)
    return result


def _assert_fuse_oracle(result, tau):
    masks, cents = cl.fuse_masks(result, tau=tau)
    expect_masks, expect_cents = naive_fuse(result.assignments, result.centroids, tau)
    assert masks.dtype == np.uint8 and cents.dtype == np.float32
    assert masks.shape == expect_masks.shape
    assert masks.tobytes() == expect_masks.tobytes()
    assert cents.tobytes() == expect_cents.tobytes()
    return masks


@cosine
@pytest.mark.parametrize("h, w", [(100, 100), (128, 128), (96, 160)])
def test_kmeans_and_fuse_bitwise_vs_dense_oracle(metric, h, w):
    # 756, 1235 and 931 seeds: every map takes several row blocks, the
    # last one partial, so blocked scoring must equal one dense product.
    feats = _blob_features(h, w, seed=h + w)
    cfg = cl.WindowConfig(window_sizes=(8, 16, 32), kmeans_iters=4)
    seeds = cl.multi_scale_seeds(feats, cfg)
    rows = max(1, cl._BLOCK_BYTES // (4 * (len(seeds) + feats.shape[0])))
    assert rows < h * w and (h * w) % rows != 0
    result = _assert_lloyd_oracle(feats, seeds, cfg)
    for tau in (0.9, 0.5):
        _assert_fuse_oracle(result, tau)


@cosine
def test_kmeans_one_row_blocks_bitwise_vs_dense_oracle(metric, monkeypatch):
    # When one row of scores outgrows the budget, blocks floor at one row.
    # A one-row block is a matrix-vector product, which BLAS may sum in
    # another order than the matrix product: the picks, and so centroids
    # and masks, must still match bitwise, the objective to rounding.
    feats = _blob_features(24, 20, seed=5)
    cfg = cl.WindowConfig(window_sizes=(4, 8), kmeans_iters=5)
    seeds = cl.multi_scale_seeds(feats, cfg)
    monkeypatch.setattr(cl, "_BLOCK_BYTES", 8 * len(seeds) - 1)
    result = _assert_lloyd_oracle(feats, seeds, cfg)
    _assert_fuse_oracle(result, 0.9)


@cosine
def test_kmeans_and_fuse_single_cluster_vs_oracle(metric):
    feats = _blob_features(16, 16, seed=2)
    cfg = cl.WindowConfig(window_sizes=(16,), kmeans_iters=3)
    result = _assert_lloyd_oracle(feats, cl.multi_scale_seeds(feats, cfg), cfg)
    assert result.centroids.shape[0] == 1
    masks = _assert_fuse_oracle(result, 0.9)
    assert masks.shape[0] == 1 and np.all(masks == 1)


def test_fuse_merges_over_several_rounds_vs_oracle():
    # tau is 21 degrees. Round 1 merges only a and b (20 degrees apart).
    # e sits 19 degrees from their mean m1, off their plane, and 21.4 from
    # each, so it joins in round 2. f sits 20.5 degrees from the mean m2 of
    # a, b, e, along a fourth axis, and more than 21 from m1 and every
    # member, so it joins in round 3. g points away and never merges.
    deg = np.radians
    tau = np.cos(deg(21.0))
    t = np.arctan2(np.sin(deg(19.0)), 2 * np.cos(deg(10.0)) + np.cos(deg(19.0)))
    m2 = np.array([np.cos(t), 0.0, np.sin(t), 0.0])
    cents = np.array([
        [np.cos(deg(10.0)), -np.sin(deg(10.0)), 0.0, 0.0],           # a
        [np.cos(deg(10.0)), np.sin(deg(10.0)), 0.0, 0.0],            # b
        [np.cos(deg(19.0)), 0.0, np.sin(deg(19.0)), 0.0],            # e
        np.cos(deg(20.5)) * m2 + [0.0, 0.0, 0.0, np.sin(deg(20.5))],  # f
        [-1.0, 0.0, 0.0, 0.0],                                       # g
    ], dtype=np.float32)
    assign = np.array([[0, 1, 2, 3, 4]])

    def over_tau(vecs):
        unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        return np.triu(unit @ unit.T >= tau, 1)

    c64 = cents.astype(np.float64)
    assert np.argwhere(over_tau(c64)).tolist() == [[0, 1]]
    m1 = c64[0] + c64[1]
    assert np.argwhere(over_tau(np.stack([m1, c64[2], c64[3]]))).tolist() == [[0, 1]]
    assert over_tau(np.stack([m1 + c64[2], c64[3]]))[0, 1]
    masks = _assert_fuse_oracle(_cluster_result(assign, cents), tau)
    assert masks.tolist() == [[[1, 1, 1, 1, 0]], [[0, 0, 0, 0, 1]]]


def _kmeans_peak_and_bound(feats, cfg):
    seeds = cl.multi_scale_seeds(feats, cfg)
    c, h, w = feats.shape
    tracemalloc.start()
    try:
        cl.kmeans(feats, seeds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one scoring block (scores and proposal rows) plus its argmax and row
    # index, one float64 (P, C) copy of the pixels, (P,) vectors, and a
    # few (k, C) centroid arrays
    bound = (cl._BLOCK_BYTES * 5 // 4 + h * w * c * 8 + 8 * h * w * 8
             + 8 * len(seeds) * c * 8)
    return peak, bound, h * w * len(seeds) * 8


@cosine
def test_kmeans_peak_memory_bounded_by_block_budget(metric):
    # 128 x 128 pixels, 1235 seeds: the dense score matrix would be
    # 16384 * 1235 * 8 bytes = 154 MiB.
    feats = _blob_features(128, 128, dim=16, seed=1)
    cfg = cl.WindowConfig(window_sizes=(8, 16, 32), kmeans_iters=3)
    peak, bound, dense = _kmeans_peak_and_bound(feats, cfg)
    assert peak < bound < dense / 2, (peak, bound, dense)


def test_kmeans_peak_memory_holds_one_copy_of_wide_pixels():
    # 128 channels and 274 seeds: one (P, C) float64 copy is 16 MiB, two
    # the score block's size. A second pixel copy, or proposal rows
    # outside the block budget, break the bound.
    feats = _blob_features(128, 128, dim=128, seed=1)
    cfg = cl.WindowConfig(window_sizes=(16, 32), kmeans_iters=3)
    peak, bound, _ = _kmeans_peak_and_bound(feats, cfg)
    assert peak < bound, (peak, bound)


def _cluster_result(assign, cents):
    return cl.ClusterResult(assignments=np.asarray(assign, dtype=np.int32),
                            centroids=np.asarray(cents, dtype=np.float32),
                            objective_trace=[])


def test_fuse_identical_centroids_merge():
    assign = np.array([[0, 1], [0, 1]])
    cents = np.array([[1.0, 0.0], [1.0, 0.0]])
    masks, cents_out = cl.fuse_masks(_cluster_result(assign, cents), tau=0.9)
    assert masks.shape[0] == 1
    assert np.all(masks[0] == 1)
    assert np.allclose(cents_out[0], [1.0, 0.0])


def test_fuse_merges_at_exactly_tau():
    # e1 and e1 have cosine exactly 1.0: a pair at tau merges.
    assign = np.array([[0, 1]])
    masks, _ = cl.fuse_masks(_cluster_result(assign, np.eye(2, 3)[[0, 0]]), tau=1.0)
    assert masks.tolist() == [[[1, 1]]]


def test_fuse_proposal_noise_keeps_oracle_groups(monkeypatch):
    # Each K-means cluster is split into its even and odd columns, which
    # share its centroid, so each pair of halves has cosine 1 up to the
    # last bits. Moving every fusion proposal by up to 4 ulp, more than any
    # other BLAS split or kernel could, flips many of them across tau = 1,
    # yet the groups and centroids still equal naive_fuse's, which scores
    # by the fixed-order dot.
    feats = _blob_features(64, 64, seed=7)
    cfg = cl.WindowConfig(window_sizes=(8, 16, 32), kmeans_iters=4)
    clusters = cl.kmeans(feats, cl.multi_scale_seeds(feats, cfg), cfg)
    k = len(clusters.centroids)
    result = _cluster_result(clusters.assignments + k * (np.arange(64) % 2),
                             np.concatenate([clusters.centroids] * 2))
    rng = np.random.default_rng(21)
    clean, flips = cl._propose, []

    def noisy(x, c):
        scores = clean(x, c)
        moved = scores + rng.integers(-4, 5, size=scores.shape) * np.spacing(scores)
        flips.append(np.count_nonzero((moved >= tau) != (scores >= tau)))
        return moved

    monkeypatch.setattr(cl, "_propose", noisy)
    for tau in (1.0, 0.9):
        _assert_fuse_oracle(result, tau)
    assert sum(flips) > 0


def test_fuse_peak_memory_bounded_by_block_budget():
    # 2000 centroids in a narrow cone: every pair is an edge, the most a
    # block can hold. The dense similarity would be 2000^2 * 8 = 32 MB.
    k, width = 2000, 16
    cents = np.eye(1, width) + 0.05 * np.random.default_rng(31).standard_normal((k, width))
    result = _cluster_result(np.arange(k)[None], cents)
    tracemalloc.start()
    try:
        masks, _ = cl.fuse_masks(result, tau=0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks.shape == (1, 1, k)
    # one block, and a few (k, C) and (k,) arrays
    dense, bound = k * k * 8, cl._BLOCK_BYTES + 8 * k * width * 8 + 16 * k * 8
    assert peak < bound < dense / 2, (peak, bound, dense)


@pytest.mark.parametrize("exponent", [-100, 100])
def test_fuse_ignores_power_of_two_scale_vs_oracle(exponent):
    # Fusion merges and renormalizes by direction only, so centroids scaled
    # by a power of two fuse bitwise as at scale 1, here and in the oracle.
    feats = _blob_features(48, 48, seed=1)
    cfg = cl.WindowConfig(kmeans_iters=4)
    clusters = cl.kmeans(feats, cl.multi_scale_seeds(feats, cfg), cfg)
    # each cluster's mean raw pixel: centroids of unequal, non-unit norms
    pix = feats.reshape(len(feats), -1).T.astype(np.float64)
    labels = clusters.assignments.ravel()
    result = _cluster_result(clusters.assignments, [
        pix[labels == i].mean(axis=0) for i in range(len(clusters.centroids))])
    base_masks, base_cents = cl.fuse_masks(result, tau=0.9)
    scaled = _cluster_result(result.assignments,
                             result.centroids * np.float32(2.0 ** exponent))
    masks = _assert_fuse_oracle(scaled, 0.9)
    assert masks.tobytes() == base_masks.tobytes()
    assert cl.fuse_masks(scaled, tau=0.9)[1].tobytes() == base_cents.tobytes()


def test_fuse_keeps_a_zero_centroid_zero():
    masks, cents = cl.fuse_masks(_cluster_result([[0, 1, 2]], [[0.0, 0.0], [0.0, 0.0],
                                                               [2.0, 0.0]]), tau=0.9)
    assert masks.shape[0] == 3 and cents.tolist() == [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_fuse_orthogonal_no_merge():
    assign = np.array([[0, 1], [0, 1]])
    cents = np.array([[1.0, 0.0], [0.0, 1.0]])
    masks, _ = cl.fuse_masks(_cluster_result(assign, cents), tau=0.9)
    assert masks.shape[0] == 2


def test_fuse_transitive_chain():
    # cos(a,b) = cos(b,c) ~ 0.707 >= 0.7, cos(a,c) = 0 < 0.7: all merge
    r = np.sqrt(0.5)
    cents = np.array([[1.0, 0.0], [r, r], [0.0, 1.0]])
    assign = np.array([[0, 1, 2]])
    masks, _ = cl.fuse_masks(_cluster_result(assign, cents), tau=0.7)
    assert masks.shape[0] == 1


def test_fuse_idempotent_and_partition():
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((4, 12, 12)).astype(np.float32)
    cfg = cl.WindowConfig(window_sizes=(4, 6), kmeans_iters=6)
    result = cl.kmeans(feats, cl.multi_scale_seeds(feats, cfg), cfg)
    masks, cents = cl.fuse_masks(result, tau=0.95)
    assert masks.sum() == 12 * 12                       # pixel partition
    assert np.all(masks.sum(axis=0) <= 1)               # disjoint
    refused, _ = cl.fuse_masks(_cluster_result(
        np.argmax(masks, axis=0), cents), tau=0.95)
    assert refused.shape[0] == masks.shape[0]


def test_fuse_bad_tau():
    res = _cluster_result(np.zeros((2, 2)), np.array([[1.0, 0.0]]))
    for tau in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            cl.fuse_masks(res, tau=tau)


def test_restrict_all_ones_and_all_zeros():
    masks = np.zeros((2, 8, 8), dtype=np.uint8)
    masks[0, :4] = 1
    masks[1, 4:] = 1
    cents = np.eye(2, dtype=np.float32)
    full = cl.restrict_candidates(masks, cents, np.ones((8, 8), np.uint8), min_area=16)
    assert full.count == 2
    assert np.array_equal(full.masks, masks)
    none = cl.restrict_candidates(masks, cents, np.zeros((8, 8), np.uint8))
    assert none.count == 0


def test_restrict_min_area_drop():
    masks = np.zeros((1, 10, 10), dtype=np.uint8)
    masks[0, :4, :5] = 1                                 # area 20
    ignore = np.zeros((10, 10), dtype=np.uint8)
    ignore[:2, :5] = 1                                   # overlap 10 < 16
    out = cl.restrict_candidates(masks, np.eye(1, 3, dtype=np.float32),
                                 ignore, min_area=16)
    assert out.count == 0


def test_restrict_shape_mismatch():
    with pytest.raises(ValueError):
        cl.restrict_candidates(np.zeros((1, 4, 4), np.uint8),
                               np.zeros((1, 2), np.float32),
                               np.zeros((5, 5), np.uint8))


@pytest.mark.parametrize("where, bad", [("feats", np.nan), ("feats", np.inf),
                                        ("feats", -np.inf), ("seeds", np.nan),
                                        ("seeds", np.inf)])
def test_kmeans_rejects_non_finite_inputs(where, bad):
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((3, 6, 6)).astype(np.float32)
    seeds = rng.standard_normal((4, 3)).astype(np.float32)
    (feats[1, 2, 3:4] if where == "feats" else seeds[2, 1:2])[:] = bad
    with pytest.raises(ValueError, match=where):
        cl.kmeans(feats, seeds, cl.WindowConfig(window_sizes=(2,)))


@cosine
def test_kmeans_proposal_noise_keeps_oracle_picks(metric, monkeypatch):
    # Moving every float32 proposal by up to 4 ulp, which is more than any
    # other BLAS split or kernel could, changes the proposal's own argmax
    # on some pixels but no pick, centroid or iteration count.
    feats = _blob_features(128, 128, seed=7)
    cfg = cl.WindowConfig(window_sizes=(8, 16, 32), kmeans_iters=4)
    seeds = cl.multi_scale_seeds(feats, cfg)
    rng = np.random.default_rng(20)
    clean, flips = cl._propose, []

    def noisy(x32, c32):
        scores = clean(x32, c32)
        ulps = rng.integers(-4, 5, size=scores.shape).astype(np.float32)
        moved = scores + ulps * np.spacing(scores)
        flips.append(np.count_nonzero(np.argmax(moved, 1) != np.argmax(scores, 1)))
        return moved

    monkeypatch.setattr(cl, "_propose", noisy)
    _assert_lloyd_oracle(feats, seeds, cfg)
    assert sum(flips) > 0


@pytest.mark.parametrize("metric, seeds, winner", [
    # cos(2e-6) and cos(1e-6) both round to 1.0 in float32
    ("cosine", [[np.cos(2e-6), np.sin(2e-6)], [np.cos(1e-6), np.sin(1e-6)]], 1),
    # mirror images: exact ties in float64 too, so the first index wins
    ("cosine", [[0.6, -0.8], [0.6, 0.8]], 0),
])
def test_kmeans_float32_ties_are_rescored(metric, seeds, winner, monkeypatch):
    seeds = np.array(seeds)
    feats = np.array([1.0, 0.0]).reshape(2, 1, 1)
    proposal = cl._propose(np.float32([[1.0, 0.0]]), seeds.astype(np.float32))
    assert proposal[0, 0] == proposal[0, 1]
    rescored, real = [], cl._rescore
    monkeypatch.setattr(cl, "_rescore", lambda *a: rescored.append(1) or real(*a))
    cfg = cl.WindowConfig(window_sizes=(1,), kmeans_iters=1)
    result = _assert_lloyd_oracle(feats, seeds, cfg)
    assert rescored
    pick = seeds[winner] / np.linalg.norm(seeds[winner])
    assert result.centroids.tobytes() == pick.astype(np.float32)[None].tobytes()


@cosine
def test_kmeans_duplicate_seeds_keep_first_index(metric):
    # A later copy ties with the first everywhere, so it never takes a
    # pixel: the run equals the one without copies, bit for bit.
    feats = _blob_features(24, 20, seed=3)
    cfg = cl.WindowConfig(window_sizes=(4, 8), kmeans_iters=5)
    unique = cl.multi_scale_seeds(feats, cfg)[::3]
    copies = np.concatenate([unique, unique[::-1], unique[::2]])
    result = _assert_lloyd_oracle(feats, copies, cfg)
    alone = cl.kmeans(feats, unique, cfg)
    assert result.assignments.tobytes() == alone.assignments.tobytes()
    assert result.centroids.tobytes() == alone.centroids.tobytes()
    assert result.objective_trace == alone.objective_trace


@cosine
def test_kmeans_flat_map_never_rescores(metric, monkeypatch):
    # Every window seed of a flat map is the same vector; scoring the
    # copies would leave every pixel tied across all of them.
    feats = np.full((4, 32, 32), 0.25, dtype=np.float32)
    cfg = cl.WindowConfig(window_sizes=(4, 8), kmeans_iters=3)
    seeds = cl.multi_scale_seeds(feats, cfg)
    assert len(seeds) > 1 and np.all(seeds == seeds[0])
    monkeypatch.setattr(cl, "_rescore", lambda *a: pytest.fail("rescored"))
    result = cl.kmeans(feats, seeds, cfg)
    assert result.centroids.shape[0] == 1 and np.all(result.assignments == 0)


@pytest.mark.parametrize("factor", [1e-30, 1e18])
def test_kmeans_extreme_scales_certify_most_pixels(factor, monkeypatch):
    # Products of these maps' raw pixels would flush to zero in float32
    # (x 1e-30) or overflow it (x 1e18), and every pixel would be rescored
    # in float64. Unit pixels are proposed instead, so few are.
    feats = _blob_features(96, 96, seed=96) * np.float32(factor)
    cfg = cl.WindowConfig(window_sizes=(8, 16, 32), kmeans_iters=4)
    seeds = cl.multi_scale_seeds(feats, cfg)
    rescored, real = [], cl._rescore

    def spy(px, pairs, *args):
        rescored.append(len(np.unique(np.concatenate([p for p, _ in pairs]))))
        return real(px, pairs, *args)

    monkeypatch.setattr(cl, "_rescore", spy)
    result = _assert_lloyd_oracle(feats, seeds, cfg)
    assert sum(rescored) <= 0.03 * feats[0].size * len(result.objective_trace), rescored


@pytest.mark.parametrize("exponent", [-100, -60, 40, 100])
def test_cosine_kmeans_ignores_power_of_two_scale(exponent):
    # K-means sees unit directions only, so an exact rescaling leaves every
    # bit of the run as it is at scale 1: at 2^-60 every pixel's norm is
    # below 1e-12 (a norm floor there left 5 clusters where scale 1 has 59),
    # and at 2^100 its float32 products would overflow.
    feats = gen_synth(seed=1, blobs=4, seen=2, size=48, dim=8).features
    cfg = cl.WindowConfig(kmeans_iters=2)
    scaled = feats * np.float32(2.0 ** exponent)
    base = cl.kmeans(feats, cl.multi_scale_seeds(feats, cfg), cfg)
    got = cl.kmeans(scaled, cl.multi_scale_seeds(scaled, cfg), cfg)
    assert got.assignments.tobytes() == base.assignments.tobytes()
    assert got.centroids.tobytes() == base.centroids.tobytes()
    assert got.objective_trace == base.objective_trace


@pytest.mark.parametrize("factor", [1e-160, 1e-170])
def test_kmeans_normalizes_pixels_whose_squares_underflow(factor):
    # The squares of these float64 pixels lose bits (x 1e-160) or underflow
    # to zero (x 1e-170), so a plain norm leaves them not quite unit, or
    # not normalized at all: one cluster with objective 576 at x 1e-170.
    # Each row is scaled by a power of two before its norm instead, so the
    # map clusters as at x 1, and as the dense oracle says.
    feats = _blob_features(24, 24, dim=8, seed=1)
    cfg = cl.WindowConfig(window_sizes=(4, 8), kmeans_iters=3)
    seeds = cl.multi_scale_seeds(feats, cfg)
    base = cl.kmeans(feats, seeds, cfg)
    result = _assert_lloyd_oracle(feats.astype(np.float64) * factor, seeds, cfg)
    assert len(base.centroids) > 1
    assert result.assignments.tobytes() == base.assignments.tobytes()
    assert result.centroids.tobytes() == base.centroids.tobytes()
    assert np.allclose(result.objective_trace, base.objective_trace, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dtype, bits", [(np.float32, 24), (np.float64, 53)])
def test_margins_cover_the_exact_rounding_bound(dtype, bits):
    # K-means certifies float32 proposals and fusion float64 ones by
    # 2.5 gamma_{C+2} |x| max|c|, gamma_n = n u / (1 - n u) (Higham 3.1).
    # Here gamma is exact. The float margin may round a few ulp low; a
    # gamma short by a factor (1 - n u), as with a multiplication in place
    # of that division, falls short by 2 n u, far more.
    width = 32
    rng = np.random.default_rng(30)
    x = rng.standard_normal((64, width))
    cents = rng.standard_normal((16, width))
    norm = np.sqrt(np.sum(x * x, axis=1))
    norm_c = Fraction(float(np.sqrt(np.max(np.sum(cents * cents, axis=1)))))
    got = cl._margins(norm, cents, dtype)
    n_u = Fraction(width + 2, 2 ** bits)
    gamma = n_u / (1 - n_u)
    ulps = 1 - Fraction(4, 2 ** 53)
    for margin, nx in zip(got.tolist(), norm.tolist()):
        assert Fraction(margin) >= Fraction(5, 2) * gamma * Fraction(nx) * norm_c * ulps


@cosine
def test_kmeans_held_pairs_flush_vs_oracle(metric, monkeypatch):
    # A near-flat map leaves most pixels uncertain, and a small budget
    # makes the held candidate pairs outgrow it inside a row block, so they
    # are rescored in many batches per step: picks and centroids must
    # still equal the dense oracle's and the default budget's. Score gaps
    # here reach 1e-16, where a BLAS product can round two centroids to a
    # tie (cosine, pixel 278 of step 2), so the oracle sums in fixed order.
    noise = np.random.default_rng(24).standard_normal((8, 24, 24))
    feats = (1.0 + 1e-6 * noise).astype(np.float32)
    cfg = cl.WindowConfig(window_sizes=(4, 8), kmeans_iters=4)
    seeds = cl.multi_scale_seeds(feats, cfg)
    default = cl.kmeans(feats, seeds, cfg)
    calls, real = [], cl._rescore
    monkeypatch.setattr(cl, "_BLOCK_BYTES", 4096)
    monkeypatch.setattr(cl, "_rescore", lambda *a: calls.append(1) or real(*a))
    result = cl.kmeans(feats, seeds, cfg)
    assign, cents, trace = naive_lloyd(feats, seeds, cfg.kmeans_iters, cfg.kmeans_tol,
                                       fixed_order_dot)
    assert len(calls) > 10 * len(result.objective_trace)
    assert result.objective_trace == trace
    for other in (assign, default.assignments):
        assert result.assignments.tobytes() == other.tobytes()
    for other in (cents, default.centroids):
        assert result.centroids.tobytes() == other.tobytes()

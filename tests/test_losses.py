import math
import re
import warnings

import numpy as np
import pytest

from smseg import losses as L
from smseg.embeddings import ClassEmbeddings, build_joint_embedding
from smseg.matcher import Assignment, Pair, hungarian


def test_class_similarity_values():
    e = build_joint_embedding(
        ClassEmbeddings.from_matrix(np.eye(3, dtype=np.float32), (0, 1, 2)),
        np.zeros((0, 3), dtype=np.float32)).matrix
    s = L.class_similarity(np.zeros((2, 3), dtype=np.float32), e)
    assert np.allclose(s, 0.5)
    s = L.class_similarity(np.eye(3, dtype=np.float32), e)
    assert abs(s[0, 0] - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12   # sigmoid(1)
    assert abs(s[0, 0] - 0.7311) < 5e-5
    with pytest.raises(ValueError):
        L.class_similarity(np.zeros((2, 4), dtype=np.float32), e)


def test_class_similarity_monotone():
    e = np.eye(1, 4, dtype=np.float32)
    lo = L.class_similarity(0.2 * np.eye(1, 4, dtype=np.float32), e)
    hi = L.class_similarity(0.9 * np.eye(1, 4, dtype=np.float32), e)
    assert hi[0, 0] > lo[0, 0]


def test_dice_hand_values():
    y = np.array([0.0, 1.0, 1.0, 0.0])
    assert L.dice_loss(y, y) == 0.0
    # disjoint unit areas: 1 - eps/(2+eps) = 2/3
    m = np.array([1.0, 0.0, 0.0, 0.0])
    yy = np.array([0.0, 1.0, 0.0, 0.0])
    assert abs(L.dice_loss(m, yy) - 2.0 / 3.0) < 1e-12
    # m covers {p1,p2}, y covers {p2,p3} -> 1 - (2+1)/(2+2+1) = 0.4
    m = np.array([1.0, 1.0, 0.0, 0.0])
    yy = np.array([0.0, 1.0, 1.0, 0.0])
    assert abs(L.dice_loss(m, yy) - 0.4) < 1e-12


def test_iou_hand_values():
    y = np.array([1.0, 0.0, 1.0])
    assert L.iou_loss(y, y) == 0.0
    m = np.array([1.0, 0.0, 0.0])
    yy = np.array([0.0, 1.0, 0.0])
    assert abs(L.iou_loss(m, yy) - 2.0 / 3.0) < 1e-12
    zero = np.zeros(4)
    assert L.iou_loss(zero, zero) == 0.0


def test_dice_iou_symmetric_on_binary():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = (rng.random(16) > 0.5).astype(np.float64)
        y = (rng.random(16) > 0.5).astype(np.float64)
        assert abs(L.dice_loss(m, y) - L.dice_loss(y, m)) < 1e-15
        assert abs(L.iou_loss(m, y) - L.iou_loss(y, m)) < 1e-15


def test_bce_hand_values():
    y = np.array([1.0, 0.0])
    assert abs(L.bce_mask(np.zeros(2), y) - math.log(2.0)) < 1e-12
    assert L.bce_mask(np.array([50.0]), np.array([1.0])) < 1e-12
    # logits (2, -2) on y (1, 0): mean(softplus(-2), softplus(-2))
    got = L.bce_mask(np.array([2.0, -2.0]), y)
    assert abs(got - math.log1p(math.exp(-2.0))) < 1e-12
    assert abs(got - 0.1269) < 5e-5


def test_focal_hand_values():
    # perfect prediction, clamped
    p = np.array([1.0, 0.0, 0.0])
    assert L.focal_loss(p, 0) < 1e-12
    # single channel, p=0.5 on target: 0.25 * 0.25 * ln 2
    got = L.focal_loss(np.array([0.5]), 0, alpha=0.25, gamma=2.0)
    assert abs(got - 0.25 * 0.25 * math.log(2.0)) < 1e-12
    assert abs(got - 0.04332) < 5e-6
    with pytest.raises(ValueError):
        L.focal_loss(np.array([0.5]), 3)


def test_focal_gamma0_is_half_bce():
    assert L.CostWeights(focal_gamma=0.0).focal_gamma == 0.0   # the boundary is valid
    rng = np.random.default_rng(1)
    p = rng.uniform(0.05, 0.95, size=8)
    for target in (None, 2, 5):
        focal = L.focal_loss(p, target, alpha=0.5, gamma=0.0)
        y = np.zeros(8)
        if target is not None:
            y[target] = 1.0
        bce = float(np.sum(-(y * np.log(p) + (1 - y) * np.log1p(-p))))
        assert abs(focal - 0.5 * bce) < 1e-6


def test_kernels_non_negative():
    rng = np.random.default_rng(2)
    for _ in range(25):
        m = rng.uniform(0, 1, 16)
        y = (rng.random(16) > 0.5).astype(np.float64)
        x = rng.normal(0, 2, 16)
        p = rng.uniform(0.01, 0.99, 6)
        assert L.dice_loss(m, y) >= 0
        assert L.iou_loss(m, y) >= 0
        assert L.bce_mask(x, y) >= 0
        assert L.focal_loss(p, int(rng.integers(6))) >= 0
        assert L.focal_loss(p, None) >= 0


def test_cross_entropy_map_values():
    logits = np.zeros((4, 2, 2))
    labels = np.zeros((2, 2), dtype=np.int64)
    assert abs(L.cross_entropy_map(logits, labels) - math.log(4.0)) < 1e-12
    hot = np.zeros((3, 1, 1))
    hot[1] = 100.0
    assert L.cross_entropy_map(hot, np.array([[1]])) < 1e-12
    assert L.cross_entropy_map(logits, np.full((2, 2), 255)) == 0.0
    with pytest.raises(ValueError):
        L.cross_entropy_map(logits, np.full((2, 2), 9))


def test_map_losses_of_an_all_ignored_map_are_float_zero():
    logits, labels = np.ones((3, 2, 2)), np.full((2, 2), 255)
    for value in (L.focal_map(logits, labels, 255), L.cross_entropy_map(logits, labels, 255)):
        assert type(value) is float and value == 0.0


def test_cosine_loss_values():
    v = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    c = np.array([[1.0, 0.0]])
    assert L.cosine_loss(v, c, [(0, 0)]) == 0.0
    # rounding in norm*norm must not produce a negative loss
    rng = np.random.default_rng(11)
    w = rng.standard_normal((3, 16)).astype(np.float32)
    assert L.cosine_loss(w, w.copy(), [(i, i) for i in range(3)]) >= 0.0
    assert abs(L.cosine_loss(v, c, [(1, 0)]) - 1.0) < 1e-12
    assert abs(L.cosine_loss(v, c, [(2, 0)]) - 2.0) < 1e-12
    assert L.cosine_loss(v, c, []) == 0.0
    with pytest.raises(ValueError):
        L.cosine_loss(v, c, [(0, 5)])


def test_cosine_loss_any_scale_and_zero_rows():
    # Only direction matters at any norm; a zero row has cosine 0, so its
    # loss is 1 and it pulls no gradient.
    v = np.array([[3.0, 4.0], [0.0, 0.0]])
    c = np.array([[4.0, 3.0], [0.0, 0.0]])
    base = L.cosine_loss(v, c, [(0, 0)])
    for k in (-500, -100, 100, 500):
        scaled = L.cosine_loss_grad(v * 2.0 ** k, c * 2.0 ** k, [(0, 0)])
        assert scaled[0] == base and np.isfinite(scaled[1]).all(), k
    for pairs in ([(1, 0)], [(0, 1)], [(1, 1)]):
        value, grad = L.cosine_loss_grad(v, c, pairs)
        assert value == 1.0 and not grad.any(), pairs


def test_sigmoid_saturates_without_warnings():
    x = np.array([-1e300, -800.0, -30.0, 0.0, 30.0, 800.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = L.sigmoid(x)
    assert got.dtype == np.float64
    assert got[[0, 1, 3, 5, 6]].tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]
    assert abs(got[2] / math.exp(-30.0) - 1.0) < 1e-12
    assert got[4] == 1.0 / (1.0 + math.exp(-30.0))


def test_sigmoid_is_bitwise_the_plain_formula():
    # One float64 buffer worked in place: the same IEEE operations, so the
    # same bits, on either float width, on scalars and past exp's range.
    rng = np.random.default_rng(8)
    edges = [-800.0, -30.0, 0.0, 30.0, 800.0]
    x64 = np.concatenate([20.0 * rng.standard_normal(999), edges, [-1e300, 1e300]])
    x32 = np.concatenate([20.0 * rng.standard_normal(999), edges]).astype(np.float32)
    cases = [x64, x64.reshape(2, -1)[:, ::3], x32, *edges, np.float32(-800.0),
             np.array(800.0), 7]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in cases:
            got = L.sigmoid(x)
            with np.errstate(over="ignore"):
                want = 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))
            assert type(got) is type(want) and got.dtype == np.float64
            assert np.shape(got) == np.shape(x) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("exponent", [-900, -600, 600, 900])
def test_normalize_rows_at_any_power_of_two_scale(exponent):
    # Squares of these rows underflow or overflow. Such rows are scaled by a
    # power of two first, so they normalize bitwise as at scale 1, where
    # every row keeps the plain x / |x| bits; a zero row stays zero.
    x = np.random.default_rng(9).standard_normal((20, 8))
    x[3] = 0.0
    plain = x / np.where(np.any(x, axis=1), np.linalg.norm(x, axis=1), 1.0)[:, None]
    assert L.normalize_rows(x).tobytes() == plain.tobytes()
    scaled = x * 2.0 ** exponent
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(scaled, axis=1)          # every one 0 or inf
    assert not np.any(np.isfinite(norms) & (norms > 0))
    assert L.normalize_rows(scaled).tobytes() == plain.tobytes()


def _joint(n_seen, n_cand, width):
    eye = np.eye(n_seen + n_cand, width, dtype=np.float32)
    return build_joint_embedding(
        ClassEmbeddings.from_matrix(eye[:n_seen], tuple(range(n_seen))),
        eye[n_seen:])


def test_match_cost_matrix_recomposes_kernels():
    rng = np.random.default_rng(3)
    joint = _joint(2, 2, 6)
    v = rng.standard_normal((3, 6)).astype(np.float32)
    m = rng.standard_normal((3, 4, 4)).astype(np.float32)
    s = L.class_similarity(v, joint.matrix)
    targets = [(0, (rng.random((4, 4)) > 0.5).astype(np.float64)),
               (1, (rng.random((4, 4)) > 0.5).astype(np.float64))]
    w = L.CostWeights()
    cm = L.match_cost_matrix(s, m, targets, w)
    for k in range(3):
        for t, (cid, mask) in enumerate(targets):
            expect = (w.w_cls * L.focal_loss(s[k], cid)
                      + w.w_bce * L.bce_mask(m[k], mask)
                      + w.w_dice * L.dice_loss(L.sigmoid(m[k].astype(np.float64)), mask))
            assert abs(cm[k, t] - expect) < 1e-9


def test_match_cost_matrix_weight_scaling():
    rng = np.random.default_rng(4)
    joint = _joint(2, 0, 4)
    v = rng.standard_normal((2, 4)).astype(np.float32)
    m = rng.standard_normal((2, 3, 3)).astype(np.float32)
    s = L.class_similarity(v, joint.matrix)
    targets = [(0, (rng.random((3, 3)) > 0.5).astype(np.float64))]
    base = L.match_cost_matrix(s, m, targets, L.CostWeights())
    lam = 2.5
    scaled = L.match_cost_matrix(s, m, targets,
                                 L.CostWeights(w_cls=lam, w_bce=lam, w_dice=lam))
    assert np.allclose(scaled, lam * base, rtol=1e-12)


def test_match_cost_matrix_column_permutation():
    rng = np.random.default_rng(5)
    joint = _joint(3, 0, 4)
    v = rng.standard_normal((3, 4)).astype(np.float32)
    m = rng.standard_normal((3, 3, 3)).astype(np.float32)
    s = L.class_similarity(v, joint.matrix)
    targets = [(i, (rng.random((3, 3)) > 0.5).astype(np.float64)) for i in range(3)]
    a = L.match_cost_matrix(s, m, targets, L.CostWeights())
    perm = [2, 0, 1]
    b = L.match_cost_matrix(s, m, [targets[p] for p in perm], L.CostWeights())
    assert np.allclose(b, a[:, perm], rtol=1e-12)


def test_match_cost_matrix_target_errors():
    s = np.full((2, 3), 0.5)
    m = np.zeros((2, 2, 2))
    mask = np.ones((2, 2))
    with pytest.raises(ValueError, match="needs at least one target"):
        L.match_cost_matrix(s, m, [], L.CostWeights())
    for cid in (3, -1):
        with pytest.raises(ValueError, match=f"class id {cid} outside joint space 3"):
            L.match_cost_matrix(s, m, [(cid, mask)], L.CostWeights())


def test_matched_loss_perfect_and_unmatched():
    joint = _joint(1, 0, 4)
    v = 50.0 * np.eye(1, 4, dtype=np.float32)
    m = np.full((1, 2, 2), 50.0, dtype=np.float32)
    s = L.class_similarity(v, joint.matrix)
    targets = [(0, np.ones((2, 2)))]
    w = L.CostWeights()
    cost = L.match_cost_matrix(s, m, targets, w)[0, 0]
    assignment = Assignment(pairs=[Pair(0, 0, float(cost), "seen")])
    assert L.matched_loss(assignment, s, m, targets, w) < 1e-5

    # zero matched pairs, V = 0: loss is the all-negative focal of 0.5 rows
    s0 = np.full((3, 1), 0.5)
    empty = Assignment(pairs=[], unmatched_queries=[0, 1, 2])
    got = L.matched_loss(empty, s0, np.zeros((3, 2, 2)), targets, w)
    assert abs(got - L.focal_loss(np.array([0.5]), None)) < 1e-12


def test_matched_loss_recomposition():
    rng = np.random.default_rng(6)
    joint = _joint(2, 2, 5)
    v = rng.standard_normal((4, 5)).astype(np.float32)
    m = rng.standard_normal((4, 3, 3)).astype(np.float32)
    s = L.class_similarity(v, joint.matrix)
    targets = [(0, (rng.random((3, 3)) > 0.5).astype(np.float64)),
               (2, (rng.random((3, 3)) > 0.5).astype(np.float64))]
    w = L.CostWeights(use_iou_in_loss=True)
    seen_cost = L.match_cost_matrix(s, m, targets[:1], w)[1, 0]
    cand_cost = L.match_cost_matrix(s, m, targets[1:], w)[3, 0]
    assignment = Assignment(pairs=[Pair(1, 0, float(seen_cost), "seen"),
                                   Pair(3, 1, float(cand_cost), "candidate")],
                            unmatched_queries=[0, 2])
    got = L.matched_loss(assignment, s, m, targets, w)
    expect = 0.0
    for q, t in ((1, 0), (3, 1)):
        cid, mask = targets[t]
        probs = L.sigmoid(m[q].astype(np.float64))
        expect += (L.focal_loss(s[q], cid) + L.bce_mask(m[q], mask)
                   + L.dice_loss(probs, mask) + L.iou_loss(probs, mask))
    expect /= 2
    expect += (L.focal_loss(s[0], None) + L.focal_loss(s[2], None)) / 2
    assert abs(got - expect) < 1e-9


def test_focal_map_matches_vector_kernel():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((3, 2, 2))
    labels = np.array([[0, 1], [255, 2]])
    got = L.focal_map(logits, labels, 255)
    vals = []
    for i in range(2):
        for j in range(2):
            if labels[i, j] == 255:
                continue
            p = L.sigmoid(logits[:, i, j])
            vals.append(L.focal_loss(p, int(labels[i, j])))
    assert abs(got - np.mean(vals)) < 1e-9


def _cost_fixture(seed, k, t, hw, n_seen, n_cand):
    """Class probabilities, mask logits and candidate-group targets."""
    rng = np.random.default_rng(seed)
    joint = _joint(n_seen, n_cand, n_seen + n_cand + 1)
    v = rng.standard_normal((k, joint.matrix.shape[1])).astype(np.float32)
    m = (2.0 * rng.standard_normal((k,) + hw)).astype(np.float32)
    ids = rng.choice(np.arange(n_seen, n_seen + n_cand), size=t, replace=False)
    targets = [(int(cid), (rng.random(hw) > 0.5).astype(np.float64)) for cid in ids]
    return L.class_similarity(v, joint.matrix), m, targets


COST_SHAPES = [(1, 1, (1, 1)), (3, 2, (4, 4)), (6, 5, (7, 5)), (9, 3, (16, 16))]


@pytest.mark.parametrize("k,t,hw", COST_SHAPES)
def test_matched_pair_loss_is_its_cost_entry_bitwise(k, t, hw):
    # A pair the matcher emits carries its cost entry unchanged, so its
    # loss alone (no IoU term, no unmatched queries) is that entry.
    s, m, targets = _cost_fixture(k * 100 + t, k, t, hw, 2, t + 1)
    w = L.CostWeights(w_cls=0.7, w_bce=1.3, w_dice=2.0, use_iou_in_loss=False)
    costs = L.match_cost_matrix(s, m, targets, w)
    pairs = hungarian(costs).pairs
    assert len(pairs) == t
    for p in pairs:
        got = L.matched_loss(Assignment(pairs=[p]), s, m, targets, w)
        assert float(got).hex() == float(costs[p.query, p.target]).hex(), p


def test_matched_loss_reads_the_pair_costs():
    # The matched term is the mean of the costs the pairs carry, whatever
    # they are, plus the IoU term; no cost is recomputed.
    s, m, targets = _cost_fixture(5, 4, 2, (4, 4), 2, 3)
    w = L.CostWeights(w_cls=0.7, w_dice=2.0, use_iou_in_loss=True)
    pairs = [Pair(1, 0, 1000.25, "candidate"), Pair(2, 1, -3.5, "candidate")]
    got = L.matched_loss(Assignment(pairs, unmatched_queries=[0, 3]), s, m, targets, w)
    iou = sum(L.iou_loss(L.sigmoid(m[p.query]), targets[p.target][1]) for p in pairs)
    unmatched = (L.focal_loss(s[0], None) + L.focal_loss(s[3], None)) / 2
    expect = (1000.25 - 3.5 + w.w_dice * iou) / 2 + w.w_cls * unmatched
    assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("k,t,hw", COST_SHAPES)
def test_scalar_kernels_are_their_one_by_one_cost_term_bitwise(k, t, hw):
    s, m, targets = _cost_fixture(k * 100 + t + 7, k, t, hw, 2, t + 1)
    only = {"focal": L.CostWeights(w_cls=1.0, w_bce=0.0, w_dice=0.0),
            "bce": L.CostWeights(w_cls=0.0, w_bce=1.0, w_dice=0.0),
            "dice": L.CostWeights(w_cls=0.0, w_bce=0.0, w_dice=1.0)}
    for q in range(k):
        for cid, mask in targets:
            kernels = {"focal": L.focal_loss(s[q], cid),
                       "bce": L.bce_mask(m[q], mask),
                       "dice": L.dice_loss(L.sigmoid(m[q]), mask)}
            for term, w in only.items():
                entry = L.match_cost_matrix(s[q:q + 1], m[q:q + 1], [(cid, mask)],
                                            w)[0, 0]
                assert kernels[term].hex() == float(entry).hex(), (term, q, cid)


def test_matched_loss_pair_out_of_range():
    s, m, targets = _cost_fixture(8, 3, 2, (3, 3), 2, 2)
    w = L.CostWeights()
    for q, t in ((3, 0), (-1, 0), (0, 2), (0, -1)):
        bad = Assignment(pairs=[Pair(q, t, 0.0, "candidate")])
        with pytest.raises(ValueError, match="out of range"):
            L.matched_loss(bad, s, m, targets, w)


@pytest.mark.parametrize("cost", [None, "0.5", math.nan, math.inf])
def test_matched_loss_rejects_a_cost_that_is_not_a_finite_number(cost):
    s, m, targets = _cost_fixture(8, 3, 2, (3, 3), 2, 2)
    bad = Assignment(pairs=[Pair(0, 1, 0.25, "candidate"), Pair(2, 0, cost, "candidate")])
    with pytest.raises(ValueError, match=r"pair \(2, 0\) has cost .*not a finite number"):
        L.matched_loss(bad, s, m, targets, L.CostWeights())


def test_focal_map_label_outside_classes():
    logits = np.zeros((3, 2, 2))
    for bad in (3, -1):
        labels = np.array([[0, 1], [255, bad]])
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            L.focal_map(logits, labels, 255)


def test_pipeline_loss_kernels_pinned():
    # cross_entropy_map, iou_loss and cosine_loss write loss.json. Values
    # recorded before batching; 12 classes pass numpy's 8-element unrolled
    # sum, and summing classes in order instead moves this cross entropy
    rng = np.random.default_rng(16)
    logits = (3.0 * rng.standard_normal((12, 9, 15))).astype(np.float32)
    labels = rng.integers(0, 12, (9, 15))
    labels[0, :4] = 255
    assert L.cross_entropy_map(logits, labels).hex() == "0x1.556806f335fd3p+2"
    rng = np.random.default_rng(21)
    m = rng.uniform(0.0, 1.0, (9, 15))
    y = (rng.random((9, 15)) > 0.5).astype(np.float64)
    v = rng.standard_normal((5, 16)).astype(np.float32)
    c = rng.standard_normal((4, 16)).astype(np.float32)
    assert L.iou_loss(m, y).hex() == "0x1.59de8913c0a30p-1"
    assert L.cosine_loss(v, c, [(0, 1), (4, 3), (2, 2)]).hex() == "0x1.453b4a204123bp+0"


BAD_INPUTS = {
    "cosine-pair": (L.cosine_loss, L.cosine_loss_grad,
                    (np.ones((3, 4)), np.ones((2, 4)), [(5, 0)])),
    "focal-target": (L.focal_loss, L.focal_loss_grad, (np.full(4, 0.5), 7)),
    "cross-entropy-label": (L.cross_entropy_map, L.cross_entropy_map_grad,
                            (np.zeros((3, 2, 2)), np.full((2, 2), 5))),
    "cross-entropy-shape": (L.cross_entropy_map, L.cross_entropy_map_grad,
                            (np.zeros((3, 2, 3)), np.zeros((3, 2), dtype=int))),
    "dice-shape": (L.dice_loss, L.dice_loss_grad, (np.zeros(4), np.zeros(5))),
    "bce-shape": (L.bce_mask, L.bce_mask_grad, (np.zeros(4), np.zeros(5))),
    "iou-shape": (L.iou_loss, L.iou_loss_grad, (np.zeros(4), np.zeros(5))),
    # equal sizes used to be flattened; leading axes now mean a batch
    "dice-transposed": (L.dice_loss, L.dice_loss_grad, (np.zeros((2, 3)), np.zeros((3, 2)))),
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_grad_twins_raise_the_plain_kernels_named_error(name):
    plain, twin, args = BAD_INPUTS[name]
    with pytest.raises(ValueError) as named:
        plain(*args)
    message = str(named.value)
    if name.endswith(("shape", "transposed")):
        assert str(args[0].shape) in message and str(args[1].shape) in message
    with pytest.raises(ValueError, match=re.escape(message)):
        twin(*args)


def test_grad_twins_take_one_item():
    y = np.array([0.0, 1.0, 1.0])
    for twin, args in ((L.dice_loss_grad, (np.full((2, 3), 0.5), y)),
                       (L.iou_loss_grad, (np.full((2, 3), 0.5), y)),
                       (L.bce_mask_grad, (np.zeros((2, 3)), y)),
                       (L.focal_loss_grad, (np.full((2, 3), 0.5), 1)),
                       (L.cross_entropy_map_grad, (np.zeros((2, 3, 3)), np.zeros(3, dtype=int))),
                       (L.cosine_loss_grad, (np.ones((2, 3, 3)), np.ones((2, 3)), [(0, 0)]))):
        with pytest.raises(ValueError, match=r"takes one item, not a batch of \(2,\)"):
            twin(*args)


def test_batched_kernels_with_nothing_to_average():
    assert L.cosine_loss(np.ones((4, 3, 2)), np.ones((1, 2)), []).tolist() == [0.0] * 4
    assert L.cross_entropy_map(np.ones((4, 3, 2, 2)), np.full((2, 2), 255)).tolist() == [0.0] * 4

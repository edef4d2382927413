import math

import numpy as np
import pytest

from smseg import losses as L
from smseg.embeddings import ClassEmbeddings, build_joint_embedding
from smseg.matcher import Assignment, Pair


def test_class_similarity_values():
    e = build_joint_embedding(
        ClassEmbeddings.from_matrix(np.eye(3, dtype=np.float32), (0, 1, 2)),
        np.zeros((0, 3), dtype=np.float32))
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
    s = L.class_similarity(v, joint)
    targets = [(0, (rng.random((4, 4)) > 0.5).astype(np.float64)),
               (1, (rng.random((4, 4)) > 0.5).astype(np.float64))]
    w = L.CostWeights()
    cm = L.match_cost_matrix(s, m, targets, "seen", w, joint.seen_count)
    for k in range(3):
        for t, (cid, mask) in enumerate(targets):
            expect = (w.w_cls * L.focal_loss(s[k], cid)
                      + w.w_bce * L.bce_mask(m[k], mask)
                      + w.w_dice * L.dice_loss(L.sigmoid(m[k].astype(np.float64)), mask))
            assert abs(cm.values[k, t] - expect) < 1e-9


def test_match_cost_matrix_weight_scaling():
    rng = np.random.default_rng(4)
    joint = _joint(2, 0, 4)
    v = rng.standard_normal((2, 4)).astype(np.float32)
    m = rng.standard_normal((2, 3, 3)).astype(np.float32)
    s = L.class_similarity(v, joint)
    targets = [(0, (rng.random((3, 3)) > 0.5).astype(np.float64))]
    base = L.match_cost_matrix(s, m, targets, "seen", L.CostWeights(),
                               joint.seen_count)
    lam = 2.5
    scaled = L.match_cost_matrix(
        s, m, targets, "seen",
        L.CostWeights(w_cls=lam, w_bce=lam, w_dice=lam), joint.seen_count)
    assert np.allclose(scaled.values, lam * base.values, rtol=1e-12)


def test_match_cost_matrix_column_permutation():
    rng = np.random.default_rng(5)
    joint = _joint(3, 0, 4)
    v = rng.standard_normal((3, 4)).astype(np.float32)
    m = rng.standard_normal((3, 3, 3)).astype(np.float32)
    s = L.class_similarity(v, joint)
    targets = [(i, (rng.random((3, 3)) > 0.5).astype(np.float64)) for i in range(3)]
    a = L.match_cost_matrix(s, m, targets, "seen", L.CostWeights(), 3)
    perm = [2, 0, 1]
    b = L.match_cost_matrix(s, m, [targets[p] for p in perm], "seen",
                            L.CostWeights(), 3)
    assert np.allclose(b.values, a.values[:, perm], rtol=1e-12)


def test_match_cost_matrix_group_violations():
    joint = _joint(2, 1, 4)
    s = np.full((2, 3), 0.5)
    m = np.zeros((2, 2, 2))
    mask = np.ones((2, 2))
    with pytest.raises(ValueError):
        L.match_cost_matrix(s, m, [(2, mask)], "seen", L.CostWeights(), 2)
    with pytest.raises(ValueError):
        L.match_cost_matrix(s, m, [(0, mask)], "candidate", L.CostWeights(), 2)
    with pytest.raises(ValueError):
        L.match_cost_matrix(s, m, [(0, mask)] * 3, "seen", L.CostWeights(), 2)
    with pytest.raises(ValueError):
        L.match_cost_matrix(s, m, [], "seen", L.CostWeights(), 2)


def test_matched_loss_perfect_and_unmatched():
    joint = _joint(1, 0, 4)
    v = 50.0 * np.eye(1, 4, dtype=np.float32)
    m = np.full((1, 2, 2), 50.0, dtype=np.float32)
    s = L.class_similarity(v, joint)
    targets = [(0, np.ones((2, 2)))]
    assignment = Assignment(pairs=[Pair(0, 0, 0.0, "seen")], group="seen")
    w = L.CostWeights()
    assert L.matched_loss(assignment, s, m, targets, w) < 1e-5

    # zero matched pairs, V = 0: loss is the all-negative focal of 0.5 rows
    s0 = np.full((3, 1), 0.5)
    empty = Assignment(pairs=[], group="seen", unmatched_queries=[0, 1, 2])
    got = L.matched_loss(empty, s0, np.zeros((3, 2, 2)), targets, w)
    assert abs(got - L.focal_loss(np.array([0.5]), None)) < 1e-12


def test_matched_loss_recomposition():
    rng = np.random.default_rng(6)
    joint = _joint(2, 2, 5)
    v = rng.standard_normal((4, 5)).astype(np.float32)
    m = rng.standard_normal((4, 3, 3)).astype(np.float32)
    s = L.class_similarity(v, joint)
    targets = [(0, (rng.random((3, 3)) > 0.5).astype(np.float64)),
               (2, (rng.random((3, 3)) > 0.5).astype(np.float64))]
    assignment = Assignment(pairs=[Pair(1, 0, 0.0, "seen"), Pair(3, 1, 0.0, "candidate")],
                            group="combined", unmatched_queries=[0, 2])
    w = L.CostWeights(use_iou_in_loss=True)
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


def test_composite_sums():
    assert L.sm_loss(0.3, 0.2) == 0.5
    assert L.mfe_loss(1.0, 2.0) == 3.0
    assert L.mfe_loss(1.0, 2.0, 0.5) == 3.5
    assert L.total_loss(0.5, 3.0) == 3.5


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
    return L.class_similarity(v, joint), m, targets, joint.seen_count


COST_SHAPES = [(1, 1, (1, 1)), (3, 2, (4, 4)), (6, 5, (7, 5)), (9, 3, (16, 16))]


@pytest.mark.parametrize("k,t,hw", COST_SHAPES)
def test_matched_pair_loss_is_its_cost_entry_bitwise(k, t, hw):
    s, m, targets, seen_count = _cost_fixture(k * 100 + t, k, t, hw, 2, t + 1)
    w = L.CostWeights(w_cls=0.7, w_bce=1.3, w_dice=2.0, use_iou_in_loss=False)
    costs = L.match_cost_matrix(s, m, targets, "candidate", w, seen_count).values
    for q in range(k):
        for tt in range(t):
            one = Assignment(pairs=[Pair(q, tt, 0.0, "candidate")], group="candidate")
            got = L.matched_loss(one, s, m, targets, w)
            assert float(got).hex() == float(costs[q, tt]).hex(), (q, tt)


@pytest.mark.parametrize("k,t,hw", COST_SHAPES)
def test_scalar_kernels_are_their_one_by_one_cost_term_bitwise(k, t, hw):
    s, m, targets, seen_count = _cost_fixture(k * 100 + t + 7, k, t, hw, 2, t + 1)
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
                                            "candidate", w, seen_count).values[0, 0]
                assert kernels[term].hex() == float(entry).hex(), (term, q, cid)


def test_matched_loss_pair_out_of_range():
    s, m, targets, _ = _cost_fixture(8, 3, 2, (3, 3), 2, 2)
    w = L.CostWeights()
    for q, t in ((3, 0), (-1, 0), (0, 2), (0, -1)):
        bad = Assignment(pairs=[Pair(q, t, 0.0, "candidate")], group="candidate")
        with pytest.raises(ValueError, match="out of range"):
            L.matched_loss(bad, s, m, targets, w)
    outside = [(s.shape[1], targets[0][1])]
    one = Assignment(pairs=[Pair(0, 0, 0.0, "candidate")], group="candidate")
    with pytest.raises(ValueError, match="outside joint space"):
        L.matched_loss(one, s, m, outside, w)


def test_focal_map_label_outside_classes():
    logits = np.zeros((3, 2, 2))
    for bad in (3, -1):
        labels = np.array([[0, 1], [255, bad]])
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            L.focal_map(logits, labels, 255)

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from smseg import losses as L
from smseg import matcher as M
from smseg.embeddings import ClassEmbeddings, build_joint_embedding
from smseg.matcher import Assignment, Pair, hungarian, split_match

from oracles import (all_optimal_pairsets, brute_force_min_total,
                     dyadic_matrix, lexicographic_optimum)


def test_single_cell():
    a = hungarian(np.array([[3.5]]))
    assert [(p.query, p.target, p.cost) for p in a.pairs] == [(0, 0, 3.5)]
    assert a.unmatched_queries == []


def test_three_by_three_hand_case():
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    a = hungarian(cost)
    assert a.total_cost == 5.0 == brute_force_min_total(cost)
    assert [(p.query, p.target) for p in a.pairs] == [(0, 1), (1, 0), (2, 2)]


def test_rectangular_vs_exhaustive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        t = int(rng.integers(1, k + 1))
        cost = dyadic_matrix(rng, k, t)
        a = hungarian(cost)
        assert a.total_cost == brute_force_min_total(cost)
        assert len(a.pairs) == t
        assert len({p.target for p in a.pairs}) == t


def test_lexicographic_tie_breaking():
    fixtures = [
        np.zeros((3, 3)),                                  # fully tied
        np.ones((2, 2)),
        np.array([[0.0, 1.0], [0.0, 1.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]),    # K > T tied
        np.array([[2.0, 2.0], [2.0, 1.0], [1.0, 2.0]]),
        np.array([[5.0, 3.0], [3.0, 5.0], [4.0, 4.0]]),    # tied optima 8.0
    ]
    for cost in fixtures:
        a = hungarian(cost)
        expect = lexicographic_optimum(cost)
        assert tuple((p.query, p.target) for p in a.pairs) == expect, cost


def test_random_ties_match_reference():
    rng = np.random.default_rng(1)
    for _ in range(40):
        k = int(rng.integers(2, 6))
        t = int(rng.integers(1, k + 1))
        cost = rng.integers(0, 3, size=(k, t)).astype(np.float64)  # many ties
        a = hungarian(cost)
        best, _ = all_optimal_pairsets(cost)
        assert a.total_cost == best
        assert tuple((p.query, p.target) for p in a.pairs) == \
            lexicographic_optimum(cost)


def _resolve_pairs(cost, miss=0.0):
    """Pairs of the re-solve phase two, run on hungarian's phase one with
    its optimal total lowered by ``miss``."""
    col_of_row, u_t, v_q = M._lsa(cost.T)
    best = math.fsum(float(cost[col_of_row[i], i]) for i in range(cost.shape[1]))
    reduced = cost - v_q[:, None] - u_t[None, :]
    rc_tol = 1e-9 * (1.0 + float(np.abs(cost).max()))
    return sorted((q, t) for q, t, _ in
                  M._resolve_phase_two(cost, best - miss, reduced, rc_tol))


def test_tight_phase_two_equals_resolves(monkeypatch):
    resolve, fallbacks = M._resolve_phase_two, []

    def spy(*args):
        fallbacks.append(args[0])
        return resolve(*args)

    monkeypatch.setattr(M, "_resolve_phase_two", spy)
    rng = np.random.default_rng(8)
    for i in range(300):
        k = int(rng.integers(1, 31))
        t = int(rng.integers(1, min(k, 15) + 1))
        kind = i % 4
        if kind == 0:                                      # quarter grid
            cost = np.rint(4.0 * rng.random((k, t))) / 4.0
        elif kind == 1:
            cost = rng.integers(0, 3, size=(k, t)).astype(np.float64)
        else:
            cost = rng.random((k, t))
            if kind == 3:                                  # duplicated rows
                cost = cost[np.sort(rng.integers(0, k, size=k))]
        got = [(p.query, p.target) for p in hungarian(cost).pairs]
        # exact arithmetic: the tight-graph search decides without fallback
        assert kind > 1 or not fallbacks, (kind, cost)
        assert got == _resolve_pairs(cost), (kind, cost)
        fallbacks.clear()


def test_resolve_falls_back_to_the_cheapest_extension():
    # No matching reaches a total 1.0 below the optimum, so the first step
    # keeps the cheapest extension, the first in (q, t) order among equals,
    # and takes its total; the pairs are still the reference's.
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        t = int(rng.integers(1, k + 1))
        cost = np.rint(4.0 * rng.random((k, t))) / 4.0
        assert tuple(_resolve_pairs(cost, miss=1.0)) == lexicographic_optimum(cost), cost


def _check_dual_certificate(cost, exact):
    """Phase one on (K, T) ``cost``: feasible duals with v <= 0, v = 0 on
    free queries, tight matched edges; returns the matched total."""
    col_of_row, u, v = M._lsa(cost.T)             # solver rows = targets
    k, t = cost.shape
    c_max = float(np.abs(cost).max())
    tol = 0.0 if exact else 1e-12 * (1.0 + c_max)
    assert len(set(col_of_row.tolist())) == t
    assert (u[None, :] + v[:, None] <= cost + tol).all()
    assert (v <= 0.0).all()
    free = np.ones(k, dtype=bool)
    free[col_of_row] = False
    assert (v[free] == 0.0).all()
    matched = cost[col_of_row, np.arange(t)]
    assert (np.abs(u + v[col_of_row] - matched) <= tol).all()
    # the potential bounds behind hungarian's overflow limit
    assert (np.abs(u) <= c_max * (1 + 1e-15)).all()
    assert (v >= -2.0 * c_max * (1 + 1e-15)).all()
    return math.fsum(matched.tolist())


def test_lsa_dual_certificate():
    rng = np.random.default_rng(11)
    shared_min = 1.0 + np.rint(4.0 * rng.random((6, 4))) / 4.0
    shared_min[2] = 0.0                    # every target's minimum at query 2
    covered = 1.0 + rng.random((6, 4))
    covered[[4, 0, 5, 1], np.arange(4)] = 0.5   # distinct minimum queries
    cases = [
        (np.rint(4.0 * rng.random((7, 4))) / 4.0, True),     # quarter grid
        (rng.integers(0, 3, size=(6, 3)).astype(np.float64), True),
        (rng.random((6, 4)), False),                         # continuous
        (rng.random((5, 5)), False),                         # square
        (rng.integers(0, 3, size=(5, 5)).astype(np.float64), True),
        (rng.random((6, 1)), False),                         # k x 1
        (np.array([[2.5]]), True),                           # 1 x 1
        (shared_min, True),
        (covered, False),
    ]
    for cost, exact in cases:
        assert _check_dual_certificate(cost, exact) == \
            brute_force_min_total(cost), cost
    for cost, exact in ((np.rint(4.0 * rng.random((100, 50))) / 4.0, True),
                        (rng.random((60, 30)), False)):
        _check_dual_certificate(cost, exact)

    # the greedy start leaves targets 1..3 to the search, which raises
    # their duals above their row minima
    _, u, _ = M._lsa(shared_min.T)
    assert (u[1:] > shared_min.min(axis=0)[1:]).all()
    # the start covers every target: duals stay at row minima and zero
    _, u, v = M._lsa(covered.T)
    assert (u == covered.min(axis=0)).all() and (v == 0.0).all()


def test_match_tied_reference_pairs():
    """Replay every pinned ``match-tied`` pair list of perfbench."""
    ref_path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())["match-tied"]
    assert len(ref) == 256
    for u in range(256):
        raw = random.Random(f"match-tied/{u}").randbytes(100 * 50)
        cost = np.rint(np.frombuffer(raw, dtype=np.uint8) * (4 / 255)).reshape(100, 50) / 4
        pairs = sorted(hungarian(cost).pairs, key=lambda p: p.target)
        assert [p.query for p in pairs] == ref[str(u)], u


def test_overflowing_costs_rejected():
    with pytest.raises(ValueError, match=r"cost magnitude 1e\+308 exceeds"):
        hungarian(np.array([[1e308, -1e308], [-1e308, 1e308], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"float64 max / \(T \+ 2\)"):
        hungarian(np.full((2, 1), np.finfo(np.float64).max))
    for t in (1, 2, 3):
        b = np.finfo(np.float64).max / (t + 2)       # just inside the bound
        rng = np.random.default_rng(t)
        for _ in range(20):
            cost = b * rng.choice([-1.0, -0.5, 0.0, 1.0], size=(t + 1, t))
            cost[0, 0] = b
            with np.errstate(all="raise"):
                a = hungarian(cost)
            assert a.total_cost == brute_force_min_total(cost), cost


def test_tight_phase_two_small_ties_vs_reference():
    rng = np.random.default_rng(9)
    for i in range(300):
        k = int(rng.integers(1, 7))
        t = int(rng.integers(1, k + 1))
        if i % 2:
            cost = rng.integers(0, 3, size=(k, t)).astype(np.float64)
        else:
            cost = np.rint(4.0 * rng.random((k, t))) / 4.0
        got = tuple((p.query, p.target) for p in hungarian(cost).pairs)
        assert got == lexicographic_optimum(cost), cost


def test_fsum_mismatch_falls_back_to_resolves(monkeypatch):
    # both assignments are tight under rc_tol, but only the second one
    # reaches the optimal fsum total
    cost = np.array([[1e-7, 1e3], [0.0, 1e3 + 1e-7]])
    calls = {"resolve": 0, "hungarian": 0}
    resolve, solve = M._resolve_phase_two, M.hungarian

    def spy_resolve(*args):
        calls["resolve"] += 1
        return resolve(*args)

    def spy_hungarian(*args, **kwargs):
        calls["hungarian"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(M, "_resolve_phase_two", spy_resolve)
    monkeypatch.setattr(M, "hungarian", spy_hungarian)
    a = M.hungarian(cost)
    assert calls == {"resolve": 1, "hungarian": 1}
    assert [(p.query, p.target) for p in a.pairs] == [(0, 1), (1, 0)]


def test_tiny_costs_stay_on_tight_phase_two(monkeypatch):
    # the tightness tolerance scales with max|cost|, so scaling every cost
    # by a power of two changes neither the pairs nor the solve path
    calls = []
    resolve = M._resolve_phase_two
    monkeypatch.setattr(M, "_resolve_phase_two",
                        lambda *args: calls.append(1) or resolve(*args))
    rng = np.random.default_rng(41)
    for _ in range(40):
        k = int(rng.integers(2, 13))
        cost = rng.integers(0, 3, size=(k, int(rng.integers(1, k + 1)))).astype(np.float64)
        want = [(p.query, p.target) for p in hungarian(cost).pairs]
        for scale in (2.0**-40, 2.0**-1000):
            got = hungarian(cost * scale)
            assert [(p.query, p.target) for p in got.pairs] == want, (cost, scale)
    assert calls == []
    # all-zero costs: the tolerance is 0 and every edge stays exactly tight
    a = hungarian(np.zeros((5, 3)))
    assert [(p.query, p.target) for p in a.pairs] == [(0, 0), (1, 1), (2, 2)]
    assert calls == []


def test_pair_fields_are_python_scalars():
    rng = np.random.default_rng(10)
    for cost in (rng.integers(0, 2, size=(6, 4)).astype(np.float64),
                 rng.random((6, 4))):
        for p in hungarian(cost).pairs:
            assert type(p.query) is int and type(p.target) is int
            assert type(p.cost) is float
    joint, v, m, targets = _random_group_fixture(rng, 4, 3, 2, 2)
    a = split_match(v, m, 4, targets, joint, L.CostWeights())
    json.dumps([p._asdict() for p in a.pairs])


def test_determinism():
    rng = np.random.default_rng(2)
    cost = rng.integers(0, 2, size=(5, 4)).astype(np.float64)
    runs = [hungarian(cost).pairs for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_scale_invariance_of_argmin():
    rng = np.random.default_rng(3)
    for _ in range(10):
        cost = dyadic_matrix(rng, 5, 4)
        base = hungarian(cost)
        scaled = hungarian(4.0 * cost)                     # exact in fp
        assert [(p.query, p.target) for p in base.pairs] == \
            [(p.query, p.target) for p in scaled.pairs]
        assert scaled.total_cost == 4.0 * base.total_cost


def test_error_cases():
    with pytest.raises(ValueError):
        hungarian(np.zeros((2, 3)))                        # T > K
    with pytest.raises(ValueError):
        hungarian(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        hungarian(np.zeros(3))


def test_empty_target_list():
    a = hungarian(np.zeros((3, 0)))
    assert a.pairs == [] and a.unmatched_queries == [0, 1, 2]


def test_assignment_validate():
    bad = Assignment(pairs=[Pair(0, 0, 1.0, "seen"), Pair(0, 1, 1.0, "seen")])
    with pytest.raises(ValueError):
        bad.validate()


def _joint(n_seen, n_cand, width=8):
    eye = np.eye(n_seen + n_cand, width, dtype=np.float32)
    return build_joint_embedding(
        ClassEmbeddings.from_matrix(eye[:n_seen], tuple(range(n_seen))),
        eye[n_seen:])


def _random_group_fixture(rng, k_s, k_u, t_s, t_u, width=8, hw=4):
    """Stacked queries, k_s seen then k_u candidate, and t_s seen then t_u
    candidate targets of ids 0, 1, ...: (joint, V, M, targets)."""
    joint = _joint(max(t_s, 1), max(t_u, 1), width)
    v_s = rng.standard_normal((k_s, width)).astype(np.float32)
    v_u = rng.standard_normal((k_u, width)).astype(np.float32)
    m_s = rng.standard_normal((k_s, hw, hw)).astype(np.float32)
    m_u = rng.standard_normal((k_u, hw, hw)).astype(np.float32)
    seen_targets = [(i, (rng.random((hw, hw)) > 0.5).astype(np.float64))
                    for i in range(t_s)]
    cand_targets = [(joint.seen_count + i,
                     (rng.random((hw, hw)) > 0.5).astype(np.float64))
                    for i in range(t_u)]
    return (joint, np.concatenate([v_s, v_u]), np.concatenate([m_s, m_u]),
            seen_targets + cand_targets)


def test_split_match_no_candidates_equals_seen_only():
    rng = np.random.default_rng(4)
    joint, v, m, targets = _random_group_fixture(rng, 4, 3, 2, 0)
    w = L.CostWeights()
    combined = split_match(v, m, 4, targets, joint, w)
    cm = L.match_cost_matrix(L.class_similarity(v[:4], joint.matrix), m[:4], targets, w)
    seen_only = hungarian(cm)
    assert [(p.query, p.target) for p in combined.pairs] == \
        [(p.query, p.target) for p in seen_only.pairs]
    assert combined.unmatched_queries == seen_only.unmatched_queries + [4, 5, 6]
    # mirrored: no seen targets, so every seen query is unmatched and the
    # candidate pairs keep their target indices, queries shifted by 4
    joint, v, m, targets = _random_group_fixture(rng, 4, 3, 0, 2)
    combined = split_match(v, m, 4, targets, joint, w)
    cm = L.match_cost_matrix(L.class_similarity(v[4:], joint.matrix), m[4:], targets, w)
    cand_only = hungarian(cm)
    assert [(p.query, p.target, p.cost, p.group) for p in combined.pairs] == \
        [(p.query + 4, p.target, p.cost, "candidate") for p in cand_only.pairs]
    assert combined.unmatched_queries == \
        [0, 1, 2, 3] + [q + 4 for q in cand_only.unmatched_queries]


def test_split_match_reads_each_target_group_from_its_id():
    # Seen ids 0, 1 and candidate ids 2, 3 given interleaved as 2, 0, 3, 1:
    # the seen-first run's pairs and costs, bitwise, with each target
    # index moved to where its target now stands.
    rng = np.random.default_rng(11)
    w = L.CostWeights()
    for _ in range(5):
        joint, v, m, targets = _random_group_fixture(rng, 3, 3, 2, 2)
        order = [2, 0, 3, 1]
        mixed = split_match(v, m, 3, [targets[i] for i in order], joint, w)
        seen_first = split_match(v, m, 3, targets, joint, w)
        assert [(p.query, order[p.target], p.cost.hex(), p.group) for p in mixed.pairs] \
            == [(p.query, p.target, p.cost.hex(), p.group) for p in seen_first.pairs]
        assert mixed.unmatched_queries == seen_first.unmatched_queries


def test_split_match_perfect_fixture_costs_near_zero():
    joint = _joint(2, 2, 8)
    scale = 60.0
    # +scale on the own class, -scale on every other: saturated both ways
    v = scale * (2.0 * joint.matrix - joint.matrix.sum(axis=0))
    masks = np.zeros((4, 4, 4))
    for i in range(4):
        masks[i, i, :] = 1.0
    m = 60.0 * (2.0 * masks - 1.0)
    targets = [(i, masks[i]) for i in range(4)]
    a = split_match(v.astype(np.float32), m.astype(np.float32), 2, targets, joint,
                    L.CostWeights())
    assert len(a.pairs) == 4
    assert {(p.query, p.target) for p in a.pairs} == {(0, 0), (1, 1), (2, 2), (3, 3)}
    assert a.total_cost < 1e-4


def test_split_match_cross_group_exclusion_and_oracle():
    rng = np.random.default_rng(5)
    w = L.CostWeights()
    for _ in range(20):
        k_s, k_u = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        t_s, t_u = int(rng.integers(1, k_s + 1)), int(rng.integers(1, k_u + 1))
        joint, v, m, targets = _random_group_fixture(rng, k_s, k_u, t_s, t_u)
        a = split_match(v, m, k_s, targets, joint, w)
        # exclusion: seen queries < k_s pair with seen targets < t_s
        for p in a.pairs:
            assert (p.query < k_s) == (p.target < t_s)
            assert (p.group == "seen") == (p.query < k_s)
        # every target matched exactly once
        assert sorted(p.target for p in a.pairs) == list(range(t_s + t_u))
        # per-group totals equal the exhaustive group-respecting optimum
        cm_s = L.match_cost_matrix(L.class_similarity(v[:k_s], joint.matrix), m[:k_s],
                                   targets[:t_s], w)
        cm_u = L.match_cost_matrix(L.class_similarity(v[k_s:], joint.matrix), m[k_s:],
                                   targets[t_s:], w)
        got_s = math.fsum(p.cost for p in a.pairs if p.group == "seen")
        got_u = math.fsum(p.cost for p in a.pairs if p.group == "candidate")
        assert got_s == brute_force_min_total(cm_s)
        assert got_u == brute_force_min_total(cm_u)


def test_split_match_capacity_errors():
    rng = np.random.default_rng(6)
    joint, v, m, targets = _random_group_fixture(rng, 2, 2, 2, 2)
    with pytest.raises(ValueError, match="2 targets exceed 1 queries in group 'seen'"):
        split_match(v[1:], m[1:], 1, targets, joint, L.CostWeights())
    with pytest.raises(ValueError, match="2 targets exceed 1 queries in group 'candidate'"):
        split_match(v[:3], m[:3], 2, targets, joint, L.CostWeights())

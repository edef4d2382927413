"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Each test pins the criterion's tolerance and runtime budget.

``test_c01`` checks that the published zero-shot-segmentation comparison
table uses the harmonic-mean identity hIoU = 2*s*u/(s+u), under the table's
own rounding: every column is printed to one decimal, so a row's true sIoU
and uIoU lie within +-0.05 of the printed values. For positive inputs
``hiou`` rises in each argument, so the hIoU of any pair that rounds to
(s, u) lies in [hiou(s-0.05, u-0.05), hiou(s+0.05, u+0.05)]; that interval
is exact, not an estimate. A row is consistent when it meets
[printed-0.05, printed+0.05]. Nineteen of the 21 rows are. Two are not
consistent with any inputs that round to their printed columns, and the
test names them: Zzseg/VOC (printed 77.5, reachable [77.562, 77.662]) and
CaGNet/COCO (printed 18.2, reachable [17.825, 17.947]). The test asserts
that the inconsistent rows are exactly those two, and that the two rows
this library's documentation quotes reproduce directly within +-0.05.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np

import smseg
from smseg import losses as L
from smseg.clustering import (WindowConfig, fuse_masks, kmeans,
                              multi_scale_seeds, restrict_candidates)
from smseg.decoder import DecoderParams, decode, inject_random_queries
from smseg.matcher import hungarian, split_match
from smseg.mfe import GRADCHECK_BOUND, GRADCHECK_OPS, grad_check
from smseg.pipeline import make_synth_run, run_pipeline
from smseg.synth import gen_synth

from oracles import (brute_force_min_total, dyadic_matrix,
                     lexicographic_optimum, naive_window_seeds)


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")


# (sIoU, uIoU, printed hIoU) for every row of the published comparison
# table where both components are printed; VOC split then COCO split.
PUBLISHED_TRIPLES = [
    ("SPNet/VOC", 78.0, 15.6, 26.1), ("ZS3/VOC", 77.3, 17.7, 28.7),
    ("CaGNet/VOC", 78.4, 26.6, 39.7), ("SIGN/VOC", 75.4, 28.9, 41.7),
    ("Joint/VOC", 77.7, 32.5, 45.9), ("ZegFormer/VOC", 86.4, 63.6, 73.3),
    ("Zzseg/VOC", 83.5, 72.5, 77.5), ("DeOP/VOC", 88.2, 74.6, 80.8),
    ("ZegCLIP/VOC", 91.9, 77.8, 84.3), ("OTSeg/VOC", 92.1, 78.1, 84.5),
    ("SplitMatching/VOC", 87.7, 83.1, 85.3),
    ("SPNet/COCO", 35.2, 8.7, 14.0), ("ZS3/COCO", 34.7, 9.5, 15.0),
    ("CaGNet/COCO", 33.5, 12.2, 18.2), ("SIGN/COCO", 32.3, 15.5, 20.9),
    ("ZegFormer/COCO", 36.6, 33.2, 34.8), ("Zzseg/COCO", 39.3, 36.3, 37.8),
    ("DeOP/COCO", 38.0, 38.4, 38.2), ("ZegCLIP/COCO", 40.2, 41.4, 40.8),
    ("OTSeg/COCO", 41.4, 41.4, 41.4), ("SplitMatching/COCO", 42.6, 42.4, 42.5),
]


# Rows whose printed hIoU no pair of inputs rounding to the printed sIoU and
# uIoU can reach; the table is not in this repository, so why is unsettled.
INCONSISTENT_ROWS = {"Zzseg/VOC", "CaGNet/COCO"}
DOCUMENTED_ROWS = ("SplitMatching/VOC", "SplitMatching/COCO")
HALF_STEP = 0.05  # half a unit in the last printed decimal


def test_c01_hiou_arithmetic_published_table():
    start = time.time()
    inconsistent, lines = set(), []
    for name, siou, uiou, printed in PUBLISHED_TRIPLES:
        lo = smseg.hiou(siou - HALF_STEP, uiou - HALF_STEP)
        hi = smseg.hiou(siou + HALF_STEP, uiou + HALF_STEP)
        consistent = lo <= printed + HALF_STEP and hi >= printed - HALF_STEP
        if not consistent:
            inconsistent.add(name)
        lines.append(f"{name}: printed {printed}, reachable [{lo:.3f}, "
                     f"{hi:.3f}] {'ok' if consistent else 'INCONSISTENT'}")
    table = {name: row for name, *row in PUBLISHED_TRIPLES}
    documented = {name: abs(smseg.hiou(*table[name][:2]) - table[name][2])
                  for name in DOCUMENTED_ROWS}
    elapsed = time.time() - start
    ok = (inconsistent == INCONSISTENT_ROWS and elapsed < 1.0
          and all(err <= HALF_STEP for err in documented.values()))
    _report(1, "hIoU arithmetic over the published table", ok,
            f"({len(PUBLISHED_TRIPLES) - len(inconsistent)}/"
            f"{len(PUBLISHED_TRIPLES)} rows consistent under rounding, "
            f"{elapsed:.3f}s)")
    for line in lines:
        print("   ", line)
    assert elapsed < 1.0
    assert inconsistent == INCONSISTENT_ROWS, (
        "rows whose printed hIoU no inputs rounding to the printed sIoU/uIoU "
        f"reach: {sorted(inconsistent)}, expected {sorted(INCONSISTENT_ROWS)}")
    for name, err in documented.items():
        assert err <= HALF_STEP, f"{name}: |hiou - printed| = {err:.4f}"


def test_c02_hungarian_optimality_1000():
    start = time.time()
    rng = np.random.default_rng(2024)
    perm_cache = {}
    for _ in range(1000):
        k = int(rng.integers(1, 8))
        t = int(rng.integers(1, k + 1))
        cost = dyadic_matrix(rng, k, t)
        a = hungarian(cost)
        key = (k, t)
        if key not in perm_cache:
            perm_cache[key] = np.array(list(itertools.permutations(range(k), t)),
                                       dtype=np.int64).reshape(-1, t)
        perms = perm_cache[key]
        totals = cost[perms, np.arange(t)].sum(axis=1)   # exact: dyadic entries
        assert a.total_cost == totals.min()
        assert len({p.target for p in a.pairs}) == t
    tie_fixtures = [np.zeros((3, 3)), np.ones((4, 2)),
                    np.array([[0.0, 1.0], [0.0, 1.0]]),
                    np.array([[5.0, 3.0], [3.0, 5.0], [4.0, 4.0]]),
                    np.array([[2.0, 2.0], [2.0, 1.0], [1.0, 2.0]])]
    for cost in tie_fixtures:
        got = tuple((p.query, p.target) for p in hungarian(cost).pairs)
        assert got == lexicographic_optimum(cost)
    elapsed = time.time() - start
    _report(2, "Hungarian optimality, 1000 matrices + tie fixtures", True,
            f"({elapsed:.2f}s)")
    assert elapsed < 10.0


def _split_fixture(rng, k_s, k_u, t_s, t_u, hw=4):
    width = max(8, max(t_s, 1) + max(t_u, 1))
    eye = np.eye(max(t_s, 1) + max(t_u, 1), width, dtype=np.float32)
    joint = smseg.build_joint_embedding(
        smseg.ClassEmbeddings.from_matrix(eye[:max(t_s, 1)],
                                          tuple(range(max(t_s, 1)))),
        eye[max(t_s, 1):])
    v_s, m_s = (rng.standard_normal((k_s, width)).astype(np.float32),
                rng.standard_normal((k_s, hw, hw)).astype(np.float32))
    v_u, m_u = (rng.standard_normal((k_u, width)).astype(np.float32),
                rng.standard_normal((k_u, hw, hw)).astype(np.float32))
    seen_t = [(i, (rng.random((hw, hw)) > 0.5).astype(np.float64))
              for i in range(t_s)]
    cand_t = [(joint.seen_count + i, (rng.random((hw, hw)) > 0.5).astype(np.float64))
              for i in range(t_u)]
    return (joint, np.concatenate([v_s, v_u]), np.concatenate([m_s, m_u]),
            seen_t + cand_t)


def test_c03_split_exclusion_200():
    start = time.time()
    rng = np.random.default_rng(7)
    w = L.CostWeights()
    for _ in range(200):
        k_s, k_u = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        t_s = int(rng.integers(1, min(k_s, 5) + 1))
        t_u = int(rng.integers(0, min(k_u, 5) + 1))
        joint, v, m, targets = _split_fixture(rng, k_s, k_u, t_s, t_u)
        a = split_match(v, m, k_s, targets, joint, w)
        for p in a.pairs:                       # zero cross-group pairs
            assert (p.query < k_s) == (p.target < t_s)
        assert sorted(p.target for p in a.pairs) == list(range(t_s + t_u))
        got_s = math.fsum(p.cost for p in a.pairs if p.group == "seen")
        got_u = math.fsum(p.cost for p in a.pairs if p.group == "candidate")
        cm_s = L.match_cost_matrix(L.class_similarity(v[:k_s], joint.matrix), m[:k_s],
                                   targets[:t_s], w)
        assert got_s == brute_force_min_total(cm_s)
        if t_u:
            cm_u = L.match_cost_matrix(L.class_similarity(v[k_s:], joint.matrix), m[k_s:],
                                       targets[t_s:], w)
            assert got_u == brute_force_min_total(cm_u)
        else:
            assert got_u == 0.0
    elapsed = time.time() - start
    _report(3, "split exclusion + group-respecting oracle, 200 fixtures", True,
            f"({elapsed:.2f}s)")
    assert elapsed < 30.0


def test_c04_window_seed_oracle_equivalence_100():
    start = time.time()
    rng = np.random.default_rng(4)
    cases = 0
    while cases < 100:
        h = int(rng.integers(3, 20))
        if cases % 10 == 0:
            w, s = h, h                       # full-extent window: H = W = s
        else:
            w = int(rng.integers(3, 20))
            s = int(rng.integers(2, min(h, w) + 1))
        feats = rng.standard_normal((int(rng.integers(1, 4)), h, w)) \
            .astype(np.float32)
        seeds = smseg.window_seeds(feats, s)
        expect = naive_window_seeds(feats, s)
        assert seeds.dtype == expect.dtype == np.float32
        assert np.array_equal(seeds, expect), (h, w, s)
        cases += 1
    elapsed = time.time() - start
    _report(4, "window-seed bitwise oracle equivalence, 100 cases", True,
            f"({elapsed:.2f}s)")
    assert elapsed < 10.0


def test_c05_kmeans_monotonicity_100():
    start = time.time()
    rng = np.random.default_rng(5)
    runs = 0
    for _ in range(2):
        for _ in range(49):
            feats = rng.standard_normal((4, 12, 12)).astype(np.float32)
            cfg = WindowConfig(window_sizes=(4, 6), kmeans_iters=8, kmeans_tol=1e-12)
            trace = kmeans(feats, multi_scale_seeds(feats, cfg), cfg) \
                .objective_trace
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            runs += 1
        # degenerate cases: single seed and duplicated seeds
        feats = rng.standard_normal((3, 8, 8)).astype(np.float32)
        cfg = WindowConfig(window_sizes=(8,), kmeans_iters=6)
        single = kmeans(feats, multi_scale_seeds(feats, cfg), cfg)
        assert single.centroids.shape[0] == 1
        seed = rng.standard_normal(3).astype(np.float32)
        dup = kmeans(feats, np.stack([seed, seed]), cfg)
        assert dup.centroids.shape[0] == 1
        runs += 2
    elapsed = time.time() - start
    _report(5, f"k-means monotonicity, {runs} runs", True,
            f"({elapsed:.2f}s)")
    assert elapsed < 30.0


def test_c06_loss_kernel_closed_forms():
    start = time.time()
    m = np.array([1.0, 1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    assert abs(L.dice_loss(m, y) - 0.4) < 1e-12
    assert abs(L.iou_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
               - 2.0 / 3.0) < 1e-12
    assert abs(L.bce_mask(np.zeros(3), np.array([1.0, 0.0, 1.0]))
               - math.log(2.0)) < 1e-12
    assert abs(L.focal_loss(np.array([0.5]), 0) - 0.25 * 0.25 * math.log(2.0)) < 1e-12
    assert abs(L.cross_entropy_map(np.zeros((4, 2, 2)),
                                   np.zeros((2, 2), dtype=int)) - math.log(4.0)) < 1e-12
    rng = np.random.default_rng(6)
    for _ in range(30):
        p = rng.uniform(0.05, 0.95, 10)
        target = int(rng.integers(10))
        yv = np.zeros(10)
        yv[target] = 1.0
        bce = float(np.sum(-(yv * np.log(p) + (1 - yv) * np.log1p(-p))))
        assert abs(L.focal_loss(p, target, alpha=0.5, gamma=0.0) - 0.5 * bce) < 1e-6
    elapsed = time.time() - start
    _report(6, "loss kernels vs closed forms", True, f"({elapsed:.2f}s)")
    assert elapsed < 5.0


def test_c07_gradient_checks():
    start = time.time()
    worst = {}
    for op in GRADCHECK_OPS:
        for seed in range(20):
            err = grad_check(op, seed=seed, step=1e-3)
            worst[op] = max(worst.get(op, 0.0), err)
            assert err < GRADCHECK_BOUND, (op, seed, err)
    elapsed = time.time() - start
    peak = max(worst, key=worst.get)
    _report(7, f"gradient checks, {len(GRADCHECK_OPS)} ops x 20 fixtures", True,
            f"(worst {worst[peak]:.2e} on {peak}, {elapsed:.1f}s)")
    assert elapsed < 60.0


def test_c08_end_to_end_synthetic_recovery(tmp_path):
    start = time.time()
    fix = gen_synth(seed=0, blobs=4, seen=2, size=64, dim=16)
    cfg = WindowConfig()
    clusters = kmeans(fix.features, multi_scale_seeds(fix.features, cfg), cfg)
    cand = restrict_candidates(*fuse_masks(clusters, tau=0.9),
                               fix.seen_labels == fix.ignore_id)
    assert cand.count >= 2
    recovered = 0
    for cid in fix.unseen_ids:
        hidden = fix.gt == cid
        best = max(np.logical_and(mk, hidden).sum() / np.logical_or(mk, hidden).sum()
                   for mk in cand.masks.astype(bool))
        recovered += best >= 0.9
    assert recovered >= 2

    cfg_path, _ = make_synth_run(tmp_path / "fix", seed=0)
    result = run_pipeline(cfg_path)
    cand_pairs = [p for p in result.assignment.pairs if p.group == "candidate"]
    assert len(cand_pairs) == result.candidate_count >= 2
    assert result.report.uiou >= 90.0
    elapsed = time.time() - start
    _report(8, "synthetic recovery end to end", True,
            f"(candidates {result.candidate_count}, "
            f"uIoU {result.report.uiou:.1f}, {elapsed:.1f}s)")
    assert elapsed < 60.0


def test_c09_pipeline_determinism_across_thread_counts(tmp_path):
    start = time.time()
    digests = {}
    for threads in ("1", "8"):
        for run in ("a", "b"):
            out_dir = tmp_path / f"t{threads}{run}"
            code = subprocess.run(
                [sys.executable, "-m", "smseg.cli", "gen-synth", "--seed", "0",
                 "--out-dir", str(out_dir)],
                capture_output=True, text=True).returncode
            assert code == 0
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "smseg.cli", "pipeline", "--config",
                 str(out_dir / "run.cfg")],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            blobs = {p.name: p.read_bytes()
                     for p in sorted((out_dir / "out").glob("*.smtf"))}
            assert blobs, "pipeline wrote no tensors"
            digests[(threads, run)] = blobs
    reference = digests[("1", "a")]
    for key, blobs in digests.items():
        assert blobs.keys() == reference.keys()
        for name in reference:
            assert blobs[name] == reference[name], (key, name)
    elapsed = time.time() - start
    _report(9, "pipeline bitwise determinism across runs and 1/8 threads", True,
            f"({len(reference)} tensors, {elapsed:.1f}s)")
    assert elapsed < 120.0


def test_c11_pipeline_determinism_128_across_blas_threads(tmp_path):
    # At 128 x 128 (1235 seeds) K-means scores pixels in several row
    # blocks and BLAS splits each product over its threads, which c09's
    # 64 x 64 single-block runs never reach.
    start = time.time()
    digests = {}
    for seed in ("0", "1"):
        for threads in ("1", "2"):
            run_dir = tmp_path / f"s{seed}t{threads}"
            code = subprocess.run(
                [sys.executable, "-m", "smseg.cli", "gen-synth", "--seed", seed,
                 "--size", "128", "--dim", "32", "--out-dir", str(run_dir)],
                capture_output=True, text=True).returncode
            assert code == 0
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "smseg.cli", "pipeline", "--config",
                 str(run_dir / "run.cfg")],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            blobs = {p.name: p.read_bytes()
                     for p in sorted((run_dir / "out").glob("*.smtf"))}
            assert blobs, "pipeline wrote no tensors"
            digests[(seed, threads)] = blobs
    for seed in ("0", "1"):
        reference = digests[(seed, "1")]
        blobs = digests[(seed, "2")]
        assert blobs.keys() == reference.keys()
        for name in reference:
            assert blobs[name] == reference[name], (seed, name)
    elapsed = time.time() - start
    _report(11, "pipeline bitwise determinism at 128x128 across 1/2 BLAS threads",
            True, f"({len(digests)} runs, {elapsed:.1f}s)")
    assert elapsed < 60.0


def test_c10_random_query_contract():
    start = time.time()
    qs = np.zeros((2, 8), dtype=np.float32)
    injected = inject_random_queries(qs, k_r=1, seed=0, sigma=0.02)
    assert injected[2].tobytes() == smseg.RQ_SEED0_FIRST8.tobytes()

    noop = inject_random_queries(qs, k_r=0, seed=0)
    assert noop[2:].shape == (0, 8)
    assert noop.tobytes() == qs.tobytes()

    rng = np.random.default_rng(10)
    feats = rng.standard_normal((8, 4, 4)).astype(np.float32)
    params = DecoderParams(
        wq=rng.standard_normal((8, 8)).astype(np.float32),
        wk=rng.standard_normal((8, 8)).astype(np.float32),
        wv=np.zeros((8, 8), dtype=np.float32))
    base = decode(qs, feats, params)
    grown = decode(inject_random_queries(qs, k_r=6, seed=1), feats, params)
    assert np.array_equal(grown.v[:2], base.v)
    assert np.array_equal(grown.m[:2], base.m)
    elapsed = time.time() - start
    _report(10, "random-query stream contract", True, f"({elapsed:.2f}s)")

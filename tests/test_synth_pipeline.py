import hashlib
import json
import re
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from smseg import gen_synth, load_tensor, save_tensor, synth, write_fixture
from smseg.clustering import (WindowConfig, fuse_masks, kmeans,
                              multi_scale_seeds, restrict_candidates)
from smseg.embeddings import ClassEmbeddings, build_joint_embedding
from smseg.losses import (CostWeights, class_similarity, cross_entropy_map, focal_map,
                          match_cost_matrix, matched_loss)
from smseg.matcher import Assignment, Pair, split_match
from smseg.mfe import mfe_logits
from smseg.pipeline import (PipelineConfig, PipelineStageError, _remap_labels,
                            loss, make_synth_run, run_pipeline)


def test_gen_synth_deterministic():
    a = gen_synth(seed=3)
    b = gen_synth(seed=3)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.gt.tobytes() == b.gt.tobytes()
    c = gen_synth(seed=4)
    assert a.features.tobytes() != c.features.tobytes()


def test_gen_synth_zero_noise_exact_directions():
    fix = gen_synth(seed=0, noise=0.0, blobs=4, seen=2, size=32, dim=8)
    for cid in range(5):
        region = fix.gt == cid
        assert region.any()
        feats = fix.features[:, region]
        assert np.all(feats[cid] == 1.0)
        assert np.all(np.delete(feats, cid, axis=0) == 0.0)


# SHA-256 of gen_synth features, recorded before the features were
# streamed in chunks: the two perfbench pipeline shapes, an odd pixel count
# (a channel boundary splits a Box-Muller pair), a map whose chunk
# boundaries fall mid-channel, and no noise.
_SYNTH_DIGESTS = {   # name: ((seed, blobs, seen, size, dim, noise), SHA-256)
    "pipeline-small": ((0, 9, 5, 64, 16, 0.05), "7e38f4afd4aaf94965894dba04a8597403c768f704d9a4ed94d1022b634c8c03"),
    "pipeline-large": ((0, 4, 2, 192, 32, 0.05), "ac77e608799e82f3b09d480772bcc84fa7253f4ea8db0f919480c297fc8d6aac"),
    "odd": ((3, 1, 0, 13, 7, 0.05), "2aaecfaa3ee0aa3cc78688b23863f172edf9adfb04bb8538af85cd00cc7f0158"),
    "mid-channel": ((5, 4, 2, 100, 32, 0.05), "d9c837d19814a0995b438aac2db3c874e11610ea48bb9b638d7dacc4b0fd392a"),
    "noise-0": ((0, 4, 2, 48, 8, 0.0), "4a1f8304eaf00010c2ecf413600a0abed2c5ca98d9fd0beb7a6e1c7135af86f8"),
}


def _synth_digest(name):
    seed, blobs, seen, size, dim, noise = _SYNTH_DIGESTS[name][0]
    fix = gen_synth(seed=seed, blobs=blobs, seen=seen, size=size, dim=dim, noise=noise)
    return hashlib.sha256(fix.features.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(_SYNTH_DIGESTS))
def test_gen_synth_features_pinned(name):
    if name == "mid-channel":
        pixels, chunk = 100 * 100, synth._BLOCK_BYTES // 32
        assert chunk < 32 * pixels and chunk % pixels != 0
    assert _synth_digest(name) == _SYNTH_DIGESTS[name][1]


@pytest.mark.parametrize("budget", [1, 64 * 3, 64 * 85])
def test_gen_synth_chunks_bitwise_at_any_budget(monkeypatch, budget):
    # Chunks of 2, 6 and 170 draws: over the odd fixture's 169-pixel
    # channels, chunk and channel boundaries fall mid-pair and mid-channel.
    monkeypatch.setattr(synth, "_BLOCK_BYTES", budget)
    for name in ("odd", "noise-0"):
        assert _synth_digest(name) == _SYNTH_DIGESTS[name][1]


def test_gen_synth_peak_memory_is_output_plus_one_chunk():
    # 192 x 192 x 32 draws: in float64 the noise field alone is 9 MiB.
    tracemalloc.start()
    try:
        fix = gen_synth(seed=0, blobs=4, seen=2, size=192, dim=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 features, one chunk, and a few (H, W) uint8 label maps
    bound = fix.features.nbytes + synth._BLOCK_BYTES + 8 * 192 * 192
    assert peak < bound, (peak, bound)


def test_gen_synth_structure():
    fix = gen_synth(seed=1, blobs=4, seen=2)
    assert fix.seen_ids == (0, 1, 2)
    assert fix.unseen_ids == (3, 4)
    assert set(np.unique(fix.gt)) == {0, 1, 2, 3, 4}
    hidden = np.isin(fix.gt, fix.unseen_ids)
    assert np.array_equal(fix.seen_labels == fix.ignore_id, hidden)


@pytest.mark.parametrize("ignore_id, message", [
    (1, "ignore id 1 is one of the class ids"),         # a seen class
    (4, "ignore id 4 is one of the class ids"),         # an unseen class
    (300, "ignore id 300 does not fit the uint8 seen labels"),
    (-1, "ignore id -1 does not fit the uint8 seen labels"),
])
def test_gen_synth_rejects_an_ignore_id_the_labels_cannot_tell_apart(ignore_id, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        gen_synth(seed=0, blobs=4, seen=2, size=32, dim=8, ignore_id=ignore_id)


def test_gen_synth_capacity_errors():
    with pytest.raises(ValueError):
        gen_synth(blobs=4, seen=2, size=7)          # blobs don't fit
    with pytest.raises(ValueError):
        gen_synth(blobs=4, dim=3)                   # too few directions
    with pytest.raises(ValueError):
        gen_synth(blobs=2, seen=3)


def test_clustering_recovers_hidden_blobs():
    fix = gen_synth(seed=0, blobs=4, seen=2, size=64, dim=16)
    cfg = WindowConfig()
    clusters = kmeans(fix.features, multi_scale_seeds(fix.features, cfg), cfg)
    cand = restrict_candidates(*fuse_masks(clusters, tau=0.9),
                               fix.seen_labels == fix.ignore_id)
    assert cand.count >= 2
    recovered = 0
    for cid in fix.unseen_ids:
        hidden = fix.gt == cid
        best = max((np.logical_and(m, hidden).sum() / np.logical_or(m, hidden).sum())
                   for m in cand.masks.astype(bool))
        if best >= 0.9:
            recovered += 1
    assert recovered >= 2


def test_pipeline_end_to_end(tmp_path):
    cfg_path, fix = make_synth_run(tmp_path / "fix", seed=0)
    result = run_pipeline(cfg_path)
    assert result.candidate_count >= 2
    # every candidate target matched, no cross-group pair
    cand_pairs = [p for p in result.assignment.pairs if p.group == "candidate"]
    assert len(cand_pairs) == result.candidate_count
    assert result.report is not None
    assert result.report.uiou >= 90.0
    assert result.report.siou >= 90.0
    for name in ("cluster_assign.smtf", "E.smtf", "labels.smtf", "V.smtf"):
        assert name in result.artifacts
    assert result.losses["total"] == result.losses["sm"]


def test_pipeline_without_candidates(tmp_path):
    # all blobs seen: ignore region empty, candidate branch must no-op
    fix = gen_synth(seed=2, blobs=4, seen=4)
    write_fixture(fix, tmp_path / "fix")
    result = run_pipeline(str(tmp_path / "fix" / "run.cfg"))
    assert result.candidate_count == 0
    assert all(p.group == "seen" for p in result.assignment.pairs)
    assert result.report.siou >= 90.0


def test_pipeline_rerun_bitwise_identical(tmp_path):
    cfg_path, _ = make_synth_run(tmp_path / "fix", seed=0, size=32, dim=8)
    first = run_pipeline(cfg_path)
    snapshots = {name: Path(path).read_bytes()
                 for name, path in first.artifacts.items()
                 if name.endswith(".smtf")}
    second = run_pipeline(cfg_path)
    for name, path in second.artifacts.items():
        if name.endswith(".smtf"):
            assert Path(path).read_bytes() == snapshots[name], name


def test_pipeline_mfe_branch(tmp_path):
    cfg_path, _ = make_synth_run(tmp_path / "fix", seed=0, size=32, dim=8)
    cfg = PipelineConfig.from_file(cfg_path)
    cfg.mfe_enabled = True
    cfg.mfe_groups = 4
    result = run_pipeline(cfg)
    assert result.losses["mfe"] == pytest.approx(
        result.losses["mfe_ce"] + result.losses["mfe_focal"])
    assert result.losses["total"] == pytest.approx(
        result.losses["sm"] + result.losses["mfe"])
    assert "Fd.smtf" in result.artifacts


@pytest.mark.parametrize("tau", [0.9, 1.0])
def test_loss_reads_the_costs_in_assign_json(tmp_path, tau):
    # The match computes the cost model once: loss.json's matched term is
    # the one assign.json's costs and weights give, and each cost is its
    # entry, to 1e-15, in a (K, T) matrix built afresh over every query.
    cfg_path, fix = make_synth_run(tmp_path / "fx", seed=0, blobs=9, seen=5,
                                   size=64, dim=16)
    cfg = PipelineConfig.from_file(cfg_path)
    cfg.tau = tau
    out = {name: Path(path) for name, path in run_pipeline(cfg).artifacts.items()}
    raw = json.loads(out["assign.json"].read_text())
    assert raw["weights"] == asdict(cfg.weights)
    w, seen_count = CostWeights(**raw["weights"]), raw["seen_count"]
    s = class_similarity(load_tensor(out["V.smtf"]), load_tensor(out["E.smtf"]))
    m = load_tensor(out["M.smtf"])
    seen = [(j, fix.seen_labels == cid) for j, cid in enumerate(fix.seen_ids)
            if (fix.seen_labels == cid).any()]
    targets = seen + [(seen_count + u, mask)
                      for u, mask in enumerate(load_tensor(out["Yu.smtf"]))]
    full = match_cost_matrix(s, m, targets, w)
    pairs = [Pair(p["q"], p["t"], p["cost"], p["group"]) for p in raw["pairs"]]
    assert len(pairs) == len(targets)
    for p in pairs:
        assert p.cost == pytest.approx(full[p.query, p.target], rel=1e-15, abs=0)
    matched = matched_loss(Assignment(pairs, raw["unmatched"]), s, m, targets, w)
    assert json.loads(out["loss.json"].read_text())["matched"] == matched


def _dict_remap(labels, ids, fill):
    """The definition: a dict from class id to its position in ``ids``."""
    table = {cid: j for j, cid in enumerate(ids)}
    return np.array([table.get(int(v), fill) for v in np.ravel(labels)],
                    dtype=np.int64).reshape(np.shape(labels))


@pytest.mark.parametrize("ids", [
    (0, 1, 2),          # every listed id
    (3, 7),             # 0-2 and 4-6 unlisted
    (2, 5, 2, 0),       # 2 repeated: its last index (2) wins
    (300, 0),           # an id beyond every label
])
def test_remap_labels_matches_dict_semantics(ids):
    labels = np.array([[0, 1, 2, 3], [5, 7, 255, 254],
                       [-1, -3, 256, 1000], [2, 2, 0, 300]])
    got = _remap_labels(labels, ids, 255)
    assert got.dtype == np.int64 and got.shape == labels.shape
    assert np.array_equal(got, _dict_remap(labels, ids, 255))


def test_remap_labels_cases():
    labels = np.array([0, 1, 2, 4, -1, -4, 9, 255])
    got = _remap_labels(labels, (1, 4, 1), 99)
    # unlisted -> fill; repeated id 1 -> last index 2; negative and
    # beyond-range labels -> fill, never wrapped onto the end of a table
    assert got.tolist() == [99, 2, 99, 1, 99, 99, 99, 99]
    as_u8 = _remap_labels(np.array([[1, 255]], dtype=np.uint8), (255, 1), 7)
    assert as_u8.tolist() == [[1, 0]]


def test_pipeline_stage_error_names_stage(tmp_path):
    cfg_path, _ = make_synth_run(tmp_path / "fix", seed=0, size=32, dim=8)
    cfg = PipelineConfig.from_file(cfg_path)
    cfg.features = "missing.smtf"
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "load-inputs"

    cfg = PipelineConfig.from_file(cfg_path)
    cfg.windows = (999,)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "cluster"


@pytest.mark.parametrize("min_area", [0, -1])
def test_min_area_below_one_fails_in_stage_restrict(tmp_path, min_area):
    # a smaller min_area would keep groups with no unannotated pixel, which
    # stage embed could not pool
    cfg_path, _ = make_synth_run(tmp_path / "fix", seed=0, size=32, dim=8)
    cfg = PipelineConfig.from_file(cfg_path)
    cfg.min_area = min_area
    with pytest.raises(PipelineStageError, match="min_area must be >= 1") as err:
        run_pipeline(cfg)
    assert err.value.stage == "restrict"


def test_mfe_losses_count_a_candidate_whose_joint_id_is_the_ignore_id(tmp_path):
    # Three seen classes and ignore_id 5: candidate 2 takes joint id 5. The
    # MFE losses count its pixels like every other candidate's, as they
    # come out of the written features, bank and masks.
    cfg_path, fix = make_synth_run(tmp_path / "fx", seed=0, blobs=4, seen=2, size=64,
                                   dim=16, ignore_id=5)
    cfg = PipelineConfig.from_file(cfg_path)
    cfg.tau, cfg.mfe_enabled = 1.0, True
    out = {name: Path(path) for name, path in run_pipeline(cfg).artifacts.items()}
    masks, seen_count = load_tensor(out["Yu.smtf"]), len(fix.seen_ids)
    assert len(masks) > 5 - seen_count and masks[5 - seen_count].any()
    labels = _dict_remap(fix.seen_labels, fix.seen_ids, -1)
    for u, mask in enumerate(masks):
        labels[mask == 1] = seen_count + u
    logits = mfe_logits(load_tensor(out["Fd.smtf"]), load_tensor(out["E.smtf"]),
                        temperature=cfg.temperature)
    w = cfg.weights
    losses = json.loads(out["loss.json"].read_text())
    assert losses["mfe_ce"] == cross_entropy_map(logits, labels, -1)
    assert losses["mfe_focal"] == focal_map(logits, labels, -1, w.focal_alpha,
                                            w.focal_gamma)


def test_written_fixture_roundtrips(tmp_path):
    fix = gen_synth(seed=5, size=32, dim=8)
    paths = write_fixture(fix, tmp_path / "fx")
    # only files something reads, each returned under its key
    assert sorted(p.name for p in (tmp_path / "fx").iterdir()) == [
        "As.smtf", "Au.smtf", "O.smtf", "Ys.smtf", "gt.smtf", "run.cfg"]
    assert sorted(Path(p).name for p in paths.values()) == sorted(
        p.name for p in (tmp_path / "fx").iterdir())
    for key, array in (("features", fix.features), ("seen_labels", fix.seen_labels),
                       ("gt", fix.gt), ("seen_embeddings", fix.seen_embeddings.matrix),
                       ("unseen_embeddings", fix.unseen_embeddings.matrix)):
        loaded = load_tensor(paths[key])
        assert loaded.dtype == array.dtype and np.array_equal(loaded, array), key


def _loss_case():
    """An orthonormal bank of 2 seen rows and candidate rows 2 and 3; one
    seen query on row 0 and one candidate query on row 3, with one target
    each, of classes 0 and 3."""
    eye = np.eye(4, 8, dtype=np.float32)
    joint = build_joint_embedding(ClassEmbeddings.from_matrix(eye[:2], (0, 1)), eye[2:])
    v = 8.0 * eye[[0, 3]]
    masks = np.zeros((2, 4, 4))
    masks[0, 0] = masks[1, 1] = 1.0
    m = 20.0 * (2.0 * masks - 1.0)
    return v, m, [(0, masks[0]), (3, masks[1])], joint


def test_loss_cosine_reads_the_target_class_row():
    # The candidate query equals row 3, its target's class row. Read by
    # position among the candidate rows it would be scored against row 2.
    v, m, targets, joint = _loss_case()
    assignment = split_match(v, m, 1, targets, joint, CostWeights())
    assert [(p.query, p.target, p.group) for p in assignment.pairs] == [
        (0, 0, "seen"), (1, 1, "candidate")]
    losses = loss(v, m, 1, targets, assignment, joint, CostWeights())
    assert losses["cosine"] == 0.0
    assert losses["sm"] == losses["matched"]


def test_loss_rejects_a_candidate_pair_with_a_seen_class():
    # Targets 0 and 1 have classes 0 (seen) and 3 (candidate), and query 0
    # is seen (k_seen 1). Each pair whose group is not its target's or its
    # query's raises, named by the first such pair.
    v, m, targets, joint = _loss_case()
    seen, cand = Pair(0, 1, 0.0, "seen"), Pair(1, 0, 0.0, "candidate")
    for pairs, message in (
            ([cand], r"candidate pair \(1, 0\) has seen class id 0"),
            ([seen], r"seen pair \(0, 1\) has candidate class id 3"),
            ([seen, cand], r"seen pair \(0, 1\)"),
            ([Pair(0, 1, 0.0, "candidate")],
             r"candidate pair \(0, 1\) has a seen query \(k_seen 1\)")):
        with pytest.raises(ValueError, match=message):
            loss(v, m, 1, targets, Assignment(pairs), joint, CostWeights())


def test_file_decoder_uses_every_query_row(tmp_path):
    # Queries 4 E from an oracle run and zero decoder weights reproduce the
    # oracle run's files; a ksplit that leaves a row out fails by name.
    cfg_path, fix = make_synth_run(tmp_path / "fix", seed=0, size=32, dim=8)
    oracle = run_pipeline(cfg_path)
    joint = load_tensor(tmp_path / "fix" / "out" / "E.smtf")
    save_tensor(4.0 * joint, tmp_path / "Q.smtf")
    save_tensor(np.zeros((3, joint.shape[1], joint.shape[1]), dtype=np.float32),
                tmp_path / "dec.smtf")
    cfg = PipelineConfig.from_file(cfg_path)
    cfg.out_dir = "file"
    cfg.queries, cfg.decoder_params = str(tmp_path / "Q.smtf"), str(tmp_path / "dec.smtf")
    k_seen, k_cand = len(fix.seen_ids), oracle.candidate_count
    assert k_cand >= 1
    cfg.ksplit = (k_seen, k_cand)
    run_pipeline(cfg)
    for name in ("V.smtf", "M.smtf", "queries.smtf", "labels.smtf"):
        assert (tmp_path / "fix" / "file" / name).read_bytes() == \
            (tmp_path / "fix" / "out" / name).read_bytes(), name
    cfg.ksplit = (k_seen, k_cand - 1)
    with pytest.raises(PipelineStageError, match="does not cover") as err:
        run_pipeline(cfg)
    assert err.value.stage == "decode"


@pytest.mark.parametrize("missing, key", [("queries", "[decoder] queries"),
                                          ("decoder_params", "[decoder] params")])
def test_file_decoder_names_a_missing_key(tmp_path, missing, key):
    cfg_path, _ = make_synth_run(tmp_path / "fix", seed=0, size=32, dim=8)
    cfg = PipelineConfig.from_file(cfg_path)
    cfg.queries, cfg.decoder_params = "Q.smtf", "dec.smtf"
    setattr(cfg, missing, "")
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "decode" and str(err.value).endswith(f"needs {key}")


# The pipeline workloads of perfbench/run.py: gen_synth shape, and whether
# run.cfg gains an [mfe] section enabling the fusion branch.
_WORKLOADS = {"pipeline-small": (dict(blobs=9, seen=5, size=64, dim=16), True),
              "pipeline-large": (dict(blobs=4, seen=2, size=192, dim=32), False)}


def _smtf_digest(artifacts):
    """SHA-256 over (name, SHA-256 of bytes) of every *.smtf a run wrote."""
    h = hashlib.sha256()
    for name in sorted(n for n in artifacts if n.endswith(".smtf")):
        h.update(name.encode())
        h.update(hashlib.sha256(Path(artifacts[name]).read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("workload, u", [
    *(("pipeline-small", u) for u in (0, 1, 2, 63, 97, 128, 200, 255)),
    ("pipeline-large", 0)])
def test_pipeline_reference_digests(tmp_path, workload, u):
    """Replay pinned universe fixtures of the perfbench pipeline workloads:
    every written *.smtf byte and the hIoU must hold."""
    ref_path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())[workload][str(u)]
    shape, mfe = _WORKLOADS[workload]
    cfg_path, _ = make_synth_run(tmp_path / "fx", seed=u, **shape)
    if mfe:
        with open(cfg_path, "a") as fh:
            fh.write("[mfe]\nenabled = true\n")
    result = run_pipeline(str(cfg_path))
    assert _smtf_digest(result.artifacts) == ref["smtf_sha256"]
    assert result.report.hiou == ref["hiou"]


@pytest.mark.parametrize("workload, u", [
    *(("pipeline-small", u) for u in (0, 1, 2, 63, 97, 128, 200, 255)),
    ("pipeline-large", 0)])
def test_pipeline_json_digests(tmp_path, workload, u):
    """The JSON outputs of the fixtures above, by SHA-256 of their bytes,
    as recorded in tests/json_digests.json."""
    ref = json.loads((Path(__file__).parent / "json_digests.json").read_text())
    shape, mfe = _WORKLOADS[workload]
    cfg_path, _ = make_synth_run(tmp_path / "fx", seed=u, **shape)
    if mfe:
        with open(cfg_path, "a") as fh:
            fh.write("[mfe]\nenabled = true\n")
    artifacts = run_pipeline(str(cfg_path)).artifacts
    got = {name: hashlib.sha256(Path(artifacts[name]).read_bytes()).hexdigest()
           for name in ("assign.json", "loss.json", "report.json")}
    assert got == ref[workload][str(u)]


# hIoU and per-class IoU (percent) of default runs on 64², 9 blobs, 5 seen,
# 16 channels, per (noise, seed). Quality holds to noise 0.15 and falls off
# a cliff at 0.2; every IoU below 100 also pins how evaluate scales it.
_LADDER = {
    (0.05, 0): (100.0, [100.0] * 10),
    (0.05, 1): (100.0, [100.0] * 10),
    (0.15, 0): (97.40771386774725, [
        99.59324155193993, 100.0, 99.00990099009901, 84.7457627118644, 100.0,
        99.0, 94.0, 99.0, 98.0392156862745, 100.0]),
    (0.15, 1): (96.77642330304276, [
        98.811013767209, 100.0, 99.00990099009901, 84.03361344537815, 100.0,
        83.33333333333334, 100.0, 100.0, 100.0, 98.0]),
    (0.2, 0): (5.470438389895399, [
        1.3141426783479349, 3.0, 5.769230769230769, 6.422018348623854, 4.0, 4.0,
        6.958942240779402, 17.964071856287426, 3.8095238095238098, 4.391743522178305]),
    (0.2, 1): (3.8972829878303026, [
        3.44180225281602, 4.0, 5.0, 3.9603960396039604, 1.9607843137254901,
        7.6190476190476195, 5.434782608695652, 1.0, 3.0, 4.737091425864519]),
}


@pytest.mark.parametrize("noise, seed", sorted(_LADDER))
def test_hiou_noise_ladder(tmp_path, noise, seed):
    hiou, per_class = _LADDER[noise, seed]
    cfg_path, _ = make_synth_run(tmp_path / "fx", seed=seed, blobs=9, seen=5,
                                 size=64, dim=16, noise=noise)
    report = run_pipeline(cfg_path).report
    assert report.per_class_iou.tolist() == pytest.approx(per_class, rel=1e-12)
    assert report.hiou == pytest.approx(hiou, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pipeline_outputs_ignore_power_of_two_feature_scale(tmp_path, seed):
    # Only direction matters up to the readout, so features scaled by an
    # exact power of two, down to norms of 1e-30 and up to 1e30, must run
    # without a warning and give the scale-1 candidates bit for bit. The
    # oracle decoder's mask logits scale with the features, and so may the
    # labels read from them.
    cfg_path, fix = make_synth_run(tmp_path / "fx", seed=seed, blobs=9, seen=5,
                                   size=64, dim=16)
    outputs = {}
    for k in (0, -100, -60, 40, 100):
        save_tensor(fix.features * np.float32(2.0 ** k), tmp_path / f"F{k}.smtf")
        cfg = PipelineConfig.from_file(cfg_path)
        cfg.features, cfg.out_dir = str(tmp_path / f"F{k}.smtf"), f"out{k}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_pipeline(cfg)
        outputs[k] = {name: Path(result.artifacts[name]).read_bytes() for name in
                      ("cluster_assign.smtf", "Yu.smtf", "Cu.smtf", "E.smtf")}
        assert outputs[k] == outputs[0], k


@pytest.mark.parametrize("k", [64, 100])
def test_mfe_branch_runs_at_any_feature_scale(tmp_path, k):
    # group_norm squares float32 deviations near 2**k; they must not overflow.
    cfg_path, fix = make_synth_run(tmp_path / "fx", seed=0, blobs=9, seen=5,
                                   size=64, dim=16)
    save_tensor(fix.features * np.float32(2.0 ** k), tmp_path / "F.smtf")
    cfg = PipelineConfig.from_file(cfg_path)
    cfg.features, cfg.mfe_enabled = str(tmp_path / "F.smtf"), True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_pipeline(cfg)
    assert np.isfinite(load_tensor(result.artifacts["Fd.smtf"])).all()
    assert np.isfinite([result.losses["mfe_ce"], result.losses["mfe_focal"]]).all()


def test_default_unseen_ids_follow_the_seen_ids(tmp_path):
    # With an unseen bank and no [eval] unseen_ids, the U unseen rows take
    # ids len(seen_ids) .. len(seen_ids) + U - 1, which are gen_synth's.
    cfg_path, fix = make_synth_run(tmp_path / "fix", seed=0, size=32, dim=8)
    cfg = PipelineConfig.from_file(cfg_path)
    assert cfg.seen_ids == fix.seen_ids == (0, 1, 2)
    assert cfg.unseen_ids == fix.unseen_ids == (3, 4)
    explicit = run_pipeline(cfg)
    cfg.unseen_ids, cfg.out_dir = (), "default"
    default = run_pipeline(cfg)
    assert default.report.to_dict() == explicit.report.to_dict()
    labels = load_tensor(default.artifacts["labels.smtf"])
    assert set(np.unique(labels).tolist()) == {0, 1, 2, 3, 4}

from pathlib import Path

import numpy as np
import pytest

from smseg import gen_synth, load_tensor, write_fixture
from smseg.clustering import (WindowConfig, fuse_masks, kmeans,
                              multi_scale_seeds, restrict_candidates)
from smseg.pipeline import (PipelineConfig, PipelineStageError, _remap_labels,
                            make_synth_run, run_pipeline)


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


def test_gen_synth_structure():
    fix = gen_synth(seed=1, blobs=4, seen=2)
    assert fix.seen_ids == (0, 1, 2)
    assert fix.unseen_ids == (3, 4)
    assert set(np.unique(fix.gt)) == {0, 1, 2, 3, 4}
    hidden = np.isin(fix.gt, fix.unseen_ids)
    assert np.array_equal(fix.ignore_mask.astype(bool), hidden)
    assert np.all(fix.seen_labels[hidden] == fix.ignore_id)


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
    masks, cents = fuse_masks(clusters, tau=0.9)
    cand = restrict_candidates(masks, cents, fix.ignore_mask)
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


def test_pipeline_global_loss_hook(tmp_path):
    cfg_path, _ = make_synth_run(tmp_path / "fix", seed=0, size=32, dim=8)
    cfg = PipelineConfig.from_file(cfg_path)
    cfg.mfe_enabled = True
    cfg.mfe_groups = 4
    result = run_pipeline(cfg, global_loss_hook=lambda fd, joint: 1.25)
    assert result.losses["mfe"] == pytest.approx(
        result.losses["mfe_ce"] + result.losses["mfe_focal"] + 1.25)


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


def test_written_fixture_roundtrips(tmp_path):
    fix = gen_synth(seed=5, size=32, dim=8)
    paths = write_fixture(fix, tmp_path / "fx")
    assert np.array_equal(load_tensor(paths["features"]), fix.features)
    assert np.array_equal(load_tensor(paths["gt"]), fix.gt)
    assert np.array_equal(load_tensor(paths["seen_embeddings"]),
                          fix.seen_embeddings.matrix)

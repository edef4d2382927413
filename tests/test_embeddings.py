import numpy as np
import pytest

from smseg import embeddings as emb
from smseg.tensor_store import save_tensor


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_pool_single_pixel_mask():
    feats = np.zeros((3, 4, 4), dtype=np.float32)
    feats[:, 1, 2] = [3.0, 0.0, 4.0]
    masks = np.zeros((1, 4, 4), dtype=np.uint8)
    masks[0, 1, 2] = 1
    rows = emb.pool_region_embeddings(feats, masks)
    assert np.allclose(rows[0], _unit([3, 0, 4]), atol=1e-6)


def test_pool_constant_region():
    feats = np.tile(np.array([1.0, 2.0, 2.0], dtype=np.float32)[:, None, None], (1, 4, 4))
    masks = np.zeros((1, 4, 4), dtype=np.uint8)
    masks[0, :2] = 1
    rows = emb.pool_region_embeddings(feats, masks)
    assert np.allclose(rows[0], _unit([1, 2, 2]), atol=1e-6)


def test_pool_two_pixel_formula():
    feats = np.zeros((2, 1, 2), dtype=np.float32)
    feats[:, 0, 0] = [1.0, 0.0]
    feats[:, 0, 1] = [0.0, 1.0]
    masks = np.ones((1, 1, 2), dtype=np.uint8)
    rows = emb.pool_region_embeddings(feats, masks)
    assert np.allclose(rows[0], _unit([0.5, 0.5]), atol=1e-6)


def test_pool_permutation_equivariant():
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((4, 6, 6)).astype(np.float32) + 2.0
    masks = np.zeros((3, 6, 6), dtype=np.uint8)
    masks[0, :2], masks[1, 2:4], masks[2, 4:] = 1, 1, 1
    rows = emb.pool_region_embeddings(feats, masks)
    perm = [2, 0, 1]
    rows_p = emb.pool_region_embeddings(feats, masks[perm])
    assert np.array_equal(rows_p, rows[perm])


def test_pool_empty_mask_error():
    feats = np.ones((2, 3, 3), dtype=np.float32)
    masks = np.zeros((1, 3, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        emb.pool_region_embeddings(feats, masks)


def test_load_candidate_embeddings(tmp_path):
    rows = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=np.float32)
    path = tmp_path / "cu.smtf"
    save_tensor(rows, path)
    got = emb.load_candidate_embeddings(path, expected_count=2, expected_width=2)
    assert np.allclose(got, np.eye(2), atol=1e-6)       # renormalized
    with pytest.raises(ValueError):
        emb.load_candidate_embeddings(path, expected_count=3)
    with pytest.raises(ValueError):
        emb.load_candidate_embeddings(path, expected_width=4)


def test_load_candidate_embeddings_empty():
    with pytest.raises(ValueError):
        emb.load_candidate_embeddings("whatever.smtf", expected_count=0,
                                      expected_width=5)


def test_prenormalized_rows_unchanged(tmp_path):
    rows = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    path = tmp_path / "cu.smtf"
    save_tensor(rows, path)
    got = emb.load_candidate_embeddings(path)
    assert np.allclose(got, rows, atol=1e-6)


def test_class_embeddings_validation():
    with pytest.raises(ValueError):
        emb.ClassEmbeddings.from_matrix(np.eye(2, dtype=np.float32), (3, 3))
    bank = emb.ClassEmbeddings.from_matrix(
        np.array([[2.0, 0.0], [0.0, 7.0]], dtype=np.float32), (0, 4))
    assert np.allclose(np.linalg.norm(bank.matrix, axis=1), 1.0, atol=1e-5)


def test_build_joint_embedding():
    seen = emb.ClassEmbeddings.from_matrix(np.eye(2, 4, dtype=np.float32), (0, 1))
    cand = _unit([1, 1, 0, 0]).astype(np.float32)[None, :]
    joint = emb.build_joint_embedding(seen, cand)
    assert joint.seen_count == 2 and joint.candidate_count == 1
    assert len(joint.matrix) == 3
    assert np.array_equal(joint.matrix[2], cand[0])
    norms = np.linalg.norm(joint.matrix.astype(np.float64), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-5


def test_build_joint_empty_candidates():
    seen = emb.ClassEmbeddings.from_matrix(np.eye(3, dtype=np.float32), (0, 1, 2))
    joint = emb.build_joint_embedding(seen, np.zeros((0, 3), dtype=np.float32))
    assert joint.candidate_count == 0
    assert np.array_equal(joint.matrix, seen.matrix)


def test_build_joint_width_mismatch():
    seen = emb.ClassEmbeddings.from_matrix(np.eye(2, dtype=np.float32), (0, 1))
    with pytest.raises(ValueError):
        emb.build_joint_embedding(seen, np.eye(1, 3, dtype=np.float32))


def test_unit_rows_any_scale_and_zero_row_error():
    # A nonzero row normalizes whatever its norm (here about 1e-18); only
    # an all-zero row, which has no direction, is an error.
    rows = np.array([[3.0, 4.0], [1.0, 0.0]]) * 2.0 ** -60
    got = emb._unit_rows(rows)
    assert got.tobytes() == emb._unit_rows(rows * 2.0 ** 60).tobytes()
    assert got.tolist() == [[0.6000000238418579, 0.800000011920929], [1.0, 0.0]]
    with pytest.raises(ValueError, match="zero embedding row"):
        emb._unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="zero embedding row"):
        emb.ClassEmbeddings.from_matrix(np.zeros((1, 3), dtype=np.float32), (0,))

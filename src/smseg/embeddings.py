"""Class-embedding banks and the joint seen+candidate index space.

The matcher and inference head score queries against one row-indexed bank:
rows [0, seen_count) are the seen-class embeddings in order, rows
[seen_count, seen_count+U) are candidate-region embeddings. Everything
downstream relies on that split, so it is carried explicitly by
:class:`JointEmbedding` rather than re-derived.

Candidate embeddings either come from an external encoder (loaded from a
file) or from the built-in stand-in that mask-pools the dense feature map.
Rows are L2-normalized on every ingestion path: the similarity head is
sigmoid(V . E^T), which is scale sensitive, and unit rows keep fixtures
portable. Any nonzero row normalizes at any scale; a zero row is an error.
"""

from dataclasses import dataclass

import numpy as np

from .losses import normalize_rows
from .tensor_store import load_tensor

UNIT_ROW_TOL = 1e-4
_MAX_CLASS_ID = int(np.iinfo(np.int32).max)


def check_class_ids(class_ids):
    """``class_ids`` as a tuple of ints, each in [0, 2^31 - 1].

    ValueError names the first id outside: a label map holds ids as
    ``uint8`` or ``int32``, where a negative id would wrap onto another
    (-1 onto the default ignore id 255) and a larger one would not fit.
    """
    ids = tuple(int(c) for c in class_ids)
    for c in ids:
        if c < 0:
            raise ValueError(f"class id {c} is negative")
        if c > _MAX_CLASS_ID:
            raise ValueError(f"class id {c} does not fit int32")
    return ids


def _unit_rows(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.any(matrix, axis=1)):
        raise ValueError("cannot normalize a zero embedding row")
    return normalize_rows(matrix).astype(np.float32)


@dataclass
class ClassEmbeddings:
    """Unit-norm embedding rows with their dataset class ids."""

    matrix: np.ndarray           # (N, C) f32, unit rows
    class_ids: tuple

    @classmethod
    def from_matrix(cls, matrix, class_ids):
        matrix = _unit_rows(matrix)
        class_ids = check_class_ids(class_ids)
        if len(class_ids) != matrix.shape[0]:
            raise ValueError("one class id per embedding row required")
        if len(set(class_ids)) != len(class_ids):
            raise ValueError(f"duplicate class ids in {class_ids}")
        return cls(matrix=matrix, class_ids=class_ids)

    @property
    def count(self):
        return int(self.matrix.shape[0])

    @property
    def width(self):
        return int(self.matrix.shape[1])


@dataclass
class JointEmbedding:
    """Seen-class rows followed by candidate rows, one index space."""

    matrix: np.ndarray           # (seen_count + candidate_count, C) f32
    seen_count: int

    @property
    def candidate_count(self):
        return len(self.matrix) - self.seen_count


def pool_region_embeddings(feats, masks):
    """Mask-pooled dense features, one unit row per mask.

    Stand-in for an external region encoder: row u is
    normalize(sum over mask_u of feats[:, h, w]), the direction of the
    region's mean feature. ``masks`` is a (U, H, W) binary array; every
    mask must be nonempty.
    """
    mask_arr = np.asarray(masks)
    feats = np.asarray(feats, dtype=np.float64)
    c = feats.shape[0]
    if mask_arr.shape[0] == 0:
        return np.zeros((0, c), dtype=np.float32)
    if mask_arr.shape[1:] != feats.shape[1:]:
        raise ValueError(
            f"mask spatial shape {mask_arr.shape[1:]} != features {feats.shape[1:]}")
    rows = np.zeros((mask_arr.shape[0], c), dtype=np.float64)
    for u, mask in enumerate(mask_arr.astype(bool)):
        if not mask.any():
            raise ValueError(f"mask {u} is empty")
        rows[u] = feats[:, mask].sum(axis=1)
    return _unit_rows(rows)


def load_candidate_embeddings(path, expected_count=None, expected_width=None):
    """Load the candidate embeddings in the SMTF file ``path``, renormalized.

    Count/width mismatches against the current candidate set are errors,
    and so is a file given when there are no candidates.
    """
    if expected_count == 0:
        raise ValueError("candidate embedding file supplied but no candidates exist")
    matrix = load_tensor(path)
    if matrix.ndim != 2:
        raise ValueError(f"{path}: candidate embeddings must be rank 2")
    if expected_count is not None and matrix.shape[0] != expected_count:
        raise ValueError(
            f"{path}: {matrix.shape[0]} embedding rows for {expected_count} candidates")
    if expected_width is not None and matrix.shape[1] != expected_width:
        raise ValueError(
            f"{path}: embedding width {matrix.shape[1]} != expected {expected_width}")
    return _unit_rows(matrix)


def build_joint_embedding(seen, candidates):
    """The ``seen`` ClassEmbeddings rows followed by the (U, C)
    ``candidates`` rows, order preserved, as a JointEmbedding."""
    candidates = np.asarray(candidates, dtype=np.float32)
    matrix = seen.matrix
    if len(candidates):
        if candidates.shape[1] != seen.width:
            raise ValueError(
                f"candidate width {candidates.shape[1]} != seen width {seen.width}")
        matrix = np.concatenate([matrix, candidates])
    norms = np.linalg.norm(matrix.astype(np.float64), axis=1)
    if matrix.shape[0] and np.abs(norms - 1.0).max() > UNIT_ROW_TOL:
        raise ValueError("joint embedding rows must be unit norm")
    return JointEmbedding(matrix=matrix.astype(np.float32), seen_count=seen.count)

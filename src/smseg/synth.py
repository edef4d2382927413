"""Deterministic synthetic fixtures: blob features with a hidden class split.

A fixture is an image of non-overlapping square blobs on a background,
where every class (background plus each blob) owns a distinct orthogonal
unit feature direction and the feature map is that direction plus isotropic
Gaussian noise. The first ``seen`` blobs keep their labels; the rest are
marked ignored, which is exactly the situation the candidate-discovery
pipeline is built for. Because directions are orthogonal and the noise is
small, clustering provably separates the blobs, so fixtures double as
recovery oracles: the hidden blob masks are known ground truth.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .clustering import _BLOCK_BYTES
from .embeddings import ClassEmbeddings
from .tensor_store import save_tensor


@dataclass
class SynthFixture:
    features: np.ndarray             # (C, H, W) f32
    seen_labels: np.ndarray          # (H, W) u8, ignore_id on hidden blobs
    ignore_mask: np.ndarray          # (H, W) u8, 1 = unannotated
    gt: np.ndarray                   # (H, W) u8, full labels
    seen_embeddings: ClassEmbeddings
    unseen_embeddings: ClassEmbeddings
    ignore_id: int
    blob_boxes: list                 # (class_id, r0, c0, side)

    @property
    def num_classes(self):
        return self.seen_embeddings.count + self.unseen_embeddings.count

    @property
    def seen_ids(self):
        return self.seen_embeddings.class_ids

    @property
    def unseen_ids(self):
        return self.unseen_embeddings.class_ids


def _feature_chunk(labels, seed, noise, lo, hi):
    """Entries lo..hi-1 of the flat (C, H, W) features in float64, as
    d + noise * g rounds them: g from the stream, d the one-hot direction
    of each pixel's class in ``labels``."""
    pixels = len(labels)
    if noise > 0:
        g = rng.gaussians(seed, hi - lo, start_pair=lo // 2)
        g *= noise
    else:
        g = np.zeros(hi - lo)
    for ch in range(lo // pixels, (hi - 1) // pixels + 1):     # adds d, 0 or 1
        a, b = max(lo, ch * pixels), min(hi, (ch + 1) * pixels)
        g[a - lo:b - lo] += labels[a - ch * pixels:b - ch * pixels] == ch
    return g


def gen_synth(seed=0, blobs=4, seen=2, size=64, dim=16, noise=0.05,
              ignore_id=255):
    """Build a blob fixture. Identical arguments give identical bits.

    ``blobs`` square regions are laid out on a ceil(sqrt(blobs)) grid;
    class 0 is the background (always seen), blob i carries class i+1.
    Blobs beyond the first ``seen`` are hidden: their pixels are ignored
    in ``seen_labels`` and set in ``ignore_mask``.

    Feature (ch, px) is float32(d + noise * g): d is 1 where pixel px has
    class ch and 0 elsewhere, g is draw ch * H * W + px of
    ``rng.gaussians(seed)``. The float32 features are written in chunks of
    whole Box-Muller pairs of that stream, ``_BLOCK_BYTES // 32`` draws at
    a time, so beyond its output gen_synth holds one chunk.
    """
    if not 0 <= seen <= blobs:
        raise ValueError(f"seen blob count {seen} outside [0, {blobs}]")
    n_classes = blobs + 1
    if dim < n_classes:
        raise ValueError(f"feature dim {dim} < {n_classes} classes")
    grid = int(np.ceil(np.sqrt(blobs)))
    cell = size // grid
    side = cell // 2
    if side < 2:
        raise ValueError(f"{blobs} blobs exceed the capacity of a {size}x{size} image")

    gt = np.zeros((size, size), dtype=np.uint8)
    boxes = []
    for b in range(blobs):
        gr, gc = divmod(b, grid)
        r0 = gr * cell + (cell - side) // 2
        c0 = gc * cell + (cell - side) // 2
        gt[r0:r0 + side, c0:c0 + side] = b + 1
        boxes.append((b + 1, r0, c0, side))

    directions = np.eye(dim, dtype=np.float64)[:n_classes]
    feats = np.empty(dim * size * size, dtype=np.float32)
    step = 2 * max(1, _BLOCK_BYTES // 64)              # whole Box-Muller pairs
    for lo in range(0, len(feats), step):
        hi = min(lo + step, len(feats))
        feats[lo:hi] = _feature_chunk(gt.ravel(), seed, noise, lo, hi)
    feats = feats.reshape(dim, size, size)

    seen_labels = gt.copy()
    ignore = np.zeros_like(gt)
    for cid, r0, c0, s in boxes[seen:]:
        region = gt == cid
        seen_labels[region] = ignore_id
        ignore[region] = 1

    seen_ids = tuple(range(seen + 1))                     # background + seen blobs
    unseen_ids = tuple(range(seen + 1, n_classes))
    return SynthFixture(
        features=feats,
        seen_labels=seen_labels,
        ignore_mask=ignore,
        gt=gt,
        seen_embeddings=ClassEmbeddings.from_matrix(
            directions[list(seen_ids)].astype(np.float32), seen_ids),
        unseen_embeddings=ClassEmbeddings.from_matrix(
            directions[list(unseen_ids)].astype(np.float32), unseen_ids),
        ignore_id=ignore_id,
        blob_boxes=boxes,
    )


def write_fixture(fix, out_dir):
    """Write every fixture array as SMTF plus a meta.json and run.cfg."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "features": out / "O.smtf",
        "seen_labels": out / "Ys.smtf",
        "ignore_mask": out / "ignore.smtf",
        "gt": out / "gt.smtf",
        "seen_embeddings": out / "As.smtf",
    }
    save_tensor(fix.features, paths["features"])
    save_tensor(fix.seen_labels, paths["seen_labels"])
    save_tensor(fix.ignore_mask, paths["ignore_mask"])
    save_tensor(fix.gt, paths["gt"])
    save_tensor(fix.seen_embeddings.matrix, paths["seen_embeddings"])
    if fix.unseen_embeddings.count:
        paths["unseen_embeddings"] = out / "Au.smtf"
        save_tensor(fix.unseen_embeddings.matrix, paths["unseen_embeddings"])

    meta = {
        "num_classes": fix.num_classes,
        "seen_ids": list(fix.seen_ids),
        "unseen_ids": list(fix.unseen_ids),
        "ignore_id": fix.ignore_id,
        "blob_boxes": [list(b) for b in fix.blob_boxes],
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")

    from .pipeline import PipelineConfig       # pipeline imports this module
    cfg = PipelineConfig(
        **{key: path.name for key, path in paths.items() if key != "gt"},
        gt_labels=paths["gt"].name, num_classes=fix.num_classes,
        seen_ids=tuple(fix.seen_ids), unseen_ids=tuple(fix.unseen_ids),
        ignore_id=fix.ignore_id)
    # no [mfe] section: a caller enables that branch by appending one
    (out / "run.cfg").write_text(cfg.to_text(("inputs", "eval", "output")))
    paths["meta"] = out / "meta.json"
    paths["config"] = out / "run.cfg"
    return {k: str(v) for k, v in paths.items()}

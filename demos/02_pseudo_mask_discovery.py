"""Pseudo-mask discovery: window seeding, k-means, fusion, restriction.

Builds a synthetic feature map with four orthogonal-feature blobs (two of
them unannotated), then walks the candidate-discovery chain and measures
how well the recovered masks overlap the hidden regions.
"""

import numpy as np

from smseg import WindowConfig, fuse_masks, gen_synth, kmeans, \
    multi_scale_seeds, restrict_candidates, window_starts

fix = gen_synth(seed=0, blobs=4, seen=2, size=64, dim=16)
print("image 64x64, classes:", fix.num_classes,
      "seen ids:", fix.seen_ids, "hidden ids:", fix.unseen_ids)

# Seeding: overlapping windows at three sizes; stride is half the window
# (rounded up) and the border start is always included.
cfg = WindowConfig(window_sizes=(8, 16, 32), kmeans_iters=10)
for s in cfg.window_sizes:
    starts = window_starts(64, s)
    print(f"window {s:2d}: {len(starts)} starts per axis -> {len(starts)**2} seeds")
seeds = multi_scale_seeds(fix.features, cfg)
print("total seeds:", len(seeds))

# Lloyd iterations; the objective trace never increases.
clusters = kmeans(fix.features, seeds, cfg)
print("clusters after compaction:", clusters.centroids.shape[0])
print("objective trace:", [round(v, 2) for v in clusters.objective_trace])

# Fusion merges clusters whose centroids agree in direction (transitively)
# and returns one label map: each pixel's fused region.
cents, labels = fuse_masks(clusters, tau=0.9)
print("fused regions:", len(cents), "over", labels.size, "px, one label each")

# Restriction keeps only what lies in the unannotated region, the pixels
# whose seen label is the ignore id: each pixel's candidate index there, -1
# elsewhere.
cand = restrict_candidates(cents, labels, fix.seen_labels == fix.ignore_id,
                           min_area=16)
print("candidates after restriction:", cand.count)
for u in range(cand.count):
    mask = cand.labels == u
    ious = []
    for cid in fix.unseen_ids:
        hidden = fix.gt == cid
        ious.append(np.logical_and(mask, hidden).sum()
                    / np.logical_or(mask, hidden).sum())
    print(f"  candidate {u}: area {mask.sum():4d}, "
          f"best IoU vs hidden blobs {max(ious):.3f}")

"""Mask-classification inference with injected random queries.

At inference the trained queries are joined by unsupervised random
probes from a counter-based stream (bit-reproducible for a given seed),
all queries are decoded together, and the per-pixel label map is the
argmax of classification-weighted mask scores.
"""

import numpy as np

from smseg import (DecoderParams, EvalConfig, RQ_SEED0_FIRST8,
                   assemble_semantic_map, class_similarity, decode, evaluate,
                   gen_synth, hiou, inject_random_queries)

fix = gen_synth(seed=0, blobs=4, seen=2, size=64, dim=16)

# Trained-query stand-ins: one query per class, pointed at its embedding.
e_full = np.concatenate([fix.seen_embeddings.matrix,
                         fix.unseen_embeddings.matrix])
queries = 4.0 * e_full
print("trained queries:", queries.shape)

# Random-query injection is a frozen contract: seed 0 must reproduce the
# documented first eight values bitwise.
queries = inject_random_queries(queries, k_r=50, seed=0, sigma=0.02)
print("with random probes:", queries.shape)
print("seed-0 contract holds:",
      queries[len(e_full), :8].tobytes() == RQ_SEED0_FIRST8.tobytes())

# Decode every query against the dense features, score against the full
# class bank (seen + unseen embeddings at inference), assemble the map.
preds = decode(queries, fix.features, DecoderParams.zeros(16))
scores = class_similarity(preds.v, e_full)
labels = assemble_semantic_map(scores, preds.m, fix.seen_ids + fix.unseen_ids)

report = evaluate(labels, fix.gt, EvalConfig(
    num_classes=fix.num_classes, seen_ids=fix.seen_ids,
    unseen_ids=fix.unseen_ids))
print(f"sIoU {report.siou:.1f}  uIoU {report.uiou:.1f}  hIoU {report.hiou:.1f}")

# The headline metric is the harmonic mean of seen and unseen mIoU; it
# punishes models that buy seen-class accuracy with unseen-class failure.
print("hIoU(90, 10) =", round(hiou(90.0, 10.0), 1), " vs mean 50.0")
print("hIoU(87.7, 83.1) =", round(hiou(87.7, 83.1), 1))

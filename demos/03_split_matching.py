"""Decoupled assignment: why the query groups are matched separately.

Seen queries compete only for annotated-class targets and candidate
queries only for pseudo-mask targets. This script builds a toy set of
predictions, shows the two cost matrices, runs the split assignment, and
contrasts it with what a single pooled Hungarian would have done.
"""

import numpy as np

from smseg import (ClassEmbeddings, CostWeights, build_joint_embedding,
                   class_similarity, hungarian, match_cost_matrix, split_match)

rng = np.random.default_rng(0)

# Joint class space: 2 seen classes then 2 candidates, orthogonal rows.
eye = np.eye(4, 8, dtype=np.float32)
joint = build_joint_embedding(
    ClassEmbeddings.from_matrix(eye[:2], (0, 1)), eye[2:])
print("joint bank: rows", len(joint.matrix), "=", joint.seen_count, "seen +",
      joint.candidate_count, "candidates")

# Three queries per group; query i mostly points at class i but with noise.
noise = 0.6 * rng.standard_normal((6, 8)).astype(np.float32)
v = 3.0 * np.concatenate([eye[:2], eye[:1], eye[2:], eye[3:4]]) + noise
masks = np.zeros((4, 6, 6))
masks[0, :3, :3] = 1; masks[1, :3, 3:] = 1
masks[2, 3:, :3] = 1; masks[3, 3:, 3:] = 1
m = rng.standard_normal((6, 6, 6)).astype(np.float32)
m[0] += 4 * (2 * masks[0] - 1); m[1] += 4 * (2 * masks[1] - 1)
m[3] += 4 * (2 * masks[2] - 1); m[4] += 4 * (2 * masks[3] - 1)

seen_targets = [(0, masks[0]), (1, masks[1])]
cand_targets = [(2, masks[2]), (3, masks[3])]
w = CostWeights()

for group, rows, mm, targets in (("seen", v[:3], m[:3], seen_targets),
                                 ("candidate", v[3:], m[3:], cand_targets)):
    cost = match_cost_matrix(class_similarity(rows, joint.matrix), mm, targets,
                             group, w, joint.seen_count)
    print(f"\n{group} cost matrix (queries x targets):")
    print(np.round(cost, 2))
    a = hungarian(cost, group=group)
    print("  optimal pairs:", [(p.query, p.target) for p in a.pairs],
          f"total {a.total_cost:.3f}")

combined = split_match((v[:3], m[:3]), (v[3:], m[3:]),
                       seen_targets, cand_targets, joint, w)
print("\ncombined assignment (candidate indices shifted by group sizes):")
for p in combined.pairs:
    print(f"  query {p.query} -> target {p.target} [{p.group}] cost {p.cost:.3f}")
print("unmatched queries:", combined.unmatched_queries)
print("cross-group pairs:",
      sum((p.query < 3) != (p.target < 2) for p in combined.pairs))

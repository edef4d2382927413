"""Decoupled assignment: why the query groups are matched separately.

Seen queries compete only for annotated-class targets and candidate
queries only for pseudo-mask targets. This script builds a toy set of
predictions, shows the two cost matrices, runs the split assignment on
one target list, and counts the pairs that cross the groups (none).
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

# One target list, seen and candidate interleaved: a target's group is
# read from its joint id (seen below joint.seen_count).
targets = [(2, masks[2]), (0, masks[0]), (3, masks[3]), (1, masks[1])]
w = CostWeights()

for group, rows, mm in (("seen", v[:3], m[:3]), ("candidate", v[3:], m[3:])):
    own = [t for t in targets if (t[0] < joint.seen_count) == (group == "seen")]
    cost = match_cost_matrix(class_similarity(rows, joint.matrix), mm, own, w)
    print(f"\n{group} cost matrix (queries x targets of ids {[c for c, _ in own]}):")
    print(np.round(cost, 2))
    a = hungarian(cost)
    print("  optimal pairs:", [(p.query, p.target) for p in a.pairs],
          f"total {a.total_cost:.3f}")

combined = split_match(v, m, 3, targets, joint, w)
print("\ncombined assignment (stacked query and target indices):")
for p in combined.pairs:
    print(f"  query {p.query} -> target {p.target} (id {targets[p.target][0]}) "
          f"[{p.group}] cost {p.cost:.3f}")
print("unmatched queries:", combined.unmatched_queries)
print("cross-group pairs:",
      sum((p.query < 3) != (targets[p.target][0] < joint.seen_count)
          for p in combined.pairs))

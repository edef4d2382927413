"""The scalar loss kernels and their finite-difference verification.

Every kernel has a closed form small enough to check by hand, and an
analytic gradient that the gradcheck harness compares against float64
central differences.
"""

import math

import numpy as np

from smseg import (GRADCHECK_OPS, bce_mask, cross_entropy_map, dice_loss, focal_loss,
                   grad_check, iou_loss)

# dice on partially overlapping unit masks: 1 - (2*1 + 1)/(2 + 2 + 1) = 0.4
m = np.array([1.0, 1.0, 0.0, 0.0])
y = np.array([0.0, 1.0, 1.0, 0.0])
print(f"dice(overlap 1 of 2)        = {dice_loss(m, y):.4f}  (expected 0.4)")

# disjoint unit-area masks under the +1 smoothing: 1 - 1/3
print(f"iou(disjoint units)         = {iou_loss(np.array([1.,0.]), np.array([0.,1.])):.4f}"
      "  (expected 0.6667)")

# zero logits are maximally uncertain: ln 2 per pixel
print(f"bce(zero logits)            = {bce_mask(np.zeros(4), np.array([1.,0.,1.,0.])):.4f}"
      f"  (ln 2 = {math.log(2):.4f})")

# focal at p = 0.5 on a single target channel: alpha * 0.25 * ln 2
print(f"focal(p=0.5, hit)           = {focal_loss(np.array([0.5]), 0):.5f}"
      f"  (0.25*0.25*ln2 = {0.0625*math.log(2):.5f})")

# focal degenerates to half the channel-wise BCE at gamma=0, alpha=0.5
p = np.array([0.2, 0.7, 0.4])
bce = -(math.log(0.7) + math.log(0.8) + math.log(0.6))
print(f"focal(gamma=0, alpha=0.5)   = {focal_loss(p, 1, alpha=0.5, gamma=0.0):.6f}"
      f"  (0.5*BCE = {0.5*bce:.6f})")

# uniform logits over 4 classes cost ln 4 per pixel
print(f"cross entropy(uniform, N=4) = {cross_entropy_map(np.zeros((4,2,2)), np.zeros((2,2),int)):.4f}"
      f"  (ln 4 = {math.log(4):.4f})")

# The gradcheck harness: analytic gradients vs central differences (f64,
# step 1e-3), reported as a per-parameter-array relative error.
print("\ngradient checks (max relative error, tolerance 1e-4):")
for op in GRADCHECK_OPS:
    print(f"  {op:18s} {grad_check(op, seed=0):.2e}")

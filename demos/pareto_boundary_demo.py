"""Walk through the closed-form Pareto boundary for a two-way MISO link.

Builds a symmetric 3-antenna channel, sweeps the received-power targets,
and prints a handful of boundary points together with the TDMA baseline
and the zero-forcing corner.
"""

import numpy as np

from fdtwoway.channel import (achievable_rate, db_to_linear, sample_channel,
                              tdma_sum_rate)
from fdtwoway.pareto import pareto_boundary, zf_beamforming

rng = np.random.default_rng(0)

M = 3
P = 1.0
eta_direct = db_to_linear(10.0)     # 10 dB direct link gain
eta_self = db_to_linear(50.0)       # strong self-interference
beta = db_to_linear(-60.0)          # front-end noise floor

ch = sample_channel(M, 1,
                    {(1, 1): eta_self, (2, 2): eta_self,
                     (1, 2): eta_direct, (2, 1): eta_direct},
                    beta, {1: P, 2: P}, rng, symmetric=True)

points = pareto_boundary(ch, grid=(80, 80))
print(f"boundary points after dominance filtering: {len(points)}")

print("\n    z1      z2      r1 [bit]  r2 [bit]  eps1      eps2")
for pt in points[:: max(1, len(points) // 10)]:
    print(f"  {pt.z1:6.3f}  {pt.z2:6.3f}  {pt.r1:8.4f}  {pt.r2:8.4f}"
          f"  {pt.epsilon1:8.2e}  {pt.epsilon2:8.2e}")

best = max(points, key=lambda p: p.r1 + p.r2)
print(f"\nmax sum rate on the boundary : {best.r1 + best.r2:.4f} bit")
print(f"TDMA sum rate                : {tdma_sum_rate(ch):.4f} bit")

w1, w2 = zf_beamforming(ch, 1), zf_beamforming(ch, 2)
Q1, Q2 = np.outer(w1, w1.conj()), np.outer(w2, w2.conj())
r1 = achievable_rate(ch, 1, (Q1, Q2))
r2 = achievable_rate(ch, 2, (Q1, Q2))
print(f"zero-forcing rates           : ({r1:.4f}, {r2:.4f}) bit")
print("ZF kills self-interference entirely but gives up direct-link gain,")
print("so it sits strictly inside the boundary.")

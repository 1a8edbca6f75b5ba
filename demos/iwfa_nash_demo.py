"""Iterative water-filling to a Nash equilibrium, sync and async.

Runs both IWFA variants from a random initial profile on the same MIMO
channel, prints the residual trace, and checks that they land on the same
equilibrium when the uniqueness condition holds.
"""

import numpy as np

from fdtwoway.channel import achievable_rate, db_to_linear, sample_channel
from fdtwoway.nash import IwfaConfig, iwfa, phi_mapping, uniqueness_condition

rng = np.random.default_rng(7)

M = N = 3
P = 10.0
eta_direct = 1.0
eta_self = eta_direct / db_to_linear(-20.0)
beta = db_to_linear(-60.0)

ch = sample_channel(M, N,
                    {(1, 1): eta_self, (2, 2): eta_self,
                     (1, 2): eta_direct, (2, 1): eta_direct},
                    beta, {1: P, 2: P}, rng, symmetric=True)

report = uniqueness_condition(ch)
print(f"uniqueness condition: alpha = ({report.alpha[0]:.3e}, "
      f"{report.alpha[1]:.3e}), holds = {report.holds}")

A1 = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
A2 = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
init = tuple(B @ B.conj().T * (P / np.trace(B @ B.conj().T).real)
             for B in (A1, A2))

sync = iwfa(ch, init, IwfaConfig(delta=1e-10, max_iter=200))
print(f"\nsync IWFA: converged={sync.converged} in {sync.iterations} steps")
for k, r in enumerate(sync.residuals[:8]):
    print(f"  iter {k:2d}  residual {r:.3e}")

async_tr = iwfa(ch, init, IwfaConfig(delta=1e-10, max_iter=500,
                                     miss_probability=0.3, rng_seed=1))
print(f"async IWFA (30% missed updates): converged={async_tr.converged} "
      f"in {async_tr.iterations} steps")

gap = max(np.linalg.norm(sync.final[0] - async_tr.final[0]),
          np.linalg.norm(sync.final[1] - async_tr.final[1]))
print(f"distance between the two equilibria: {gap:.3e}")

prof = sync.final
fp = phi_mapping(ch, prof)
print(f"fixed-point residual at the NE: "
      f"{np.linalg.norm(fp[0] - prof[0]) + np.linalg.norm(fp[1] - prof[1]):.3e}")
print(f"NE sum rate: "
      f"{achievable_rate(ch, 1, prof) + achievable_rate(ch, 2, prof):.4f} bit")

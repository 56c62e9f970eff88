"""Tour of the parsimonious covariance family.

Column covariances, pinned to unit determinant, come in 7 shape/orientation
structures (II ... VV).  A row structure puts a volume letter, E (shared) or
V (varying), in front of one of them, giving 14 (EII ... VVV).  This script
prints the free-parameter table, runs one weighted update per family
member, and shows the iterative orientation step used by the shared-
orientation structures.
"""

import numpy as np

from matrixhmm import (PSI_STRUCTURES, SIGMA_STRUCTURES, Scatter,
                       count_psi_params, count_sigma_params, mm_orientation,
                       orientation_objective, update_psi, update_sigma)

K, Q = 3, 2
print(f"free parameters at K={K}, Q={Q}")
print("  row family:   ",
      {s: count_sigma_params(s, K, Q) for s in SIGMA_STRUCTURES})
print("  column family:",
      {s: count_psi_params(s, K, Q) for s in PSI_STRUCTURES})

# weighted scatter matrices, as the fitter would build them from posteriors
rng = np.random.default_rng(3)
mats = []
for _ in range(K):
    A = rng.normal(size=(Q, Q + 4))
    mats.append(A @ A.T * 40.0)
scatter = Scatter(np.stack(mats), np.full(K, 40.0))
dims = (Q, Q, 24, 5)  # P, R, I, T with I*T = sum of weights

print("\nrow-covariance updates (volume of state 1 shown):")
for structure in SIGMA_STRUCTURES:
    sigmas, _ = update_sigma(structure, scatter, None, dims)
    vol = np.linalg.det(sigmas[0]) ** (1 / Q)
    shared = "shared" if np.allclose(sigmas[0], sigmas[-1]) else "per-state"
    print(f"  {structure}: volume {vol:7.3f}  ({shared} matrix)")

print("\ncolumn-covariance updates (all have unit determinant):")
for structure in PSI_STRUCTURES:
    psis, _ = update_psi(structure, scatter, None, dims)
    print(f"  {structure}: det = {np.linalg.det(psis[0]):.12f}")

# the shared-orientation step: minimize sum_k tr(Y_k G D_k^-1 G') over
# orthogonal G by iterative majorization
V = np.linalg.qr(rng.normal(size=(Q, Q)))[0]
omegas = [np.array([4.0, 1.0]), np.array([3.0, 0.5]), np.array([2.5, 0.4])]
aligned = np.stack([V @ np.diag(om) @ V.T for om in omegas])
deltas = np.stack([om / np.prod(om) ** (1 / Q) for om in omegas])
start = np.eye(Q)
result = mm_orientation(aligned, deltas, start)
print("\nshared-orientation search on simultaneously diagonalizable input:")
print("  objective trace:", [round(v, 6) for v in result.objective_trace])
print("  analytic best:  ", round(orientation_objective(aligned, deltas, V), 6))

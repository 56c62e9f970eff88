"""Output checks of the workloads.

Each check returns a list of failure messages, empty when the output is
correct. They compare the program's outputs with values recomputed here
(see ``oracle``) or with bounds fixed by the acceptance criteria.
"""

from __future__ import annotations

import itertools

import numpy as np

import oracle

# acceptance criteria 4 and 5: recovery MSE bounds per parameter block
MSE_BOUNDS = {"M": 0.02, "Pi": 0.005, "Sigma": 0.01, "Psi": 0.01}
LOGLIK_RTOL = 1e-8
DET_TOL = 1e-10
# ECM never lowers the log-likelihood; allow rounding of the sum only
TRACE_DROP_RTOL = 1e-12


def loglik_matches(reported: float, X: np.ndarray, params, what: str) -> list[str]:
    ref = oracle.log_likelihood(X, params.pi, params.Pi, params.means,
                                params.sigmas, params.psis)
    rel = abs(reported - ref) / abs(ref)
    if not rel <= LOGLIK_RTOL:
        return [f"{what}: log-likelihood {reported!r} differs from the oracle's "
                f"{ref!r} by {rel:.2e} relative (> {LOGLIK_RTOL:g})"]
    return []


def trace_drop(trace, what: str) -> list[str]:
    trace = np.asarray(trace, dtype=float)
    drop = float(np.min(np.diff(trace), initial=0.0))
    if drop < -TRACE_DROP_RTOL * abs(trace[-1]):
        return [f"{what}: log-likelihood trace drops by {-drop:.3e}"]
    return []


def unit_determinants(psis, what: str) -> list[str]:
    dets = np.linalg.det(np.asarray(psis))
    worst = float(np.max(np.abs(dets - 1.0)))
    if not worst <= DET_TOL:
        return [f"{what}: column covariance determinant off 1 by {worst:.3e}"]
    return []


def trace_and_determinants(trace, psis, what: str) -> list[str]:
    return trace_drop(trace, what) + unit_determinants(psis, what)


def n_params_match(cells, P: int, R: int) -> list[str]:
    out = []
    for cell in cells:
        sigma, psi = cell.structure
        expected = oracle.free_params(sigma, psi, cell.K, P, R)
        if cell.n_params != expected:
            out.append(f"{sigma}-{psi} K={cell.K}: n_params {cell.n_params} "
                       f"!= {expected}")
    return out


def outputs_identical(a: list[str], b: list[str], what: str) -> list[str]:
    if a == b:
        return []
    diff = [f"  {x!r} != {y!r}" for x, y in zip(a, b) if x != y][:3]
    return [f"{what} differ ({len(a)} vs {len(b)} lines)", *diff]


def _best_alignment(est_means: np.ndarray, true_means: np.ndarray) -> tuple:
    K = true_means.shape[0]
    return min(itertools.permutations(range(K)),
               key=lambda p: sum(float(np.sum((est_means[p[k]] - true_means[k]) ** 2))
                                 for k in range(K)))


def recovery_mse(fits, truth) -> dict:
    """Per-block squared errors averaged over entries, states and fits,
    states aligned by exhaustive search over permutations."""
    sums = dict.fromkeys(("M", "Sigma", "Psi", "pi", "Pi"), 0.0)
    for fit in fits:
        est = fit.params
        p = list(_best_alignment(est.means, truth.means))
        sums["M"] += float(np.mean((est.means[p] - truth.means) ** 2))
        sums["Sigma"] += float(np.mean((est.sigmas[p] - truth.sigmas) ** 2))
        sums["Psi"] += float(np.mean((est.psis[p] - truth.psis) ** 2))
        sums["pi"] += float(np.mean((est.pi[p] - truth.pi) ** 2))
        sums["Pi"] += float(np.mean((est.Pi[np.ix_(p, p)] - truth.Pi) ** 2))
    return {name: value / len(fits) for name, value in sums.items()}


def mse_within_bounds(reported: dict, recomputed: dict) -> list[str]:
    out = []
    for name, value in recomputed.items():
        if not np.isclose(reported[name], value, rtol=1e-9, atol=1e-15):
            out.append(f"mse({name}) reported {reported[name]!r}, recomputed {value!r}")
    for name, bound in MSE_BOUNDS.items():
        if not recomputed[name] <= bound:
            out.append(f"mse({name}) = {recomputed[name]:.4g} exceeds {bound}")
    return out


def means_within(est_means: np.ndarray, true_means: np.ndarray, bound: float,
                 what: str) -> list[str]:
    p = list(_best_alignment(est_means, true_means))
    worst = float(np.max(np.abs(est_means[p] - true_means)))
    if not worst <= bound:
        return [f"{what}: aligned mean entry off by {worst:.3f} (> {bound:.3f})"]
    return []

"""Inputs of the workloads, drawn by the benchmark's own sampler.

Panels are simulated here rather than by ``matrixhmm.simulate`` so that
the program receives only generated files; the long-format writer is also
the benchmark's own.
"""

from __future__ import annotations

import numpy as np

FIT_WIDE_P, FIT_WIDE_R, FIT_WIDE_K = 10, 8, 4
FIT_WIDE_I, FIT_WIDE_T = 100, 20      # 2000 matrices, 160,000 file rows


def _ar1_eigenvectors(Q: int, rho: float) -> np.ndarray:
    idx = np.arange(Q)
    return np.linalg.eigh(rho ** np.abs(idx[:, None] - idx[None, :]))[1]


def _unit_product(d: np.ndarray) -> np.ndarray:
    return d / np.prod(d) ** (1.0 / d.size)


def fit_wide_truth() -> dict:
    """Generating parameters of the ``fit-wide`` panel (seed-independent).

    Four states, uniform initial law, transition matrix 0.7 on the
    diagonal and 0.1 elsewhere. State k's mean is the pattern
    sin(p / 2) + cos(r / 3) shifted by k in every entry. Covariances follow
    a VVE-VE design: row covariance (0.8 + 0.2 k) G diag(d_k) G' and column
    covariance H diag(e_k) H', with G and H the eigenvectors of AR(1)
    correlation matrices (rho = 0.5) shared by all states and shapes
    d_k, e_k log-linear in the axis index with state-varying slopes,
    rescaled to unit product.
    """
    P, R, K = FIT_WIDE_P, FIT_WIDE_R, FIT_WIDE_K
    pi = np.full(K, 1.0 / K)
    Pi = np.full((K, K), 0.1)
    np.fill_diagonal(Pi, 1.0 - 0.1 * (K - 1))
    rows, cols = np.meshgrid(np.arange(P), np.arange(R), indexing="ij")
    base = np.sin(rows / 2.0) + np.cos(cols / 3.0)
    means = np.stack([base + k for k in range(K)])
    G, H = _ar1_eigenvectors(P, 0.5), _ar1_eigenvectors(R, 0.5)
    sigmas, psis = [], []
    for k in range(K):
        d = _unit_product(np.exp(np.linspace(-0.6, 0.6, P) * (1.0 - 0.5 * k)))
        e = _unit_product(np.exp(np.linspace(-0.5, 0.5, R) * (0.5 + 0.3 * k)))
        sigmas.append((0.8 + 0.2 * k) * G @ np.diag(d) @ G.T)
        psis.append(H @ np.diag(e) @ H.T)
    return dict(pi=pi, Pi=Pi, means=means, sigmas=np.stack(sigmas),
                psis=np.stack(psis))


def mean_error_bound(truth: dict, n_obs: int) -> float:
    """Six standard errors of a mean entry: the largest row variance times
    the largest column variance over the expected observations per state
    (the initial law is uniform and the transition matrix symmetric, so
    each state holds about n_obs / K of them)."""
    K = truth["means"].shape[0]
    var = (np.max(np.diagonal(truth["sigmas"], axis1=1, axis2=2))
           * np.max(np.diagonal(truth["psis"], axis1=1, axis2=2)))
    return 6.0 * float(np.sqrt(var * K / n_obs))


def draw_panel(truth: dict, I: int, T: int, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray]:
    """Simulate (I, T, P, R) observations and 0-based states from a
    matrix-normal hidden Markov model given as a dict of arrays."""
    pi, Pi, means = truth["pi"], truth["Pi"], truth["means"]
    K, P, R = means.shape
    states = np.empty((I, T), dtype=int)
    states[:, 0] = rng.choice(K, size=I, p=pi)
    for t in range(1, T):
        u = rng.random(I)
        states[:, t] = np.minimum((u[:, None] > np.cumsum(Pi, axis=1)[states[:, t - 1]])
                                  .sum(axis=1), K - 1)
    A = np.linalg.cholesky(truth["sigmas"])
    B = np.linalg.cholesky(truth["psis"])
    Z = rng.standard_normal((I, T, P, R))
    X = means[states] + A[states] @ Z @ np.swapaxes(B[states], -1, -2)
    return X, states


def write_long_csv(X: np.ndarray, path) -> int:
    """Write an (I, T, P, R) stack as ``unit,time,row_level,col_level,value``
    rows (1-based labels, values in round-trip precision); returns the row
    count."""
    I, T, P, R = X.shape
    keys = [f"{i},{t},{p},{r}," for i in range(1, I + 1) for t in range(1, T + 1)
            for p in range(1, P + 1) for r in range(1, R + 1)]
    values = map(repr, X.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("unit,time,row_level,col_level,value\n")
        fh.write("\n".join(k + v for k, v in zip(keys, values)))
        fh.write("\n")
    return len(keys)

"""Matrix-normal log-density and sampling.

A random P x R matrix X is matrix-normal with mean M, row covariance
Sigma (P x P) and column covariance Psi (R x R) exactly when vec(X) is
multivariate normal with mean vec(M) and covariance kron(Psi, Sigma).
The log-density is

    -(PR/2) log(2 pi) - (R/2) log|Sigma| - (P/2) log|Psi|
    - (1/2) tr[Sigma^-1 (X - M) Psi^-1 (X - M)']

and is evaluated in log space throughout; the raw density is never
materialized.  With lower Cholesky factors LS LS' = Sigma and
LP LP' = Psi the trace is the squared Frobenius norm of the whitened
residual LS^-1 (X - M) LP^-T, which the stacked kernel forms with two
batched matrix products over every observation and state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError

LOG_2PI = np.log(2.0 * np.pi)
_SYM_TOL = 1e-12


@dataclass(frozen=True)
class MatNormParams:
    """Mean matrix plus row/column covariances of one matrix-normal law."""

    M: np.ndarray
    Sigma: np.ndarray
    Psi: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        Sigma = np.asarray(self.Sigma, dtype=float)
        Psi = np.asarray(self.Psi, dtype=float)
        if M.ndim != 2:
            raise ValueError("M must be a P x R matrix")
        P, R = M.shape
        if Sigma.shape != (P, P):
            raise ValueError(f"Sigma must be {P} x {P}, got {Sigma.shape}")
        if Psi.shape != (R, R):
            raise ValueError(f"Psi must be {R} x {R}, got {Psi.shape}")
        for name, mat in (("Sigma", Sigma), ("Psi", Psi)):
            if np.max(np.abs(mat - mat.T)) > _SYM_TOL * max(1.0, np.max(np.abs(mat))):
                raise ValueError(f"{name} is not symmetric")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "Sigma", Sigma)
        object.__setattr__(self, "Psi", Psi)

    @property
    def P(self) -> int:
        return self.M.shape[0]

    @property
    def R(self) -> int:
        return self.M.shape[1]


def _cholesky(mats: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factors of a (K, Q, Q) stack of positive-definite matrices.

    A failure raises :class:`DecompositionError` naming the state whose
    smallest eigenvalue is lowest (no state number when K is 1).
    """
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        k = int(np.argmin(np.linalg.eigvalsh(mats)[:, 0]))
        where = "" if len(mats) == 1 else f" of state {k + 1}"
        raise DecompositionError(f"{what}{where} is not positive definite") from None


def _chol_inv_logdet(mats: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Inverse lower Cholesky factors and log-determinants of a (K, Q, Q) stack."""
    L = _cholesky(mats, what)
    logdets = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    return np.linalg.inv(L), logdets


def _log_density_states(Xs: np.ndarray, means: np.ndarray, sigmas: np.ndarray,
                        psis: np.ndarray) -> np.ndarray:
    """Log-densities of a stack of matrices under each of K parameter sets.

    ``Xs`` is (..., P, R) and ``means``, ``sigmas``, ``psis`` are (K, P, R),
    (K, P, P), (K, R, R) stacks; the result has shape (..., K).
    """
    K, P, R = means.shape
    lead = Xs.shape[:-2]
    LS_inv, logdet_S = _chol_inv_logdet(sigmas, "row covariance Sigma")
    LP_inv, logdet_P = _chol_inv_logdet(psis, "column covariance Psi")
    Xc = Xs.reshape(-1, P, R)[None] - means[:, None]    # (K, N, P, R)
    N = Xc.shape[1]
    # tr[S^-1 Xc P^-1 Xc'] == || LS^-1 Xc LP^-T ||_F^2; the right factor
    # acts on all N P rows of a state at once, the left one per matrix and
    # into the residual buffer: a third (K, N, P, R) array per call made
    # wide fits about a quarter slower and raised their peak memory
    right = (Xc.reshape(K, N * P, R) @ np.swapaxes(LP_inv, 1, 2)).reshape(K, N, P, R)
    white = np.matmul(LS_inv[:, None], right, out=Xc)
    quad = np.einsum("knpr,knpr->kn", white, white)
    log_dens = -0.5 * ((P * R * LOG_2PI + R * logdet_S + P * logdet_P)[:, None] + quad)
    return log_dens.T.reshape(lead + (K,))


def log_density_stack(Xs: np.ndarray, M: np.ndarray, Sigma: np.ndarray,
                      Psi: np.ndarray) -> np.ndarray:
    """Log-density of a stack of matrices under one parameter set.

    Parameters
    ----------
    Xs : ndarray, shape (..., P, R)
    M, Sigma, Psi : ndarray
        Mean, row covariance and column covariance.

    Returns
    -------
    ndarray with the leading shape of ``Xs``.
    """
    Xs = np.asarray(Xs, dtype=float)
    return _log_density_states(Xs, M[None], Sigma[None], Psi[None])[..., 0]


def log_density(X: np.ndarray, params: MatNormParams) -> float:
    """Log-density of one P x R matrix."""
    X = np.asarray(X, dtype=float)
    if X.shape != (params.P, params.R):
        raise ValueError(f"X must be {params.P} x {params.R}, got {X.shape}")
    return float(log_density_stack(X, params.M, params.Sigma, params.Psi))


def sample(params: MatNormParams, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw from the matrix-normal law as M + A Z B' with A A' = Sigma, B B' = Psi.

    ``size=None`` returns one (P, R) matrix; an integer returns a
    (size, P, R) stack.  Deterministic given the generator state.
    """
    A = _cholesky(params.Sigma[None], "row covariance Sigma")[0]
    B = _cholesky(params.Psi[None], "column covariance Psi")[0]
    shape = (params.P, params.R) if size is None else (size, params.P, params.R)
    Z = rng.standard_normal(shape)
    return params.M + np.einsum("pq,...qr,sr->...ps", A, Z, B)

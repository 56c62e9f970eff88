"""ECM fitting of hidden Markov models with matrix-normal states.

The expectation step runs the forward-backward recursions entirely in log
space; the two conditional-maximization steps update the chain parameters
and the row covariances first (with the column covariances held fixed),
then the column covariances given the fresh row covariances.  Fits start
from the best of many short randomly-initialized runs and continue that
candidate until the relative log-likelihood change falls below tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import selection
from .errors import (DecompositionError, FitFailureError, NumericalError,
                     StateCollapseError)
from .matnorm import MatNormParams, _chol_inv_logdet, _log_density_states
from .panel import MatrixPanel
from .structures import (Scatter, SpectralParts, derive_parts,
                         parse_structure, structure_name, update_psi,
                         update_sigma)

DEFAULT_SEED = 12345
_COLLAPSE_FRACTION = 1e-6


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along one axis; rows of all -inf stay -inf."""
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis))
    return out + np.squeeze(m, axis=axis)


@dataclass(frozen=True)
class HmmParams:
    """Initial law, transition matrix and matrix-normal state parameters.

    ``Pi[j, k]`` is the probability of moving from state j to state k.
    State parameter stacks are indexed by state along the first axis.
    """

    pi: np.ndarray      # (K,)
    Pi: np.ndarray      # (K, K)
    means: np.ndarray   # (K, P, R)
    sigmas: np.ndarray  # (K, P, P)
    psis: np.ndarray    # (K, R, R)

    def __post_init__(self):
        for name in ("pi", "Pi", "means", "sigmas", "psis"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        K = self.pi.shape[0]
        if self.Pi.shape != (K, K):
            raise ValueError(f"Pi must be {K} x {K}, got {self.Pi.shape}")
        if self.means.ndim != 3 or self.means.shape[0] != K:
            raise ValueError("means must be a (K, P, R) stack")
        P, R = self.means.shape[1:]
        if self.sigmas.shape != (K, P, P) or self.psis.shape != (K, R, R):
            raise ValueError("covariance stacks do not match the mean dimensions")

    @property
    def K(self) -> int:
        return self.pi.shape[0]

    @property
    def P(self) -> int:
        return self.means.shape[1]

    @property
    def R(self) -> int:
        return self.means.shape[2]

    def state(self, k: int) -> MatNormParams:
        """Matrix-normal parameters of state ``k`` (0-based)."""
        return MatNormParams(self.means[k], self.sigmas[k], self.psis[k])

    def validate(self, atol: float = 1e-12, det_tol: float = 1e-10) -> None:
        """Raise if the stochastic-vector / unit-determinant invariants fail."""
        if np.any(self.pi < -atol) or abs(self.pi.sum() - 1.0) > atol:
            raise ValueError("pi is not a probability vector")
        if np.any(self.Pi < -atol) or np.max(np.abs(self.Pi.sum(axis=1) - 1.0)) > atol:
            raise ValueError("Pi rows must sum to one")
        dets = np.linalg.det(self.psis)
        if np.max(np.abs(dets - 1.0)) > det_tol:
            raise ValueError(f"column covariances must have unit determinant, got {dets}")


@dataclass(frozen=True)
class Posteriors:
    """Smoothed memberships, pairwise transition expectations and recursions.

    ``zz[:, t]`` is defined for t >= 1 (second time point onward); the
    leading slice is zero.  ``log_gamma``/``log_beta`` hold the forward and
    backward log-probabilities.
    """

    z: np.ndarray          # (I, T, K)
    zz: np.ndarray         # (I, T, K, K)
    log_gamma: np.ndarray  # (I, T, K)
    log_beta: np.ndarray   # (I, T, K)
    log_lik: float


@dataclass(frozen=True)
class FitConfig:
    """Knobs of one fit: convergence, initialization and a per-iteration hook."""

    max_iter: int = 500
    tol: float = 1e-8
    short_runs: int = 100
    short_iters: int = 1
    seed: int = DEFAULT_SEED
    iter_hook: Callable | None = None

    def __post_init__(self):
        if self.short_runs < 1 or self.short_iters < 1:
            raise ValueError("short_runs and short_iters must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class FitReport:
    """Converged parameters plus everything needed to audit the fit."""

    structure: tuple[str, str]
    params: HmmParams
    posteriors: Posteriors
    log_lik: float
    log_lik_trace: np.ndarray
    n_params: int
    bic: float
    decoded: np.ndarray          # (I, T) int, 1-based state labels
    iterations: int
    converged: bool
    wall_time: float
    panel_dims: tuple[int, int, int, int]
    warnings: tuple[str, ...] = ()
    unit_labels: tuple | None = None
    time_labels: tuple | None = None

    @property
    def K(self) -> int:
        return self.params.K


class CmStep1Result(NamedTuple):
    pi: np.ndarray
    Pi: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray
    parts: SpectralParts | None


def _log_phi(X: np.ndarray, params: HmmParams) -> np.ndarray:
    """State-conditional log-densities of every observation, (I, T, K)."""
    return _log_density_states(X, params.means, params.sigmas, params.psis)


def _as_stack(panel_or_stack) -> np.ndarray:
    """The (I, T, P, R) observation array of a panel, or of an array given as one."""
    if isinstance(panel_or_stack, MatrixPanel):
        return panel_or_stack.unit_time_stack()
    return np.asarray(panel_or_stack, dtype=float)


def _e_step_arrays(X: np.ndarray, params: HmmParams) -> Posteriors:
    I, T, _, _ = X.shape
    K = params.K
    log_phi = _log_phi(X, params)
    if not np.all(np.isfinite(log_phi)):
        raise NumericalError("non-finite state log-density in E-step")
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
        log_Pi = np.log(params.Pi)

    log_gamma = np.empty((I, T, K))
    log_gamma[:, 0] = log_phi[:, 0] + log_pi
    for t in range(1, T):
        # (I, j, k): previous forward mass joined with the transition into k
        step = log_gamma[:, t - 1, :, None] + log_Pi[None, :, :]
        log_gamma[:, t] = log_phi[:, t] + _logsumexp(step, axis=1)

    log_beta = np.zeros((I, T, K))
    for t in range(T - 2, -1, -1):
        step = (log_phi[:, t + 1, None, :] + log_beta[:, t + 1, None, :]
                + log_Pi[None, :, :])
        log_beta[:, t] = _logsumexp(step, axis=2)

    unit_ll = _logsumexp(log_gamma[:, T - 1], axis=1)
    total = float(unit_ll.sum())
    if not np.isfinite(total):
        raise NumericalError("non-finite log-likelihood in E-step")

    smoothed = log_gamma + log_beta
    z = np.exp(smoothed - _logsumexp(smoothed, axis=2)[:, :, None])

    zz = np.zeros((I, T, K, K))
    if T > 1:
        log_zz = (log_gamma[:, :-1, :, None] + log_Pi[None, None, :, :]
                  + log_phi[:, 1:, None, :] + log_beta[:, 1:, None, :]
                  - unit_ll[:, None, None, None])
        zz[:, 1:] = np.exp(log_zz)
    return Posteriors(z, zz, log_gamma, log_beta, total)


def e_step(panel: MatrixPanel, params: HmmParams) -> Posteriors:
    """Smoothed memberships and transition expectations via log-space recursions."""
    return _e_step_arrays(panel.unit_time_stack(), params)


def _jittered(mat: np.ndarray) -> np.ndarray:
    """Symmetrize a scatter matrix, nudging rank-deficient ones."""
    sym = 0.5 * (mat + mat.T)
    try:
        np.linalg.cholesky(sym)
        return sym
    except np.linalg.LinAlgError:
        Q = sym.shape[0]
        return sym + (1e-10 * np.trace(sym) / Q) * np.eye(Q)


def _moments(X: np.ndarray, z: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Per-state weighted second moments about the state means.

    S_k = sum_it z_itk vec(X_it - M_k) vec(X_it - M_k)', one symmetric
    rank-(I T) product per state, returned as a (K, P, R, P, R) stack with
    S_k[p, r, q, s] = sum_it z_itk (X_it - M_k)[p, r] (X_it - M_k)[q, s].
    """
    I, T, P, R = X.shape
    K = means.shape[0]
    x = X.reshape(I * T, P * R)
    roots = np.sqrt(z.reshape(I * T, K))
    S = np.empty((K, P * R, P * R))
    for k in range(K):
        weighted = roots[:, k, None] * (x - means[k].reshape(P * R))
        S[k] = weighted.T @ weighted
    return S.reshape(K, P, R, P, R)


def _scatter(moments: np.ndarray, covs: np.ndarray, what: str) -> np.ndarray:
    """Per-state weighted scatter sum_it z_itk (X_it - M_k) C_k^-1 (X_it - M_k)'.

    ``moments`` is the (K, A, B, A, B) stack of :func:`_moments` and C_k
    the (B, B) covariances; the scatter is the contraction of S_k with
    C_k^-1 over the B axes, so its cost does not grow with I T.  With the
    column covariances as C this is the row scatter Y_k of the first CM
    step; on the moments with both axis pairs swapped and the row
    covariances as C it is the column scatter W_k of the second.
    """
    L_inv, _ = _chol_inv_logdet(covs, what)
    inv = np.swapaxes(L_inv, 1, 2) @ L_inv
    raw = np.einsum("kprqs,krs->kpq", moments, inv)
    return np.stack([_jittered(mat) for mat in raw])


def _state_weights(z: np.ndarray) -> np.ndarray:
    I, T, _ = z.shape
    weights = z.sum(axis=(0, 1))
    floor = _COLLAPSE_FRACTION * I * T
    for k, wk in enumerate(weights):
        if wk < floor:
            raise StateCollapseError(
                f"state collapse: state {k + 1} holds posterior mass {wk:.3e} "
                f"(below {floor:.3e})"
            )
    return weights


def cm_step1(panel_or_stack, post: Posteriors, prev: HmmParams,
             sigma_structure: str, warm: SpectralParts | None = None) -> CmStep1Result:
    """Update initial/transition probabilities, means and row covariances.

    The row scatter is built against the previous column covariances; the
    structure-specific covariance update then runs on it.  ``warm`` may
    carry the previous volume/orientation split; when omitted it is
    derived from ``prev``.
    """
    X = _as_stack(panel_or_stack)
    I, T, P, R = X.shape
    z, zz = post.z, post.zz

    weights = _state_weights(z)
    pi = z[:, 0, :].sum(axis=0) / I
    if T > 1:
        trans = zz[:, 1:].sum(axis=(0, 1))
        row_mass = trans.sum(axis=1)
        for j, mass in enumerate(row_mass):
            if mass <= 0.0:
                raise StateCollapseError(
                    f"state collapse: no transition mass out of state {j + 1}")
        Pi = trans / row_mass[:, None]
    else:
        Pi = prev.Pi.copy()  # a single time point carries no transition info

    means = np.einsum("itk,itpr->kpr", z, X) / weights[:, None, None]

    Y = _scatter(_moments(X, z, means), prev.psis, "column covariance Psi")
    if warm is None:
        warm = derive_parts(prev.sigmas)
    sigmas, parts = update_sigma(sigma_structure, Scatter(Y, weights), warm,
                                 (P, R, I, T))
    return CmStep1Result(pi, Pi, means, sigmas, parts)


def cm_step2(panel_or_stack, post: Posteriors, current: HmmParams,
             psi_structure: str,
             warm: SpectralParts | None = None) -> tuple[np.ndarray, SpectralParts | None]:
    """Update the column covariances given freshly updated row covariances."""
    X = _as_stack(panel_or_stack)
    I, T, P, R = X.shape
    weights = _state_weights(post.z)
    moments = _moments(X, post.z, current.means).transpose(0, 2, 1, 4, 3)
    W = _scatter(moments, current.sigmas, "row covariance Sigma")
    if warm is None:
        warm = derive_parts(current.psis)
    return update_psi(psi_structure, Scatter(W, weights), warm, (P, R, I, T))


def random_init(panel: MatrixPanel, K: int, structure, rng: np.random.Generator) -> HmmParams:
    """Random starting point: uniform pi, flat-Dirichlet transition rows,
    means drawn from K distinct observed matrices, identity covariances."""
    parse_structure(structure)
    P, R, I, T = panel.dims
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > I * T:
        raise ValueError(f"cannot draw {K} distinct mean matrices from {I * T} observations")
    pi = np.full(K, 1.0 / K)
    Pi = rng.dirichlet(np.ones(K), size=K)
    X = panel.unit_time_stack().reshape(I * T, P, R)
    picks = rng.choice(I * T, size=K, replace=False)
    means = X[picks].copy()
    sigmas = np.tile(np.eye(P), (K, 1, 1))
    psis = np.tile(np.eye(R), (K, 1, 1))
    return HmmParams(pi, Pi, means, sigmas, psis)


class _EcmState(NamedTuple):
    params: HmmParams
    post: Posteriors
    trace: list
    sigma_parts: SpectralParts | None
    psi_parts: SpectralParts | None
    iterations: int
    converged: bool


def _run_ecm(X: np.ndarray, params: HmmParams, pair: tuple[str, str],
             config: FitConfig, max_iter: int,
             sigma_parts: SpectralParts | None = None,
             psi_parts: SpectralParts | None = None) -> _EcmState:
    sigma_structure, psi_structure = pair
    if sigma_parts is None:
        sigma_parts = derive_parts(params.sigmas)
    if psi_parts is None:
        psi_parts = derive_parts(params.psis)

    post = _e_step_arrays(X, params)
    log_lik = post.log_lik
    trace = [log_lik]
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        try:
            step1 = cm_step1(X, post, params, sigma_structure, warm=sigma_parts)
            params = HmmParams(step1.pi, step1.Pi, step1.means, step1.sigmas,
                               params.psis)
            psis, parts = cm_step2(X, post, params, psi_structure, warm=psi_parts)
            params = replace(params, psis=psis)
            # structures that keep no parts never read them, so the last
            # parts stay valid warm starts and need no re-derivation
            sigma_parts = step1.parts or sigma_parts
            psi_parts = parts or psi_parts
            post = _e_step_arrays(X, params)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}: {exc}", iteration=it) from exc
        except DecompositionError as exc:
            raise NumericalError(f"iteration {it}: {exc}", iteration=it) from exc
        new_ll = post.log_lik
        trace.append(new_ll)
        iterations = it
        if config.iter_hook is not None:
            config.iter_hook(it, params, new_ll)
        if abs(new_ll - log_lik) < config.tol * abs(log_lik):
            log_lik = new_ll
            converged = True
            break
        log_lik = new_ll
    return _EcmState(params, post, trace, sigma_parts, psi_parts, iterations,
                     converged)


def _canonical_order(means: np.ndarray) -> list[int]:
    """States sorted by the grand mean of their mean matrices, ascending;
    exact ties fall back to the first differing entry."""
    grand = means.mean(axis=(1, 2))
    return sorted(range(means.shape[0]),
                  key=lambda k: (grand[k], tuple(means[k].ravel())))


def _permute_params(params: HmmParams, order: list[int]) -> HmmParams:
    idx = np.asarray(order)
    return HmmParams(params.pi[idx], params.Pi[np.ix_(idx, idx)],
                     params.means[idx], params.sigmas[idx], params.psis[idx])


def _permute_posteriors(post: Posteriors, order: list[int]) -> Posteriors:
    idx = np.asarray(order)
    return Posteriors(post.z[:, :, idx], post.zz[:, :, idx][:, :, :, idx],
                      post.log_gamma[:, :, idx], post.log_beta[:, :, idx],
                      post.log_lik)


def decode(post: Posteriors) -> np.ndarray:
    """Most probable state per (unit, time): 1-based labels, ties to the
    smallest state index."""
    return np.argmax(post.z, axis=2) + 1


def expected_complete_loglik(panel_or_stack, post: Posteriors,
                             params: HmmParams) -> float:
    """Expected complete-data log-likelihood at the given posteriors.

    Sum of the initial-state, transition and observation terms with the
    indicator variables replaced by their smoothed expectations.
    """
    X = _as_stack(panel_or_stack)
    z, zz = post.z, post.zz
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
        log_Pi = np.log(params.Pi)
    z1 = z[:, 0, :]
    term1 = float(np.sum(z1[z1 > 0] * np.broadcast_to(log_pi, z1.shape)[z1 > 0]))
    zz_t = zz[:, 1:]
    mask = zz_t > 0
    term2 = float(np.sum(zz_t[mask]
                         * np.broadcast_to(log_Pi, zz_t.shape)[mask]))
    log_phi = _log_phi(X, params)
    term3 = float(np.sum(post.z * log_phi))
    return term1 + term2 + term3


def fit(panel: MatrixPanel, structure, K: int, config: FitConfig | None = None) -> FitReport:
    """Fit one parsimonious hidden Markov model to a panel.

    Runs ``config.short_runs`` random starts for ``config.short_iters``
    iterations each, continues the one with the best log-likelihood until
    the relative change drops below ``config.tol``, then orders states by
    the grand mean of their mean matrices.

    Raises :class:`FitFailureError` when every start fails numerically.
    """
    if config is None:
        config = FitConfig()
    pair = parse_structure(structure)
    if K < 1:
        raise ValueError("K must be >= 1")
    start = time.perf_counter()
    X = panel.unit_time_stack()
    P, R, I, T = panel.dims

    children = np.random.SeedSequence(config.seed).spawn(config.short_runs)
    best: _EcmState | None = None
    best_ll = -np.inf
    diagnostics = []
    for h, child in enumerate(children):
        rng = np.random.default_rng(child)
        try:
            params0 = random_init(panel, K, pair, rng)
            state = _run_ecm(X, params0, pair, config, max_iter=config.short_iters)
        except (NumericalError, StateCollapseError) as exc:
            diagnostics.append(f"start {h + 1}: {exc}")
            continue
        if state.post.log_lik > best_ll:
            best_ll = state.post.log_lik
            best = state
    if best is None:
        raise FitFailureError(
            f"all {config.short_runs} initializations failed for "
            f"{structure_name(pair)} with K={K}", diagnostics)

    state = _run_ecm(X, best.params, pair, config, max_iter=config.max_iter,
                     sigma_parts=best.sigma_parts, psi_parts=best.psi_parts)

    order = _canonical_order(state.params.means)
    params = _permute_params(state.params, order)
    post = _permute_posteriors(state.post, order)
    decoded = decode(post)

    n_params = selection.n_free_params(pair, K, P, R)
    n_obs = I * T
    bic_value = selection.bic(post.log_lik, n_params, n_obs)
    warnings = []
    if K * n_params > I * T * P * R:
        warnings.append(
            f"overparameterized: K * n_params = {K * n_params} exceeds the "
            f"{I * T * P * R} observed values")
    wall = time.perf_counter() - start
    return FitReport(
        structure=pair,
        params=params,
        posteriors=post,
        log_lik=post.log_lik,
        log_lik_trace=np.asarray(state.trace),
        n_params=n_params,
        bic=bic_value,
        decoded=decoded,
        iterations=state.iterations,
        converged=state.converged,
        wall_time=wall,
        panel_dims=(P, R, I, T),
        warnings=tuple(warnings),
        unit_labels=panel.unit_labels,
        time_labels=panel.time_labels,
    )

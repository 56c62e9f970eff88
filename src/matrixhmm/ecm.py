"""ECM fitting of hidden Markov models with matrix-normal states.

The expectation step is Rabiner's scaled recursions in two halves: a forward
pass that yields the log-likelihood and a backward pass that turns it into
posteriors.  The two conditional-maximization steps update the chain
parameters and the row covariances first (with the column covariances held
fixed), then the column covariances given the fresh row covariances.  Fits
start from the best of many short randomly-initialized runs and continue
that candidate until the relative log-likelihood change falls below
tolerance.  The backward pass runs only where a CM step or the report reads
the posteriors, and the winner's long run continues from its short run's
last forward pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DecompositionError, FitFailureError, NumericalError,
                     StateCollapseError)
from .matnorm import MatNormParams, _chol_inv_logdet, _is_identity, _log_density_states
from .panel import MatrixPanel
from .structures import (Scatter, SpectralParts, count_psi_params,
                         count_sigma_params, derive_parts, parse_structure,
                         structure_name, update_psi, update_sigma)

DEFAULT_SEED = 12345
_COLLAPSE_FRACTION = 1e-6


def n_free_params(structure, K: int, P: int, R: int) -> int:
    """Total free parameters: chain plus means plus both covariance families.

    (K - 1) initial probabilities, K(K - 1) transition probabilities,
    K*P*R mean entries, and the structure-specific covariance counts.
    """
    sigma, psi = parse_structure(structure)
    if min(K, P, R) < 1:
        raise ValueError("K, P and R must all be >= 1")
    chain = (K - 1) + K * (K - 1)
    return (chain + K * P * R + count_sigma_params(sigma, K, P)
            + count_psi_params(psi, K, R))


def bic(log_lik: float, n_params: int, n_obs: int) -> float:
    """Bayesian information criterion, -2 log L + m log(n); minimized."""
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    return float(-2.0 * log_lik + n_params * np.log(n_obs))


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
    """Smoothed memberships, pairwise transition expectations and the
    log-likelihood they were computed at.

    ``zz[:, t]`` is defined for t >= 1 (second time point onward); the
    leading slice is zero.
    """

    z: np.ndarray   # (I, T, K)
    zz: np.ndarray  # (I, T, K, K)
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
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
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
    log_lik_trace: np.ndarray
    decoded: np.ndarray          # (I, T) int, 1-based state labels
    converged: bool
    wall_time: float
    panel_dims: tuple[int, int, int, int]
    warnings: tuple[str, ...] = ()
    unit_labels: tuple | None = None
    time_labels: tuple | None = None

    @property
    def K(self) -> int:
        return self.params.K

    @property
    def log_lik(self) -> float:
        return float(self.log_lik_trace[-1])

    @property
    def iterations(self) -> int:
        return len(self.log_lik_trace) - 1

    @property
    def n_params(self) -> int:
        return n_free_params(self.structure, self.K, *self.panel_dims[:2])

    @property
    def bic(self) -> float:
        return bic(self.log_lik, self.n_params, self.panel_dims[2] * self.panel_dims[3])


class CmStep1Result(NamedTuple):
    params: HmmParams     # fresh pi, Pi, means and sigmas; the previous psis
    parts: SpectralParts  # the row split that warm-starts the next call
    moments: np.ndarray   # (K, P, R, P, R) per-state moments about the means


def _log_phi(X: np.ndarray, params: HmmParams) -> np.ndarray:
    """State-conditional log-densities of every observation, (I, T, K)."""
    return _log_density_states(X, params.means, params.sigmas, params.psis)


class _Forward(NamedTuple):
    """A forward pass: the scaled state densities ``phi`` and forward
    variables ``alpha``, both time-major (T, I, K) so that every time slice
    is contiguous, the (T, I, 1) per-step scales and the log-likelihood."""

    phi: np.ndarray
    alpha: np.ndarray
    scale: np.ndarray
    log_lik: float


def _forward(X: np.ndarray, params: HmmParams) -> _Forward:
    """Rabiner's scaled forward recursion, the first half of the E-step."""
    I, T, _, _ = X.shape
    K = params.K
    log_phi = _log_phi(X, params)
    if not np.all(np.isfinite(log_phi)):
        raise NumericalError("non-finite state log-density in E-step")
    # Rabiner's scaled recursions on densities divided by their per-observation
    # maximum.  When every pi_k and Pi_jk is positive and representable,
    # c_t >= min Pi and the scaled beta <= 1 / min Pi, so nothing underflows or
    # overflows.  Exact zeros (the M-step makes them when a transition's
    # posterior mass underflows) can leave a unit no reachable state: c_t = 0.
    offsets = log_phi.max(axis=2)
    phi = np.empty((T, I, K))
    np.subtract(log_phi.transpose(1, 0, 2), offsets.T[:, :, None], out=phi)
    np.exp(phi, out=phi)
    Pi = params.Pi
    alpha = np.empty((T, I, K))
    scale = np.empty((T, I, 1))
    # the check below and the callers' checks catch every failure
    with np.errstate(all="ignore"):
        prev = None
        for a, p, c in zip(alpha, phi, scale):
            if prev is None:
                np.multiply(params.pi, p, out=a)
            else:
                np.matmul(prev, Pi, out=a)
                a *= p
            np.add.reduce(a, axis=1, keepdims=True, out=c)
            a /= c
            prev = a
        log_lik = float(np.log(scale).sum() + offsets.sum())
    if np.any(scale == 0.0):
        # the first unit and time in unit-major order
        i, t = np.argwhere(scale[:, :, 0].T == 0.0)[0]
        raise NumericalError(
            f"unit {i + 1} has no reachable state at time {t + 1} in E-step")
    if not np.isfinite(log_lik):
        raise NumericalError("non-finite log-likelihood in E-step")
    return _Forward(phi, alpha, scale, log_lik)


def _backward(fwd: _Forward, Pi: np.ndarray) -> Posteriors:
    """Rabiner's scaled backward recursion, the second half of the E-step:
    the posteriors of a forward pass made with transition matrix ``Pi``."""
    phi, alpha, scale, log_lik = fwd
    T, I, K = alpha.shape
    beta = np.empty((T, I, K))
    z = np.empty((I, T, K))
    with np.errstate(all="ignore"):  # the check below catches every failure
        beta[T - 1] = 1.0
        for t in range(T - 2, -1, -1):
            np.matmul(phi[t + 1] * beta[t + 1], Pi.T, out=beta[t])
            beta[t] /= scale[t + 1]
        np.multiply(alpha.transpose(1, 0, 2), beta.transpose(1, 0, 2), out=z)
    if not np.all(np.isfinite(z)):
        raise NumericalError("non-finite smoothed memberships in E-step")

    zz = np.zeros((I, T, K, K))
    ahead = (phi[1:] * beta[1:] / scale[1:]).transpose(1, 0, 2)
    np.multiply(alpha[:-1].transpose(1, 0, 2)[:, :, :, None], Pi, out=zz[:, 1:])
    zz[:, 1:] *= ahead[:, :, None, :]
    return Posteriors(z, zz, log_lik)


def _e_step_arrays(X: np.ndarray, params: HmmParams) -> Posteriors:
    return _backward(_forward(X, params), params.Pi)


def e_step(panel: MatrixPanel, params: HmmParams) -> Posteriors:
    """Smoothed memberships and transition expectations via the scaled
    forward-backward recursions."""
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
    Within an ECM iteration :func:`cm_step1` forms them once, about its
    fresh means, and :func:`cm_step2` reuses them.
    """
    I, T, P, R = X.shape
    K = means.shape[0]
    x = X.reshape(I * T, P * R)
    roots = np.sqrt(z.reshape(I * T, K))
    S = np.empty((K, P * R, P * R))
    weighted = np.empty_like(x)  # one (I T, P R) buffer for every state
    for k in range(K):
        np.subtract(x, means[k].reshape(P * R), out=weighted)
        weighted *= roots[:, k, None]
        S[k] = weighted.T @ weighted
    return S.reshape(K, P, R, P, R)


def _scatter(moments: np.ndarray, covs: np.ndarray, what: str) -> np.ndarray:
    """Per-state weighted scatter sum_it z_itk (X_it - M_k) C_k^-1 (X_it - M_k)'.

    ``moments`` is the (K, A, B, A, B) stack of :func:`_moments` and C_k
    the (B, B) covariances; the scatter is the contraction of S_k with
    C_k^-1 over the B axes, so its cost does not grow with I T.  With the
    column covariances as C this is the row scatter Y_k of the first CM
    step; on the same moments with both axis pairs swapped and the row
    covariances as C it is the column scatter W_k of the second.  The
    callers form the moments: :func:`cm_step1` forms them and
    :func:`cm_step2` reuses those, or forms them when called on its own.
    A stack of exact identities, such as a random start's column
    covariances, is contracted as it is and never factored: its inverse
    through the Cholesky factor is exactly the same identity, so the
    scatter is bit for bit the one the general path gives.
    """
    inv = covs
    if not _is_identity(covs):
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


def cm_step1(panel: MatrixPanel, post: Posteriors, prev: HmmParams,
             sigma_structure: str, warm: SpectralParts | None = None) -> CmStep1Result:
    """Update initial/transition probabilities, means and row covariances.

    The row scatter is built against the previous column covariances from
    the per-state moments about the fresh means; the structure-specific
    covariance update then runs on it.  ``warm`` may carry the previous
    volume/orientation split; when omitted it is derived from ``prev``.
    Returns the new model (with the column covariances of ``prev``), the
    row split for the next call, and the moments for :func:`cm_step2`.
    """
    X = panel.unit_time_stack()
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

    moments = _moments(X, z, means)
    Y = _scatter(moments, prev.psis, "column covariance Psi")
    if warm is None:
        warm = derive_parts(prev.sigmas)
    sigmas, parts = update_sigma(sigma_structure, Scatter(Y, weights), warm,
                                 (P, R, I, T))
    return CmStep1Result(HmmParams(pi, Pi, means, sigmas, prev.psis), parts,
                         moments)


def cm_step2(panel: MatrixPanel, post: Posteriors, current: HmmParams,
             psi_structure: str, warm: SpectralParts | None = None, *,
             moments: np.ndarray | None = None
             ) -> tuple[HmmParams, SpectralParts]:
    """Update the column covariances given freshly updated row covariances.

    The column scatter comes from the per-state moments about
    ``current.means``: ``moments`` when given, which must be
    ``_moments(X, post.z, current.means)`` (as :func:`cm_step1` returns
    them), else formed here; ``warm`` likewise, from ``current.psis``.
    Returns ``current`` with the new ``psis``, and the column split.
    """
    X = panel.unit_time_stack()
    I, T, P, R = X.shape
    weights = _state_weights(post.z)
    if moments is None:
        moments = _moments(X, post.z, current.means)
    W = _scatter(moments.transpose(0, 2, 1, 4, 3), current.sigmas,
                 "row covariance Sigma")
    if warm is None:
        warm = derive_parts(current.psis)
    psis, parts = update_psi(psi_structure, Scatter(W, weights), warm, (P, R, I, T))
    return replace(current, psis=psis), parts


def random_init(panel: MatrixPanel, K: int, structure, rng: np.random.Generator) -> HmmParams:
    """Random starting point: uniform pi, flat-Dirichlet transition rows,
    means drawn from K distinct observed matrices, identity covariances.

    The covariances are exact identities, so a start's first E-step and
    its first row scatter factor nothing (see :mod:`matrixhmm.matnorm`)."""
    parse_structure(structure)
    P, R, I, T = panel.dims
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > I * T:
        raise ValueError(f"cannot draw {K} distinct mean matrices from {I * T} observations")
    pi = np.full(K, 1.0 / K)
    Pi = rng.dirichlet(np.ones(K), size=K)
    picks = rng.choice(I * T, size=K, replace=False)
    means = panel.unit_time_stack().reshape(I * T, P, R)[picks]
    sigmas = np.tile(np.eye(P), (K, 1, 1))
    psis = np.tile(np.eye(R), (K, 1, 1))
    return HmmParams(pi, Pi, means, sigmas, psis)


class _EcmState(NamedTuple):
    params: HmmParams
    fwd: _Forward  # the forward pass at ``params``
    trace: list
    sigma_parts: SpectralParts
    psi_parts: SpectralParts
    converged: bool


def _run_ecm(panel: MatrixPanel, params: HmmParams, fwd: _Forward,
             pair: tuple[str, str], config: FitConfig, max_iter: int,
             sigma_parts: SpectralParts, psi_parts: SpectralParts) -> _EcmState:
    """ECM iterations from ``params``, its forward pass ``fwd`` and its
    spectral parts until convergence or ``max_iter``.

    Each iteration closes with a forward pass, whose log-likelihood decides
    convergence; its backward pass runs only when another CM step follows
    to read the posteriors.  The result carries the last forward pass, for
    the caller to rank or to run :func:`_backward` on.
    """
    sigma_structure, psi_structure = pair
    X = panel.unit_time_stack()
    post = _backward(fwd, params.Pi) if max_iter else None
    trace = [fwd.log_lik]
    converged = False
    for it in range(1, max_iter + 1):
        try:
            step1 = cm_step1(panel, post, params, sigma_structure, warm=sigma_parts)
            params, psi_parts = cm_step2(panel, post, step1.params, psi_structure,
                                         warm=psi_parts, moments=step1.moments)
            sigma_parts = step1.parts
            del step1  # frees the (K, PR, PR) moments before the E-step runs
            fwd = _forward(X, params)
            converged = abs(fwd.log_lik - trace[-1]) < config.tol * abs(trace[-1])
            if not converged and it < max_iter:
                post = _backward(fwd, params.Pi)
        except (NumericalError, DecompositionError) as exc:
            raise NumericalError(f"iteration {it}: {exc}", iteration=it) from exc
        except StateCollapseError as exc:
            raise StateCollapseError(f"iteration {it}: {exc}", iteration=it) from exc
        trace.append(fwd.log_lik)
        if config.iter_hook is not None:
            config.iter_hook(it, params, fwd.log_lik)
        if converged:
            break
    return _EcmState(params, fwd, trace, sigma_parts, psi_parts, converged)


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
                      post.log_lik)


def decode(post: Posteriors) -> np.ndarray:
    """Most probable state per (unit, time): 1-based labels, ties to the
    smallest state index."""
    return np.argmax(post.z, axis=2) + 1


def expected_complete_loglik(panel: MatrixPanel, post: Posteriors,
                             params: HmmParams) -> float:
    """Expected complete-data log-likelihood at the given posteriors.

    Sum of the initial-state, transition and observation terms with the
    indicator variables replaced by their smoothed expectations.
    """
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
    log_phi = _log_phi(panel.unit_time_stack(), params)
    term3 = float(np.sum(post.z * log_phi))
    return term1 + term2 + term3


def fit(panel: MatrixPanel, structure, K: int, config: FitConfig | None = None) -> FitReport:
    """Fit one parsimonious hidden Markov model to a panel.

    Runs ``config.short_runs`` random starts for ``config.short_iters``
    iterations each, continues the one with the best log-likelihood until
    the relative change drops below ``config.tol``, then orders states by
    the grand mean of their mean matrices.  Random starts begin from
    identity covariances with their known spectral parts.  Starts are
    ranked by the log-likelihood of their last forward pass, with no
    backward pass; the winner's long run continues from that forward pass,
    and one backward pass on the long run's last forward pass gives the
    reported posteriors.

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
    diagnostics = []
    for h, child in enumerate(children):
        rng = np.random.default_rng(child)
        try:
            params0 = random_init(panel, K, pair, rng)
            state = _run_ecm(panel, params0, _forward(X, params0), pair, config,
                             config.short_iters, SpectralParts.identity(K, P),
                             SpectralParts.identity(K, R))
        except (NumericalError, StateCollapseError) as exc:
            diagnostics.append(f"start {h + 1}: {exc}")
            continue
        if best is None or state.fwd.log_lik > best.fwd.log_lik:
            best = state
    if best is None:
        raise FitFailureError(
            f"all {config.short_runs} initializations failed for "
            f"{structure_name(pair)} with K={K}", diagnostics)

    state = _run_ecm(panel, best.params, best.fwd, pair, config, config.max_iter,
                     best.sigma_parts, best.psi_parts)
    try:
        post = _backward(state.fwd, state.params.Pi)
    except NumericalError as exc:
        it = len(state.trace) - 1
        raise NumericalError(f"iteration {it}: {exc}", iteration=it) from exc

    order = _canonical_order(state.params.means)
    params = _permute_params(state.params, order)
    post = _permute_posteriors(post, order)
    decoded = decode(post)

    n_params = n_free_params(pair, K, P, R)
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
        log_lik_trace=np.asarray(state.trace),
        decoded=decoded,
        converged=state.converged,
        wall_time=wall,
        panel_dims=(P, R, I, T),
        warnings=tuple(warnings),
        unit_labels=panel.unit_labels,
        time_labels=panel.time_labels,
    )

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

Both halves of the E-step work on a block of runs with the same K at once:
one density call on the block's stacked states, then one time-major
recursion over (T, H, I, K) arrays that applies each run's own transition
matrix by batched products.  Each run gets per-run views of the block's
arrays and the same arithmetic as alone, so its numbers do not depend on
the block it ran in.  The short starts run in blocks whose residual stack
stays under ``_BLOCK_ELEMENTS``; the long run is a block of one.

The blocks of a wide fit run on threads, one per usable CPU (see
:func:`_start_threads`): numpy's products release the GIL, and at such a
shape they are most of a start's work.  Each block returns its runs, and
the fit ranks them in start order, so no result depends on the thread
count.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DecompositionError, FitError, FitFailureError,
                     NumericalError, StateCollapseError)
from .matnorm import _BLOCK_ELEMENTS, MatNormParams, _cholesky, _factors, _log_density_states
from .panel import MatrixPanel
from .structures import (Scatter, SpectralParts, count_psi_params,
                         count_sigma_params, derive_parts, parse_structure,
                         structure_name, update_psi, update_sigma)

DEFAULT_SEED = 12345
_COLLAPSE_FRACTION = 1e-6
# The blocks of short starts run on threads only when one start's
# (K, I T, P, R) residual stack holds at least this many elements; below it
# the CM steps' Python work holds the GIL and threads gain little or lose.  On 2 cores with one
# BLAS thread, the short phases of 5 default fits (threaded over one
# thread) took 1.07-1.46 of the time at 32,000-36,000 elements and
# 0.59-0.95 from 64,000 on.  Medians of 9 full default fits of VVV-VV and
# VVE-VE: 0.90 and 0.87 at 10 x 8, K = 4, I T = 800 (256,000 elements),
# 0.76 and 0.75 at 3 x 3, K = 4, I T = 7200 (259,200), just below; 0.70
# and 1.09 at I T = 840 (268,800) and 0.81 and 0.89 at I T = 7400
# (266,400), just above, where the long run (one thread) is most of a
# VVE-VE fit.  2^18 leaves a margin over the mixed range.
_THREAD_ELEMENTS = 1 << 18
_STEP_ERRORS = (NumericalError, DecompositionError, StateCollapseError)


def _derived_seed(seed: int, key: tuple) -> int:
    """The seed of the child of ``seed`` at ``key``, the one recipe for the
    fit seeds of grid cells and recovery replicates."""
    seq = np.random.SeedSequence(seed, spawn_key=key)
    return int(seq.generate_state(1, dtype=np.uint64)[0])


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

    def validate(self) -> None:
        """Raise ``ValueError`` unless every entry is finite, pi and every row
        of Pi are probability vectors to within 1e-9, and every Sigma and Psi
        is symmetric (to :class:`MatNormParams`' tolerance) and positive definite."""
        for name in ("pi", "Pi", "means", "sigmas", "psis"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has an entry that is not finite")
        if np.any(self.pi < -1e-9) or abs(self.pi.sum() - 1.0) > 1e-9:
            raise ValueError("pi is not a probability vector")
        if np.any(self.Pi < -1e-9) or np.max(np.abs(self.Pi.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("Pi rows must sum to one")
        for k in range(self.K):
            try:
                self.state(k)  # checks that Sigma and Psi are symmetric
                _cholesky(self.sigmas[k:k + 1], "Sigma")
                _cholesky(self.psis[k:k + 1], "Psi")
            except ValueError as exc:  # a DecompositionError is one too
                raise ValueError(f"{exc} in state {k + 1}") from None


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
    """Knobs of one fit: convergence, initialization and a per-iteration hook.

    ``iter_hook(it, params, log_lik)`` is called once per start and
    iteration, then once per iteration of the long run.  The short starts
    run in blocks in lockstep, so with ``short_iters > 1`` the hook sees a
    block's starts iteration by iteration: every live start's iteration 1,
    then every live start's iteration 2, and so on.  Blocks come in start
    order: a fit with a hook runs them one after another on the calling
    thread, where one without may run a wide fit's blocks on threads.
    No field changes the result for any thread count.
    """

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
    """Converged parameters plus everything needed to audit the fit; the
    properties below derive the rest from these fields."""

    structure: tuple[str, str]
    params: HmmParams
    posteriors: Posteriors
    log_lik_trace: np.ndarray
    decoded: np.ndarray          # (I, T) int, 1-based state labels
    converged: bool
    wall_time: float
    panel_dims: tuple[int, int, int, int]
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

    @property
    def warnings(self) -> tuple[str, ...]:
        """An overparameterized warning when K * n_params exceeds the P R I T
        observed values, else none."""
        values = int(np.prod(self.panel_dims))
        if self.K * self.n_params <= values:
            return ()
        return (f"overparameterized: K * n_params = {self.K * self.n_params} exceeds the "
                f"{values} observed values",)


class CmStep1Result(NamedTuple):
    params: HmmParams     # fresh pi, Pi, means and sigmas; the previous psis
    parts: SpectralParts  # the row split that warm-starts the next call
    moments: np.ndarray   # (K, P, R, P, R) per-state moments about the means


class _Forward(NamedTuple):
    """A forward pass of one run: the scaled state densities ``phi`` and
    forward variables ``alpha``, both time-major (T, I, K), the (T, I, 1)
    per-step scales and the log-likelihood.  The arrays are the run's views
    of its block's (T, H, I, ...) arrays, in which every time slice is
    contiguous."""

    phi: np.ndarray
    alpha: np.ndarray
    scale: np.ndarray
    log_lik: float


def _forward(X: np.ndarray, block: list[HmmParams]) -> list[_Forward]:
    """Rabiner's scaled forward recursion, the first half of the E-step, for
    a block of H parameter sets with the same K: one forward pass each.

    One density call covers the block's H K states and one recursion its
    (T, H, I, K) arrays, each run through its own pi and Pi.  A run's
    log-likelihood is summed over contiguous copies of its own scales and
    offsets, in the order a block of one sums them.  A failure raises for
    the whole block, with the message of the first failing run.
    """
    I, T, _, _ = X.shape
    H, K = len(block), block[0].K
    log_phi = _log_density_states(
        X, *(np.concatenate([getattr(params, name) for params in block])
             for name in ("means", "sigmas", "psis")))
    if not np.all(np.isfinite(log_phi)):
        raise NumericalError("non-finite state log-density in E-step")
    # Rabiner's scaled recursions on densities divided by their per-observation
    # maximum.  When every pi_k and Pi_jk is positive and representable,
    # c_t >= min Pi and the scaled beta <= 1 / min Pi, so nothing underflows or
    # overflows.  Exact zeros (the M-step makes them when a transition's
    # posterior mass underflows) can leave a unit no reachable state: c_t = 0.
    log_phi = log_phi.reshape(I, T, H, K)
    offsets = log_phi.max(axis=3)
    phi = np.empty((T, H, I, K))
    np.subtract(log_phi.transpose(1, 2, 0, 3), offsets.transpose(1, 2, 0)[..., None],
                out=phi)
    np.exp(phi, out=phi)
    pi = np.stack([params.pi for params in block])[:, None]
    Pi = np.stack([params.Pi for params in block])
    alpha = np.empty((T, H, I, K))
    scale = np.empty((T, H, I, 1))
    # the checks below and the callers' checks catch every failure
    with np.errstate(all="ignore"):
        prev = None
        for a, p, c in zip(alpha, phi, scale):
            if prev is None:
                np.multiply(pi, p, out=a)
            else:
                np.matmul(prev, Pi, out=a)
                a *= p
            np.add.reduce(a, axis=2, keepdims=True, out=c)
            a /= c
            prev = a
        log_scale = np.log(scale)
        log_liks = [float(np.ascontiguousarray(log_scale[:, h]).sum()
                          + np.ascontiguousarray(offsets[:, :, h]).sum())
                    for h in range(H)]
    if np.any(scale == 0.0):
        # the first unit and time in unit-major order, of the first such run
        h, i, t = np.argwhere(scale[:, :, :, 0].transpose(1, 2, 0) == 0.0)[0]
        raise NumericalError(
            f"unit {i + 1} has no reachable state at time {t + 1} in E-step")
    if not np.all(np.isfinite(log_liks)):
        raise NumericalError("non-finite log-likelihood in E-step")
    return [_Forward(phi[:, h], alpha[:, h], scale[:, h], log_lik)
            for h, log_lik in enumerate(log_liks)]


def _backward(fwds: list[_Forward], Pis: list[np.ndarray]) -> list[Posteriors]:
    """Rabiner's scaled backward recursion, the second half of the E-step,
    for a block of forward passes made with the transition matrices ``Pis``:
    the posteriors of each.

    The recursion runs once on the block's (T, H, I, K) arrays.  Each run's
    ``z`` (I, T, K) and ``zz`` (I, T, K, K) are C-contiguous views of the
    block's (H, I, T, ...) arrays, so the CM steps sum them as they sum a
    block of one's.
    """
    phi, alpha, scale = (np.stack([fwd[n] for fwd in fwds], axis=1) for n in range(3))
    T, H, I, K = alpha.shape
    Pi = np.stack(Pis)
    beta = np.empty((T, H, I, K))
    z = np.empty((H, I, T, K))
    with np.errstate(all="ignore"):  # the check below catches every failure
        beta[T - 1] = 1.0
        for t in range(T - 2, -1, -1):
            np.matmul(phi[t + 1] * beta[t + 1], Pi.transpose(0, 2, 1), out=beta[t])
            beta[t] /= scale[t + 1]
        np.multiply(alpha.transpose(1, 2, 0, 3), beta.transpose(1, 2, 0, 3), out=z)
    if not np.all(np.isfinite(z)):
        raise NumericalError("non-finite smoothed memberships in E-step")

    # zz[h, i, t, j, k] = (alpha[t-1, h, i, j] Pi[h, j, k]) ahead[t, h, i, k],
    # formed state pair by state pair over contiguous (T - 1, H, I) slices so
    # that the innermost loop runs over units, not over K, then copied once
    # into the layout the CM steps read
    ahead = phi[1:] * beta[1:] / scale[1:]
    pairs = np.multiply(np.ascontiguousarray(alpha[:-1].transpose(3, 0, 1, 2))[:, None],
                        Pi.transpose(1, 2, 0)[:, :, None, :, None])
    pairs *= np.ascontiguousarray(ahead.transpose(3, 0, 1, 2))
    zz = np.zeros((H, I, T, K, K))
    zz[:, :, 1:] = pairs.transpose(3, 4, 2, 0, 1)
    return [Posteriors(z[h], zz[h], fwd.log_lik) for h, fwd in enumerate(fwds)]


def _e_step_arrays(X: np.ndarray, params: HmmParams) -> Posteriors:
    [post] = _backward(_forward(X, [params]), [params.Pi])
    return post


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
    covariances, is contracted as it is and never factored (see
    :func:`matrixhmm.matnorm._factors`).
    """
    L_inv, _ = _factors(covs, what)
    inv = covs if L_inv is None else np.swapaxes(L_inv, 1, 2) @ L_inv
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


def random_init(panel: MatrixPanel, K: int, rng: np.random.Generator) -> HmmParams:
    """Random starting point: uniform pi, flat-Dirichlet transition rows,
    means drawn from K distinct observed matrices, identity covariances.

    The covariances are exact identities, so a start's first E-step and
    its first row scatter factor nothing (see :mod:`matrixhmm.matnorm`).
    Nothing of the start depends on the structure."""
    P, R, I, T = panel.dims
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > I * T:
        raise FitError(f"cannot draw {K} distinct mean matrices from {I * T} observations")
    pi = np.full(K, 1.0 / K)
    Pi = rng.dirichlet(np.ones(K), size=K)
    picks = rng.choice(I * T, size=K, replace=False)
    means = panel.unit_time_stack().reshape(I * T, P, R)[picks]
    sigmas = np.tile(np.eye(P), (K, 1, 1))
    psis = np.tile(np.eye(R), (K, 1, 1))
    return HmmParams(pi, Pi, means, sigmas, psis)


@dataclass
class _Run:
    """One ECM run: its model, the forward pass at it, its spectral parts,
    its log-likelihood trace, and how it ended."""

    params: HmmParams
    sigma_parts: SpectralParts
    psi_parts: SpectralParts
    fwd: _Forward | None = None
    trace: list = field(default_factory=list)
    converged: bool = False
    error: FitError | None = None  # what the run raised, as a fit reports it

    def fail(self, exc: Exception, it: int | None) -> None:
        """Record ``exc``, raised in iteration ``it`` (None: before any)."""
        if it is None:
            self.error = exc
            return
        kind = StateCollapseError if isinstance(exc, StateCollapseError) else NumericalError
        self.error = kind(f"iteration {it}: {exc}", iteration=it)
        self.error.__cause__ = exc


def _each_run(e_pass: Callable, runs: list[_Run], it: int | None, *args
              ) -> tuple[list[_Run], list]:
    """``e_pass(*args, runs)`` on a block of runs: the runs it passed, and
    their results in the same order.

    When a block's pass raises, each of its runs is passed again alone, so
    a run that fails records the error it raises alone, drops out, and the
    others go on.
    """
    if len(runs) > 1:
        try:
            return runs, e_pass(*args, runs)
        except _STEP_ERRORS:
            pass  # one run at a time below
    passed, results = [], []
    for run in runs:
        try:
            [result] = e_pass(*args, [run])
        except _STEP_ERRORS as exc:
            run.fail(exc, it)
            continue
        passed.append(run)
        results.append(result)
    return passed, results


def _forward_runs(X: np.ndarray, runs: list[_Run]) -> list[_Forward]:
    return _forward(X, [run.params for run in runs])


def _backward_runs(runs: list[_Run]) -> list[Posteriors]:
    return _backward([run.fwd for run in runs], [run.params.Pi for run in runs])


def _cm_steps(panel: MatrixPanel, post: Posteriors, run: _Run,
              pair: tuple[str, str]) -> None:
    """One CM1 and one CM2 step of ``run`` at the posteriors ``post``; the
    (K, PR, PR) moments are freed on return, before the block's E-step."""
    step1 = cm_step1(panel, post, run.params, pair[0], warm=run.sigma_parts)
    run.params, run.psi_parts = cm_step2(panel, post, step1.params, pair[1],
                                         warm=run.psi_parts, moments=step1.moments)
    run.sigma_parts = step1.parts


def _run_ecm(panel: MatrixPanel, runs: list[_Run], pair: tuple[str, str],
             config: FitConfig, max_iter: int) -> list[_Run]:
    """ECM iterations, in lockstep, of a block of runs, each from its model,
    the forward pass at it and its spectral parts, until it converges or
    reaches ``max_iter``.

    Each iteration runs both CM steps of every live run, then one forward
    pass over the block, whose log-likelihoods decide convergence; one
    backward pass follows over the runs that go on to another CM step.  A
    run that converges or fails leaves the block, and a failure is kept on
    the run as :attr:`_Run.error`.  Each run keeps its last forward pass,
    for the caller to rank or to run :func:`_backward` on.
    """
    X = panel.unit_time_stack()
    for run in runs:
        run.trace, run.converged = [run.fwd.log_lik], False
    live, posts = _each_run(_backward_runs, runs if max_iter else [], None)
    for it in range(1, max_iter + 1):
        stepped = []
        for run, post in zip(live, posts):
            try:
                _cm_steps(panel, post, run, pair)
            except _STEP_ERRORS as exc:
                run.fail(exc, it)
                continue
            stepped.append(run)
        live, fwds = _each_run(_forward_runs, stepped, it, X)
        for run, fwd in zip(live, fwds):
            run.converged = abs(fwd.log_lik - run.trace[-1]) < config.tol * abs(run.trace[-1])
            run.fwd = fwd
        going_on = [run for run in live if not run.converged and it < max_iter]
        going_on, posts = _each_run(_backward_runs, going_on, it)
        for run in live:
            if run.error is None:
                run.trace.append(run.fwd.log_lik)
                if config.iter_hook is not None:
                    config.iter_hook(it, run.params, run.fwd.log_lik)
        live = going_on
        if not live:
            break
    return runs


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
    log_phi = _log_density_states(panel.unit_time_stack(), params.means,
                                  params.sigmas, params.psis)
    term3 = float(np.sum(post.z * log_phi))
    return term1 + term2 + term3


def _start_threads(elements: int, config: FitConfig, blocks: int) -> int:
    """Threads for a fit's blocks of short starts, each start's residual
    stack holding ``elements``: the usable CPUs, at most one per block,
    when that stack holds at least ``_THREAD_ELEMENTS``, no ``iter_hook``
    is set (its calls come block by block) and the process is not a pool
    worker; else one."""
    if (elements < _THREAD_ELEMENTS or config.iter_hook is not None
            or multiprocessing.parent_process() is not None):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, blocks)


def fit(panel: MatrixPanel, structure, K: int, config: FitConfig | None = None) -> FitReport:
    """Fit one parsimonious hidden Markov model to a panel.

    Runs ``config.short_runs`` random starts for ``config.short_iters``
    iterations each, continues the one with the best log-likelihood until
    the relative change drops below ``config.tol``, then orders states by
    the grand mean of their mean matrices.  Random starts begin from
    identity covariances with their known spectral parts.  Starts are
    ranked by the log-likelihood of their last forward pass, with no
    backward pass; the winner (the first start with the highest) continues
    from that forward pass, and one backward pass on the long run's last
    forward pass gives the reported posteriors.  The starts run in blocks in
    lockstep (see :func:`_run_ecm`), on threads for a wide fit (see
    :func:`_start_threads`); each start's numbers are those it would reach
    alone, and the fit ranks the runs in start order.  An exception that is
    not a failed start stops the fit once the running blocks end, and drops
    the blocks not yet started.

    Raises :class:`FitFailureError` when every start fails numerically, and
    :class:`FitError` when K exceeds the I * T observations.
    """
    if config is None:
        config = FitConfig()
    pair = parse_structure(structure)
    if K < 1:
        raise ValueError("K must be >= 1")
    start = time.perf_counter()
    P, R, I, T = panel.dims

    children = np.random.SeedSequence(config.seed).spawn(config.short_runs)
    block_size = max(1, _BLOCK_ELEMENTS // (K * I * T * P * R))
    firsts = range(0, config.short_runs, block_size)
    threads = _start_threads(K * I * T * P * R, config, len(firsts))

    def short_block(first: int) -> list[_Run]:
        """The short runs of the block of starts from ``first``, each from a
        random start drawn with its child seed and opened by one forward pass."""
        block = [_Run(random_init(panel, K, np.random.default_rng(child)),
                      SpectralParts.identity(K, P), SpectralParts.identity(K, R))
                 for child in children[first:first + block_size]]
        opened, fwds = _each_run(_forward_runs, block, None, panel.unit_time_stack())
        for run, fwd in zip(opened, fwds):
            run.fwd = fwd
        _run_ecm(panel, opened, pair, config, config.short_iters)
        return block

    best: _Run | None = None
    diagnostics = []
    # blocks in start order, so a strict > keeps the first best start; when
    # a block raises, the pool's map drops the blocks not yet started and
    # the pool joins its threads before the error leaves
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        for first, block in zip(firsts, (pool.map if pool else map)(short_block, firsts)):
            for h, run in enumerate(block, first + 1):
                if run.error is not None:
                    diagnostics.append(f"start {h}: {run.error}")
                elif best is None or run.fwd.log_lik > best.fwd.log_lik:
                    best = run
    if best is None:
        raise FitFailureError(
            f"all {config.short_runs} initializations failed for "
            f"{structure_name(pair)} with K={K}", diagnostics)

    [state] = _run_ecm(panel, [best], pair, config, config.max_iter)
    if state.error is None:  # a failing pass records its error, named by the last iteration
        _, posts = _each_run(_backward_runs, [state], len(state.trace) - 1)
    if state.error is not None:
        raise state.error
    [post] = posts

    order = _canonical_order(state.params.means)
    post = _permute_posteriors(post, order)
    return FitReport(structure=pair, params=_permute_params(state.params, order),
                     posteriors=post, log_lik_trace=np.asarray(state.trace),
                     decoded=decode(post), converged=state.converged,
                     wall_time=time.perf_counter() - start, panel_dims=(P, R, I, T),
                     unit_labels=panel.unit_labels, time_labels=panel.time_labels)

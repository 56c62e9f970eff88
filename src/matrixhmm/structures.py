"""Parsimonious covariance structures and their weighted-MLE updates.

Every state covariance is factored as ``lambda * Gamma diag(Delta) Gamma'``
with volume ``lambda = det^(1/Q)``, orthogonal orientation ``Gamma`` and
positive diagonal shape ``Delta`` of unit product.  A three-letter tag
fixes which of the components are shared across states (E), vary by state
(V), or degenerate (I = identity / axis-aligned); the row family has 14
members.  The column family has 7: each is a row structure with its volume
pinned to one by the unit determinant restriction, and is updated as that
row structure with the volumes divided out.

Updates take per-state weighted scatter matrices and return the argmax of
the conditionally maximized complete-data log-likelihood.  Shared
orientations with varying shapes (EVE, VVE) have no closed form and
use an iterative minorization-maximization step; shared shapes with
varying orientations (EEV, VEV) use per-state eigendecompositions
with descending eigenvalue order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DecompositionError

SIGMA_STRUCTURES = ("EII", "VII", "EEI", "VEI", "EVI", "VVI", "EEE",
                    "VEE", "EVE", "VVE", "EEV", "VEV", "EVV", "VVV")
PSI_STRUCTURES = ("II", "EI", "VI", "EE", "VE", "EV", "VV")
# the row structure each column structure equals once its volume is pinned
_PSI_AS_SIGMA = {"II": "EII", "EI": "EEI", "VI": "VVI", "EE": "EEE",
                "VE": "VVE", "EV": "EEV", "VV": "VVV"}

MM_MAX_ITER = 100
MM_TOL = 1e-8


def parse_structure(name) -> tuple[str, str]:
    """Turn a pair name like ``"VVE-VE"`` into a (row, column) tag tuple."""
    if isinstance(name, (tuple, list)) and len(name) == 2:
        sigma, psi = name
    else:
        sigma, _, psi = str(name).partition("-")
    sigma, psi = sigma.strip().upper(), psi.strip().upper()
    if sigma not in SIGMA_STRUCTURES or psi not in PSI_STRUCTURES:
        raise ValueError(
            f"unknown structure {name!r}: valid names are <row>-<col> with row in "
            f"{{{', '.join(SIGMA_STRUCTURES)}}} and col in {{{', '.join(PSI_STRUCTURES)}}}"
        )
    return sigma, psi


def structure_name(pair) -> str:
    """Canonical hyphenated name of a (row, column) structure pair."""
    sigma, psi = parse_structure(pair)
    return f"{sigma}-{psi}"


def all_structure_pairs() -> list[tuple[str, str]]:
    """All 98 (row, column) structure combinations, row-major order."""
    return [(s, p) for s in SIGMA_STRUCTURES for p in PSI_STRUCTURES]


class Scatter(NamedTuple):
    """Per-state weighted scatter matrices and their posterior weights."""

    matrices: np.ndarray  # (K, Q, Q), symmetric positive semidefinite
    weights: np.ndarray   # (K,), sums of posterior memberships


@dataclass(frozen=True)
class SpectralParts:
    """Volume / orientation / shape split carried between iterations.

    Only the components a structure re-reads are meaningful: the volumes
    ``lam`` for VEI, VEE, VVE and VEV, the shared orientation ``Gamma`` plus
    shapes ``Delta`` for EVE and VVE.
    """

    lam: np.ndarray    # (K,)
    Gamma: np.ndarray  # (K, Q, Q), rows of shared structures identical
    Delta: np.ndarray  # (K, Q), positive with unit product per state

    @classmethod
    def identity(cls, K: int, Q: int) -> "SpectralParts":
        return cls(np.ones(K), np.tile(np.eye(Q), (K, 1, 1)), np.ones((K, Q)))

    def covariances(self) -> np.ndarray:
        """Assemble the (K, Q, Q) covariance stack lam * Gamma diag(Delta) Gamma'."""
        return self.lam[:, None, None] * np.einsum(
            "kpq,kq,krq->kpr", self.Gamma, self.Delta, self.Gamma)


class MmResult(NamedTuple):
    Gamma: np.ndarray
    objective_trace: list
    iterations: int


def _check_scatter(scatter: Scatter) -> tuple[np.ndarray, np.ndarray]:
    Y = np.asarray(scatter.matrices, dtype=float)
    w = np.asarray(scatter.weights, dtype=float)
    if Y.ndim != 3 or Y.shape[1] != Y.shape[2]:
        raise ValueError(f"scatter matrices must be (K, Q, Q), got {Y.shape}")
    if w.shape != (Y.shape[0],):
        raise ValueError("scatter weights must have one entry per state")
    for k, wk in enumerate(w):
        if not wk > 0.0:
            raise ValueError(f"empty state {k + 1}: weight {wk} is not strictly positive")
    return Y, w


def _geomean(d: np.ndarray, what: str) -> np.ndarray:
    """Geometric mean of positive entries along the last axis (= det^(1/Q) of diag(d))."""
    if np.any(d <= 0.0):
        raise DecompositionError(f"{what} has non-positive diagonal entries")
    return np.exp(np.mean(np.log(d), axis=-1))


def _det_root(mat: np.ndarray, what: str):
    """det^(1/Q) of a positive-definite matrix, or of each in a (K, Q, Q) stack."""
    sign, logdet = np.linalg.slogdet(mat)
    if np.any(sign <= 0.0):
        where = "" if mat.ndim == 2 else f" {np.flatnonzero(sign <= 0.0)[0] + 1}"
        raise DecompositionError(f"{what}{where} is not positive definite")
    return np.exp(logdet / mat.shape[-1])


def _eigh_descending(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvectors of a symmetric matrix."""
    vals, vecs = np.linalg.eigh(mat)
    return vals[..., ::-1], vecs[..., ::-1]


def orientation_objective(matrices: np.ndarray, deltas: np.ndarray,
                          Gamma: np.ndarray) -> float:
    """sum_k tr(Y_k Gamma diag(Delta_k)^-1 Gamma'), the MM target."""
    rotated = np.einsum("pq,kpr,rq->kq", Gamma, matrices, Gamma)
    return float(np.sum(rotated / deltas))


def mm_orientation(matrices: np.ndarray, deltas: np.ndarray, init: np.ndarray,
                   max_iter: int = MM_MAX_ITER, tol: float = MM_TOL) -> MmResult:
    """Minimize the shared-orientation objective over orthogonal matrices.

    Each step majorizes the objective by the linear map tr(F Gamma) with

        F = sum_k diag(Delta_k)^-1 Gamma' (Y_k - e_k I),

    e_k the largest eigenvalue of Y_k, and minimizes it exactly through
    the singular value decomposition of F; the objective therefore never
    increases.  Stops when it changes by less than ``tol`` or after
    ``max_iter`` steps.
    """
    matrices = np.asarray(matrices, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    Gamma = np.asarray(init, dtype=float)
    Q = Gamma.shape[0]
    if np.max(np.abs(Gamma.T @ Gamma - np.eye(Q))) > 1e-10:
        raise ValueError("initial orientation is not orthogonal")
    top = np.linalg.eigvalsh(matrices)[:, -1]
    shifted = matrices - top[:, None, None] * np.eye(Q)
    current = orientation_objective(matrices, deltas, Gamma)
    trace = [current]
    iterations = 0
    for _ in range(max_iter):
        F = np.einsum("kq,pq,kpr->qr", 1.0 / deltas, Gamma, shifted)
        U, _, Vt = np.linalg.svd(F)
        candidate = -(Vt.T @ U.T)
        value = orientation_objective(matrices, deltas, candidate)
        iterations += 1
        if value > current:
            # roundoff ascent at a fixed point; keep the previous iterate
            break
        Gamma = candidate
        trace.append(value)
        if current - value < tol:
            current = value
            break
        current = value
    return MmResult(Gamma, trace, iterations)


def _shared_parts(lam: np.ndarray, Gamma: np.ndarray, Delta: np.ndarray,
                  K: int) -> SpectralParts:
    """Broadcast shared orientation/shape pieces to per-state storage."""
    G = np.tile(Gamma, (K, 1, 1)) if Gamma.ndim == 2 else Gamma
    D = np.tile(Delta, (K, 1)) if Delta.ndim == 1 else Delta
    return SpectralParts(np.broadcast_to(lam, (K,)).copy(), G, D)


def derive_parts(covariances: np.ndarray) -> SpectralParts:
    """Extract warm-start parts from a stack of covariance matrices.

    Volumes are det^(1/Q); the shared orientation is taken from the first
    state's eigenvectors and the shapes re-expressed consistently in that
    basis, so stacks that truly share an orientation are reproduced
    exactly.
    """
    covs = np.asarray(covariances, dtype=float)
    K, Q, _ = covs.shape
    lam = _det_root(covs, "covariance")
    _, Gamma = _eigh_descending(covs[0])
    Delta = np.einsum("pq,kpr,rq->kq", Gamma, covs, Gamma) / lam[:, None]
    Delta = np.maximum(Delta, 1e-300)
    Delta /= _geomean(Delta, "derived shape")[:, None]
    return SpectralParts(lam, np.tile(Gamma, (K, 1, 1)), Delta)


def update_sigma(structure: str, scatter: Scatter, prev: SpectralParts | None,
                 dims: tuple[int, int, int, int]) -> tuple[np.ndarray, SpectralParts | None]:
    """Conditional-maximization update of the per-state row covariances.

    Parameters
    ----------
    structure : one of ``SIGMA_STRUCTURES``
    scatter : Scatter
        Row scatter matrices Y_k (built against the previous column
        covariances) and state weights.
    prev : SpectralParts or None
        Previous volume/orientation/shape split; ``None`` stands for
        identity covariances.  Read only by VEI, VEE, VVE, VEV (volumes)
        and EVE, VVE (orientation warm start).
    dims : (P, R, I, T) panel dimensions.

    Returns
    -------
    (sigmas, parts) : the (K, P, P) updated covariances and the parts to
    pass back on the next call (None for structures that keep no state).
    """
    if structure not in SIGMA_STRUCTURES:
        raise ValueError(f"unknown row structure {structure!r}")
    Y, w = _check_scatter(scatter)
    K, Q, _ = Y.shape
    P, R, I, T = dims
    if Q != P:
        raise ValueError(f"scatter dimension {Q} does not match P={P}")
    eye = np.eye(P)
    n_total = float(I * T)
    prev_lam = prev.lam if prev is not None else np.ones(K)

    if structure == "EII":
        lam = float(np.trace(Y.sum(axis=0)) / (P * R * n_total))
        _require_positive(lam, "EII volume")
        return lam * np.tile(eye, (K, 1, 1)), None

    if structure == "VII":
        lam = np.trace(Y, axis1=1, axis2=2) / (P * R * w)
        _require_positive(lam, "VII volumes")
        return lam[:, None, None] * eye, None

    if structure == "EEI":
        d = np.diagonal(Y.sum(axis=0))
        gm = _geomean(d, "pooled scatter")
        delta = d / gm
        lam = gm / (R * n_total)
        sig = lam * np.diag(delta)
        return np.tile(sig, (K, 1, 1)), None

    if structure == "VEI":
        pooled = np.diagonal((Y / prev_lam[:, None, None]).sum(axis=0))
        gm = _geomean(pooled, "volume-scaled scatter")
        delta = pooled / gm
        lam = np.diagonal(Y, axis1=1, axis2=2) @ (1.0 / delta) / (P * R * w)
        _require_positive(lam, "VEI volumes")
        sigmas = lam[:, None, None] * np.diag(delta)
        return sigmas, _shared_parts(lam, eye, delta, K)

    if structure == "EVI":
        d = np.diagonal(Y, axis1=1, axis2=2)
        gm = _geomean(d, "scatter")
        deltas = d / gm[:, None]
        lam = float(np.sum(gm) / (R * n_total))
        sigmas = lam * np.einsum("kq,pq->kpq", deltas, eye)
        return sigmas, None

    if structure == "VVI":
        d = np.diagonal(Y, axis1=1, axis2=2)
        gm = _geomean(d, "scatter")
        deltas = d / gm[:, None]
        lam = gm / (R * w)
        sigmas = lam[:, None, None] * np.einsum("kq,pq->kpq", deltas, eye)
        return sigmas, None

    if structure == "EEE":
        sig = Y.sum(axis=0) / (R * n_total)
        sig = 0.5 * (sig + sig.T)
        _det_root(sig, "EEE covariance")
        return np.tile(sig, (K, 1, 1)), None

    if structure == "VEE":
        pooled = (Y / prev_lam[:, None, None]).sum(axis=0)
        pooled = 0.5 * (pooled + pooled.T)
        C = pooled / _det_root(pooled, "volume-scaled scatter")
        C_inv = np.linalg.inv(C)
        lam = np.einsum("pq,kqp->k", C_inv, Y) / (P * R * w)
        _require_positive(lam, "VEE volumes")
        vals, vecs = _eigh_descending(C)
        return lam[:, None, None] * C, _shared_parts(lam, vecs, vals, K)

    if structure in ("EVE", "VVE"):
        init = prev.Gamma[0] if prev is not None else eye
        prev_delta = prev.Delta if prev is not None else np.ones((K, P))
        # with state volumes the orientation target is sum_k tr(Y_k Gamma
        # Delta_k^-1 Gamma')/lam_k; a common volume does not move its argmin
        target = Y / prev_lam[:, None, None] if structure == "VVE" else Y
        Gamma = mm_orientation(target, prev_delta, init).Gamma
        rotated = np.einsum("pq,kpr,rq->kq", Gamma, Y, Gamma)
        gm = _geomean(rotated, "rotated scatter")
        deltas = rotated / gm[:, None]
        if structure == "EVE":
            lam_k = np.full(K, float(np.sum(rotated / deltas) / (P * R * n_total)))
        else:
            lam_k = gm / (R * w)
        _require_positive(lam_k, f"{structure} volumes")
        sigmas = lam_k[:, None, None] * np.einsum("pq,kq,rq->kpr", Gamma, deltas, Gamma)
        return sigmas, _shared_parts(lam_k, Gamma, deltas, K)

    if structure in ("EEV", "VEV"):
        omega, L = _eigh_descending(Y)
        if structure == "EEV":
            pooled = omega.sum(axis=0)
        else:
            pooled = (omega / prev_lam[:, None]).sum(axis=0)
        gm = _geomean(pooled, "pooled eigenvalues")
        delta = pooled / gm
        if structure == "EEV":
            lam_k = np.full(K, gm / (R * n_total))
        else:
            lam_k = (omega @ (1.0 / delta)) / (P * R * w)
        _require_positive(lam_k, f"{structure} volumes")
        sigmas = lam_k[:, None, None] * np.einsum("kpq,q,krq->kpr", L, delta, L)
        parts = SpectralParts(lam_k, L.copy(), np.tile(delta, (K, 1)))
        return sigmas, parts if structure == "VEV" else None

    if structure == "EVV":
        roots = _det_root(Y, "scatter")
        C = Y / roots[:, None, None]
        lam = float(np.sum(roots) / (R * n_total))
        return lam * C, None

    # VVV, the unconstrained case
    sigmas = Y / (R * w)[:, None, None]
    sigmas = 0.5 * (sigmas + np.transpose(sigmas, (0, 2, 1)))
    _det_root(sigmas, "VVV covariance")
    return sigmas, None


def update_psi(structure: str, scatter: Scatter, prev: SpectralParts | None,
               dims: tuple[int, int, int, int]) -> tuple[np.ndarray, SpectralParts | None]:
    """Conditional-maximization update of the per-state column covariances.

    The column scatter matrices W_k must be built against the freshly
    updated row covariances.  Each column structure is a row structure
    with unit volume (EI is EEI, VI is VVI, EE is EEE, VE is VVE, EV is
    EEV, VV is VVV): that row update runs with the dimensions swapped and
    each state is divided by det^(1/R), so every output has unit
    determinant.  The identity structure II estimates nothing.
    """
    if structure not in PSI_STRUCTURES:
        raise ValueError(f"unknown column structure {structure!r}")
    W, _ = _check_scatter(scatter)
    K, Q, _ = W.shape
    P, R, I, T = dims
    if Q != R:
        raise ValueError(f"scatter dimension {Q} does not match R={R}")
    if structure == "II":
        return np.tile(np.eye(R), (K, 1, 1)), None
    try:
        covs, parts = update_sigma(_PSI_AS_SIGMA[structure], scatter, prev, (R, P, I, T))
        roots = _det_root(covs, "covariance")
    except DecompositionError as exc:
        raise DecompositionError(f"column structure {structure}: {exc}") from None
    psis = covs / roots[:, None, None]
    if parts is not None:
        parts = SpectralParts(np.ones(K), parts.Gamma, parts.Delta)
    return psis, parts


def _require_positive(value, what: str) -> None:
    if not np.all(np.asarray(value) > 0.0):
        raise DecompositionError(f"{what} not strictly positive")


def count_sigma_params(structure: str, K: int, Q: int) -> int:
    """Free parameters in the K row covariance matrices of dimension Q."""
    if structure not in SIGMA_STRUCTURES:
        raise ValueError(f"unknown row structure {structure!r}")
    orient = Q * (Q - 1) // 2
    counts = {
        "EII": 1,
        "VII": K,
        "EEI": Q,
        "VEI": K + Q - 1,
        "EVI": K * (Q - 1) + 1,
        "VVI": K * Q,
        "EEE": Q * (Q + 1) // 2,
        "VEE": Q * (Q + 1) // 2 + K - 1,
        "EVE": orient + K * (Q - 1) + 1,
        "VVE": orient + K * Q,
        "EEV": K * orient + Q,
        "VEV": K * orient + K + Q - 1,
        "EVV": K * Q * (Q + 1) // 2 - K + 1,
        "VVV": K * Q * (Q + 1) // 2,
    }
    return counts[structure]


def count_psi_params(structure: str, K: int, Q: int) -> int:
    """Free parameters in the K unit-determinant column covariance matrices:
    those of the matching row structure less its pinned volumes."""
    if structure not in PSI_STRUCTURES:
        raise ValueError(f"unknown column structure {structure!r}")
    sigma = _PSI_AS_SIGMA[structure]
    return count_sigma_params(sigma, K, Q) - (K if sigma[0] == "V" else 1)

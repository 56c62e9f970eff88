"""Parsimonious covariance structures and their weighted-MLE updates.

Every state covariance is factored as ``lambda * Gamma diag(Delta) Gamma'``
with volume ``lambda = det^(1/Q)``, orthogonal orientation ``Gamma`` and
positive diagonal shape ``Delta`` of unit product.  A two-letter column tag
fixes whether the shape and then the orientation are shared across states
(E), vary by state (V), or are degenerate (I = identity / axis-aligned);
the 7 column structures have their volume pinned to one by the unit
determinant restriction.  A row tag is a volume letter, E (shared) or V
(varying), in front of a column tag, so the row family has 14 members.

Updates take per-state weighted scatter matrices and return the argmax of
the conditionally maximized complete-data log-likelihood.  The shape step
of a column tag is the whole column update; a row update runs it on the
scatters, divided by the previous volumes when those vary, and then
solves for the volumes in closed form.  Shared orientations with varying
shapes (VE) have no closed form and use an iterative
minorization-maximization step; shared shapes with varying orientations
(EV) use per-state eigendecompositions with descending eigenvalue order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DecompositionError

SIGMA_STRUCTURES = ("EII", "VII", "EEI", "VEI", "EVI", "VVI", "EEE",
                    "VEE", "EVE", "VVE", "EEV", "VEV", "EVV", "VVV")
PSI_STRUCTURES = ("II", "EI", "VI", "EE", "VE", "EV", "VV")

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

    Every update takes one and returns one, passing on the components it
    does not estimate.  The volumes ``lam`` are re-read by the row
    structures with varying volume (V tags), the shared orientation
    ``Gamma`` and shapes ``Delta`` by the VE shape (EVE, VVE and VE).
    """

    lam: np.ndarray    # (K,)
    Gamma: np.ndarray  # (Q, Q), one orientation shared by every state
    Delta: np.ndarray  # (K, Q), positive with unit product per state

    @classmethod
    def identity(cls, K: int, Q: int) -> "SpectralParts":
        """``derive_parts`` of K identity matrices of size Q, built directly:
        unit volumes and shapes, and the identity's eigenvectors in
        descending order (the axis-reversed identity) as orientation."""
        return cls(np.ones(K), np.eye(Q)[:, ::-1], np.ones((K, Q)))

    def covariances(self) -> np.ndarray:
        """Assemble the (K, Q, Q) covariance stack lam * Gamma diag(Delta) Gamma'."""
        return self.lam[:, None, None] * np.einsum(
            "pq,kq,rq->kpr", self.Gamma, self.Delta, self.Gamma)


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


def derive_parts(covariances: np.ndarray) -> SpectralParts:
    """Extract warm-start parts from a stack of covariance matrices.

    Volumes are det^(1/Q); the shared orientation is taken from the first
    state's eigenvectors and the shapes re-expressed consistently in that
    basis, so stacks that truly share an orientation are reproduced
    exactly.
    """
    covs = np.asarray(covariances, dtype=float)
    lam = _det_root(covs, "covariance")
    _, Gamma = _eigh_descending(covs[0])
    Delta = np.einsum("pq,kpr,rq->kq", Gamma, covs, Gamma) / lam[:, None]
    Delta = np.maximum(Delta, 1e-300)
    Delta /= _geomean(Delta, "derived shape")[:, None]
    return SpectralParts(lam, Gamma, Delta)


def _update_shape(structure: str, A: np.ndarray,
                  prev: SpectralParts) -> tuple[np.ndarray, SpectralParts]:
    """Unit-determinant C_k of a column structure minimizing sum_k tr(A_k C_k^-1).

    Returns the (K, Q, Q) stack and the parts for the next call: VE's
    new orientation and shapes with unit volumes, ``prev`` otherwise.
    """
    K, Q, _ = A.shape
    eye = np.eye(Q)
    if structure == "II":
        return np.tile(eye, (K, 1, 1)), prev

    if structure in ("EI", "VI"):
        d = np.diagonal(A, axis1=1, axis2=2)
        if structure == "EI":
            d = np.tile(d.sum(axis=0), (K, 1))
        deltas = d / _geomean(d, "scatter")[:, None]
        return np.einsum("kq,pq->kpq", deltas, eye), prev

    if structure == "EE":
        pooled = A.sum(axis=0)
        pooled = 0.5 * (pooled + pooled.T)
        C = pooled / _det_root(pooled, "pooled scatter")
        return np.tile(C, (K, 1, 1)), prev

    if structure == "VE":
        Gamma = mm_orientation(A, prev.Delta, prev.Gamma).Gamma
        rotated = np.einsum("pq,kpr,rq->kq", Gamma, A, Gamma)
        deltas = rotated / _geomean(rotated, "rotated scatter")[:, None]
        parts = SpectralParts(np.ones(K), Gamma, deltas)
        return parts.covariances(), parts

    if structure == "EV":
        omega, L = _eigh_descending(A)
        pooled = omega.sum(axis=0)
        delta = pooled / _geomean(pooled, "pooled eigenvalues")
        return np.einsum("kpq,q,krq->kpr", L, delta, L), prev

    # VV, the unconstrained shape
    S = 0.5 * (A + np.transpose(A, (0, 2, 1)))
    return S / _det_root(S, "scatter")[:, None, None], prev


def update_sigma(structure: str, scatter: Scatter, prev: SpectralParts | None,
                 dims: tuple[int, int, int, int]) -> tuple[np.ndarray, SpectralParts]:
    """Conditional-maximization update of the per-state row covariances.

    The shape step of the column structure ``structure[1:]`` runs on the
    scatters, each divided by its previous volume when the volume letter
    is V; the volumes then follow in closed form from
    q_k = tr(Y_k C_k^-1) / (P R): lambda_k = q_k / w_k for V, and one
    lambda = sum_k q_k / (I T) for E.

    Parameters
    ----------
    structure : one of ``SIGMA_STRUCTURES``
    scatter : Scatter
        Row scatter matrices Y_k (built against the previous column
        covariances) and state weights.
    prev : SpectralParts or None
        Previous volume/orientation/shape split; ``None`` is that of
        identity covariances, ``SpectralParts.identity(K, P)``.  V tags
        read ``prev.lam``; EVE and VVE read ``prev.Gamma`` and ``prev.Delta``.
    dims : (P, R, I, T) panel dimensions.

    Returns
    -------
    (sigmas, parts) : the (K, P, P) updated covariances and the parts for
    the next call: the new volumes with :func:`_update_shape`'s parts.
    """
    if structure not in SIGMA_STRUCTURES:
        raise ValueError(f"unknown row structure {structure!r}")
    Y, w = _check_scatter(scatter)
    K, Q, _ = Y.shape
    P, R, I, T = dims
    if Q != P:
        raise ValueError(f"scatter dimension {Q} does not match P={P}")
    prev = SpectralParts.identity(K, Q) if prev is None else prev
    varying = structure[0] == "V"
    # with state volumes the shape target is sum_k tr(Y_k C_k^-1) / lam_k;
    # a common volume does not move its argmin
    A = Y / prev.lam[:, None, None] if varying else Y
    C, parts = _update_shape(structure[1:], A, prev)
    try:
        C_inv = np.linalg.inv(C)
    except np.linalg.LinAlgError:
        # a scatter of rank below Q can pass its determinant check by rounding
        raise DecompositionError(f"{structure} shape is singular") from None
    q = np.einsum("kpq,kqp->k", C_inv, Y) / (P * R)
    lam = q / w if varying else np.full(K, q.sum() / (I * T))
    _require_positive(lam, f"{structure} volumes")
    return lam[:, None, None] * C, replace(parts, lam=lam)


def update_psi(structure: str, scatter: Scatter, prev: SpectralParts | None,
               dims: tuple[int, int, int, int]) -> tuple[np.ndarray, SpectralParts]:
    """Conditional-maximization update of the per-state column covariances.

    The column scatter matrices W_k must be built against the freshly
    updated row covariances.  This is the shape step itself: every output
    has unit determinant, and the identity structure II estimates nothing.
    Only VE reads ``prev`` (its orientation and shapes); ``None`` is
    ``SpectralParts.identity(K, R)``.  Returns :func:`_update_shape`'s.
    """
    if structure not in PSI_STRUCTURES:
        raise ValueError(f"unknown column structure {structure!r}")
    W, _ = _check_scatter(scatter)
    K, Q, _ = W.shape
    if Q != dims[1]:
        raise ValueError(f"scatter dimension {Q} does not match R={dims[1]}")
    prev = SpectralParts.identity(K, Q) if prev is None else prev
    try:
        return _update_shape(structure, W, prev)
    except DecompositionError as exc:
        raise DecompositionError(f"column structure {structure}: {exc}") from None


def _require_positive(value, what: str) -> None:
    if not np.all(np.asarray(value) > 0.0):
        raise DecompositionError(f"{what} not strictly positive")


def count_sigma_params(structure: str, K: int, Q: int) -> int:
    """Free parameters in the K row covariance matrices of dimension Q: the
    volumes (one per state for V, one for E) plus those of the column
    structure the tag ends in."""
    if structure not in SIGMA_STRUCTURES:
        raise ValueError(f"unknown row structure {structure!r}")
    return (K if structure[0] == "V" else 1) + count_psi_params(structure[1:], K, Q)


def count_psi_params(structure: str, K: int, Q: int) -> int:
    """Free parameters in the K unit-determinant column covariance matrices."""
    if structure not in PSI_STRUCTURES:
        raise ValueError(f"unknown column structure {structure!r}")
    orient = Q * (Q - 1) // 2
    counts = {
        "II": 0,
        "EI": Q - 1,
        "VI": K * (Q - 1),
        "EE": Q * (Q + 1) // 2 - 1,
        "VE": orient + K * (Q - 1),
        "EV": K * orient + Q - 1,
        "VV": K * (Q * (Q + 1) // 2 - 1),
    }
    return counts[structure]

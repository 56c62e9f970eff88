"""Reference computations that share no code with ``matrixhmm.ecm`` or
``matrixhmm.selection``.

The log-likelihood takes the vectorized route: vec(X) is multivariate
normal with covariance kron(Psi, Sigma), evaluated by
``scipy.stats.multivariate_normal``, and the hidden chain is summed out
by the scaled (Rabiner) forward recursion in probability space, not by
the package's log-space recursion.

The free-parameter counts are derived from what each letter of a
structure tag means, not copied from a table: a covariance is
lambda * Gamma diag(Delta) Gamma' and each of volume, shape and
orientation is shared (E), state-varying (V) or absent (I).
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.stats import multivariate_normal

# a spherical shape (I) has no orientation to share or vary
_SHAPE_ORIENTATION = tuple(s + o for s, o in itertools.product("IEV", "IEV")
                           if s != "I" or o == "I")
ROW_TAGS = tuple(v + so for v in "EV" for so in _SHAPE_ORIENTATION)
COLUMN_TAGS = _SHAPE_ORIENTATION


def state_log_densities(X: np.ndarray, means, sigmas, psis) -> np.ndarray:
    """(I, T, K) log-densities of the (I, T, P, R) stack under each state."""
    I, T, P, R = X.shape
    # vec() stacks columns: transpose the two matrix axes, then flatten
    flat = np.transpose(X, (0, 1, 3, 2)).reshape(I * T, P * R)
    out = np.empty((I * T, len(means)))
    for k in range(len(means)):
        law = multivariate_normal(mean=np.asarray(means[k]).T.ravel(),
                                  cov=np.kron(psis[k], sigmas[k]))
        out[:, k] = law.logpdf(flat)
    return out.reshape(I, T, len(means))


def log_likelihood(X: np.ndarray, pi, Pi, means, sigmas, psis) -> float:
    """Total log-likelihood of an (I, T, P, R) stack by the scaled forward
    recursion: alpha_t = (alpha_{t-1} Pi) * phi_t, renormalized each step,
    with log L the sum of the logs of the normalizers."""
    log_phi = state_log_densities(X, means, sigmas, psis)
    offset = log_phi.max(axis=2, keepdims=True)   # keeps exp() in range
    phi = np.exp(log_phi - offset)
    pi = np.asarray(pi, dtype=float)
    Pi = np.asarray(Pi, dtype=float)
    total = float(offset.sum())
    alpha = pi[None, :] * phi[:, 0]
    for t in range(X.shape[1]):
        if t > 0:
            alpha = (alpha @ Pi) * phi[:, t]
        c = alpha.sum(axis=1)
        total += float(np.log(c).sum())
        alpha = alpha / c[:, None]
    return total


def _component_count(letter: str, K: int, per_state: int) -> int:
    return {"I": 0, "E": per_state, "V": K * per_state}[letter]


def covariance_params(tag: str, K: int, Q: int) -> int:
    """Free parameters of K covariances of size Q under one structure tag.

    Row tags have three letters (volume, shape, orientation); column tags
    two (shape, orientation), their volume pinned by the unit determinant.
    A volume is one number, a shape Q - 1 (unit product), an orientation
    Q(Q - 1)/2 (an orthogonal matrix).
    """
    letters = tag if len(tag) == 3 else "I" + tag
    volume, shape, orientation = letters
    if len(tag) == 3 and volume == "I":
        raise ValueError(f"row tag {tag!r} needs a volume")
    return (_component_count(volume, K, 1)
            + _component_count(shape, K, Q - 1)
            + _component_count(orientation, K, Q * (Q - 1) // 2))


def free_params(sigma_tag: str, psi_tag: str, K: int, P: int, R: int) -> int:
    """Chain (initial law and transition rows), means and both covariances."""
    if sigma_tag not in ROW_TAGS or psi_tag not in COLUMN_TAGS:
        raise ValueError(f"unknown structure {sigma_tag}-{psi_tag}")
    return ((K - 1) + K * (K - 1) + K * P * R
            + covariance_params(sigma_tag, K, P)
            + covariance_params(psi_tag, K, R))

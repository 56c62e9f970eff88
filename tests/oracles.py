"""Independent oracles shared by the test modules.

Everything here recomputes expected values by routes the library does not
take: explicit state-sequence enumeration, direct objective evaluation,
and hand-built parameter stacks.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import expm

import matrixhmm as mh


def random_hmm_params(K, P, R, rng, scale=2.0):
    """Valid random parameters with unit-determinant column covariances."""
    pi = rng.dirichlet(np.ones(K))
    Pi = rng.dirichlet(np.ones(K), size=K)
    means = rng.normal(scale=scale, size=(K, P, R))
    sigmas, psis = [], []
    for _ in range(K):
        A = rng.normal(size=(P, P))
        sigmas.append(A @ A.T + P * np.eye(P))
        B = rng.normal(size=(R, R))
        psi = B @ B.T + R * np.eye(R)
        psis.append(psi / np.linalg.det(psi) ** (1.0 / R))
    return mh.HmmParams(pi, Pi, means, np.stack(sigmas), np.stack(psis))


def brute_force_log_lik(X, params):
    """Total log-likelihood by summing over every hidden state sequence."""
    return brute_force_posteriors(X, params)[0]


def brute_force_posteriors(X, params):
    """Log-likelihood, memberships z and pairwise expectations zz by
    weighting every hidden state sequence in log space; ``zz[:, 0]`` is zero."""
    I, T = X.shape[:2]
    K = params.K
    log_phi = np.empty((I, T, K))
    for k in range(K):
        state = params.state(k)
        for i in range(I):
            for t in range(T):
                log_phi[i, t, k] = mh.log_density(X[i, t], state)
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
        log_Pi = np.log(params.Pi)
    seqs = list(itertools.product(range(K), repeat=T))
    total = 0.0
    z = np.zeros((I, T, K))
    zz = np.zeros((I, T, K, K))
    for i in range(I):
        terms = []
        for seq in seqs:
            lp = log_pi[seq[0]] + log_phi[i, 0, seq[0]]
            for t in range(1, T):
                lp += log_Pi[seq[t - 1], seq[t]] + log_phi[i, t, seq[t]]
            terms.append(lp)
        terms = np.array(terms)
        m = np.max(terms)
        unit_ll = m + np.log(np.sum(np.exp(terms - m)))
        total += unit_ll
        for seq, lp in zip(seqs, terms):
            weight = np.exp(lp - unit_ll)
            for t in range(T):
                z[i, t, seq[t]] += weight
                if t:
                    zz[i, t, seq[t - 1], seq[t]] += weight
    return float(total), z, zz


def sigma_objective(sigmas, Y, weights, R):
    """Row-covariance part of the complete-data log-likelihood."""
    total = 0.0
    for k, w in enumerate(weights):
        _, logdet = np.linalg.slogdet(sigmas[k])
        total += -0.5 * R * w * logdet
        total += -0.5 * np.trace(np.linalg.solve(sigmas[k], Y[k]))
    return float(total)


def psi_objective(psis, W):
    """Column-covariance part (unit determinants make the logdet term vanish)."""
    return float(-0.5 * sum(np.trace(np.linalg.solve(psis[k], W[k]))
                            for k in range(len(W))))


def _tag_parts(covs, tag):
    """Volumes, unit-determinant stack, orthogonal bases and shapes of a
    (K, Q, Q) stack read the way ``tag`` (a row or column structure tag)
    parametrizes it: shared parts are taken from the first state."""
    K, Q, _ = covs.shape
    vol = np.exp(np.linalg.slogdet(covs)[1] / Q)
    if len(tag) == 2:
        vol = np.ones(K)
    elif tag[0] == "E":
        vol = np.full(K, vol[0])
    units = covs / vol[:, None, None]
    shape, orient = tag[-2:]
    if orient == "I":
        bases = np.tile(np.eye(Q), (K, 1, 1))
    elif orient == "E":  # a shared basis diagonalizes the sum of the states
        bases = np.tile(np.linalg.eigh(units.sum(axis=0))[1], (K, 1, 1))
    else:
        bases = np.linalg.eigh(units)[1]  # ascending, so shared shapes line up
    shapes = np.einsum("kpq,kpr,krq->kq", bases, units, bases)
    if shape == "I":
        shapes = np.ones((K, Q))
    elif shape == "E":
        shapes = np.tile(shapes[0], (K, 1))
        if orient == "E":
            units = np.tile(units[0], (K, 1, 1))
    return vol, units, bases, shapes


def _tag_point(parts, tag, rng, eps, moves):
    """A feasible point of ``tag`` at distance ``eps`` from ``parts`` along
    random directions of the named ``moves``: volumes exp(eps a) times
    (shared for E), shapes times exp(eps s) with s summing to zero, bases
    B expm(eps S) with S skew, and for EE and VV unit stacks L expm(eps S) L'
    with S symmetric and trace-free (L L' the state's matrix).  Parts a tag
    shares get one direction for every state."""
    vol, units, bases, shapes = parts
    K, Q, _ = units.shape
    shape, orient = tag[-2:]
    if "volume" in moves:
        vol = vol * np.exp(eps * rng.normal(size=1 if tag[0] == "E" else K))
    if shape + orient in ("EE", "VV"):
        if "shape" in moves:
            moved = []
            for k, unit in enumerate(units):
                if k == 0 or shape == "V":
                    S = rng.normal(size=(Q, Q))
                    S += S.T
                    S -= np.trace(S) / Q * np.eye(Q)
                L = np.linalg.cholesky(unit)
                moved.append(L @ expm(eps * S) @ L.T)
            units = np.stack(moved)
    else:
        if "shape" in moves:
            s = rng.normal(size=(1 if shape == "E" else K, Q))
            shapes = shapes * np.exp(eps * (s - s.mean(axis=1, keepdims=True)))
        if "orientation" in moves:
            skews = rng.normal(size=(1 if orient == "E" else K, Q, Q))
            bases = bases @ np.stack([expm(eps * (A - A.T)) for A in skews])
        units = np.einsum("kpq,kq,krq->kpr", bases, shapes, bases)
    return vol[:, None, None] * units


def best_feasible_gain(covs, scatter, tag, R, rng, n_directions=3):
    """How far an update ``covs`` of structure ``tag`` is from being the
    optimum of its own constraint set, by the volume/shape/orientation split
    of Celeux & Govaert (1995), with no code from ``structures``.

    Returns the largest relative error of ``covs`` rebuilt from its parts
    (0 up to rounding when it is feasible), and the largest gain of
    :func:`sigma_objective` (row tags, R columns) or :func:`psi_objective`
    (column tags) over ``covs`` among feasible points at eps in {1e-4, 1e-3,
    1e-2, 1e-1} along each free part alone, and all of them at once, in
    ``n_directions`` random directions and their opposites.  Gains are
    relative to the sum of the magnitudes of the objective's terms.
    """
    Y, w = scatter
    row = len(tag) == 3

    def objective(c):
        return sigma_objective(c, Y, w, R) if row else psi_objective(c, Y)

    base = objective(covs)
    size = 0.5 * sum(np.trace(np.linalg.solve(c, y)) for c, y in zip(covs, Y))
    if row:
        size += 0.5 * R * float(np.sum(w * np.abs(np.linalg.slogdet(covs)[1])))
    parts = _tag_parts(covs, tag)
    rebuilt = _tag_point(parts, tag, rng, 0.0, ())
    infeasible = float(np.max(np.abs(rebuilt - covs)) / np.max(np.abs(covs)))
    shape, orient = tag[-2:]
    general = shape + orient in ("EE", "VV")  # shape and orientation in one move
    single = [m for m, free in (("volume", row), ("shape", shape != "I"),
                                ("orientation", orient != "I" and not general)) if free]
    moves = [(m,) for m in single] + ([tuple(single)] if len(single) > 1 else [])
    gain = -np.inf
    for eps in (1e-4, 1e-3, 1e-2, 1e-1):
        for move in moves:
            for _ in range(n_directions):
                state = rng.bit_generator.state
                for sign in (1.0, -1.0):
                    rng.bit_generator.state = state  # the opposite direction
                    point = _tag_point(parts, tag, rng, sign * eps, move)
                    gain = max(gain, (objective(point) - base) / size)
    return infeasible, gain


def random_scatter(K, Q, rng, weight_range=(20.0, 80.0)):
    mats, weights = [], []
    for _ in range(K):
        A = rng.normal(size=(Q, Q + 5))
        w = rng.uniform(*weight_range)
        mats.append(A @ A.T * w)
        weights.append(w)
    return mh.Scatter(np.stack(mats), np.array(weights))


def separated_descending(rng, Q, low=0.5, gap=0.3):
    """Descending positive values with consecutive gaps of at least ``gap``."""
    return np.sort(low + np.cumsum(rng.uniform(gap, 1.0, Q)))[::-1]


def fabricate_report(params, dims, wall_time=0.1):
    """Minimal fit report wrapper around given parameters (for scoring tests)."""
    P, R, I, T = dims
    K = params.K
    empty = mh.Posteriors(np.zeros((0, 0, K)), np.zeros((0, 0, K, K)), 0.0)
    return mh.FitReport(structure=("VVV", "VV"), params=params, posteriors=empty,
                        log_lik_trace=np.zeros(1), decoded=np.ones((I, T), dtype=int),
                        converged=True, wall_time=wall_time, panel_dims=dims)


def check_posteriors(post, z_tol=1e-10, marg_tol=1e-8):
    """Assert the smoothed-membership normalization identities."""
    z_err = np.max(np.abs(post.z.sum(axis=2) - 1.0))
    assert z_err < z_tol, f"membership rows sum off by {z_err:.2e}"
    if post.z.shape[1] > 1:
        pair_err = np.max(np.abs(post.zz[:, 1:].sum(axis=(2, 3)) - 1.0))
        assert pair_err < z_tol, f"pairwise mass off by {pair_err:.2e}"
        marg_err = np.max(np.abs(post.zz[:, 1:].sum(axis=2) - post.z[:, 1:]))
        assert marg_err < marg_tol, f"marginal consistency off by {marg_err:.2e}"


def affine_map(tag, Q, rng, kind):
    """A Q x Q map that structure ``tag`` (a row or a column tag) is closed
    under.  ``kind="scalar"`` is a positive multiple of the identity, by
    0.01 to 0.1, so that the panel's scale moves by orders of magnitude;
    ``kind="widest"`` has |det| = 1 and comes from the widest class of the
    tag: a signed permutation when the tag holds an ``I``, any invertible map
    for EEE, VEE, EVV, VVV, EE and VV, an orthogonal map otherwise.  Every
    map of a class is a positive scalar times one of these."""
    if kind == "scalar":
        return 10.0 ** rng.uniform(-2.0, -1.0) * np.eye(Q)
    if "I" in tag:
        return np.eye(Q)[rng.permutation(Q)] * rng.choice([-1.0, 1.0], Q)
    U, _ = np.linalg.qr(rng.normal(size=(Q, Q)))
    if tag not in ("EEE", "VEE", "EVV", "VVV", "EE", "VV"):
        return U
    V, _ = np.linalg.qr(rng.normal(size=(Q, Q)))
    stretch = rng.uniform(0.5, 2.0, Q)
    return U @ np.diag(stretch / np.exp(np.mean(np.log(stretch)))) @ V


def affine_image(X, params, A, B):
    """The (I, T, P, R) stack ``X`` and the model ``params`` under
    X -> A X B': means A M B', Sigma_k -> d A Sigma_k A' and
    Psi_k -> B Psi_k B' / d with d = |det B|^(2/R), which keeps
    det Psi_k = 1; pi and Pi are unchanged.  The model's Kronecker
    covariance Psi_k (x) Sigma_k maps to (B (x) A)(Psi_k (x) Sigma_k)(B (x) A)'."""
    d = abs(np.linalg.det(B)) ** (2.0 / B.shape[0])
    image = mh.HmmParams(params.pi, params.Pi, A @ params.means @ B.T,
                         d * (A @ params.sigmas @ A.T), B @ params.psis @ B.T / d)
    return A @ X @ B.T, image


_PANEL_HEADER = ("unit", "time", "row_level", "col_level", "value")


def _label_order(raw):
    """Distinct labels in numeric order when every one parses as a number,
    labels of equal value in text order; text order otherwise."""
    distinct = sorted(set(raw))
    try:
        return sorted(distinct, key=lambda label: (float(label), label))
    except ValueError:
        return distinct


def reference_load_panel(path, delimiter=","):
    """A long-format panel file read into a dict with one entry per cell.

    Returns the (P, R, I, T) values with the unit and time labels, or raises
    the ``ValueError`` of the first problem, without the path in front.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header, cells = None, {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(delimiter)]
        if header is None:
            header = tuple(fields)
            if header != _PANEL_HEADER:
                raise ValueError(f"expected header {','.join(_PANEL_HEADER)!r}, "
                                 f"got {line.strip()!r}")
            continue
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {len(fields)}")
        *key, raw = fields
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"line {lineno}: could not parse value {raw!r}") from None
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"line {lineno}: value {raw!r} is not finite")
        if tuple(key) in cells:
            unit, time, row, col = key
            raise ValueError(f"duplicate cell (unit={unit}, time={time}, row_level={row}, "
                             f"col_level={col}) on line {lineno}")
        cells[tuple(key)] = value
    if header is None:
        raise ValueError("panel file is empty")
    if not cells:
        raise ValueError("panel file has no data rows")
    axes = [_label_order(key[a] for key in cells) for a in range(4)]
    values = np.empty([len(axis) for axis in axes])
    for idx in itertools.product(*(range(len(axis)) for axis in axes)):
        key = tuple(axis[n] for axis, n in zip(axes, idx))
        if key not in cells:
            unit, time, row, col = key
            raise ValueError(f"incomplete panel: missing cell (unit={unit}, time={time}, "
                             f"row_level={row}, col_level={col})")
        values[idx] = cells[key]
    return np.transpose(values, (2, 3, 0, 1)), tuple(axes[0]), tuple(axes[1])

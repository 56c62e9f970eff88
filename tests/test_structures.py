import numpy as np
import pytest

from matrixhmm import (PSI_STRUCTURES, SIGMA_STRUCTURES, Scatter,
                       count_psi_params, count_sigma_params, mm_orientation,
                       orientation_objective, parse_structure, structure_name)
from matrixhmm.errors import DecompositionError
from matrixhmm.structures import (SpectralParts, all_structure_pairs,
                                  derive_parts, update_psi, update_sigma)
from oracles import (best_feasible_gain, psi_objective, random_scatter,
                     separated_descending, sigma_objective)

DIMS = (3, 2, 40, 5)  # P, R, I, T used by most scatter tests


def scaled_scatter(K, Q, rng, dims=DIMS):
    """Random scatter whose weights sum to I*T, matching engine usage."""
    sc = random_scatter(K, Q, rng)
    _, _, I, T = dims
    w = sc.weights * (I * T / sc.weights.sum())
    Y = sc.matrices * (w / sc.weights)[:, None, None]
    return Scatter(Y, w)


# ---------------------------------------------------------------- naming

def test_structure_names_roundtrip():
    assert parse_structure("VVE-VE") == ("VVE", "VE")
    assert parse_structure(("EII", "II")) == ("EII", "II")
    assert structure_name(("VEV", "EE")) == "VEV-EE"
    assert len(all_structure_pairs()) == 98
    with pytest.raises(ValueError, match="valid names"):
        parse_structure("XYZ")
    with pytest.raises(ValueError, match="valid names"):
        parse_structure("EII-XX")


# ---------------------------------------------------------------- counts

def test_count_examples():
    assert count_sigma_params("EII", 1, 1) == 1
    assert count_sigma_params("EII", 5, 4) == 1
    assert count_sigma_params("VVV", 4, 2) == 12
    assert count_sigma_params("EVE", 2, 3) == 3 + 2 * 2 + 1
    assert count_psi_params("II", 3, 4) == 0
    assert count_psi_params("VV", 2, 3) == 2 * 6 - 2
    assert count_psi_params("EE", 1, 2) == 2


def test_psi_counts_are_sigma_counts_minus_volume():
    volume_removed = {"II": ("EII", 1), "EI": ("EEI", 1), "VI": ("VVI", None),
                      "EE": ("EEE", 1), "VE": ("VVE", None),
                      "EV": ("EEV", 1), "VV": ("VVV", None)}
    for K in range(1, 6):
        for Q in range(1, 6):
            for psi, (sigma, n_vol) in volume_removed.items():
                removed = K if n_vol is None else n_vol
                assert count_psi_params(psi, K, Q) == \
                    count_sigma_params(sigma, K, Q) - removed


# ---------------------------------------------------------------- updates

def test_eii_volume_golden():
    Y = np.stack([np.diag([4.0, 1.0]), np.diag([2.0, 3.0])])
    sc = Scatter(Y, np.array([250.0, 250.0]))
    sigmas, _ = update_sigma("EII", sc, None, (2, 2, 100, 5))
    lam = np.trace(Y.sum(axis=0)) / (2 * 2 * 5 * 100)
    assert np.allclose(sigmas, lam * np.eye(2), rtol=0, atol=0)


def test_single_state_vvv_equals_eee():
    rng = np.random.default_rng(1)
    sc = scaled_scatter(1, 3, rng)
    vvv, _ = update_sigma("VVV", sc, None, DIMS)
    eee, _ = update_sigma("EEE", sc, None, DIMS)
    assert np.allclose(vvv, eee, atol=1e-12)


def test_vei_update_raises_objective():
    rng = np.random.default_rng(2)
    sc = scaled_scatter(2, 3, rng)
    prev_sig, prev_parts = update_sigma("VEI", sc, None, DIMS)
    new_sig, _ = update_sigma("VEI", sc, prev_parts, DIMS)
    before = sigma_objective(prev_sig, sc.matrices, sc.weights, DIMS[1])
    after = sigma_objective(new_sig, sc.matrices, sc.weights, DIMS[1])
    assert after >= before - 1e-9 * abs(before)


def test_eev_recovers_known_eigenvalues():
    rng = np.random.default_rng(3)
    K, P = 2, 3
    dims = (P, 2, 40, 5)
    omegas = np.stack([separated_descending(rng, P) for _ in range(K)])
    Ls = [np.linalg.qr(rng.normal(size=(P, P)))[0] for _ in range(K)]
    Y = np.stack([L @ np.diag(om) @ L.T for L, om in zip(Ls, omegas)])
    sc = Scatter(Y, np.full(K, 100.0))
    sigmas, _ = update_sigma("EEV", sc, None, dims)
    pooled = omegas.sum(axis=0)
    delta = pooled / np.prod(pooled) ** (1 / P)
    lam = np.prod(pooled) ** (1 / P) / (dims[1] * dims[2] * dims[3])
    for k in range(K):
        expected = lam * Ls[k] @ np.diag(delta) @ Ls[k].T
        assert np.allclose(sigmas[k], expected, atol=1e-10)


@pytest.mark.parametrize("structure", SIGMA_STRUCTURES + PSI_STRUCTURES)
def test_chained_updates_never_lower_the_objective(structure):
    # unequal state scales make the shape step depend on the volumes
    row = structure in SIGMA_STRUCTURES
    update, dims = (update_sigma, DIMS) if row else (update_psi, (2, 3, 40, 5))

    def objective(covs, sc):
        if row:
            return sigma_objective(covs, sc.matrices, sc.weights, dims[1])
        return psi_objective(covs, sc.matrices)

    for seed in range(20):
        rng = np.random.default_rng(seed)
        sc = random_scatter(2, 3, rng)
        sc = Scatter(sc.matrices * np.array([1.0, 50.0])[:, None, None], sc.weights)
        covs, parts = update(structure, sc, None, dims)
        before = objective(covs, sc)
        for _ in range(3):
            covs, parts = update(structure, sc, parts, dims)
            after = objective(covs, sc)
            assert after >= before - 1e-9 * abs(before), seed
            before = after


def test_every_sigma_update_is_spd_with_shared_parts():
    rng = np.random.default_rng(4)
    for structure in SIGMA_STRUCTURES:
        sc = scaled_scatter(3, 3, rng)
        sigmas, parts = update_sigma(structure, sc, None, DIMS)
        assert sigmas.shape == (3, 3, 3)
        for k in range(3):
            assert np.all(np.linalg.eigvalsh(sigmas[k]) > 0), structure
        if structure in ("EII", "EEI", "EEE"):
            assert np.array_equal(sigmas[0], sigmas[1])
            assert np.array_equal(sigmas[0], sigmas[2])
        if structure in ("EVE", "VVE"):
            # the one orientation diagonalizes every state
            rotated = parts.Gamma.T @ sigmas @ parts.Gamma
            off = rotated - np.einsum("kpp,pq->kpq", rotated, np.eye(3))
            assert np.max(np.abs(off)) < 1e-12 * np.max(np.abs(rotated)), structure
        if structure in ("VEE", "VEV"):
            # one shape: the states differ by their volumes lam_k only
            shapes = np.linalg.eigvalsh(sigmas / parts.lam[:, None, None])
            assert np.allclose(shapes, shapes[0], rtol=1e-12, atol=0), structure


@pytest.mark.parametrize("structure", SIGMA_STRUCTURES + PSI_STRUCTURES)
def test_no_parts_are_the_identity_parts(structure):
    row = structure in SIGMA_STRUCTURES
    update, dims = (update_sigma, DIMS) if row else (update_psi, (2, 3, 40, 5))
    sc = scaled_scatter(3, dims[0] if row else dims[1], np.random.default_rng(11), dims)
    K, Q = sc.matrices.shape[:2]
    covs, parts = update(structure, sc, None, dims)
    same_covs, same_parts = update(structure, sc, SpectralParts.identity(K, Q), dims)
    assert np.array_equal(covs, same_covs)
    for name in ("lam", "Gamma", "Delta"):
        assert np.array_equal(getattr(parts, name), getattr(same_parts, name)), name


@pytest.mark.parametrize("structure", SIGMA_STRUCTURES + PSI_STRUCTURES)
def test_every_update_returns_parts_with_one_orientation(structure):
    row = structure in SIGMA_STRUCTURES
    update, dims = (update_sigma, DIMS) if row else (update_psi, (2, 3, 40, 5))
    sc = scaled_scatter(3, dims[0] if row else dims[1], np.random.default_rng(12), dims)
    K, Q = sc.matrices.shape[:2]
    _, parts = update(structure, sc, None, dims)
    for _ in range(2):
        assert isinstance(parts, SpectralParts)
        assert parts.lam.shape == (K,)
        assert parts.Gamma.shape == (Q, Q)
        assert parts.Delta.shape == (K, Q)
        _, parts = update(structure, sc, parts, dims)


@pytest.mark.parametrize("structure", SIGMA_STRUCTURES + PSI_STRUCTURES)
def test_every_update_at_dimension_one_has_shape_one(structure):
    # the only unit-determinant 1 x 1 shape is exactly 1, whatever the tag
    row = structure in SIGMA_STRUCTURES
    dims = (1, 3, 40, 5) if row else (3, 1, 40, 5)
    sc = scaled_scatter(3, 1, np.random.default_rng(13), dims)
    if row:
        sigmas, parts = update_sigma(structure, sc, None, dims)
        assert np.array_equal(sigmas[:, 0, 0], parts.lam)
    else:
        psis, _ = update_psi(structure, sc, None, dims)
        assert np.array_equal(psis, np.ones((3, 1, 1)))


def test_every_psi_update_has_unit_determinant():
    rng = np.random.default_rng(5)
    for structure in PSI_STRUCTURES:
        sc = scaled_scatter(3, 2, rng)
        psis, _ = update_psi(structure, sc, None, DIMS)
        dets = np.linalg.det(psis)
        assert np.max(np.abs(dets - 1.0)) < 1e-12, structure
        for k in range(3):
            assert np.all(np.linalg.eigvalsh(psis[k]) > 0), structure


def test_psi_ii_is_identity_always():
    rng = np.random.default_rng(6)
    sc = scaled_scatter(2, 2, rng)
    psis, _ = update_psi("II", sc, None, DIMS)
    assert np.array_equal(psis, np.tile(np.eye(2), (2, 1, 1)))


def test_psi_spherical_scatter_gives_identity_for_every_structure():
    for c in (0.3, 1.0, 42.0):
        sc = Scatter(np.stack([c * np.eye(2)] * 2), np.array([10.0, 20.0]))
        for structure in PSI_STRUCTURES:
            psis, _ = update_psi(structure, sc, None, DIMS)
            assert np.allclose(psis, np.eye(2), atol=1e-13), (structure, c)


def test_psi_ee_proportional_to_pooled_scatter():
    rng = np.random.default_rng(7)
    sc = scaled_scatter(2, 2, rng)
    psis, _ = update_psi("EE", sc, None, DIMS)
    pooled = sc.matrices.sum(axis=0)
    ratio = psis[0] / pooled
    assert np.max(np.abs(ratio - ratio[0, 0])) < 1e-12
    assert abs(np.linalg.det(psis[0]) - 1.0) < 1e-12


def test_sigma_nesting_vvv_attains_the_best_objective():
    rng = np.random.default_rng(8)
    for _ in range(5):
        sc = scaled_scatter(2, 3, rng)
        best = sigma_objective(update_sigma("VVV", sc, None, DIMS)[0],
                               sc.matrices, sc.weights, DIMS[1])
        for structure in SIGMA_STRUCTURES:
            sig, parts = update_sigma(structure, sc, None, DIMS)
            sig, _ = update_sigma(structure, sc, parts, DIMS)
            val = sigma_objective(sig, sc.matrices, sc.weights, DIMS[1])
            assert val <= best + 1e-9 * abs(best), structure


def test_psi_nesting_vv_attains_the_best_objective():
    rng = np.random.default_rng(9)
    sc = scaled_scatter(3, 2, rng)
    best = psi_objective(update_psi("VV", sc, None, DIMS)[0], sc.matrices)
    for structure in PSI_STRUCTURES:
        psis, parts = update_psi(structure, sc, None, DIMS)
        psis, _ = update_psi(structure, sc, parts, DIMS)
        val = psi_objective(psis, sc.matrices)
        assert val <= best + 1e-9 * abs(best), structure


# one block-coordinate step each: with varying volumes a shared shape is fitted
# to the scatters over the previous volumes, and VE's orientation is an MM
# run from the previous orientation at the previous shapes
BLOCK_STEP_TAGS = ("VEI", "VEE", "VEV", "EVE", "VVE", "VE")


@pytest.mark.parametrize("structure", SIGMA_STRUCTURES + PSI_STRUCTURES)
def test_every_update_is_the_optimum_of_its_constraint_set(structure):
    row = structure in SIGMA_STRUCTURES
    update = update_sigma if row else update_psi
    for seed, (K, Q) in enumerate([(1, 2), (2, 3), (3, 2), (3, 3)]):
        rng = np.random.default_rng(seed)
        dims = (Q, 2, 20, 5) if row else (2, Q, 20, 5)
        for scale in (1.0, 1e3):
            sc = scaled_scatter(K, Q, rng, dims)
            sc = Scatter(scale * sc.matrices, sc.weights)
            covs, parts = update(structure, sc, None, dims)
            if structure in BLOCK_STEP_TAGS:
                # the point that chained warm updates reach
                for _ in range(300):
                    moved, parts = update(structure, sc, parts, dims)
                    if np.array_equal(moved, covs):
                        break
                    covs = moved
            infeasible, gain = best_feasible_gain(covs, sc, structure, dims[1], rng)
            assert infeasible < 1e-10, (K, Q, scale)
            assert gain <= 1e-12, (K, Q, scale, gain)


def test_empty_state_weight_rejected():
    sc = Scatter(np.stack([np.eye(2)] * 2), np.array([5.0, 0.0]))
    with pytest.raises(ValueError, match="empty state 2"):
        update_sigma("VVV", sc, None, (2, 2, 10, 5))
    with pytest.raises(ValueError, match="empty state"):
        update_psi("VV", sc, None, (2, 2, 10, 5))


def test_spectral_reconstruction_roundtrip():
    # shared orientation: the case whose parts are re-read across iterations
    rng = np.random.default_rng(10)
    K, Q = 3, 3
    lam = rng.uniform(0.5, 4.0, K)
    Gamma = np.linalg.qr(rng.normal(size=(Q, Q)))[0]
    Delta = np.stack([separated_descending(rng, Q) for _ in range(K)])
    Delta /= np.exp(np.mean(np.log(Delta), axis=1))[:, None]
    parts = SpectralParts(lam, Gamma, Delta)
    covs = parts.covariances()
    back = derive_parts(covs)
    assert np.max(np.abs(back.lam - lam)) < 1e-10
    assert np.max(np.abs(back.covariances() - covs)) < 1e-10


def test_derive_parts_recovers_volumes_for_any_stack():
    rng = np.random.default_rng(24)
    covs = []
    for _ in range(3):
        A = rng.normal(size=(3, 3))
        covs.append(A @ A.T + 3 * np.eye(3))
    covs = np.stack(covs)
    back = derive_parts(covs)
    expected = np.array([np.linalg.det(c) ** (1 / 3) for c in covs])
    assert np.max(np.abs(back.lam - expected)) < 1e-10


# ---------------------------------------------------------------- MM step

def mm_problem(rng, Q, K):
    V = np.linalg.qr(rng.normal(size=(Q, Q)))[0]
    Ys, Ds = [], []
    for _ in range(K):
        om = separated_descending(rng, Q)
        Ys.append(V @ np.diag(om) @ V.T)
        d = separated_descending(rng, Q)
        Ds.append(d / np.prod(d) ** (1.0 / Q))
    return np.stack(Ys), np.stack(Ds), V


def test_mm_reaches_simultaneous_diagonalizer():
    rng = np.random.default_rng(11)
    for _ in range(10):
        Q = int(rng.integers(2, 5))
        K = int(rng.integers(1, 4))
        Ys, Ds, V = mm_problem(rng, Q, K)
        init = np.linalg.qr(rng.normal(size=(Q, Q)))[0]
        result = mm_orientation(Ys, Ds, init, max_iter=20000, tol=1e-15)
        target = orientation_objective(Ys, Ds, V)
        assert result.objective_trace[-1] <= target + 1e-9
        assert np.all(np.diff(result.objective_trace) <= 1e-12)
        assert np.max(np.abs(result.Gamma.T @ result.Gamma - np.eye(Q))) < 1e-10


def test_mm_single_state_matches_eigenvectors():
    rng = np.random.default_rng(12)
    Ys, Ds, V = mm_problem(rng, 3, 1)
    init = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    result = mm_orientation(Ys, Ds, init, max_iter=20000, tol=1e-15)
    eig = orientation_objective(Ys, Ds, V)
    assert abs(result.objective_trace[-1] - eig) < 1e-9


def test_mm_optimal_init_is_a_fixed_point():
    rng = np.random.default_rng(13)
    Ys, Ds, V = mm_problem(rng, 3, 2)
    result = mm_orientation(Ys, Ds, V, max_iter=100, tol=1e-8)
    assert result.iterations == 1
    assert abs(result.objective_trace[-1] - result.objective_trace[0]) < 1e-8


def test_mm_rejects_non_orthogonal_init():
    Ys = np.stack([np.eye(2)])
    Ds = np.ones((1, 2))
    with pytest.raises(ValueError, match="not orthogonal"):
        mm_orientation(Ys, Ds, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_degenerate_scatter_raises_decomposition_error():
    rank_one = [
        np.zeros((2, 2)),
        # its rounded determinant is positive, so only the inverse fails
        np.array([[0.016521159578136494, -0.17563792161243916],
                  [-0.17563792161243916, 1.8672224163466922]]),
    ]
    for matrix in rank_one:
        sc = Scatter(matrix[None], np.array([10.0]))
        with pytest.raises(DecompositionError):
            update_sigma("VVV", sc, None, (2, 2, 10, 5))

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import multivariate_normal, norm

from matrixhmm import DecompositionError, MatNormParams, log_density, sample
from matrixhmm.matnorm import _log_density_states, log_density_stack


def random_instance(rng, P=None, R=None):
    P = P or int(rng.integers(1, 4))
    R = R or int(rng.integers(1, 4))
    A = rng.normal(size=(P, P))
    B = rng.normal(size=(R, R))
    return MatNormParams(rng.normal(size=(P, R)),
                         A @ A.T + P * np.eye(P),
                         B @ B.T + R * np.eye(R))


def test_log_density_at_mean_identity():
    params = MatNormParams(np.zeros((2, 2)), np.eye(2), np.eye(2))
    value = log_density(np.zeros((2, 2)), params)
    assert value == pytest.approx(-2.0 * np.log(2.0 * np.pi), abs=1e-12)
    assert value == pytest.approx(-3.6757541328186907, abs=1e-12)


def test_reduces_to_univariate_normal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu, sd, x = rng.normal(), rng.uniform(0.2, 3.0), rng.normal()
        params = MatNormParams([[mu]], [[sd ** 2]], [[1.0]])
        assert log_density(np.array([[x]]), params) == pytest.approx(
            norm.logpdf(x, loc=mu, scale=sd), abs=1e-12)


def test_matches_vectorized_mvn():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        params = random_instance(rng)
        X = rng.normal(scale=2.0, size=(params.P, params.R))
        ours = log_density(X, params)
        ref = multivariate_normal(
            mean=params.M.flatten(order="F"),
            cov=np.kron(params.Psi, params.Sigma)).logpdf(X.flatten(order="F"))
        worst = max(worst, abs(ours - ref))
    # the K-state kernel on an (I, T, P, R) stack, P != R
    for P, R in ((2, 3), (4, 1), (3, 5)):
        states = [random_instance(rng, P=P, R=R) for _ in range(3)]
        Xs = rng.normal(scale=2.0, size=(4, 3, P, R))
        ours = _log_density_states(Xs, *(np.stack([getattr(st, name) for st in states])
                                         for name in ("M", "Sigma", "Psi")))
        assert ours.shape == (4, 3, 3)
        for k, st in enumerate(states):
            mvn = multivariate_normal(mean=st.M.flatten(order="F"),
                                      cov=np.kron(st.Psi, st.Sigma))
            vecs = np.swapaxes(Xs, 2, 3).reshape(12, P * R)  # column-major vec
            ref = mvn.logpdf(vecs).reshape(4, 3)
            worst = max(worst, np.max(np.abs(ours[..., k] - ref)),
                        np.max(np.abs(log_density_stack(Xs, st.M, st.Sigma, st.Psi) - ref)))
    assert worst < 1e-12


def test_rescaling_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        params = random_instance(rng)
        X = rng.normal(size=(params.P, params.R))
        base = log_density(X, params)
        a = float(rng.uniform(0.05, 20.0))
        scaled = MatNormParams(params.M, a * params.Sigma, params.Psi / a)
        assert log_density(X, scaled) == pytest.approx(base, abs=1e-12)


def test_density_integrates_to_one_scalar_case():
    params = MatNormParams([[0.7]], [[2.3]], [[1.0]])
    total, _ = quad(lambda x: np.exp(log_density(np.array([[x]]), params)),
                    -30.0, 30.0)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_non_positive_definite_errors_name_the_matrix():
    M = np.zeros((2, 2))
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(DecompositionError, match="Sigma"):
        log_density(M, MatNormParams(M, bad, np.eye(2)))
    with pytest.raises(DecompositionError, match="Psi"):
        log_density(M, MatNormParams(M, np.eye(2), bad))


def test_param_validation():
    with pytest.raises(ValueError, match="Sigma must be"):
        MatNormParams(np.zeros((2, 3)), np.eye(3), np.eye(3))
    skew = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        MatNormParams(np.zeros((2, 2)), skew, np.eye(2))


def test_sample_deterministic_given_seed():
    rng = np.random.default_rng(33)
    params = random_instance(rng, P=2, R=3)
    first = sample(params, np.random.default_rng(7))
    second = sample(params, np.random.default_rng(7))
    assert np.array_equal(first, second)
    assert first.shape == (2, 3)


def test_sample_mean_monte_carlo():
    params = MatNormParams(np.zeros((2, 2)), np.eye(2), np.eye(2))
    draws = sample(params, np.random.default_rng(10), size=100_000)
    assert np.max(np.abs(draws.mean(axis=0))) < 0.02


def test_sample_vec_covariance_monte_carlo():
    params = MatNormParams(np.zeros((2, 2)),
                           np.array([[1.0, 0.4], [0.4, 1.5]]),
                           np.array([[1.2, -0.3], [-0.3, 0.9]]))
    draws = sample(params, np.random.default_rng(13), size=100_000)
    vecs = draws.transpose(0, 2, 1).reshape(-1, 4)  # column-major vec
    emp = np.cov(vecs, rowvar=False)
    assert np.max(np.abs(emp - np.kron(params.Psi, params.Sigma))) < 0.05


def test_log_density_stack_matches_scalar():
    rng = np.random.default_rng(14)
    params = random_instance(rng, P=2, R=3)
    Xs = rng.normal(size=(4, 5, 2, 3))
    stacked = log_density_stack(Xs, params.M, params.Sigma, params.Psi)
    assert stacked.shape == (4, 5)
    assert stacked[2, 3] == pytest.approx(log_density(Xs[2, 3], params), abs=1e-13)

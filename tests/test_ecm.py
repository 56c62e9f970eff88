import multiprocessing
import os
import re
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import matrixhmm as mh
from matrixhmm import ecm, matnorm
from matrixhmm.ecm import _e_step_arrays, cm_step1, cm_step2
from matrixhmm.structures import (PSI_STRUCTURES, SIGMA_STRUCTURES, SpectralParts,
                                  derive_parts)
from oracles import (affine_image, affine_map, brute_force_posteriors, check_posteriors,
                     random_hmm_params)


def small_panel(rng, I=6, T=4, P=2, R=2):
    return mh.MatrixPanel(rng.normal(size=(P, R, I, T)))


def two_state_panel(rng, I=60, T=5, sep=5.0):
    scen = mh.Scenario(
        label="test/two-state", structure=("EII", "II"),
        truth=mh.HmmParams(
            pi=np.array([0.5, 0.5]),
            Pi=np.array([[0.6, 0.4], [0.2, 0.8]]),
            means=np.stack([np.zeros((2, 2)), np.full((2, 2), sep)]),
            sigmas=np.tile(np.eye(2), (2, 1, 1)),
            psis=np.tile(np.eye(2), (2, 1, 1))),
        I=I, T=T, replicates=1)
    return mh.generate(scen, 0, seed=int(rng.integers(1 << 30)))


# ----------------------------------------------------------------- e-step

def test_e_step_degenerate_single_state():
    rng = np.random.default_rng(0)
    panel = small_panel(rng)
    params = random_hmm_params(1, 2, 2, rng)
    post = mh.e_step(panel, params)
    assert np.array_equal(post.z, np.ones_like(post.z))
    direct = sum(mh.log_density(panel.slice_unit_time(i + 1, t + 1), params.state(0))
                 for i in range(panel.I) for t in range(panel.T))
    assert post.log_lik == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("I, T, K, P, R", [(4, 3, 2, 2, 2), (1, 1, 3, 1, 1),
                                           (3, 4, 1, 2, 3), (2, 5, 3, 1, 2)])
def test_e_step_matches_sequence_enumeration(I, T, K, P, R):
    rng = np.random.default_rng(1)
    X = rng.normal(scale=1.5, size=(I, T, P, R))
    params = random_hmm_params(K, P, R, rng)
    post = _e_step_arrays(X, params)
    log_lik, z, zz = brute_force_posteriors(X, params)
    assert post.log_lik == pytest.approx(log_lik, abs=1e-10)
    assert np.max(np.abs(post.z - z)) < 1e-10
    assert np.max(np.abs(post.zz - zz)) < 1e-10
    check_posteriors(post)
    # the forward pass alone gives the full E-step's log-likelihood
    [fwd] = ecm._forward(X, [params])
    assert fwd.log_lik == post.log_lik


def test_a_block_of_runs_gets_the_numbers_of_each_run_alone():
    rng = np.random.default_rng(2)
    X = rng.normal(scale=1.5, size=(7, 5, 3, 2))
    block = [random_hmm_params(3, 3, 2, rng) for _ in range(4)]
    block[1] = replace(block[1], sigmas=np.tile(np.eye(3), (3, 1, 1)))
    fwds = ecm._forward(X, block)
    posts = ecm._backward(fwds, [params.Pi for params in block])
    for params, fwd, post in zip(block, fwds, posts):
        [alone] = ecm._forward(X, [params])
        for got, want in zip(fwd, alone):
            assert np.array_equal(got, want)
        [post_alone] = ecm._backward([alone], [params.Pi])
        assert post.log_lik == post_alone.log_lik
        for got, want in ((post.z, post_alone.z), (post.zz, post_alone.zz)):
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)


def test_e_step_raises_on_a_unit_with_no_reachable_state():
    # unit 2 jumps to the far state at time 3; a gap of 3200 nats
    X = np.zeros((2, 3, 2, 2))
    X[1, 2] = 40.0
    means = np.stack([np.zeros((2, 2)), np.full((2, 2), 40.0)])
    eye = np.tile(np.eye(2), (2, 1, 1))
    stuck = mh.HmmParams(np.array([1.0, 0.0]), np.eye(2), means, eye, eye)
    with pytest.raises(mh.NumericalError, match="unit 2.*time 3"):
        _e_step_arrays(X, stuck)
    leaky = mh.HmmParams(np.array([0.999, 0.001]),
                         np.array([[0.999, 0.001], [0.001, 0.999]]), means, eye, eye)
    post = _e_step_arrays(X, leaky)
    log_lik, z, zz = brute_force_posteriors(X, leaky)
    assert post.log_lik == pytest.approx(log_lik, rel=1e-12)
    assert np.max(np.abs(post.z - z)) < 1e-10
    assert np.max(np.abs(post.zz - zz)) < 1e-10


def test_both_passes_name_the_first_unreachable_unit_in_unit_major_order():
    # unit 2 is stranded at time 3 and unit 3 at time 2: time-major order
    # would name unit 3 first
    X = np.zeros((3, 3, 2, 2))
    X[1, 2] = 40.0
    X[2, 1] = 40.0
    means = np.stack([np.zeros((2, 2)), np.full((2, 2), 40.0)])
    eye = np.tile(np.eye(2), (2, 1, 1))
    stuck = mh.HmmParams(np.array([1.0, 0.0]), np.eye(2), means, eye, eye)
    for e_pass in (_e_step_arrays, lambda X, params: ecm._forward(X, [params])):
        with pytest.raises(mh.NumericalError, match="unit 2 .* time 3 "):
            e_pass(X, stuck)


def test_log_lik_pass_raises_on_a_non_finite_log_lik():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 4, 2, 2))
    params = random_hmm_params(2, 2, 2, rng)
    nan_pi = replace(params, pi=np.full(2, np.nan))
    nan_Pi = replace(params, Pi=np.array([[0.5, 0.5], [np.nan, 0.5]]))
    for broken in (nan_pi, nan_Pi):
        for e_pass in (_e_step_arrays, lambda X, params: ecm._forward(X, [params])):
            with pytest.raises(mh.NumericalError, match="non-finite log-likelihood"):
                e_pass(X, broken)


def test_e_step_deterministic_chain():
    rng = np.random.default_rng(2)
    panel = small_panel(rng)
    params = mh.HmmParams(
        pi=np.array([1.0, 0.0]), Pi=np.eye(2),
        means=rng.normal(size=(2, 2, 2)),
        sigmas=np.tile(np.eye(2), (2, 1, 1)),
        psis=np.tile(np.eye(2), (2, 1, 1)))
    post = mh.e_step(panel, params)
    assert np.allclose(post.z[:, :, 0], 1.0, atol=1e-14)
    assert np.allclose(post.z[:, :, 1], 0.0, atol=1e-14)


def test_e_step_unit_loglik_identity():
    rng = np.random.default_rng(3)
    panel = small_panel(rng, I=5, T=6)
    params = random_hmm_params(3, 2, 2, rng)
    post = mh.e_step(panel, params)
    X = panel.unit_time_stack()
    unit_ll = [_e_step_arrays(X[i:i + 1], params).log_lik for i in range(panel.I)]
    assert post.log_lik == pytest.approx(sum(unit_ll), abs=1e-10)


def test_e_step_matches_scaled_forward_backward():
    # independent route: probability-space recursion with per-step scaling
    rng = np.random.default_rng(30)
    X = rng.normal(size=(3, 4, 2, 2))
    params = random_hmm_params(3, 2, 2, rng)
    post = _e_step_arrays(X, params)
    I, T, K = post.z.shape
    log_lik = 0.0
    phi = np.zeros((I, T, K))
    for k in range(K):
        state = params.state(k)
        for i in range(I):
            for t in range(T):
                phi[i, t, k] = np.exp(mh.log_density(X[i, t], state))
    for i in range(I):
        alpha = np.zeros((T, K))
        scale = np.zeros(T)
        alpha[0] = params.pi * phi[i, 0]
        scale[0] = alpha[0].sum()
        alpha[0] /= scale[0]
        for t in range(1, T):
            alpha[t] = (alpha[t - 1] @ params.Pi) * phi[i, t]
            scale[t] = alpha[t].sum()
            alpha[t] /= scale[t]
        beta = np.ones((T, K))
        for t in range(T - 2, -1, -1):
            beta[t] = (params.Pi @ (phi[i, t + 1] * beta[t + 1])) / scale[t + 1]
        assert np.max(np.abs(alpha * beta - post.z[i])) < 1e-10
        log_lik += np.log(scale).sum()
        for t in range(1, T):
            zz_ref = (alpha[t - 1][:, None] * params.Pi
                      * (phi[i, t] * beta[t])[None, :]) / scale[t]
            assert np.max(np.abs(zz_ref - post.zz[i, t])) < 1e-10
    assert abs(log_lik - post.log_lik) < 1e-10


def test_e_step_rejects_non_finite_parameters():
    rng = np.random.default_rng(4)
    panel = small_panel(rng)
    params = random_hmm_params(2, 2, 2, rng)
    broken = mh.HmmParams(params.pi, params.Pi,
                          np.where(np.isnan(params.means), 0, params.means) * np.nan,
                          params.sigmas, params.psis)
    with pytest.raises(mh.NumericalError):
        mh.e_step(panel, broken)
    broken = mh.HmmParams(np.full(2, np.nan), params.Pi, params.means,
                          params.sigmas, params.psis)
    with pytest.raises(mh.NumericalError, match="non-finite"):
        mh.e_step(panel, broken)


def test_e_step_names_the_state_with_a_non_positive_definite_covariance():
    rng = np.random.default_rng(23)
    panel = small_panel(rng)
    params = random_hmm_params(3, 2, 2, rng)
    sigmas = params.sigmas.copy()
    sigmas[1] = np.array([[1.0, 2.0], [2.0, 1.0]])
    broken = mh.HmmParams(params.pi, params.Pi, params.means, sigmas, params.psis)
    with pytest.raises(mh.DecompositionError,
                       match="row covariance Sigma of state 2"):
        mh.e_step(panel, broken)


# ---------------------------------------------------------------- cm-steps

def hard_posteriors(I, T, K, labels):
    z = np.zeros((I, T, K))
    for i in range(I):
        for t in range(T):
            z[i, t, labels[i, t]] = 1.0
    zz = np.zeros((I, T, K, K))
    for i in range(I):
        for t in range(1, T):
            zz[i, t, labels[i, t - 1], labels[i, t]] = 1.0
    return mh.Posteriors(z, zz, 0.0)


def test_cm1_hard_assignment_recovers_plain_means():
    rng = np.random.default_rng(5)
    panel = small_panel(rng, I=8, T=3)
    labels = (np.arange(8 * 3).reshape(8, 3) % 2)
    post = hard_posteriors(8, 3, 2, labels)
    prev = random_hmm_params(2, 2, 2, rng)
    prev = mh.HmmParams(prev.pi, prev.Pi, prev.means,
                        np.tile(np.eye(2), (2, 1, 1)), np.tile(np.eye(2), (2, 1, 1)))
    step = cm_step1(panel, post, prev, "VVV").params
    X = panel.unit_time_stack()
    for k in range(2):
        mask = labels == k
        assert np.allclose(step.means[k], X[mask].mean(axis=0), atol=1e-12)
    assert np.max(np.abs(step.Pi.sum(axis=1) - 1.0)) < 1e-14
    assert step.pi.sum() == pytest.approx(1.0, abs=1e-14)


def test_cm_steps_do_not_decrease_complete_loglik():
    rng = np.random.default_rng(6)
    panel = small_panel(rng, I=25, T=4)
    for pair in [("VVV", "VV"), ("VEI", "EI"), ("EVE", "VE"), ("VEV", "EE")]:
        params = random_hmm_params(2, 2, 2, rng)
        post = mh.e_step(panel, params)
        before = mh.expected_complete_loglik(panel, post, params)
        mid = cm_step1(panel, post, params, pair[0]).params
        assert np.array_equal(mid.psis, params.psis)
        assert mh.expected_complete_loglik(panel, post, mid) >= before - 1e-8 * abs(before)
        final = cm_step2(panel, post, mid, pair[1])[0]
        for name in ("pi", "Pi", "means", "sigmas"):
            assert np.array_equal(getattr(final, name), getattr(mid, name)), name
        after = mh.expected_complete_loglik(panel, post, final)
        assert after >= before - 1e-8 * abs(before), pair


def _one_ecm_iteration(X, params, pair):
    panel = mh.MatrixPanel(np.transpose(X, (2, 3, 0, 1)))
    post = mh.e_step(panel, params)
    step1 = cm_step1(panel, post, params, pair[0], warm=None)
    new, _ = cm_step2(panel, post, step1.params, pair[1], warm=None,
                      moments=step1.moments)
    return post, new


def _affine_cases():
    scale_bound = pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: mm_orientation stops on the absolute MM_TOL, and EVE "
        "runs it on the row scatters unscaled, so a scaled panel stops it at "
        "another step"))
    for sigma in SIGMA_STRUCTURES:
        for psi in PSI_STRUCTURES:
            for kind in ("scalar", "widest"):
                marks = scale_bound if (sigma, kind) == ("EVE", "scalar") else ()
                yield pytest.param((sigma, psi), kind, marks=marks,
                                   id=f"{sigma}-{psi}-{kind}")


@pytest.mark.parametrize("pair, kind", _affine_cases())
def test_one_ecm_iteration_commutes_with_an_affine_map(pair, kind):
    """X -> A X B' with A and B from maps each tag is closed under (see
    ``oracles.affine_map``): one E-step and both CM steps on the mapped panel
    and model give the map of the new model, the same decoded path, and a
    log-likelihood shifted by the log-Jacobian -I T (R log|det A| + P log|det B|)."""
    K, P, R, I, T = 3, 3, 3, 10, 5
    for draw in range(4):
        rng = np.random.default_rng([SIGMA_STRUCTURES.index(pair[0]),
                                     PSI_STRUCTURES.index(pair[1]), kind == "scalar", draw])
        params = random_hmm_params(K, P, R, rng)
        panel, _ = mh.generate(mh.Scenario("affine", pair, params, I, T), draw)
        X = panel.unit_time_stack()
        A, B = affine_map(pair[0], P, rng, kind), affine_map(pair[1], R, rng, kind)
        post, new = _one_ecm_iteration(X, params, pair)
        post_image, new_image = _one_ecm_iteration(*affine_image(X, params, A, B), pair)
        _, want = affine_image(X, new, A, B)
        for name in ("pi", "Pi", "means", "sigmas", "psis"):
            got, ref = getattr(new_image, name), getattr(want, name)
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref)), (draw, name)
        assert np.array_equal(mh.decode(post_image), mh.decode(post)), draw
        jacobian = R * np.log(abs(np.linalg.det(A))) + P * np.log(abs(np.linalg.det(B)))
        assert post_image.log_lik == pytest.approx(post.log_lik - I * T * jacobian,
                                                   rel=1e-9), draw


def test_cm2_identity_structure():
    rng = np.random.default_rng(7)
    panel = small_panel(rng, I=10, T=3)
    params = random_hmm_params(2, 2, 2, rng)
    post = mh.e_step(panel, params)
    current = cm_step1(panel, post, params, "VVV").params
    psis = cm_step2(panel, post, current, "II")[0].psis
    assert np.array_equal(psis, np.tile(np.eye(2), (2, 1, 1)))


def test_cm1_state_collapse_error():
    rng = np.random.default_rng(8)
    panel = small_panel(rng, I=10, T=3)
    params = random_hmm_params(2, 2, 2, rng)
    post = mh.e_step(panel, params)
    z = post.z.copy()
    z[:, :, 1] = 1e-9
    z[:, :, 0] = 1.0 - 1e-9
    broken = mh.Posteriors(z, post.zz, post.log_lik)
    with pytest.raises(mh.StateCollapseError, match="state 2"):
        cm_step1(panel, broken, params, "VVV")


def soft_posteriors(rng, I, T, K):
    z = rng.dirichlet(np.ones(K), size=(I, T))
    zz = np.zeros((I, T, K, K))
    zz[:, 1:] = z[:, :-1, :, None] * z[:, 1:, None, :]
    return mh.Posteriors(z, zz, 0.0)


def loop_scatter(X, z, means, covs, columns):
    """sum_it z_itk D C_k^-1 D' with D = X_it - M_k (or D' C_k^-1 D for the
    column side), one observation at a time."""
    I, T, K = z.shape
    out = []
    for k in range(K):
        inv = np.linalg.inv(covs[k])
        total = 0.0
        for i in range(I):
            for t in range(T):
                D = X[i, t] - means[k]
                total = total + z[i, t, k] * (D.T @ inv @ D if columns else D @ inv @ D.T)
        out.append(total)
    return np.stack(out)


def test_scatters_match_a_per_observation_loop():
    rng = np.random.default_rng(25)
    I, T, K, P, R = 9, 4, 3, 3, 5
    X = 1e4 + rng.normal(size=(I, T, P, R))
    post = soft_posteriors(rng, I, T, K)
    prev = random_hmm_params(K, P, R, rng)
    z = post.z
    w = z.sum(axis=(0, 1))
    means = np.stack([sum(z[i, t, k] * X[i, t] for i in range(I) for t in range(T)) / w[k]
                      for k in range(K)])
    panel = mh.MatrixPanel(np.transpose(X, (2, 3, 0, 1)))

    step = cm_step1(panel, post, prev, "VVV")
    current = step.params
    Y = loop_scatter(X, z, means, prev.psis, columns=False)
    sigmas = Y / (R * w[:, None, None])
    assert np.max(np.abs(current.means - means)) < 1e-9 * 1e4
    assert np.max(np.abs(current.sigmas - sigmas)) < 1e-9 * np.max(np.abs(sigmas))

    psis = cm_step2(panel, post, current, "VV")[0].psis
    reused = cm_step2(panel, post, current, "VV", moments=step.moments)[0].psis
    assert np.array_equal(reused, psis)
    W = loop_scatter(X, z, current.means, current.sigmas, columns=True)
    expected = W / np.linalg.det(W)[:, None, None] ** (1.0 / R)
    assert np.max(np.abs(psis - expected)) < 1e-9 * np.max(np.abs(expected))
    assert np.max(np.abs(reused - expected)) < 1e-9 * np.max(np.abs(expected))


def test_a_state_on_identical_observations_fits_or_raises_a_typed_error():
    rng = np.random.default_rng(26)
    I, T, P, R = 6, 4, 2, 3
    X = rng.normal(size=(I, T, P, R))
    labels = np.zeros((I, T), dtype=int)
    labels[:2, :3] = 1
    X[labels == 1] = rng.normal(size=(P, R))
    panel = mh.MatrixPanel(np.transpose(X, (2, 3, 0, 1)))
    post = hard_posteriors(I, T, 2, labels)
    prev = random_hmm_params(2, P, R, rng)
    for row, col in zip(mh.SIGMA_STRUCTURES, 2 * mh.PSI_STRUCTURES):
        try:
            current = cm_step1(panel, post, prev, row).params
            assert np.all(np.isfinite(current.sigmas)), row
            psis = cm_step2(panel, post, current, col)[0].psis
            assert np.all(np.isfinite(psis)), (row, col)
        except (mh.FitError, ValueError) as exc:
            assert type(exc) is not np.linalg.LinAlgError, (row, col, exc)
    # fits on panels where half the observations are one matrix
    for seed in range(10):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(P, R, 10, 4))
        values[:, :, :5] = rng.normal(size=(P, R))[:, :, None, None]
        for pair in ("VVV-VV", "VVE-VE", "EEE-EE"):
            try:
                report = mh.fit(mh.MatrixPanel(values), pair, 2, mh.FitConfig(short_runs=5))
                assert np.isfinite(report.log_lik), (seed, pair)
            except (mh.FitError, ValueError) as exc:
                assert type(exc) is not np.linalg.LinAlgError, (seed, pair, exc)


# ------------------------------------------------------------- random init

def test_random_init_invariants():
    rng = np.random.default_rng(9)
    panel = small_panel(rng, I=5, T=4)
    for K in (1, 2, 3):
        params = mh.random_init(panel, K, np.random.default_rng(K))
        params.validate()
        assert np.array_equal(params.sigmas, np.tile(np.eye(2), (K, 1, 1)))
    one = mh.random_init(panel, 1, np.random.default_rng(0))
    assert np.array_equal(one.pi, [1.0])
    assert np.array_equal(one.Pi, [[1.0]])


def test_random_init_means_are_distinct_observations():
    rng = np.random.default_rng(10)
    panel = small_panel(rng, I=4, T=3)
    X = panel.unit_time_stack().reshape(-1, 2, 2)
    for seed in range(100):
        params = mh.random_init(panel, 3, np.random.default_rng(seed))
        rows = {tuple(m.ravel()) for m in params.means}
        assert len(rows) == 3
        for m in params.means:
            assert any(np.array_equal(m, x) for x in X)
    # I != T and P != R: the means are the picked rows of the unit-time
    # stack, so a swapped unit/time or row/column index shows
    panel = small_panel(rng, I=5, T=3, P=2, R=4)
    X = panel.unit_time_stack().reshape(-1, 2, 4)
    for seed in range(20):
        params = mh.random_init(panel, 4, np.random.default_rng(seed))
        replica = np.random.default_rng(seed)
        replica.dirichlet(np.ones(4), size=4)
        picks = replica.choice(15, size=4, replace=False)
        assert np.array_equal(params.means, X[picks])


def test_random_init_k_too_large():
    rng = np.random.default_rng(11)
    panel = small_panel(rng, I=2, T=2)
    with pytest.raises(mh.FitError, match="distinct mean matrices"):
        mh.random_init(panel, 5, rng)


# ----------------------------------------------------------------- decode

def test_decode_one_hot_and_tiebreak():
    z = np.zeros((1, 3, 2))
    z[0, 0] = [0.0, 1.0]
    z[0, 1] = [0.5, 0.5]
    z[0, 2] = [0.7, 0.3]
    post = mh.Posteriors(z, np.zeros((1, 3, 2, 2)), 0.0)
    assert mh.decode(post).tolist() == [[2, 1, 1]]


def test_decode_recovers_generated_states():
    rng = np.random.default_rng(12)
    panel, truth_states = two_state_panel(rng, I=80, T=5)
    report = mh.fit(panel, "EII-II", 2, mh.FitConfig(short_runs=20))
    accuracy = np.mean(report.decoded == truth_states)
    assert accuracy > 0.95


# -------------------------------------------------------------------- fit

def test_fit_single_state_closed_form_column():
    # R = 1 pins the column side, so the single-state fit is closed-form
    rng = np.random.default_rng(13)
    panel = mh.MatrixPanel(rng.normal(size=(2, 1, 20, 4)))
    report = mh.fit(panel, "VVV-VV", 1, mh.FitConfig(short_runs=5))
    assert report.iterations <= 2
    assert report.converged
    grand = panel.unit_time_stack().mean(axis=(0, 1))
    assert np.allclose(report.params.means[0], grand, atol=1e-12)


def test_fit_single_state_general_panel():
    rng = np.random.default_rng(14)
    panel = small_panel(rng, I=30, T=4)
    report = mh.fit(panel, "VVV-VV", 1, mh.FitConfig(short_runs=3))
    assert report.converged
    grand = panel.unit_time_stack().mean(axis=(0, 1))
    assert np.allclose(report.params.means[0], grand, atol=1e-10)
    assert np.array_equal(report.decoded, np.ones((30, 4), dtype=int))


def test_fit_is_deterministic_except_wall_time():
    rng = np.random.default_rng(15)
    panel, _ = two_state_panel(rng, I=40, T=4)
    config = mh.FitConfig(short_runs=10, seed=77)
    a = mh.fit(panel, "VVI-EI", 2, config)
    b = mh.fit(panel, "VVI-EI", 2, config)
    assert a.log_lik == b.log_lik
    assert np.array_equal(a.log_lik_trace, b.log_lik_trace)
    for field in ("pi", "Pi", "means", "sigmas", "psis"):
        assert np.array_equal(getattr(a.params, field), getattr(b.params, field))
    assert np.array_equal(a.decoded, b.decoded)
    assert a.bic == b.bic


def test_fit_orders_states_by_grand_mean():
    rng = np.random.default_rng(16)
    panel, _ = two_state_panel(rng, I=60, T=5)
    report = mh.fit(panel, "EII-II", 2, mh.FitConfig(short_runs=10))
    grand = report.params.means.mean(axis=(1, 2))
    assert grand[0] < grand[1]


def test_fit_trace_monotone_and_posteriors_normalized():
    rng = np.random.default_rng(17)
    panel, _ = two_state_panel(rng, I=50, T=5)
    report = mh.fit(panel, "VEE-VE", 2, mh.FitConfig(short_runs=10))
    assert np.all(np.diff(report.log_lik_trace) >= -1e-8)
    check_posteriors(report.posteriors)
    assert np.max(np.abs(np.linalg.det(report.params.psis) - 1.0)) < 1e-10


@pytest.mark.parametrize("K", [1, 2, 4])
@pytest.mark.parametrize("Q", [1, 2, 3, 8, 10, 30])
def test_random_start_parts_are_the_derived_parts_of_identities(K, Q):
    built = SpectralParts.identity(K, Q)
    derived = derive_parts(np.tile(np.eye(Q), (K, 1, 1)))
    assert np.array_equal(built.lam, derived.lam)
    assert np.array_equal(built.Gamma, derived.Gamma)
    assert np.array_equal(built.Delta, derived.Delta)


def test_fit_derives_no_spectral_parts(monkeypatch):
    rng = np.random.default_rng(24)
    panel, _ = two_state_panel(rng, I=40, T=4, sep=2.0)
    calls = []

    def counting(covs):
        calls.append(covs.shape)
        return derive_parts(covs)

    monkeypatch.setattr(ecm, "derive_parts", counting)
    config = mh.FitConfig(short_runs=3, seed=5)
    report = mh.fit(panel, "EII-II", 2, config)
    assert report.iterations >= 3
    # random starts get their parts built, the long run inherits the winner's
    assert calls == []


def test_fit_runs_the_backward_pass_only_where_it_is_read(monkeypatch):
    rng = np.random.default_rng(27)
    panel, _ = two_state_panel(rng, I=30, T=4, sep=2.0)
    forward, backward = [], []
    forward_pass, backward_pass = ecm._forward, ecm._backward

    # count runs, not calls: a call passes a block of runs
    def counting_forward(X, block):
        forward.extend(params.K for params in block)
        return forward_pass(X, block)

    def counting_backward(fwds, Pis):
        backward.extend(Pi.shape for Pi in Pis)
        return backward_pass(fwds, Pis)

    monkeypatch.setattr(ecm, "_forward", counting_forward)
    monkeypatch.setattr(ecm, "_backward", counting_backward)
    config = mh.FitConfig(short_runs=3, short_iters=2, seed=6)
    report = mh.fit(panel, "VVV-VV", 2, config)
    assert report.iterations >= 2
    # a forward pass opens each start and closes every iteration; the long
    # run continues from the winner's last one
    assert len(forward) == config.short_runs * (config.short_iters + 1) + report.iterations
    # a backward pass feeds every CM step, and one more gives the report
    assert len(backward) == config.short_runs * config.short_iters + report.iterations + 1


@pytest.mark.parametrize("max_iter", [500, 0])
def test_fit_reports_the_posteriors_of_its_parameters(max_iter):
    rng = np.random.default_rng(28)
    panel, _ = two_state_panel(rng, I=30, T=4, sep=2.0)
    config = mh.FitConfig(short_runs=3, seed=7, max_iter=max_iter)
    report = mh.fit(panel, "VVV-VV", 2, config)
    assert (report.iterations > 0) == (max_iter > 0)
    assert len(report.log_lik_trace) == report.iterations + 1
    post = mh.e_step(panel, report.params)
    assert np.max(np.abs(report.posteriors.z - post.z)) < 1e-12
    assert np.max(np.abs(report.posteriors.zz - post.zz)) < 1e-12
    assert abs(report.log_lik - post.log_lik) < 1e-12
    assert report.posteriors.log_lik == report.log_lik


def test_a_failing_report_backward_pass_names_the_last_iteration(monkeypatch):
    rng = np.random.default_rng(28)
    panel, _ = two_state_panel(rng, I=30, T=4, sep=2.0)
    config = mh.FitConfig(short_runs=3, seed=7)
    iterations = mh.fit(panel, "VVV-VV", 2, config).iterations
    run_ecm = ecm._run_ecm

    def broken(fwds, Pis):
        raise mh.NumericalError("non-finite smoothed memberships in E-step")

    def break_backward_after_the_long_run(pan, runs, pair, cfg, max_iter):
        runs = run_ecm(pan, runs, pair, cfg, max_iter)
        if max_iter == cfg.max_iter:
            monkeypatch.setattr(ecm, "_backward", broken)
        return runs

    monkeypatch.setattr(ecm, "_run_ecm", break_backward_after_the_long_run)
    with pytest.raises(mh.NumericalError,
                       match=f"^iteration {iterations}: non-finite smoothed") as excinfo:
        mh.fit(panel, "VVV-VV", 2, config)
    assert excinfo.value.iteration == iterations


def test_fit_forms_moments_once_per_iteration(monkeypatch):
    rng = np.random.default_rng(27)
    panel, _ = two_state_panel(rng, I=30, T=4, sep=2.0)
    calls = []
    original = ecm._moments

    def counting(X, z, means):
        calls.append(means.shape)
        return original(X, z, means)

    monkeypatch.setattr(ecm, "_moments", counting)
    config = mh.FitConfig(short_runs=3, short_iters=2, seed=6)
    report = mh.fit(panel, "VVV-VV", 2, config)
    assert report.iterations >= 2
    assert len(calls) == config.short_runs * config.short_iters + report.iterations


@pytest.mark.parametrize("structure, per_start", [("VVV-VV", 3), ("VVV-II", 2)])
def test_fit_factors_no_identity_covariance(monkeypatch, structure, per_start):
    panel = small_panel(np.random.default_rng(29), I=10, T=4, P=3, R=2)
    calls = []
    original = matnorm._chol_inv_logdet

    # count matrices per start: a block's density call factors the stacks
    # of all its starts at once
    def counting(mats, what):
        calls.append(len(mats) // 2)
        return original(mats, what)

    monkeypatch.setattr(matnorm, "_chol_inv_logdet", counting)
    config = mh.FitConfig(short_runs=3, max_iter=0, seed=8)
    report = mh.fit(panel, structure, 2, config)
    assert report.iterations == 0
    # a start's first forward pass and first row scatter meet identities;
    # its column scatter and closing forward pass factor the fresh Sigma,
    # and the fresh Psi unless the column structure keeps it the identity
    assert sum(calls) == config.short_runs * per_start


@pytest.mark.parametrize("unit_dim", ["P", "R", "T", "I", "K"])
def test_every_structure_fits_or_raises_a_typed_error_at_unit_size(unit_dim):
    dims = {"P": 2, "R": 3, "I": 10, "T": 8, "K": 2, unit_dim: 1}
    rng = np.random.default_rng(31)
    panel = mh.MatrixPanel(rng.normal(size=tuple(dims[d] for d in "PRIT")))
    config = mh.FitConfig(short_runs=5, max_iter=50)
    for pair in mh.all_structure_pairs():
        try:
            report = mh.fit(panel, pair, dims["K"], config)
        except (mh.FitError, ValueError):
            continue
        p = report.params
        for arr in (p.pi, p.Pi, p.means, p.sigmas, p.psis, report.log_lik_trace):
            assert np.all(np.isfinite(arr)), mh.structure_name(pair)
        if unit_dim == "R":  # the only unit-determinant 1 x 1 shape
            assert np.all(p.psis == 1.0), mh.structure_name(pair)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_structure_fits_or_raises_a_typed_error_on_edge_panels():
    rng = np.random.default_rng(32)
    small = mh.MatrixPanel(rng.normal(size=(2, 3, 4, 2)))
    constant = rng.normal(size=(2, 3, 10, 8))
    constant[1, 2] = 0.5
    rates = rng.uniform(0.2, 0.8, size=(2, 3, 10, 8))
    rates[0, 0, :4, 0] = np.geomspace(1e-12, 1e-9, 4)
    rates[1, 1, :4, 1] = 1.0 - np.geomspace(1e-12, 1e-9, 4)
    cases = [(mh.MatrixPanel(constant), 2),
             (small, small.I * small.T - 1), (small, small.I * small.T),
             (mh.logit_transform(mh.MatrixPanel(rates)), 2)]
    config = mh.FitConfig(short_runs=3, max_iter=20)
    for panel, K in cases:
        for pair in mh.all_structure_pairs():
            try:
                report = mh.fit(panel, pair, K, config)
            except (mh.FitError, ValueError):
                continue
            p = report.params
            for arr in (p.pi, p.Pi, p.means, p.sigmas, p.psis, report.log_lik_trace):
                assert np.all(np.isfinite(arr)), (mh.structure_name(pair), K)


def _fit_outcome(panel, pair, K, config):
    """Every field of a fit's report, or the type, message and details of
    the error it raised."""
    try:
        report = mh.fit(panel, pair, K, config)
    except mh.FitFailureError as exc:
        return type(exc), str(exc), exc.diagnostics
    except mh.FitError as exc:
        return type(exc), str(exc), exc.iteration
    p, post = report.params, report.posteriors
    return (report.log_lik_trace, p.pi, p.Pi, p.means, p.sigmas, p.psis, post.z,
            post.zz, post.log_lik, report.decoded, report.converged)


def _same_outcome(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b))


def _edge_panel():
    return mh.MatrixPanel(np.random.default_rng(32).normal(size=(2, 3, 4, 2)))


def _threaded(monkeypatch):
    """Run every fit's blocks on threads, whatever the shape, with two CPUs
    usable; returns a list to which each start of a block adds "main" or
    "worker", the thread it was drawn on, and each pool the threads it may
    start."""
    monkeypatch.setattr(ecm, "_THREAD_ELEMENTS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = []
    draw, pool = ecm.random_init, ecm.ThreadPoolExecutor

    def recording_draw(*args):
        on_main = threading.current_thread() is threading.main_thread()
        seen.append("main" if on_main else "worker")
        return draw(*args)

    def recording_pool(threads):
        seen.append(threads)
        return pool(threads)

    monkeypatch.setattr(ecm, "random_init", recording_draw)
    monkeypatch.setattr(ecm, "ThreadPoolExecutor", recording_pool)
    return seen


def _on_two_threads(seen):
    """Every block ran off this thread, in pools of two threads."""
    return set(seen) == {"worker", 2}


def test_fit_does_not_depend_on_the_block_size(monkeypatch):
    panel, _ = two_state_panel(np.random.default_rng(33), I=100, T=10, sep=2.0)
    cases = [(panel, pair, 2, mh.FitConfig(short_runs=40, short_iters=si, max_iter=50))
             for pair in ("EII-II", "VVE-VE", "VVV-VV") for si in (1, 3)]
    # K = 7 on 8 observations: some starts fail, and some fits fail outright
    cases += [(_edge_panel(), pair, 7, mh.FitConfig(short_runs=6, short_iters=si, max_iter=20))
              for pair in mh.all_structure_pairs() for si in (1, 3)]
    # one start per block, the default (blocks of 8 on the first panel), and
    # every start in one block; then one start per block on two threads
    caps = (1, ecm._BLOCK_ELEMENTS, 1 << 62)
    outcomes = []
    for cap in caps:
        monkeypatch.setattr(ecm, "_BLOCK_ELEMENTS", cap)
        outcomes.append([_fit_outcome(*case) for case in cases])
    monkeypatch.setattr(ecm, "_BLOCK_ELEMENTS", 1)
    ran_on = _threaded(monkeypatch)
    outcomes.append([_fit_outcome(*case) for case in cases])
    assert _on_two_threads(ran_on)
    for case, (alone, *blocked) in zip(cases, zip(*outcomes)):
        for other in blocked:
            assert _same_outcome(alone, other), (mh.structure_name(case[1]), case[3])
    kinds = {outcome[0] for outcome in outcomes[0] if len(outcome) == 3}
    assert kinds == {mh.FitFailureError, mh.StateCollapseError, mh.NumericalError}


def test_fit_lists_failed_starts_in_start_order(monkeypatch):
    # start 5 fails in iteration 2, the others in iteration 3: a block sees
    # start 5 fail first, and on threads start 5 may end before start 4
    config = mh.FitConfig(short_runs=6, short_iters=3, max_iter=20)
    with pytest.raises(mh.FitFailureError) as blocked:
        mh.fit(_edge_panel(), "EII-VV", 7, config)
    monkeypatch.setattr(ecm, "_BLOCK_ELEMENTS", 1)
    with pytest.raises(mh.FitFailureError) as alone:
        mh.fit(_edge_panel(), "EII-VV", 7, config)
    ran_on = _threaded(monkeypatch)
    with pytest.raises(mh.FitFailureError) as threaded:
        mh.fit(_edge_panel(), "EII-VV", 7, config)
    assert _on_two_threads(ran_on)
    diagnostics = blocked.value.diagnostics
    starts = [int(re.match(r"start (\d+): iteration \d+: ", d).group(1)) for d in diagnostics]
    assert starts == list(range(1, 7))
    assert diagnostics == alone.value.diagnostics == threaded.value.diagnostics
    assert "start 5: iteration 2: " in diagnostics[4]


def test_a_start_whose_first_pass_fails_names_no_iteration(monkeypatch):
    # finite values whose squared residuals overflow: every start's opening
    # forward pass fails, before any iteration
    values = 1e160 * np.random.default_rng(34).normal(size=(2, 2, 5, 3))
    panel = mh.MatrixPanel(values)
    assert np.all(np.isfinite(panel.values))
    expected = tuple(f"start {h}: non-finite state log-density in E-step" for h in (1, 2, 3))
    for cap, threads in ((ecm._BLOCK_ELEMENTS, False), (1, False), (1, True)):
        monkeypatch.setattr(ecm, "_BLOCK_ELEMENTS", cap)
        if threads:
            ran_on = _threaded(monkeypatch)
        with pytest.raises(mh.FitFailureError) as excinfo:
            mh.fit(panel, "EII-II", 2, mh.FitConfig(short_runs=3))
        assert excinfo.value.iteration is None
        assert excinfo.value.diagnostics == expected
    assert _on_two_threads(ran_on)


def test_a_bug_in_a_threaded_start_stops_the_fit(monkeypatch):
    panel, _ = two_state_panel(np.random.default_rng(35), I=30, T=4)
    monkeypatch.setattr(ecm, "_BLOCK_ELEMENTS", 1)
    ran_on = _threaded(monkeypatch)
    calls = []
    original = ecm.cm_step1

    def breaks_on_the_third_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("a bug, not a failed start")
        return original(*args, **kwargs)

    monkeypatch.setattr(ecm, "cm_step1", breaks_on_the_third_call)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="a bug, not a failed start"):
        mh.fit(panel, "EII-II", 2, mh.FitConfig(short_runs=60))
    # the blocks not yet started were dropped, and no thread outlives the fit
    assert len(calls) < 60
    assert threading.active_count() == before
    assert _on_two_threads(ran_on)
    monkeypatch.setattr(ecm, "cm_step1", original)
    mh.fit(panel, "EII-II", 2, mh.FitConfig(short_runs=6))
    assert threading.active_count() == before


def test_start_threads_follow_the_rule(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    wide, plain = ecm._THREAD_ELEMENTS, mh.FitConfig()
    assert ecm._start_threads(wide, plain, 8) == 3
    assert ecm._start_threads(wide, plain, 2) == 2
    assert ecm._start_threads(wide, plain, 1) == 1
    assert ecm._start_threads(wide - 1, plain, 8) == 1
    hooked = mh.FitConfig(iter_hook=lambda *a: None)
    assert ecm._start_threads(wide, hooked, 8) == 1
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert ecm._start_threads(wide, plain, 8) == 1
    monkeypatch.undo()
    # a pool worker, as in run_grid(..., workers=2), runs one thread
    with ProcessPoolExecutor(1) as pool:
        assert pool.submit(ecm._start_threads, wide, plain, 8).result(timeout=60) == 1
    # without an affinity call the CPU count is the limit
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert ecm._start_threads(wide, plain, 8) == 2
    # a recovery or select start (K I T P R = 8,000) stays sequential, a
    # fit-wide start (640,000) takes the threads
    assert 2 * 100 * 10 * 2 * 2 < ecm._THREAD_ELEMENTS <= 4 * 100 * 20 * 10 * 8


def test_a_state_collapse_in_the_long_run_names_its_iteration():
    panel = small_panel(np.random.default_rng(0), I=4, T=2, P=2, R=3)
    with pytest.raises(mh.StateCollapseError) as excinfo:
        mh.fit(panel, "EII-EE", 7, mh.FitConfig(short_runs=3, max_iter=20))
    match = re.fullmatch(r"iteration (\d+): state collapse: .+", str(excinfo.value))
    assert match is not None, str(excinfo.value)
    assert excinfo.value.iteration == int(match.group(1))


def test_fit_config_rejects_a_negative_max_iter():
    with pytest.raises(ValueError, match="max_iter"):
        mh.FitConfig(max_iter=-3)


def test_fit_all_starts_fail():
    panel = mh.MatrixPanel(np.zeros((2, 2, 5, 3)))
    with pytest.raises(mh.FitFailureError) as excinfo:
        mh.fit(panel, "VVV-VV", 2, mh.FitConfig(short_runs=4))
    assert len(excinfo.value.diagnostics) == 4


def test_fit_overparameterized_warning():
    rng = np.random.default_rng(18)
    values = np.concatenate([rng.normal(size=(1, 1, 3, 2)),
                             rng.normal(loc=8.0, size=(1, 1, 3, 2))], axis=2)
    panel = mh.MatrixPanel(values)  # 12 scalar observations
    report = mh.fit(panel, "VII-II", 2, mh.FitConfig(short_runs=5))
    assert any("overparameterized" in w for w in report.warnings)


def test_fit_iter_hook_sees_every_iteration(monkeypatch):
    rng = np.random.default_rng(19)
    panel, _ = two_state_panel(rng, I=30, T=4)
    # the default block holds both starts; a cap of one start per block runs
    # each start alone
    caps = (ecm._BLOCK_ELEMENTS, 1)
    for short_iters in (1, 2):
        seen = {}
        for cap in caps:
            calls = seen[cap] = []
            config = mh.FitConfig(short_runs=2, short_iters=short_iters,
                                  iter_hook=lambda it, params, ll: calls.append((it, ll)))
            monkeypatch.setattr(ecm, "_BLOCK_ELEMENTS", cap)
            report = mh.fit(panel, "EII-II", 2, config)
            # one call per start and short iteration, the rest from the
            # continued run
            assert len(calls) == 2 * short_iters + report.iterations
            assert calls[-1][1] == report.log_lik_trace[-1]
        blocked, alone = seen.values()
        # a block's starts go iteration by iteration; the calls are the same
        assert sorted(blocked) == sorted(alone)
        assert [it for it, _ in blocked[:2 * short_iters]] == \
            [it for it in range(1, short_iters + 1) for _ in range(2)]
        # at a shape that would take threads a hooked fit runs its blocks
        # on this thread, so the calls arrive in start order
        with monkeypatch.context() as patched:
            ran_on = _threaded(patched)
            calls = []
            config = mh.FitConfig(short_runs=2, short_iters=short_iters,
                                  iter_hook=lambda it, params, ll: calls.append((it, ll)))
            mh.fit(panel, "EII-II", 2, config)
        assert set(ran_on) == {"main"}
        assert calls == alone


def test_fit_rejects_bad_arguments():
    rng = np.random.default_rng(20)
    panel = small_panel(rng)
    with pytest.raises(ValueError, match="valid names"):
        mh.fit(panel, "ABC-DE", 2)
    with pytest.raises(ValueError, match="K must be"):
        mh.fit(panel, "EII-II", 0)


def test_fit_single_time_point_panel():
    # no transitions to learn; the fit degrades to a mixture at T = 1
    rng = np.random.default_rng(22)
    values = np.concatenate([rng.normal(size=(2, 2, 20, 1)),
                             rng.normal(loc=6.0, size=(2, 2, 20, 1))], axis=2)
    report = mh.fit(mh.MatrixPanel(values), "EII-II", 2,
                    mh.FitConfig(short_runs=10))
    assert report.converged
    assert np.max(np.abs(report.params.Pi.sum(axis=1) - 1.0)) < 1e-12
    assert sorted(np.unique(report.decoded)) == [1, 2]


def test_expected_complete_loglik_matches_hard_assignment():
    # with one-hot posteriors the expectation is the plain complete loglik
    rng = np.random.default_rng(21)
    panel = small_panel(rng, I=4, T=3)
    params = random_hmm_params(2, 2, 2, rng)
    labels = rng.integers(0, 2, size=(4, 3))
    post = hard_posteriors(4, 3, 2, labels)
    value = mh.expected_complete_loglik(panel, post, params)
    X = panel.unit_time_stack()
    direct = 0.0
    for i in range(4):
        direct += np.log(params.pi[labels[i, 0]])
        for t in range(3):
            direct += mh.log_density(X[i, t], params.state(labels[i, t]))
            if t > 0:
                direct += np.log(params.Pi[labels[i, t - 1], labels[i, t]])
    assert value == pytest.approx(direct, abs=1e-10)

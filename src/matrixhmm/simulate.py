"""Synthetic panels from known models, recovery scoring and timing runs.

The built-in scenario list crosses two generating models (the fully
spherical EII-II and the shared-orientation VVE-VE), two state counts
(2 and 4), three panel lengths (5, 10, 15 time points) and two overlap
levels controlled by the additive mean shift c (2 for "overlap1", 5 for
"overlap2"), with 100 units each: 24 scenarios in total.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import selection
from .ecm import DEFAULT_SEED, FitConfig, FitReport, HmmParams, _derived_seed, fit
from .matnorm import _cholesky
from .panel import MatrixPanel, _check_labels

PARAMETER_BLOCKS = ("M", "Sigma", "Psi", "pi", "Pi")


@dataclass(frozen=True)
class Scenario:
    """A generating model plus the panel size and replication plan."""

    label: str
    structure: tuple[str, str]
    truth: HmmParams
    I: int
    T: int
    replicates: int = 50
    overlap_shift: float | None = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        _check_labels((self.label,), ",", "label")  # a field of the comma-separated tables
        self.truth.validate()

    @property
    def K(self) -> int:
        return self.truth.K


@dataclass(frozen=True)
class RecoveryReport:
    """Entrywise squared errors averaged over entries, states and replicates."""

    scenario: str
    mse: dict
    alignments: tuple
    seconds: tuple

    @property
    def replicates(self) -> int:
        return len(self.seconds)


@dataclass(frozen=True)
class TimingRow:
    scenario: str
    mode: str
    workers: int
    seconds: float


def _replicate_key(scenario: Scenario, replicate: int) -> tuple[int, int]:
    """The spawn key of one replicate's panel; its fit seed appends a 1."""
    return zlib.crc32(scenario.label.encode("utf-8")), int(replicate)


def generate(scenario: Scenario, replicate: int, seed: int = DEFAULT_SEED
             ) -> tuple[MatrixPanel, np.ndarray]:
    """Simulate one panel and its hidden state path (1-based labels).

    Deterministic in (seed, scenario label, replicate): each unit starts
    from the initial law, walks the transition matrix, and emits one
    matrix-normal draw per time point from its current state.
    """
    key = _replicate_key(scenario, replicate)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    truth = scenario.truth
    K, P, R = truth.K, truth.P, truth.R
    I, T = scenario.I, scenario.T

    cum_pi = np.cumsum(truth.pi)
    cum_Pi = np.cumsum(truth.Pi, axis=1)
    states = np.empty((I, T), dtype=int)
    states[:, 0] = np.searchsorted(cum_pi, rng.random(I), side="right")
    for t in range(1, T):
        u = rng.random(I)
        rows = cum_Pi[states[:, t - 1]]
        states[:, t] = (u[:, None] >= rows).sum(axis=1)
    states = np.minimum(states, K - 1)

    Z = rng.standard_normal((I, T, P, R))
    X = np.empty((I, T, P, R))
    A = _cholesky(truth.sigmas, "row covariance")
    B = _cholesky(truth.psis, "column covariance")
    for k in range(K):
        mask = states == k
        if not np.any(mask):
            continue
        X[mask] = truth.means[k] + np.einsum("pq,nqr,sr->nps", A[k], Z[mask], B[k])

    panel = MatrixPanel(np.transpose(X, (2, 3, 0, 1)))
    return panel, states + 1


def _k2_chain() -> tuple[np.ndarray, np.ndarray]:
    return np.array([0.5, 0.5]), np.array([[0.60, 0.40], [0.20, 0.80]])


def _k4_chain() -> tuple[np.ndarray, np.ndarray]:
    Pi = np.array([
        [0.55, 0.00, 0.21, 0.24],
        [0.03, 0.52, 0.18, 0.27],
        [0.06, 0.15, 0.49, 0.30],
        [0.09, 0.12, 0.33, 0.46],
    ])
    return np.full(4, 0.25), Pi


_BASE_MEAN = np.array([[1.00, 1.50], [0.50, 1.00]])
_EXTRA_SHIFTS = {2: [], 4: [4.0, -2.0]}  # mean shifts of states 3 and 4

_VVE_SIGMAS = [
    np.array([[0.85, 0.29], [0.29, 0.85]]),
    np.array([[0.50, 0.30], [0.30, 0.50]]),
    np.array([[1.45, 1.05], [1.05, 1.45]]),
    np.array([[1.33, 0.29], [0.29, 1.33]]),
]
_VE_PSIS = [
    np.array([[1.06, 0.36], [0.36, 1.06]]),
    np.array([[1.25, 0.75], [0.75, 1.25]]),
    np.array([[1.45, 1.00], [1.00, 1.45]]),
    np.array([[1.03, 0.23], [0.23, 1.03]]),
]


def _builtin_truth(name: str, K: int, c: float) -> HmmParams:
    pi, Pi = _k2_chain() if K == 2 else _k4_chain()
    shifts = [0.0, c] + _EXTRA_SHIFTS[K]
    means = np.stack([_BASE_MEAN + s for s in shifts[:K]])
    if name == "EII-II":
        sigmas = np.tile(1.5 * np.eye(2), (K, 1, 1))
        psis = np.tile(np.eye(2), (K, 1, 1))
    else:
        sigmas = np.stack(_VVE_SIGMAS[:K])
        psis = np.stack(_VE_PSIS[:K])
    return HmmParams(pi, Pi, means, sigmas, psis)


def builtin_scenarios(replicates: int = 50) -> list[Scenario]:
    """The 24 built-in scenarios (12 per generating model)."""
    scenarios = []
    for name in ("EII-II", "VVE-VE"):
        pair = tuple(name.split("-"))
        for K in (2, 4):
            for T in (5, 10, 15):
                for overlap, c in ((1, 2.0), (2, 5.0)):
                    label = f"{name}/K{K}/T{T}/overlap{overlap}"
                    scenarios.append(Scenario(
                        label=label, structure=pair,
                        truth=_builtin_truth(name, K, c),
                        I=100, T=T, replicates=replicates, overlap_shift=c))
    return scenarios


def get_scenario(label: str, replicates: int | None = None) -> Scenario:
    """Look a built-in scenario up by label."""
    for scenario in builtin_scenarios():
        if scenario.label == label:
            return scenario if replicates is None else replace(scenario, replicates=replicates)
    names = "\n  ".join(s.label for s in builtin_scenarios())
    raise ValueError(f"unknown scenario {label!r}; built-in scenarios are:\n  {names}")


def align_states(estimated: HmmParams, truth: HmmParams) -> np.ndarray:
    """Permutation matching estimated states to true ones by mean matrices.

    Returns ``perm`` with ``perm[k]`` the estimated state (0-based) paired
    with true state k, minimizing the summed squared Frobenius distance
    between the paired mean matrices (exact assignment search).
    """
    # imported here: scipy.optimize would take most of `import matrixhmm`
    from scipy.optimize import linear_sum_assignment

    if estimated.K != truth.K:
        raise ValueError(f"state counts differ: {estimated.K} vs {truth.K}")
    diff = truth.means[:, None] - estimated.means[None, :]
    cost = np.einsum("tepr,tepr->te", diff, diff)
    _, perm = linear_sum_assignment(cost)
    return perm


def recovery_mse(fits, scenario: Scenario) -> RecoveryReport:
    """Score fitted replicates against the generating parameters.

    For each fit, states are aligned by their mean matrices; each
    parameter block's squared errors are then averaged over entries and
    states, and finally over replicates.
    """
    truth = scenario.truth
    sums = {name: 0.0 for name in PARAMETER_BLOCKS}
    alignments = []
    seconds = []
    fits = list(fits)
    if not fits:
        raise ValueError("no fits to score")
    for fit_report in fits:
        est = fit_report.params
        if est.K != truth.K:
            raise ValueError(
                f"fit has K={est.K}, scenario expects K={truth.K}")
        perm = align_states(est, truth)
        alignments.append(tuple(int(p) for p in perm))
        seconds.append(fit_report.wall_time)
        sums["M"] += float(np.mean((est.means[perm] - truth.means) ** 2))
        sums["Sigma"] += float(np.mean((est.sigmas[perm] - truth.sigmas) ** 2))
        sums["Psi"] += float(np.mean((est.psis[perm] - truth.psis) ** 2))
        sums["pi"] += float(np.mean((est.pi[perm] - truth.pi) ** 2))
        sums["Pi"] += float(np.mean((est.Pi[np.ix_(perm, perm)] - truth.Pi) ** 2))
    mse = {name: value / len(fits) for name, value in sums.items()}
    return RecoveryReport(scenario.label, mse, tuple(alignments), tuple(seconds))


def run_scenario(scenario: Scenario, config: FitConfig | None = None,
                 seed: int = DEFAULT_SEED, workers: int = 1) -> RecoveryReport:
    """Generate, fit and score every replicate of one scenario.

    Each replicate's fit seed comes from ``seed``, so ``config.seed`` is not
    read.  A config with an ``iter_hook`` needs ``workers=1``.
    """
    config = config or FitConfig()
    tasks = [(scenario, rep, seed, config) for rep in range(scenario.replicates)]
    return recovery_mse(selection._map(_fit_replicate, tasks, workers, config), scenario)


def _fit_replicate(args) -> FitReport:
    scenario, rep, seed, config = args
    panel, _ = generate(scenario, rep, seed)
    rep_config = replace(config, seed=_derived_seed(seed, (*_replicate_key(scenario, rep), 1)))
    return fit(panel, scenario.structure, scenario.K, rep_config)


def timing_run(scenarios, modes=("sequential", "parallel"), workers: int = 2,
               seed: int = DEFAULT_SEED, config: FitConfig | None = None
               ) -> list[TimingRow]:
    """Wall-clock seconds for fitting all 98 structures at each scenario's K.

    One panel is generated per scenario (replicate 0); the clock runs
    around the grid call only.  ``sequential`` uses one in-process worker,
    ``parallel`` a pool of ``workers``; a single worker runs in-process too.
    Every mode and its worker count are checked before anything runs, so a
    config with an ``iter_hook`` needs ``workers=1`` for ``parallel``.
    """
    config = config or FitConfig()
    rows = []
    mode_workers = {"sequential": 1, "parallel": workers}
    for mode in modes:
        if mode not in mode_workers:
            raise ValueError(f"unknown timing mode {mode!r}")
        selection._check_workers(mode_workers[mode], config)
    for scenario in scenarios:
        panel, _ = generate(scenario, 0, seed)
        grid = selection.ModelGrid(Ks=(scenario.K,), config=config)
        for mode in modes:
            start = time.perf_counter()
            selection.run_grid(panel, grid, workers=mode_workers[mode])
            rows.append(TimingRow(scenario.label, mode, mode_workers[mode],
                                  time.perf_counter() - start))
    return rows

"""Model selection: a grid search over structures and state counts by BIC.

A grid fits every requested (structure pair, K) combination and ranks the
successful cells by BIC (smaller is better).  Cells are independent tasks
with seeds derived from the master seed and the cell identity, so a grid
returns the same report for any worker count or scheduling order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import ecm
from .ecm import bic, n_free_params
from .errors import FitError, GridError
from .panel import MatrixPanel
from .structures import (PSI_STRUCTURES, SIGMA_STRUCTURES, all_structure_pairs,
                         parse_structure, structure_name)


@dataclass(frozen=True)
class ModelGrid:
    """Structure pairs and state counts to sweep, with the per-fit config."""

    structures: tuple = field(default_factory=lambda: tuple(all_structure_pairs()))
    Ks: tuple = (1, 2, 3)
    config: "ecm.FitConfig" = field(default_factory=lambda: ecm.FitConfig())

    def __post_init__(self):
        pairs = tuple(parse_structure(s) for s in self.structures)
        Ks = tuple(int(k) for k in self.Ks)
        if not pairs or not Ks:
            raise ValueError("grid must contain at least one structure and one K")
        if any(b <= a for a, b in zip(Ks, Ks[1:])) or Ks[0] < 1:
            raise ValueError("Ks must be strictly increasing and >= 1")
        for i, pair in enumerate(pairs):
            if pair in pairs[:i]:
                raise ValueError(f"structure {structure_name(pair)} is repeated")
        object.__setattr__(self, "structures", pairs)
        object.__setattr__(self, "Ks", Ks)

    def cells(self) -> list[tuple[tuple[str, str], int]]:
        return [(pair, K) for pair in self.structures for K in self.Ks]


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (structure, K) cell."""

    structure: tuple[str, str]
    K: int
    status: str                      # "ok" or "failed"
    log_lik: float
    n_params: int
    bic: float
    seconds: float
    message: str = ""
    report: ecm.FitReport | None = None


@dataclass(frozen=True)
class SelectionReport:
    """All cell results, the BIC winner and any grid-level warnings."""

    cells: tuple
    best: tuple | None               # ((sigma, psi), K) of the BIC argmin
    failures: tuple = ()
    warnings: tuple = ()

    def best_report(self) -> ecm.FitReport:
        for cell in self.cells:
            if cell.status == "ok" and (cell.structure, cell.K) == self.best:
                return cell.report
        raise LookupError("no successful cell matches the winner")


def cell_seed(master_seed: int, pair: tuple[str, str], K: int) -> int:
    """Deterministic per-cell seed independent of scheduling order."""
    key = (SIGMA_STRUCTURES.index(pair[0]), PSI_STRUCTURES.index(pair[1]), K)
    return ecm._derived_seed(master_seed, key)


def _fit_cell(args) -> CellResult:
    panel, pair, K, config = args
    start = time.perf_counter()
    try:
        report = ecm.fit(panel, pair, K, config)
    except FitError as exc:  # a failed fit never takes the grid down; a bug does
        return CellResult(pair, K, "failed", np.nan, n_free_params(pair, K, panel.P, panel.R),
                          np.nan, time.perf_counter() - start, message=str(exc))
    return CellResult(pair, K, "ok", report.log_lik, report.n_params, report.bic,
                      time.perf_counter() - start, report=report)


def _check_workers(workers: int, config: "ecm.FitConfig") -> None:
    """Reject fewer than one worker, and a pool for fits with an ``iter_hook``."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > 1 and config.iter_hook is not None:
        raise ValueError("iter_hook cannot cross process boundaries; use workers=1")


def _map(fn, tasks, workers: int, config: "ecm.FitConfig") -> list:
    """``fn`` applied to every task, results in task order: in-process for
    one worker, otherwise on a pool of ``workers`` processes."""
    _check_workers(workers, config)
    if workers == 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def bic_winner(cells, n_obs: int):
    """Cell minimizing BIC recomputed at the given sample size (ties: first)."""
    ok = [c for c in cells if c.status == "ok"]
    if not ok:
        return None
    return min(ok, key=lambda c: bic(c.log_lik, c.n_params, n_obs))


def run_grid(panel: MatrixPanel, grid: ModelGrid, workers: int = 1) -> SelectionReport:
    """Fit every grid cell, in-process or on a process pool.

    Results are merged in grid order, so the report does not depend on the
    worker count (wall-clock ``seconds`` aside).  A grid whose config has
    an ``iter_hook`` needs ``workers=1``.
    """
    tasks = []
    for pair, K in grid.cells():
        config = replace(grid.config, seed=cell_seed(grid.config.seed, pair, K))
        tasks.append((panel, pair, K, config))
    cells = _map(_fit_cell, tasks, workers, grid.config)

    ok = [c for c in cells if c.status == "ok"]
    failures = tuple(f"{structure_name(c.structure)} K={c.K}: {c.message}"
                     for c in cells if c.status == "failed")
    if not ok:
        raise GridError("every grid cell failed:\n" + "\n".join(failures))

    best_cell = bic_winner(cells, panel.I * panel.T)
    warnings = []
    alt = bic_winner(cells, panel.I)
    if (alt.structure, alt.K) != (best_cell.structure, best_cell.K):
        warnings.append(
            "winner differs under the alternate sample-size convention "
            f"(n = I): {structure_name(alt.structure)} K={alt.K}")
    warnings.extend(
        f"{structure_name(c.structure)} K={c.K} did not converge within "
        f"max_iter={grid.config.max_iter} iterations"
        for c in ok if not c.report.converged)
    return SelectionReport(tuple(cells), (best_cell.structure, best_cell.K),
                           failures, tuple(warnings))

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
    """The cells of a grid, in grid order; the BIC winner, the failures and
    the grid-level warnings are derived from them."""

    cells: tuple

    def _best_cell(self) -> CellResult | None:
        """The first ok cell with the smallest BIC (at n = I * T)."""
        return min((c for c in self.cells if c.status == "ok"), key=lambda c: c.bic,
                   default=None)

    @property
    def best(self) -> tuple | None:
        """``((sigma, psi), K)`` of the BIC winner, or None when no cell is ok."""
        cell = self._best_cell()
        return None if cell is None else (cell.structure, cell.K)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(f"{structure_name(c.structure)} K={c.K}: {c.message}"
                     for c in self.cells if c.status == "failed")

    @property
    def warnings(self) -> tuple[str, ...]:
        """A warning when the winner differs at n = I, then one per ok cell
        that did not converge (it stopped at ``max_iter`` iterations)."""
        best = self._best_cell()
        alt = best and bic_winner(self.cells, best.report.panel_dims[2])
        lines = [] if alt is best else [
            "winner differs under the alternate sample-size convention "
            f"(n = I): {structure_name(alt.structure)} K={alt.K}"]
        return (*lines, *(f"{structure_name(c.structure)} K={c.K} did not converge within "
                          f"max_iter={c.report.iterations} iterations"
                          for c in self.cells if c.status == "ok" and not c.report.converged))

    def best_report(self) -> ecm.FitReport:
        cell = self._best_cell()
        if cell is None:
            raise LookupError("no cell of the grid is ok")
        return cell.report


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
    return min((c for c in cells if c.status == "ok"),
               key=lambda c: bic(c.log_lik, c.n_params, n_obs), default=None)


def run_grid(panel: MatrixPanel, grid: ModelGrid, workers: int = 1) -> SelectionReport:
    """Fit every grid cell, in-process or on a process pool.

    The report holds the cells in grid order, so it does not depend on the
    worker count (wall-clock ``seconds`` aside); :class:`GridError` when no
    cell is ok.  A grid whose config has an ``iter_hook`` needs ``workers=1``.
    """
    tasks = []
    for pair, K in grid.cells():
        config = replace(grid.config, seed=cell_seed(grid.config.seed, pair, K))
        tasks.append((panel, pair, K, config))
    report = SelectionReport(tuple(_map(_fit_cell, tasks, workers, grid.config)))
    if report.best is None:
        raise GridError("every grid cell failed:\n" + "\n".join(report.failures))
    return report

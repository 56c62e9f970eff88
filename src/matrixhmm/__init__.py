"""Parsimonious hidden Markov models for matrix-variate longitudinal data.

Observations are P x R matrices collected per unit per time in a 4-way
panel.  Each hidden state carries a matrix-normal law whose row and
column covariances are constrained through their volume / shape /
orientation split, giving a family of 98 models fitted by an ECM
algorithm with scaled forward-backward recursions and selected by BIC.
"""

from .ecm import (DEFAULT_SEED, FitConfig, FitReport, HmmParams, Posteriors,
                  bic, decode, e_step, expected_complete_loglik, fit,
                  n_free_params, random_init)
from .errors import (DecompositionError, FitError, FitFailureError, GridError,
                     NumericalError, StateCollapseError)
from .matnorm import MatNormParams, log_density, log_density_stack, sample
from .panel import MatrixPanel, load_panel, logit_transform, save_panel
from .selection import ModelGrid, SelectionReport, run_grid
from .simulate import (RecoveryReport, Scenario, align_states,
                       builtin_scenarios, generate, get_scenario,
                       recovery_mse, run_scenario, timing_run)
from .structures import (PSI_STRUCTURES, SIGMA_STRUCTURES, Scatter,
                         SpectralParts, all_structure_pairs,
                         count_psi_params, count_sigma_params, mm_orientation,
                         orientation_objective, parse_structure,
                         structure_name, update_psi, update_sigma)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED", "DecompositionError", "FitConfig", "FitError",
    "FitFailureError", "FitReport", "GridError", "HmmParams", "MatNormParams",
    "MatrixPanel", "ModelGrid", "NumericalError", "Posteriors",
    "PSI_STRUCTURES", "RecoveryReport", "Scatter", "Scenario",
    "SelectionReport", "SIGMA_STRUCTURES", "SpectralParts",
    "StateCollapseError", "align_states", "all_structure_pairs", "bic",
    "builtin_scenarios", "count_psi_params", "count_sigma_params", "decode",
    "e_step", "expected_complete_loglik", "fit", "generate", "get_scenario",
    "load_panel", "log_density", "log_density_stack", "logit_transform",
    "mm_orientation", "n_free_params", "orientation_objective",
    "parse_structure", "random_init", "recovery_mse", "run_grid",
    "run_scenario", "sample", "save_panel", "structure_name", "timing_run",
    "update_psi", "update_sigma",
]

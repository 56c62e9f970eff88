"""Command-line front end: fit, select, simulate, decode, bench.

Every command is a thin shell over the library and writes delimited-text
artifacts under ``--out-dir``.  Randomized commands take ``--seed`` and
default to a fixed constant, never wall-clock time, so runs are
reproducible by default.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import reports, selection, simulate
from .ecm import DEFAULT_SEED, FitConfig, fit
from .errors import FitError, GridError
from .panel import load_panel, logit_transform
from .structures import all_structure_pairs, parse_structure, structure_name


def _add_fit_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"master random seed (default {DEFAULT_SEED})")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="relative log-likelihood convergence tolerance")
    parser.add_argument("--max-iter", type=int, default=500,
                        help="maximum ECM iterations after initialization")
    parser.add_argument("--short-runs", type=int, default=100,
                        help="number of random short starts (default 100)")
    parser.add_argument("--short-iters", type=int, default=1,
                        help="ECM iterations per short start (default 1)")


def _fit_config(args) -> FitConfig:
    return FitConfig(max_iter=args.max_iter, tol=args.tol,
                     short_runs=args.short_runs, short_iters=args.short_iters,
                     seed=args.seed)


def _load_data(args):
    panel = load_panel(args.data, delimiter=args.delimiter)
    if getattr(args, "logit", False):
        panel = logit_transform(panel)
    return panel


def _parse_ks(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if "-" in raw and "," not in raw:
        lo, _, hi = raw.partition("-")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(sorted({int(x) for x in raw.split(",")}))


def _parse_structures(raw: str):
    if raw.strip().lower() == "all":
        return tuple(all_structure_pairs())
    return tuple(parse_structure(name) for name in raw.split(","))


def _print_matrix(mat, indent: str = "  ") -> None:
    for row in np.atleast_2d(mat):
        print(indent + " ".join(f"{x: .4f}" for x in row))


def cmd_fit(args) -> int:
    panel = _load_data(args)
    pair = parse_structure(args.structure)
    report = fit(panel, pair, args.K, _fit_config(args))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"fit_{structure_name(pair)}_K{args.K}.txt"
    reports.save_fit_report(report, out_path)

    print(f"fitted {structure_name(pair)} with K={report.K} "
          f"({report.iterations} iterations, converged={report.converged})")
    print(f"log_lik: {report.log_lik:.6f}")
    print(f"bic:     {report.bic:.6f}  (n_params={report.n_params})")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print("pi:")
    _print_matrix(report.params.pi)
    print("Pi:")
    _print_matrix(report.params.Pi)
    for k in range(report.K):
        print(f"state {k + 1} mean:")
        _print_matrix(report.params.means[k])
    print(f"report written to {out_path}")
    return 0


def cmd_select(args) -> int:
    panel = _load_data(args)
    config = _fit_config(args)
    grid = selection.ModelGrid(structures=_parse_structures(args.structures),
                               Ks=_parse_ks(args.Ks), config=config)
    report = selection.run_grid(panel, grid, workers=args.workers)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "selection.csv"
    reports.save_selection_table(report, out_path)

    pair, K = report.best
    print(f"best model by BIC: {structure_name(pair)} with K={K}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    for failure in report.failures:
        print(f"failed cell: {failure}")
    print(f"selection table written to {out_path}")
    best = report.best_report()
    best_path = out_dir / "best_fit.txt"
    reports.save_fit_report(best, best_path)
    print(f"winning fit written to {best_path}")
    return 0


def cmd_simulate(args) -> int:
    if Path(args.scenario).is_file():
        scenario = reports.load_scenario(args.scenario)
        if args.replicates is not None:
            from dataclasses import replace
            scenario = replace(scenario, replicates=args.replicates)
    else:
        scenario = simulate.get_scenario(args.scenario, replicates=args.replicates)
    config = _fit_config(args)
    recovery = simulate.run_scenario(scenario, config, seed=args.seed,
                                     workers=args.workers)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    recovery_path = out_dir / "recovery.csv"
    reports.save_recovery_table([recovery], recovery_path)
    timing_path = out_dir / "fit_timing.csv"
    with open(timing_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(reports.fit_timing_table_lines(recovery)) + "\n")

    print(f"scenario {scenario.label}: {recovery.replicates} replicates")
    for name, value in recovery.mse.items():
        print(f"  mse({name}) = {value:.6g}")
    print(f"recovery table written to {recovery_path}")
    print(f"per-fit timing written to {timing_path}")
    return 0


def cmd_decode(args) -> int:
    report = reports.load_fit_report(args.report)
    state_lines, switch_lines = reports.decode_tables(report)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    states_path = out_dir / "states.csv"
    switches_path = out_dir / "switches.csv"
    states_path.write_text("\n".join(state_lines) + "\n", encoding="utf-8")
    switches_path.write_text("\n".join(switch_lines) + "\n", encoding="utf-8")
    print(f"state table written to {states_path}")
    print(f"switch counts written to {switches_path}")
    return 0


def cmd_bench(args) -> int:
    labels = [s.strip() for s in args.scenarios.split(",")]
    scenarios = [simulate.get_scenario(label) for label in labels]
    modes = tuple(m.strip() for m in args.modes.split(","))
    config = _fit_config(args)
    rows = simulate.timing_run(scenarios, modes=modes, workers=args.workers,
                               seed=args.seed, config=config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "timing.csv"
    reports.save_timing_table(rows, out_path)
    for row in rows:
        print(f"{row.scenario} [{row.mode}, workers={row.workers}]: "
              f"{row.seconds:.2f} s")
    print(f"timing table written to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matrixhmm",
        description="Parsimonious hidden Markov models for 4-way matrix panels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one structure pair at one K")
    p_fit.add_argument("--data", required=True, help="long-format panel file")
    p_fit.add_argument("--structure", required=True,
                       help='structure pair name, e.g. "VEV-EE"')
    p_fit.add_argument("--K", type=int, required=True, help="number of hidden states")
    p_fit.add_argument("--logit", action="store_true",
                       help="apply the logit transform before fitting")
    p_fit.add_argument("--delimiter", default=",", help="data file delimiter")
    p_fit.add_argument("--out-dir", default=".", help="output directory")
    _add_fit_options(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sel = sub.add_parser("select", help="grid search over structures and K by BIC")
    p_sel.add_argument("--data", required=True)
    p_sel.add_argument("--Ks", required=True,
                       help='state counts, e.g. "1-10" or "1,2,3"')
    p_sel.add_argument("--structures", default="all",
                       help='comma-separated pair names or "all" (98 models)')
    p_sel.add_argument("--workers", type=int, default=1, help="parallel workers")
    p_sel.add_argument("--logit", action="store_true")
    p_sel.add_argument("--delimiter", default=",")
    p_sel.add_argument("--out-dir", default=".")
    _add_fit_options(p_sel)
    p_sel.set_defaults(func=cmd_select)

    p_sim = sub.add_parser("simulate", help="parameter-recovery study on a scenario")
    p_sim.add_argument("--scenario", required=True,
                       help="built-in scenario label or scenario file path")
    p_sim.add_argument("--replicates", type=int, default=None,
                       help="override the scenario's replicate count")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out-dir", default=".")
    _add_fit_options(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_dec = sub.add_parser("decode", help="export state labels from a fit report")
    p_dec.add_argument("--report", required=True, help="fit report file")
    p_dec.add_argument("--out-dir", default=".")
    p_dec.set_defaults(func=cmd_decode)

    p_bench = sub.add_parser("bench", help="time full-family fits per scenario")
    p_bench.add_argument("--scenarios", required=True,
                         help="comma-separated built-in scenario labels")
    p_bench.add_argument("--modes", default="sequential,parallel")
    p_bench.add_argument("--workers", type=int, default=2)
    p_bench.add_argument("--out-dir", default=".")
    _add_fit_options(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload of the matrixhmm benchmark and print its result.

    python3 benchmarks/run.py --workload {recovery,select,fit-wide} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. With ``--trace 0`` whole rounds of the
workload are timed until ``--seconds`` have passed and the end-to-end
metrics are reported; with ``--trace 1`` one untraced reference round and
one traced round are made, their outputs compared, and the per-layer
metrics reported. Every round's outputs are checked against independent
computations. The last line of standard output is the JSON result; the
metric names and units are read from ``BENCHMARK.json`` at the root.
``--tiny`` shrinks every workload for the benchmark's own tests.
"""

import os
import sys
import time


def _boot_seconds_at_start() -> float:
    """Boot-clock time at which this process started (Linux /proc)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return int(fields[19]) / os.sysconf("SC_CLK_TCK")


PROCESS_START = _boot_seconds_at_start()
# one BLAS thread per process: select runs two pool workers, so processes
# x threads stays within two cores; must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "matrixhmm"

try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim     # glibc only
except (AttributeError, OSError):
    _MALLOC_TRIM = None
# set-up is also timed in this many fresh processes; setup_s is the median
# of their samples and this process's own
SETUP_PROBES = 4


def _metric_units(spec: dict, kind: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[kind]}


def _parse(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak among its waited-for
    children (the select pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _result(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}})


def _report_problems(problems) -> bool:
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return not problems


def _release_memory() -> None:
    """Free a finished round's objects and give the freed heap back to the
    system. Each round then starts from the same heap, as a user's single
    run does; otherwise fragmentation grows over rounds, the pool workers
    of later rounds fork from a larger parent, and peak_rss_mb moves in
    steps of several MB from run to run."""
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _probe_setup_s(input_path) -> list[float]:
    """Cold set-ups in fresh processes, each timed from just before its
    start; see ``setup_probe.py``."""
    samples = []
    for _ in range(SETUP_PROBES):
        args = [sys.executable, str(HERE / "setup_probe.py"),
                repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
        if input_path is not None:
            args.append(str(input_path))
        proc = subprocess.run(args, capture_output=True, text=True, check=True,
                              timeout=60)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _timed(wl, seconds):
    rounds, problems, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rnd = wl.run_round(len(rounds))
        found, n = wl.check(rnd)
        problems += found
        failed += n
        rnd.data = rnd.outputs = None
        _release_memory()
        rounds.append(rnd)
    fit_seconds = [s for rnd in rounds for s in rnd.fit_seconds]
    metrics = {
        "wall_s": statistics.median(r.wall for r in rounds),
        "fit_s_p50": statistics.median(fit_seconds),
        "peak_rss_mb": _peak_rss_mb(),
    }
    print(f"{len(rounds)} rounds; wall_s is their median; fit_s_p50 is the "
          f"median of {len(fit_seconds)} fits")
    return rounds, metrics, problems, failed


def _traced(wl):
    from tracing import Tracer
    import checks

    ref, pool_metrics = wl.reference_round()
    problems, failed = wl.check(ref)
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.run_round(0, traced=True)
    finally:
        tracer.uninstall()
    found, n = wl.check(traced)
    problems += found
    failed += n
    problems += checks.outputs_identical(ref.outputs, traced.outputs,
                                        "untraced and traced outputs")
    metrics = tracer.metrics()
    metrics.update(pool_metrics)
    metrics.update(wl.probes(traced))
    metrics["reports.write_s"] = traced.write_s
    eff = metrics["selection.parallel_efficiency"]
    print(f"parallel efficiency {eff:.3f} = {sum(ref.fit_seconds):.3f} s of fits / "
          f"({wl.workers} workers x {ref.wall:.3f} s wall)")
    print(f"untraced round {ref.wall:.3f} s ({wl.workers} worker(s)), "
          f"traced round {traced.wall:.3f} s (in-process)")
    return [ref, traced], metrics, problems, failed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse(argv, spec)
    if not (ROOT / "src" / "matrixhmm" / "__init__.py").is_file():
        print(f"error: no matrixhmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import matrixhmm  # noqa: F401
    imported = time.clock_gettime(time.CLOCK_BOOTTIME)

    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, WORKDIR, args.tiny)
    wl.make_input()
    load_s = wl.load()
    setup_s = imported - PROCESS_START + load_s

    if args.trace:
        rounds, metrics, problems, failed = _traced(wl)
        metrics["panel.load_s"] = load_s
        units = _metric_units(spec, "per_layer")
    else:
        rounds, metrics, problems, failed = _timed(wl, args.seconds)
        # after peak_rss_mb is read, so the probes do not count in it
        samples = [setup_s] + _probe_setup_s(wl.input_path if wl.reads_input else None)
        metrics["setup_s"] = statistics.median(samples)
        print("setup_s is the median of " + ", ".join(f"{x:.4f}" for x in samples)
              + " s: this process, then fresh processes")
        units = _metric_units(spec, "end_to_end")

    attempted = sum(r.attempted for r in rounds)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"attempted {attempted}, failed {failed}")
    correct = _report_problems(problems)
    print(_result(correct, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

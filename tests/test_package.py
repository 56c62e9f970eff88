import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "matrixhmm"


def relative_imports(path):
    """The package modules that ``path`` names in a relative import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:  # from .ecm import fit
                names.add(node.module.split(".")[0])
            else:  # from . import ecm
                names.update(alias.name for alias in node.names)
    return names


def test_the_package_import_graph_has_no_cycle():
    graph = {path.stem: relative_imports(path) for path in PACKAGE.glob("*.py")}
    assert {"ecm", "selection", "reports"} <= set(graph)
    done, open_path = set(), []

    def visit(module):
        if module in open_path:
            cycle = open_path[open_path.index(module):] + [module]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        open_path.append(module)
        for name in sorted(graph.get(module, ())):
            visit(name)
        open_path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_each_worker_pool_has_one_home():
    # the process rule lives in selection, the thread rule in ecm
    homes = {"ProcessPoolExecutor": "selection", "ThreadPoolExecutor": "ecm"}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            for name in names:
                assert homes.get(name, path.stem) == path.stem, \
                    f"{path.name}:{node.lineno} names {name}"


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_bench_records_are_well_formed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    keys = {"label", "change", "parent_commit", "command", "protocol", "host",
            "claim", "runs", "summary"}
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert keys <= set(record), f"{path.name} lacks {sorted(keys - set(record))}"
        assert record["runs"], path.name
        for n, run in enumerate(record["runs"]):
            where = f"{path.name} run {n}"
            assert run["side"] in ("parent", "change"), where
            assert run["workload"] in workloads, where
            assert run["exit_code"] == 0, where
            assert run["result"]["correct"] is True, where
            if run["trace"] == 0:
                missing = end_to_end - set(run["result"]["metrics"])
                assert not missing, f"{where} lacks {sorted(missing)}"

"""The benchmark reaches into zsindex by name; each name it uses must exist.

perfbench/tracer.py imports only the standard library, so it loads here by
path.  perfbench/worker.py imports modules that are not on the test path,
so it is read as source: every attribute it takes from a zsindex module it
imports is looked up in the package.  A name deleted or renamed in the
package fails these tests instead of crashing a benchmark run.

The worker also restates the pipeline's search-stage plan for its traced
replay.  One test puts perfbench/ on the path to run that replay against
find_certificate, so a stage-table change the benchmark does not mirror
fails here instead of skewing its per-stage metrics.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from zsindex import NormalForm, find_certificate, make_sequence, normal_form_sequence

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKER = PERFBENCH / "worker.py"


def test_every_traced_function_exists_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [
        f"zsindex.{module}.{function}"
        for module, function, _ in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"zsindex.{module}"), function, None))
    ]
    assert missing == []


def test_the_tracer_sees_subgroup_reduction_inside_find_certificate():
    """certify binds try_subgroup_reduce and lift_witness at import, so the
    benchmark's subgroup spans need Tracer.install to patch that binding."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    with tr:
        cert = find_certificate(make_sequence(50, [2, 22, 36, 40]))
    assert cert.derivation == "lifted"
    assert tr.calls["subgroup.try_subgroup_reduce"] == 1
    assert tr.calls["subgroup.lift_witness"] == 1


def test_every_name_the_worker_reads_exists_in_the_package():
    tree = ast.parse(WORKER.read_text())
    modules = {}  # local name -> zsindex module object
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "zsindex":
                    modules[alias.asname or alias.name] = importlib.import_module("zsindex")
        elif isinstance(node, ast.ImportFrom) and node.module == "zsindex":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"zsindex.{alias.name}"
                )
    assert "zsindex" in modules and "harness" in modules
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("certify", "CertificateMiss") in read and ("harness", "verify_modulus") in read
    missing = sorted(
        f"{local}.{attr}" for local, attr in read if not hasattr(modules[local], attr)
    )
    assert missing == []


@pytest.fixture
def perfbench_modules(monkeypatch):
    """perfbench/ on sys.path for one test; its modules leave sys.modules after it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("worker"), importlib.import_module("tracer")
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def test_the_benchmark_replays_the_pipeline_stage_plan(perfbench_modules):
    """worker.replay_stages restates the search stages' plan by hand; over
    every normal form with n <= 100 it attempts and hits each stage exactly
    as often as find_certificate does."""
    worker, tracer = perfbench_modules
    forms = [
        NormalForm(n, a, b, a + b - 1)
        for n in range(3, 101)
        for a in range(2, n)
        for b in range(a, n)
        if 2 * (a + b - 1) < n
    ]
    lines = []
    for nf in forms:
        trace = []
        find_certificate(normal_form_sequence(nf), trace=trace)
        lines += trace
    hooks, _ = worker._layer_hooks([], {})
    tr = tracer.Tracer(hooks)
    with tr:
        worker.replay_stages(tr, forms)
    for stage in worker.STAGES:
        attempts = [line for line in lines if line.startswith(f"{stage}: ")]
        assert attempts, stage
        assert tr.calls[f"replay.{stage}"] == len(attempts), stage
        hits = sum(line.startswith(f"{stage}: hit") for line in attempts)
        assert tr.counts[f"certify.{stage}.hits"] == hits, stage

"""The benchmark reaches into zsindex by name; each name it uses must exist.

perfbench/tracer.py imports only the standard library, so it loads here by
path.  perfbench/worker.py imports modules that are not on the test path,
so it is read as source: every attribute it takes from a zsindex module it
imports is looked up in the package.  A name deleted or renamed in the
package fails these tests instead of crashing a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

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

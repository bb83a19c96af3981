"""The benchmark's tracer wraps zsindex functions by name; each must exist.

perfbench/tracer.py imports only the standard library, so it loads here by
path.  A function deleted or renamed in the package fails this test
instead of crashing a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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

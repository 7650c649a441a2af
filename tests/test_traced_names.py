"""Every function the benchmark's span tracer wraps exists in mmseqseg.

perfbench/tracer.py looks each (module, function) of its SPANS up with
getattr when the benchmark runs; this reads that table (the tracer module
is loaded, not edited) so a refactor that deletes or renames a traced
function fails here in milliseconds.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    spans = load_tracer().SPANS
    assert spans
    missing = [f"{module}.{function}" for module, function, *_ in spans
               if not callable(getattr(
                   importlib.import_module(f"mmseqseg.{module}"), function,
                   None))]
    assert not missing, f"traced but not in mmseqseg: {missing}"

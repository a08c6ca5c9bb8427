"""The traced benchmark wraps library functions by module and name
(``bench/spans.py``).  A name missing from the library stops a traced
run with ``AttributeError`` when the wrappers go in, so every name it
lists must resolve."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    functions = load_spans().FUNCTIONS
    assert functions
    missing = [
        f"probeopt.{layer}.{attr}"
        for layer, attr, *_ in functions
        if not callable(getattr(importlib.import_module(f"probeopt.{layer}"), attr, None))
    ]
    assert not missing, f"traced names missing from the library: {missing}"


def test_patched_members_exist():
    # besides FUNCTIONS, the tracer replaces these two members in place
    simulator = importlib.import_module("probeopt.simulator")
    oracle = importlib.import_module("probeopt.oracle")
    assert callable(simulator.MarkovArrivals.__dict__["draw"])
    assert callable(oracle.OracleResult.__dict__["tree"].func)

"""Every name the benchmark's tracer wraps must exist in the package.

`perfbench/tracer.py` rebinds entry points on the modules that call them,
including imports a module does not otherwise use (such as
`dichordal.verify.find_any_fig1`).  Removing one of those names breaks
`perfbench/run.py --trace 1`, so each binding is resolved here.  The
tracer is only loaded, never installed.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, attr, span", tracer.BINDINGS)
def test_binding_resolves(module, attr, span):
    assert callable(getattr(import_module(module), attr))


@pytest.mark.parametrize("module, cls, attr, span", tracer.METHODS)
def test_method_binding_resolves(module, cls, attr, span):
    assert callable(getattr(import_module(module), cls).__dict__[attr])

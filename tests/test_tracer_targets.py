"""The names the benchmark's tracer wraps exist in cgolab.

`perfbench/tracer.py` replaces cgolab's public functions and a few methods
with timing wrappers.  A name it expects that cgolab no longer has fails
only in a traced benchmark run, as an AttributeError in `Tracer.install`;
these checks fail first.  The tracer is imported as a plain module from its
directory, without writing bytecode there.
"""

import importlib
import sys
from pathlib import Path

import pytest

import cgolab.forward

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    module = importlib.import_module("tracer")
    yield module
    sys.modules.pop("tracer", None)


def test_every_traced_method_exists_on_its_class(tracer):
    assert tracer.TRACED_METHODS
    for short, methods in tracer.TRACED_METHODS.items():
        module = importlib.import_module(f"cgolab.{short}")
        for cls_name, meth in methods:
            assert callable(getattr(getattr(module, cls_name), meth)), (short, cls_name, meth)


def test_every_traced_module_exports_only_names_it_has(tracer):
    for short in tracer.TRACED_MODULES:
        module = importlib.import_module(f"cgolab.{short}")
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_the_factorization_the_tracer_counts_exists(tracer):
    # install wraps forward.splu, the name its SPLU span is called by
    assert tracer.SPLU == "forward.splu"
    assert callable(cgolab.forward.splu)

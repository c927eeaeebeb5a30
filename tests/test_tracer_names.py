"""The benchmark's tracer wraps cgsd functions by name; a name the package no
longer has makes its per-layer metrics read 0 without failing the run, so
every traced name must resolve here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    names = [(short, attr) for short, attrs in _load_tracer().TRACED.items()
             for attr in attrs]
    return names + [("numkit", "Tensor2")]


@pytest.mark.parametrize("short, attr", _traced_names())
def test_traced_name_resolves(short, attr):
    # the lookup instrument() makes: a module attribute, or a method found in
    # the class's own namespace
    owner = importlib.import_module(f"cgsd.{short}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
    assert vars(owner).get(name) is not None, f"cgsd.{short}.{attr} is gone"

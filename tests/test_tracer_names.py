"""The benchmark's tracer wraps cgsd functions by name; a name the package no
longer has makes its per-layer metrics read 0 without failing the run, so
every traced name must resolve here."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cgsd import guidance as gd
from cgsd import numkit as nk
from cgsd import pipeline

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


def test_each_traced_op_is_the_code_that_runs(monkeypatch):
    # a traced name with no caller in the library times nothing: each of
    # these runs in a taped guidance step with its ranking term, its
    # backward, or the conditioning of a batch
    calls = {}
    for owner, name in ((gd, "ranking_loss"), (nk, "cross_entropy_mean"),
                        (nk, "smooth_nonlinearity"), (pipeline, "softmax_rows")):
        fn = getattr(owner, name)

        def counting(*args, name=name, fn=fn):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counting)
    model = gd.GuidanceModel.build(d_in=6, hidden=8, d_model=4, k=3, rank=2, alpha=4.0,
                                   seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 6))
    tape = nk.GradTape()
    loss = gd.guidance_loss(x, [0, 1, 2, 1, 0], model, 1.0, 0.05, tape)
    nk.backward(loss, tape, model.lora_params() + model.prompt_params())
    pipeline.conditioning(model, x)
    assert sorted(calls) == ["cross_entropy_mean", "ranking_loss", "smooth_nonlinearity",
                             "softmax_rows"]
    assert all(count > 0 for count in calls.values()), calls

"""The benchmark still runs against the library.

bench/tracer.py wraps library functions by module and name, and
bench/workloads.py calls the library and the command line; a rename or
deletion in the library would only break benchmark runs, which this
suite does not otherwise make.  Both are loaded from their files as they
stand.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from qhnbody import cli, mcgehee
from qhnbody.model import MassSystem, PotentialParams

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_library_attribute():
    tracer = _load("tracer")
    names = [(mod, fn) for mod, fns in tracer.LIBRARY_SPANS.items() for fn in fns]
    names += list(tracer.CLOSURE_SPANS)
    assert len(names) > 20
    missing = [
        f"{mod}.{fn}"
        for mod, fn in names
        if not callable(getattr(importlib.import_module(mod), fn, None))
    ]
    assert missing == []


def test_the_other_names_the_benchmark_binds_still_exist():
    # the tracer finds grad_V in mcgehee's namespace and integrate in the
    # cli's, and binds integrate's field, events and monitors by name
    assert callable(getattr(mcgehee, "grad_V", None))
    assert callable(getattr(cli, "integrate", None))
    params = inspect.signature(cli.integrate).parameters
    assert {"field_fn", "events", "monitors"} <= set(params)


def test_the_closures_the_tracer_wraps_return_fresh_arrays():
    # integrate keeps f0 and the last stage value across later field
    # calls, so a closure that reused one output buffer would silently
    # change them; the renormalizer's result is stored as the state
    ms = MassSystem(np.array([1.0, 2.0, 3.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    s = np.array([[0.3, 0.1], [-0.2, 0.25], [0.05, -0.2]])
    y_cart = np.concatenate([s.ravel(), s[::-1].ravel()])
    y_blown_up = np.concatenate([[0.5, -0.1], s.ravel(), 0.1 * s[::-1].ravel()])
    # factory name -> (its arguments, one call of the closure)
    calls = {
        "cartesian_field": ((ms, pp, 2), lambda f: f(0.0, y_cart)),
        "mcgehee_field": ((ms, pp, 2), lambda f: f(0.0, y_blown_up)),
        "mcgehee_renormalizer": ((ms, 2), lambda f: f(y_blown_up)),
    }
    factories = _load("tracer").CLOSURE_SPANS
    assert sorted(fn for _, fn in factories) == sorted(calls)
    for mod, fn in factories:
        args, call = calls[fn]
        closure = getattr(importlib.import_module(mod), fn)(*args)
        first, second = call(closure), call(closure)
        assert isinstance(first, np.ndarray) and first.shape == second.shape
        assert not np.shares_memory(first, second), fn
        assert np.array_equal(first, second), fn


# traced, the tracer also rebinds integrate's field, events and monitors and
# rebuilds each Event around a wrapped fn
@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", ["census", "sweep", "flow", "simulate"])
def test_the_first_operation_of_each_workload_passes_its_check(tmp_path, name, traced):
    workloads = _load("workloads")
    assert name in workloads.WORKLOADS
    op = workloads.build(name, 11, 0.0, tmp_path)[0]
    if not traced:
        assert op.check(op.run()) is None
        return
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert op.check(tracer.op(op.run)) is None
    finally:
        tracer.restore()
    if name == "flow":
        spans = tracer.spans()
        assert (spans["names"][spans["name_id"]] == "integrate.event").any()

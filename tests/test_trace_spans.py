"""The names the benchmark tracer binds still name library functions.

bench/tracer.py wraps library functions by module and name; a rename in
the library would only break traced benchmark runs, which this suite
does not run.  The tracer is loaded from its file as it stands.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from qhnbody import cli, mcgehee

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_is_a_library_attribute():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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

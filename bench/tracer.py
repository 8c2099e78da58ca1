"""Per-layer tracing from outside the library.

The tracer replaces selected public functions of the ``qhnbody`` modules
with wrappers that record one span per call: name, start, end, parent
and whether the call raised.  A function is replaced in every
``qhnbody`` module namespace that binds it (``mcgehee`` imports
``grad_V`` by name, ``cli`` imports ``integrate`` by name), so calls
made inside the library are seen too.  The closures returned by
``cartesian_field``, ``mcgehee_field`` and ``mcgehee_renormalizer`` are
wrapped as they are made, and at the ``integrate`` boundary the field,
event and monitor callables passed in are wrapped.

Spans stay in flat in-memory arrays while the run lasts; ``restore()``
puts every original binding back.  Every count and time is derived from
the spans afterwards, except the accepted-step count, which the
``integrate`` wrapper reads off each returned trajectory.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# Span name -> ledger group.  Each span's self time (its duration minus
# its children's) is credited to exactly one group, so the groups sum to
# the traced time of the operations.
LIBRARY_SPANS = {
    "qhnbody.model": {
        "potential_terms": "model.pair",
        "grad_U": "model.pair",
        "grad_W": "model.pair",
        "grad_V": "model.pair",
        "hess_U_matrix": "model.hess",
        "hamiltonian": "model.observable",
        "angular_momentum": "model.observable",
        "unpack_phase": "model.observable",
    },
    "qhnbody.central_config": {
        "solve_collinear_ordering": "central_config.solve",
        "cc_residual": "central_config.solve",
        "tangent_basis": "central_config.basis",
        "cc_index": "central_config.index",
        "simultaneous_gap": "central_config.gap",
        "equilateral_cc": "central_config.other",
        "f_root": "central_config.other",
    },
    "qhnbody.mcgehee": {
        "collision_manifold_residual": "mcgehee.residual",
        "energy_residual": "mcgehee.residual",
    },
    "qhnbody.collision_flow": {
        "find_equilibria": "collision_flow.spectra",
        "linearize_at_equilibrium": "collision_flow.spectra",
        "transversality_necessary": "collision_flow.spectra",
        "integrate_on_C": "collision_flow.self",
    },
    "qhnbody.homothetic": {
        "heteroclinic_orbit": "homothetic.self",
    },
    "qhnbody.cli": {
        "main": "cli.self",
    },
}

# Factories whose returned closure gets a span of its own.
CLOSURE_SPANS = {
    ("qhnbody.model", "cartesian_field"): ("model.field", "model.field"),
    ("qhnbody.mcgehee", "mcgehee_field"): ("mcgehee.field", "mcgehee.field"),
    ("qhnbody.mcgehee", "mcgehee_renormalizer"): ("mcgehee.renorm", "mcgehee.renorm"),
}

OP_SPAN = "bench.op"

GROUPS = (
    "model.pair",
    "model.hess",
    "model.field",
    "model.observable",
    "central_config.solve",
    "central_config.basis",
    "central_config.index",
    "central_config.gap",
    "central_config.other",
    "mcgehee.field",
    "mcgehee.renorm",
    "mcgehee.residual",
    "integrate.self",
    "integrate.event",
    "integrate.monitor",
    "collision_flow.spectra",
    "collision_flow.self",
    "homothetic.self",
    "cli.self",
    "bench.self",
)


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    """Span recorder that patches the library while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: dict[str, str] = {}
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self._stack: list[int] = []
        self.steps = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str, group: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups[name] = group
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span with name id nid."""
        k = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.raised.append(0)
        self.end.append(0)
        self._stack.append(k)
        self.start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.raised[k] = 1
            raise
        finally:
            self.end[k] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name: str, group: str):
        nid = self._id(name, group)

        def wrapper(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.bench_span = name
        return wrapper

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "qhnbody" and not modname.startswith("qhnbody."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function; call restore() to undo."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, funcs in LIBRARY_SPANS.items():
            mod = sys.modules[modname]
            for func, group in funcs.items():
                original = getattr(mod, func)
                name = f"{_short(modname)}.{func}"
                self._replace_everywhere(original, self.wrap(original, name, group))
        for (modname, func), (name, group) in CLOSURE_SPANS.items():
            original = getattr(sys.modules[modname], func)
            self._replace_everywhere(original, self._wrap_factory(original, name, group))
        original = sys.modules["qhnbody.integrate"].integrate
        self._replace_everywhere(original, self._wrap_integrate(original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap_factory(self, factory, name: str, group: str):
        def make(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), name, group)

        make.__wrapped__ = factory
        return make

    def _wrap_integrate(self, integrate):
        sig = inspect.signature(integrate)
        nid = self._id("integrate.integrate", "integrate.self")

        def traced_integrate(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            a = bound.arguments
            fn = a["field_fn"]
            if not hasattr(fn, "bench_span"):
                # a field the caller built itself, such as the homothetic
                # plane field: its time belongs to the caller's module
                owner = _short(getattr(fn, "__module__", "") or "unknown")
                a["field_fn"] = self.wrap(fn, f"{owner}.field", f"{owner}.self")
            if a.get("events"):
                a["events"] = [
                    dataclasses.replace(
                        ev, fn=self.wrap(ev.fn, "integrate.event", "integrate.event")
                    )
                    for ev in a["events"]
                ]
            if a.get("monitors"):
                a["monitors"] = {
                    key: self.wrap(m, "integrate.monitor", "integrate.monitor")
                    for key, m in a["monitors"].items()
                }
            tr = self.call(nid, integrate, bound.args, bound.kwargs)
            self.steps += len(tr.times) - 1
            return tr

        traced_integrate.__wrapped__ = integrate
        return traced_integrate

    # -- the operations ----------------------------------------------------

    def op(self, fn):
        """Run one benchmark operation as a root span."""
        return self.call(self._id(OP_SPAN, "bench.self"), fn, (), {})

    # -- reading -----------------------------------------------------------

    def spans(self):
        """The recorded spans as numpy arrays."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def summary(self) -> dict:
        """Counts and times per layer, derived from the spans."""
        s = self.spans()
        nid, parent, raised = s["name_id"], s["parent"], s["raised"].astype(bool)
        dur = (s["end_ns"] - s["start_ns"]).astype(float) * 1e-6  # ms
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ms = dur - child

        def ids(*names):
            return [self._ids[n] for n in names if n in self._ids]

        def mask(*names):
            return np.isin(nid, ids(*names))

        def count(*names):
            return int(mask(*names).sum())

        parent_name = np.full(nid.size, -1)
        parent_name[has_parent] = nid[parent[has_parent]]

        def child_of(names, parents):
            return mask(*names) & np.isin(parent_name, ids(*parents))

        ledger = {g: 0.0 for g in GROUPS}
        per_name = np.bincount(nid, weights=self_ms, minlength=len(self.names))
        for name, value in zip(self.names, per_name):
            group = self.groups[name]
            ledger[group] = ledger.get(group, 0.0) + float(value)

        solve = mask("central_config.solve_collinear_ordering")
        iters = child_of(["central_config.cc_residual"], ["central_config.solve_collinear_ordering"])
        wasted = iters.copy()
        wasted[iters] = raised[parent[iters]]
        n_iters = int(iters.sum())
        integ = mask("integrate.integrate")
        fields = [n for n in self.names if n.endswith(".field")]
        stepper_fields = int(child_of(fields, ["integrate.integrate"]).sum())
        op_ms = float(dur[mask(OP_SPAN)].sum())

        out = {
            "model.pair_calls": count("model.potential_terms", "model.grad_U", "model.grad_W", "model.grad_V"),
            "model.hess_calls": count("model.hess_U_matrix"),
            "model.field_evals": count("model.field"),
            "model.observable_calls": count("model.hamiltonian", "model.angular_momentum", "model.unpack_phase"),
            "central_config.solve_calls": int(solve.sum()),
            "central_config.solve_fail": int((solve & raised).sum()),
            "central_config.newton_iters": n_iters,
            "central_config.wasted_iter_frac": float(wasted.sum()) / n_iters if n_iters else 0.0,
            "central_config.basis_calls": count("central_config.tangent_basis"),
            "central_config.index_calls": count("central_config.cc_index"),
            "central_config.gap_calls": count("central_config.simultaneous_gap"),
            "mcgehee.field_evals": count("mcgehee.field"),
            "mcgehee.renorm_calls": count("mcgehee.renorm"),
            "mcgehee.residual_calls": count("mcgehee.collision_manifold_residual", "mcgehee.energy_residual"),
            "integrate.calls": int(integ.sum()),
            "integrate.fail": int((integ & raised).sum()),
            "integrate.steps": self.steps,
            "integrate.field_evals": stepper_fields,
            "integrate.evals_per_step": stepper_fields / self.steps if self.steps else 0.0,
            "integrate.event_evals": count("integrate.event"),
            "integrate.monitor_evals": count("integrate.monitor"),
            "collision_flow.spectra_calls": count(
                "collision_flow.find_equilibria",
                "collision_flow.linearize_at_equilibrium",
                "collision_flow.transversality_necessary",
            ),
            "homothetic.orbit_calls": count("homothetic.heteroclinic_orbit"),
            "cli.runs": count("cli.main"),
        }
        times = {
            "model.pair_ms": ledger["model.pair"],
            "model.hess_ms": ledger["model.hess"],
            "model.field_ms": ledger["model.field"],
            "model.observable_ms": ledger["model.observable"],
            "central_config.solve_ms": ledger["central_config.solve"],
            "central_config.basis_ms": ledger["central_config.basis"],
            "central_config.index_ms": ledger["central_config.index"],
            "mcgehee.field_ms": ledger["mcgehee.field"],
            "mcgehee.renorm_ms": ledger["mcgehee.renorm"],
            # events and monitors are the caller's code run by the stepper;
            # their time includes what they call (the field inside settle)
            "integrate.event_ms": float(dur[mask("integrate.event")].sum()),
            "integrate.monitor_ms": float(dur[mask("integrate.monitor")].sum()),
            "integrate.self_ms": ledger["integrate.self"],
            "collision_flow.spectra_ms": ledger["collision_flow.spectra"],
            "collision_flow.self_ms": ledger["collision_flow.self"],
            "homothetic.self_ms": ledger["homothetic.self"],
            "cli.self_ms": ledger["cli.self"],
        }
        return {"counts": out, "times_ms": times, "ledger_ms": ledger, "ops_ms": op_ms}

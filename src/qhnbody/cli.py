"""Command-line front end: config ingestion, dispatch, serialization.

The subcommands mirror the library layers: central-configuration
solvers (``cc-collinear``, ``cc-planar3``, ``simultaneous``), Cartesian
integration (``simulate``), collision-manifold runs and spectra
(``collision-flow``, ``eigen``), and the invariant-plane construction
(``homothetic``).  Every run is driven by a JSON config carrying a
``schema: 1`` field.  Summaries are JSON with sorted keys and floats
printed to 17 significant digits, so identical configs produce
byte-identical files; time series are CSV with the same float format.

Exit codes: 0 success, 2 config validation, 3 numerical failure (the
stderr line names the failing error class).
"""

from __future__ import annotations

import argparse
import csv
import difflib
import functools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .central_config import (
    CCQuery,
    CCResult,
    Ordering,
    cc_residual,
    equilateral_cc,
    equilateral_configuration,
    equilateral_side,
    f_root,
    simultaneous_gaps,
    solve_collinear_batch,
    solve_collinear_ordering,
)
from .collision_flow import (
    RestPointMatch,
    find_equilibria,
    integrate_on_C,
    manifold_start,
    min_separation,
    nearest_equilibrium,
    pure_b_cases,
    pure_b_shapes,
)
from .errors import QHError, StiffnessError
from .homothetic import heteroclinic_orbit
from .mcgehee import McGeheeState, from_mcgehee, split_mcgehee
from .model import (
    Configuration,
    MassSystem,
    PhaseState,
    PotentialParams,
    angular_momentum,
    angular_momentum_series,
    cartesian_field,
    centered,
    energy_series,
    float_domain_fault,
    hamiltonian,
    lift_to_plane,
    mass_inner,
    pack_phase,
    split_phase,
)
from .integrate import integrate

SCHEMA = 1
_quoted = encode_basestring_ascii  # json.dumps of a str, without its per-call setup


class ConfigError(ValueError):
    """A config file violates a documented precondition."""


def _number(value, what: str, kind=float):
    """value as a float, or as an int when kind is int; else a ConfigError naming the field.

    An int field takes integral values only: 3.0 reads as 3, 2.9 is rejected.
    """
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if kind is float:
        return x
    if not x.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value) if isinstance(value, int) else int(x)


# ---------------------------------------------------------------------------
# deterministic serialization


@functools.lru_cache(maxsize=256)
def _array_template(shape: tuple, indent: int) -> str:
    """The text _json_text gives a float array of this shape, with %.17g for each value."""
    pad = "  " * indent
    inner = "%.17g" if len(shape) == 1 else _array_template(shape[1:], indent + 1)
    return f"[\n{pad}  " + f",\n{pad}  ".join([inner] * shape[0]) + f"\n{pad}]"


def _json_text(obj, indent: int = 0) -> str:
    # Hand-rolled so float formatting is pinned: json.dump offers no hook
    # for serializable types, and repr() digits vary with the value.
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        # a non-empty float array of finite values fills its shape's template
        if obj.dtype == np.float64 and obj.ndim and obj.size and np.isfinite(obj).all():
            return _array_template(obj.shape, indent) % tuple(obj.ravel().tolist())
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_quoted(str(k))}: {_json_text(obj[k], indent + 1)}" for k in sorted(obj)]
        return f"{{\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        sep = f",\n{pad}  "
        if set(map(type, obj)) == {int}:  # a list of ints in one pass
            body = sep.join(map(str, obj))
        else:
            body = sep.join([_json_text(v, indent + 1) for v in obj])
        return f"[\n{pad}  {body}\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return _quoted(repr(x))
        return format(x, ".17g")
    if isinstance(obj, str):
        return _quoted(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(_json_text(payload) + "\n")
    return path


def _write_csv(path: Path, header: list[str], body: np.ndarray) -> Path:
    """Write an (N, C) array of numbers under a header, each cell as %.17g."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        row = ",".join(["%.17g"] * body.shape[1]) + "\r\n"  # the line end of csv's excel dialect
        fh.write(row * len(body) % tuple(body.ravel().tolist()))
    return path


# ---------------------------------------------------------------------------
# config: a subcommand's config is read against its table {key: (default, kind,
# range)}, given below the parsers.  A missing key (or a null one whose default is
# null) takes its default; a _REQUIRED key has none.  kind(value, path, range, n)
# parses the value or the default, where range is an interval such as "(0, inf]",
# a set such as "{-1, 1}" or a nested table, and n is the mass count, once read.

_REQUIRED = object()


def _has_bool(value) -> bool:
    return isinstance(value, bool) or isinstance(value, list) and any(map(_has_bool, value))


def _read(obj, path: str, table: dict, n=None) -> dict:
    """{key: parsed value} for each key of table; a key not in table is a ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got {obj!r}")
    at = f"{path}." if path else ""
    unknown = []
    for key in obj:
        if key not in table:
            near = difflib.get_close_matches(key, table, n=1)
            unknown.append(f"{at}{key}" + (f" (did you mean {at}{near[0]}?)" if near else ""))
    if unknown:
        raise ConfigError(f"unknown config key {'; '.join(unknown)}")
    out = {}
    for key, (default, kind, rng) in table.items():
        value = obj[key] if key in obj else default
        if value is _REQUIRED:
            raise ConfigError(f"config needs {at}{key}")
        if _has_bool(value):  # no key takes a boolean, and numpy would read one as 0 or 1
            raise ConfigError(f"{at}{key} must not be or hold true or false, got {value!r}")
        out[key] = None if value is None and default is None else kind(value, at + key, rng, n)
        n = out[key].n if key == "masses" else n
    return out


def _float(value, path, rng, n, kind=float):
    """value as a number in rng, an interval such as "(0, inf]" or a set such as "{-1, 1}"."""
    x = _number(value, path, kind)
    ends = [float(t) for t in rng[1:-1].split(",")]
    if rng[0] == "{":
        ok = x in ends
    else:
        lo, hi = ends
        ok = (lo < x or rng[0] == "[" and x == lo) and (x < hi or rng[-1] == "]" and x == hi)
    if not ok:
        raise ConfigError(f"{path} must lie in {rng}, got {value!r}")
    return x


def _int(value, path, rng, n):
    return _float(value, path, rng, n, int)


def _pair(value, path, rng, n):
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{path} must be a pair of numbers, got {value!r}")
    return [_float(x, path, rng, n) for x in value]


def _span(value, path, rng, n):
    t0, t1 = _pair(value, path, rng, n)
    if not t1 > t0:
        raise ConfigError(f"{path} must satisfy t1 > t0, got {value!r}")
    return t0, t1


def _text(value, path, rng, n):
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


def _masses(value, path, rng, n):
    try:
        return MassSystem(np.asarray(value, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {path}: {exc}") from None


def _potential(value, path, table, n):
    params = _read(value, path, table, n)
    try:
        return PotentialParams(**params)
    except ValueError as exc:
        raise ConfigError(f"invalid {path}: {exc}") from None


def _check_float_domain(ms: MassSystem, pps, d2: float | None = None, cause: str = "") -> None:
    """ConfigError on model.float_domain_fault's fault for a potential in pps, naming its key
    and pair: at bind with the pair's masses, its coefficient named by cause, a format of
    {key}, when given; at the squared pair distance d2 with cause."""
    for pp in pps:
        if (fault := float_domain_fault(ms.masses, pp, d2)) is None:
            continue
        _, key, (i, j), what, value = fault
        if d2 is None:  # kc = -exp coef or coef, named by its size
            coefficient = cause.format(key=key) or f"potential.{key} = {getattr(pp, key)!r}"
            where = (f"{coefficient} gives pair ({i}, {j}), masses "
                     f"{ms.masses.item(i - 1)!r} and {ms.masses.item(j - 1)!r}, the kernel "
                     f"coefficient {abs(value)!r}")
        else:
            where = (f"{cause} = {math.sqrt(d2)!r}, at which pair ({i}, {j}) gives the {key} "
                     f"term's kernel {what} {value!r}")
        raise ConfigError(f"{where}: it must be finite and at least {sys.float_info.min!r}")


def _check_unit_sphere(ms: MassSystem, *potentials: PotentialParams) -> None:
    """_check_float_domain of potentials on the unit sphere, whose size the masses set."""
    _check_float_domain(ms, potentials, 1.0 / ms.total_mass, f"masses of total M = "
                        f"{ms.total_mass!r} set the unit sphere's size sqrt(1 / M)")


@dataclass
class RunConfig:
    """A config file read against the tables of one subcommand."""

    ms: MassSystem
    pp: PotentialParams
    inertia_I0: float | None
    energy_h: float | None
    initial_state: dict | None
    tol: dict
    opt: dict
    base_dir: Path

    @classmethod
    def from_file(cls, path: str, command: str) -> "RunConfig":
        p = Path(path)
        try:
            raw = json.loads(p.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        top = _read(raw, "", _CONFIGS[command])
        ms, pp, i0 = top["masses"], top["potential"], top.get("inertia_I0")
        # simultaneous solves each term alone at coefficient 1 (euler_collinear_batch)
        unit = command == "simultaneous"
        gated = [replace(pp, alpha=1.0, beta=1.0) if unit else pp]
        coefficient = "the {key} term at coefficient 1, which simultaneous solves," if unit else ""

        def gate(ms: MassSystem) -> None:
            _check_float_domain(ms, gated, cause=coefficient)
            if i0 is not None:
                _check_float_domain(ms, gated, i0 / ms.total_mass,
                                    f"inertia_I0 = {i0!r} sets the size sqrt(I0 / M)")

        gate(ms)
        if (grid := top.get("options", {}).get("mass_grid")) is not None:
            # every kernel value grows with each mass, as m_i m_j (M / I0)^(exp / 2),
            # so the lowest and the highest cell bound those of the whole grid
            for cell in ((pick(grid["m1"]), pick(grid["m2"]), grid["m3"]) for pick in (min, max)):
                try:
                    gate(MassSystem(cell))
                except ConfigError as exc:
                    raise ConfigError(f"options.mass_grid cell with masses {cell}: {exc}") from None
        return cls(ms=ms, pp=pp, inertia_I0=i0,
                   energy_h=top.get("energy_h"), initial_state=top.get("initial_state"),
                   tol=top["tolerances"], opt=top.get("options", {}), base_dir=p.resolve().parent)


# ---------------------------------------------------------------------------
# payload builders


def _header(cfg: RunConfig, command: str) -> dict:
    """The keys every summary starts with."""
    pp = cfg.pp
    return {
        "command": command,
        "schema": SCHEMA,
        "masses": cfg.ms.masses,
        "potential": {"a": pp.a, "b": pp.b, "alpha": pp.alpha, "beta": pp.beta},
    }


def _ordering_payload(ordering: Ordering | None):
    return None if ordering is None else list(ordering.perm)


def _cc_payload(r: CCResult) -> dict:
    out = {
        "kind": r.kind,
        "ordering": _ordering_payload(r.ordering),
        "positions": r.config.positions,
        "sigma": r.sigma,
        "residual": r.residual,
        "index": r.index,
        "hessian_eigenvalues": r.hess_eigs,
        "inertia_I0": r.inertia_I0,
    }
    if r.sigma1 is not None:
        out["sigma1"] = r.sigma1
        out["sigma2"] = r.sigma2
    return out


def _complex_pairs(z: np.ndarray) -> np.ndarray:
    """The (k, 2) real and imaginary parts of z, sorted as complex numbers."""
    return np.sort_complex(np.asarray(z, dtype=complex).ravel()).view(float).reshape(-1, 2)


# ---------------------------------------------------------------------------
# initial states


def _state_columns(n: int, dim: int, symbols: str = "rp") -> list[str]:
    """CSV columns r0x, r0y, ..., p0x, ... (r0, ..., p0, ... on a line)."""
    axes = ("x", "y") if dim == 2 else ("",)
    return [f"{c}{i}{ax}" for c in symbols for i in range(n) for ax in axes]


def _as_state_array(value, path, rng, n) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != n or arr.shape[1] not in (1, 2):
        raise ConfigError(f"{path} must be an {n} x 1 or {n} x 2 array")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path} must be finite")
    return arr


def _state(value, path, kinds, n):
    """initial_state read against the table of its kind, one of the tables in kinds."""
    kind = value.get("kind") if isinstance(value, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind must be one of {', '.join(kinds)}, got {kind!r}")
    return _read(value, path, kinds[kind], n)


def _read_csv_row(cfg: RunConfig, spec: dict) -> tuple[float, PhaseState]:
    path = Path(spec["path"])
    if not path.is_absolute():
        path = cfg.base_dir / path
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
    except (OSError, StopIteration) as exc:
        raise ConfigError(f"cannot read state csv {path}: {exc}") from None
    idx = spec["row"]
    try:
        row = rows[idx]
    except IndexError:
        raise ConfigError(f"state csv {path} row {idx} is out of range for its "
                          f"{len(rows)} data rows") from None
    cols = {name: k for k, name in enumerate(header)}
    n = cfg.ms.n

    def cell(name):
        text = row[cols[name]] if cols[name] < len(row) else ""  # a short row's cells are empty
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"state csv {path} row {idx} column {name} must be a number, "
                              f"got {text!r}") from None

    for dim in (2, 1):
        names = _state_columns(n, dim)
        if all(name in cols for name in names) and "t" in cols:
            r, p = split_phase(np.array([cell(name) for name in names]), n, dim)
            return cell("t"), PhaseState(config=Configuration(r), momenta=p)
    raise ConfigError(f"state csv {path} lacks the r/p columns for {n} bodies")


def _blow_up_state(st: dict) -> McGeheeState:
    try:
        return McGeheeState(rho=st["rho"], v=st["v"], s=st["s"], u=st["u"])
    except ValueError as exc:
        raise ConfigError(f"invalid blow-up state: {exc}") from None


def _initial_cartesian(cfg: RunConfig) -> tuple[float, PhaseState]:
    """Starting time and phase state for the Cartesian integrator."""
    st = cfg.initial_state
    if st["kind"] == "csv":
        return _read_csv_row(cfg, st)
    if st["kind"] == "mcgehee":
        mst = _blow_up_state(st)
        try:
            return 0.0, from_mcgehee(mst, cfg.ms, cfg.pp)
        except (ValueError, QHError) as exc:
            raise ConfigError(f"invalid blow-up state: {exc}") from None
    r, p = st["positions"], st["momenta"]
    if r.shape != p.shape:
        raise ConfigError("positions and momenta must have matching shape")
    return 0.0, PhaseState(config=Configuration(r), momenta=p)


def _ordering_arg(perm, path, rng, n) -> Ordering:
    try:
        ordering = Ordering(tuple(_number(k, path, int) for k in perm))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {path} {perm!r}: {exc}") from None
    if ordering.n != n:
        raise ConfigError(f"{path} must have one entry per mass, got {perm!r}")
    return ordering


def _shape(value, path, kinds, n):
    """(kind, ordering or positions) of a shape spec whose kind is one of kinds: "equilateral",
    {"kind": "equilateral"}, {"kind": "collinear", "ordering": [...]}, {"ordering": [...]}
    or {"positions": [...]}."""
    spec = _read({"kind": value} if value == "equilateral" else value, path, _SHAPE, n)
    kind = spec["kind"] or ("positions" if spec["positions"] is not None else "collinear")
    key = {"collinear": "ordering", "positions": "positions"}.get(kind)
    if kind not in kinds[1:-1].split(", ") or (key is not None and spec[key] is None):
        raise ConfigError(f"{path} must be a shape of kind {kinds}, got {value!r}")
    for other in ("ordering", "positions"):
        if other != key and spec[other] is not None:
            raise ConfigError(f"{path}.{other} does not go with a shape of kind {kind}")
    if kind == "equilateral" and n != 3:
        raise ConfigError(f"{path}: an equilateral shape needs exactly 3 masses")
    return kind, spec.get(key)


def _cases(value, path, rng, n, kind=_shape):
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{path} must be a non-empty array")
    return [kind(case, f"{path}[{k}]", rng, n) for k, case in enumerate(value)]


def _starts(value, path, table, n):
    """One start object, or a non-empty array of them."""
    if isinstance(value, list):
        return _cases(value, path, table, n, _read)
    return _read(value, path, table, n)


def _draws(value, path, table, n):
    draws = _read(value, path, table, n)
    if not draws["lo"] < draws["hi"]:
        raise ConfigError(f"{path}.hi must exceed lo = {draws['lo']!r}, got {draws['hi']!r}")
    return draws


def _grid(value, path, table, n):
    if n != 3:
        raise ConfigError(f"{path} sweeps need exactly 3 masses")
    return _read(value, path, table, n)


def _initial_on_C(cfg: RunConfig) -> tuple[list[McGeheeState], list[CCResult]]:
    """The first state of each orbit (initial_state, options.start or each start of its list)
    and the pure-b catalog, solved in one call with the shape of every start."""
    st, starts = cfg.initial_state, cfg.opt["start"]
    if (st is None) == (starts is None):
        raise ConfigError("collision-flow needs exactly one of initial_state and options.start")
    catalog = pure_b_cases(cfg.ms.n)
    if st is not None:
        return [_blow_up_state(st)], pure_b_shapes(cfg.ms, cfg.pp.b, catalog, cfg.tol["grad_tol"])
    starts = starts if isinstance(starts, list) else [starts]
    # A reversed ordering is a case of its own: the canonical shape negated
    # differs in the last bit and would pair with the same seeded u, which
    # starts another orbit.
    shapes = pure_b_shapes(cfg.ms, cfg.pp.b, catalog + [start["shape"] for start in starts],
                           cfg.tol["grad_tol"])
    states = [manifold_start(cc.config, cfg.ms, cfg.pp, start["perturbation_scale"], start["seed"],
                             start["v_sign"]) for cc, start in zip(shapes[len(catalog):], starts)]
    return states, shapes[: len(catalog)]


def _unit_shape(cfg: RunConfig) -> Configuration:
    """Shape on the unit inertia sphere selected by options.shape."""
    ms, pp = cfg.ms, cfg.pp
    kind, arg = cfg.opt["shape"]
    if kind == "equilateral":
        return equilateral_configuration(ms, 1.0)[0]
    if kind == "positions":
        r = centered(lift_to_plane(arg), ms)
        inertia = mass_inner(r, r, ms)
        if inertia <= 0.0:
            raise ConfigError("shape has zero size")
        return Configuration(r / np.sqrt(inertia))
    q = CCQuery(ms=ms, pp=pp, inertia_I0=1.0, grad_tol=cfg.tol["grad_tol"])
    return solve_collinear_ordering(arg, q).config


def _match_payload(m: RestPointMatch) -> dict:
    return {
        "kind": m.cc.kind,
        "ordering": _ordering_payload(m.cc.ordering),
        "v_sign": m.v_sign,
        "v_value": m.v_value,
        "shape_distance": m.shape_distance,
        "v_distance": m.v_distance,
    }


# ---------------------------------------------------------------------------
# config tables: each subcommand's table lists the top-level keys it reads, in
# the order they are read and their errors reported (unknown keys come first)

_KIND, _ARRAY = (_REQUIRED, _text, None), (_REQUIRED, _as_state_array, None)
_MCGEHEE = {"kind": _KIND, "rho": (0.0, _float, "[0, inf)"), "v": (0.0, _float, "(-inf, inf)"),
            "s": _ARRAY, "u": _ARRAY}
_CSV = {"kind": _KIND, "path": (_REQUIRED, _text, None), "row": (-1, _int, "(-inf, inf)")}
_STATES = {"cartesian": {"kind": _KIND, "positions": _ARRAY, "momenta": _ARRAY},
           "mcgehee": _MCGEHEE, "csv": _CSV}
_SHAPE = {"kind": (None, _text, None), "ordering": (None, _ordering_arg, None),
          "positions": (None, _as_state_array, None)}
_REST_POINT = "{equilateral, collinear}"  # the shapes that name a pure-b rest point
_START = {"shape": ("equilateral", _shape, _REST_POINT), "v_sign": (-1, _int, "{-1, 1}"),
          "perturbation_scale": (0.0, _float, "[0, inf)"), "seed": (0, _int, "[0, inf)")}
_MASS_GRID = {"m1": (_REQUIRED, _pair, "(0, inf)"), "m2": (_REQUIRED, _pair, "(0, inf)"),
              "m3": (1.0, _float, "(0, inf)"), "points": (11, _int, "[2, inf)"),
              "ordering": ([1, 2, 3], _ordering_arg, None)}
_MASS_DRAWS = {"trials": (20, _int, "[1, inf)"), "seed": (7, _int, "[0, inf)"),
               "lo": (0.2, _float, "(0, inf)"), "hi": (5.0, _float, "(0, inf)")}
_GRAD_TOL = (1e-12, _float, "(0, inf)")
_REL_TOL, _ABS_TOL = (1e-10, _float, "[0, inf)"), (1e-12, _float, "(0, inf)")
_SCHEMA, _MASSES = (_REQUIRED, _int, f"{{{SCHEMA}}}"), (_REQUIRED, _masses, None)
_I0 = (1.0, _float, "(0, inf)")


def _potential_entry(**narrowed):
    """Every PotentialParams key with its default, in its range in narrowed or else (-inf, inf)."""
    return ({}, _potential, {f.name: (f.default, _float, narrowed.get(f.name, "(-inf, inf)"))
                             for f in fields(PotentialParams)})


_CONFIGS = {
    "cc-collinear": {
        "schema": _SCHEMA, "masses": _MASSES, "inertia_I0": _I0, "potential": _potential_entry(),
        "tolerances": ({}, _read, {"grad_tol": _GRAD_TOL}),
        "options": ({}, _read, {"mass_draws": (None, _draws, _MASS_DRAWS)}),
    },
    "cc-planar3": {
        "schema": _SCHEMA, "masses": _MASSES, "inertia_I0": _I0,
        "potential": _potential_entry(),
        "tolerances": ({}, _read, {"grad_tol": _GRAD_TOL}),
    },
    "simultaneous": {
        "schema": _SCHEMA, "masses": _MASSES, "inertia_I0": _I0,
        "potential": _potential_entry(a="(0, inf)"),
        "tolerances": ({}, _read, {"gap_tol": (1e-10, _float, "[0, inf)"),
                                   "grad_tol": (1e-13, _float, "(0, inf)")}),
        "options": ({}, _read, {"mass_grid": (None, _grid, _MASS_GRID)}),
    },
    "simulate": {
        "schema": _SCHEMA, "masses": _MASSES, "energy_h": (None, _float, "(-inf, inf)"),
        "potential": _potential_entry(),
        "initial_state": (_REQUIRED, _state, _STATES),
        "tolerances": ({}, _read, {"rel_tol": _REL_TOL, "abs_tol": _ABS_TOL,
                                   "energy_match_tol": (1e-8, _float, "[0, inf)")}),
        # a null t_span runs from the initial state's time t to t + 10
        "options": ({}, _read, {"t_span": (None, _span, "(-inf, inf)"),
                                "max_step": (math.inf, _float, "(0, inf]")}),
    },
    "collision-flow": {
        "schema": _SCHEMA, "masses": _MASSES,
        "potential": _potential_entry(beta="(0, inf)"),
        "initial_state": (None, _state, {"mcgehee": {**_MCGEHEE, "rho": (0.0, _float, "{0}")}}),
        "tolerances": ({}, _read, {"rel_tol": _REL_TOL, "abs_tol": _ABS_TOL, "grad_tol": _GRAD_TOL,
                                   "equilibrium_tol": (1e-9, _float, "[0, inf)"),
                                   "separation_floor": (0.05, _float, "[0, inf)")}),
        "options": ({}, _read, {"start": (None, _starts, _START),
                                "tau_max": (50.0, _float, "(0, inf)")}),
    },
    "eigen": {
        "schema": _SCHEMA, "masses": _MASSES,
        "potential": _potential_entry(b="(2, inf)", beta="(0, inf)"),
        "tolerances": ({}, _read, {"grad_tol": _GRAD_TOL, "cc_tol": (1e-9, _float, "[0, inf)")}),
        "options": ({}, _read, {"cases": (None, _cases, _REST_POINT)}),
    },
    "homothetic": {
        "schema": _SCHEMA, "masses": _MASSES, "energy_h": (_REQUIRED, _float, "(-inf, inf)"),
        "potential": _potential_entry(beta="(0, inf)"),
        "tolerances": ({}, _read, {"rho_floor": (1e-8, _float, "(0, inf)"),
                                   "rel_tol": (1e-11, _float, "[0, inf)"),
                                   "abs_tol": (1e-13, _float, "(0, inf)"), "grad_tol": _GRAD_TOL}),
        "options": ({}, _read, {"shape": ("equilateral", _shape,
                                          "{equilateral, collinear, positions}")}),
    },
}


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, tables), the summary without its _header
# and the CSV tables (file name, header, body) that main writes before it


_MAX_BODIES = 6


def _require_enumerable(command: str, n: int) -> None:
    """Reject a run over the n!/2 collinear classes past the body cap."""
    if n > _MAX_BODIES:
        raise ConfigError(f"{command} supports at most {_MAX_BODIES} bodies, got {n}")


def cmd_cc_collinear(cfg: RunConfig) -> tuple[dict, list]:
    n, draws = cfg.ms.n, cfg.opt["mass_draws"]
    _require_enumerable("cc-collinear", n)
    masses = cfg.ms.masses[None]
    if draws is not None:
        rng = np.random.default_rng(draws["seed"])
        drawn = rng.uniform(draws["lo"], draws["hi"], size=(draws["trials"], n))
        masses = np.vstack([masses, drawn])
    orderings = Ordering.all_canonical(n)
    count = len(orderings)
    # the classes of the masses and of every draw in one lockstep batch
    batch = solve_collinear_batch(orderings * len(masses), np.repeat(masses, count, axis=0),
                                  cfg.pp, cfg.inertia_I0, cfg.tol["grad_tol"])
    payload = {
        "inertia_I0": cfg.inertia_I0,
        "count": count,
        "max_residual": batch.residual[:count].max(),
        "results": [_cc_payload(r) for r in batch.results(count)],
    }
    if draws is None:
        return payload, []
    # each ordering as the number its labels spell, 1324 for (1, 3, 2, 4)
    codes = np.array([o.perm for o in orderings]) @ 10 ** np.arange(n - 1, -1, -1)
    # eigvalsh sorts each spectrum ascending; two bodies on a line have none
    min_eig = batch.hess_eigs[count:, 0] if n > 2 else np.zeros(len(drawn) * count)
    rows = np.column_stack([
        np.repeat(np.arange(len(drawn)), count), np.tile(codes, len(drawn)),
        batch.sigma[count:], batch.residual[count:], min_eig, batch.index[count:],
        np.repeat(drawn, count, axis=0),
    ])
    header = ["trial", "ordering", "sigma", "residual", "min_hess_eig", "index"]
    header += [f"m{k}" for k in range(1, n + 1)]
    payload["mass_draws"] = {**draws, "rows": len(rows), "max_residual": rows[:, 3].max(),
                             "minima": int(np.sum(rows[:, 4] > 0.0)), "csv": "census.csv"}
    return payload, [("census.csv", header, rows)]


def cmd_cc_planar3(cfg: RunConfig) -> tuple[dict, list]:
    if cfg.ms.n != 3:
        raise ConfigError(f"cc-planar3 needs exactly 3 masses, got {cfg.ms.n}")
    plus, minus = equilateral_cc(CCQuery(cfg.ms, cfg.pp, cfg.inertia_I0, cfg.tol["grad_tol"]))
    # The side certificate: with unit coefficients the side solves the
    # scalar equation behind f_root, so recompute sigma in that gauge.
    unit_pp = replace(cfg.pp, alpha=1.0, beta=1.0)
    unit_sigma, _ = cc_residual(plus.config, cfg.ms, unit_pp)
    fr = f_root(unit_sigma, cfg.pp.b, cfg.ms.total_mass, cfg.pp.a)
    payload = {
        "inertia_I0": cfg.inertia_I0,
        "side": equilateral_side(cfg.ms, cfg.inertia_I0),
        "side_certificate": {
            "root": fr.root,
            "f_at_root": fr.f_at_root,
            "sign_changes": fr.sign_changes,
            "grid_points": fr.grid_points,
            "unit_sigma": unit_sigma,
        },
        "results": [_cc_payload(plus), _cc_payload(minus)],
    }
    return payload, []


def cmd_simultaneous(cfg: RunConfig) -> tuple[dict, list]:
    _require_enumerable("simultaneous", cfg.ms.n)
    grid, gap_tol = cfg.opt["mass_grid"], cfg.tol["gap_tol"]
    orderings = Ordering.all_canonical(cfg.ms.n)
    count = len(orderings)
    masses = np.tile(cfg.ms.masses, (count, 1))
    if grid is not None:
        m1_vals, m2_vals = (np.linspace(*grid[m], grid["points"]) for m in ("m1", "m2"))
        cells = [(m1, m2, grid["m3"]) for m1 in m1_vals for m2 in m2_vals]
        orderings = orderings + [grid["ordering"]] * len(cells)
        masses = np.vstack([masses, cells])
    # the per-ordering gaps and every grid cell in one lockstep batch
    gaps = simultaneous_gaps(orderings, masses, cfg.pp, cfg.inertia_I0, cfg.tol["grad_tol"])
    records = [
        {"ordering": _ordering_payload(o), "gap": g, "simultaneous": g <= gap_tol}
        for o, g in zip(orderings, gaps[:count].tolist())
    ]
    payload = {
        "inertia_I0": cfg.inertia_I0,
        "gap_tol": gap_tol,
        "results": records,
    }
    if grid is None:
        return payload, []
    rows = np.column_stack([cells, gaps[count:]])
    payload["mass_grid"] = {
        "points": len(m1_vals),
        "rows": len(rows),
        "ordering": list(grid["ordering"].perm),
        "csv": "simultaneous_grid.csv",
    }
    return payload, [("simultaneous_grid.csv", ["m1", "m2", "m3", "gap"], rows)]


def cmd_simulate(cfg: RunConfig) -> tuple[dict, list]:
    t_start, state = _initial_cartesian(cfg)
    ms, pp = cfg.ms, cfg.pp
    n, dim = state.config.positions.shape
    h0 = hamiltonian(state, ms, pp)
    if cfg.energy_h is not None:
        slack = cfg.tol["energy_match_tol"] * max(1.0, abs(cfg.energy_h))
        if not abs(h0 - cfg.energy_h) <= slack:  # a NaN H matches no energy
            raise ConfigError(
                f"energy_h = {cfg.energy_h!r} does not match the initial state "
                f"(H = {h0!r})"
            )
    t0, t1 = cfg.opt["t_span"] or (t_start, t_start + 10.0)

    l0 = angular_momentum(state, ms)
    field_fn = cartesian_field(ms, pp, dim)

    # each monitor runs once on the whole accepted grid: (N, n, d) arrays
    def energy_res(times, states):
        r, p = split_phase(states, n, dim)
        return np.abs(energy_series(r, p, ms, pp) - h0)

    def angmom_res(times, states):
        r, p = split_phase(states, n, dim)
        return np.abs(angular_momentum_series(r, p) - l0)

    try:
        tr = integrate(
            field_fn,
            pack_phase(state),
            (t0, t1),
            rel_tol=cfg.tol["rel_tol"],
            abs_tol=cfg.tol["abs_tol"],
            monitors={"energy": energy_res, "angular_momentum": angmom_res},
            max_step=cfg.opt["max_step"],
        )
    except StiffnessError as exc:
        sep = min_separation(split_phase(exc.state, n, dim)[0])
        raise StiffnessError(
            f"{exc}; minimum pairwise separation {sep:.3e} at the last accepted state",
            exc.t,
            exc.state,
        ) from exc
    header = ["t"] + _state_columns(n, dim) + ["energy_residual", "angmom_residual"]
    res = tr.conserved_residuals
    body = np.column_stack([tr.times, tr.states, res["energy"], res["angular_momentum"]])
    r_end, p_end = split_phase(tr.final_state, n, dim)
    payload = {
        "t_span": [t0, t1],
        "steps": len(tr.times) - 1,
        "termination": tr.termination,
        "t_final": tr.times[-1],
        "energy_initial": h0,
        "energy_residual_max": float(np.max(res["energy"])),
        "angmom_residual_max": float(np.max(res["angular_momentum"])),
        "final_positions": r_end,
        "final_momenta": p_end,
        "csv": "simulate.csv",
    }
    return payload, [("simulate.csv", header, body)]


def cmd_collision_flow(cfg: RunConfig) -> tuple[dict, list]:
    # the run's potential on the orbit, the pure b-term (beta = 1) of the catalog it matches
    _check_unit_sphere(cfg.ms, cfg.pp, replace(cfg.pp, alpha=0.0, beta=1.0))
    _require_enumerable("collision-flow", cfg.ms.n)
    starts, catalog = _initial_on_C(cfg)
    listed = isinstance(cfg.opt["start"], list)
    stems = [f"_{k}" for k in range(len(starts))] if listed else [""]
    orbits, tables = zip(*(_orbit_on_C(cfg, st0, catalog, f"collision_flow{stem}.csv")
                           for st0, stem in zip(starts, stems)))
    return ({"orbits": list(orbits)} if listed else orbits[0]), list(tables)


def _orbit_on_C(cfg: RunConfig, st0: McGeheeState, catalog: list[CCResult],
                name: str) -> tuple[dict, tuple]:
    """Run one orbit on the collision manifold; return its summary and its table, named name."""
    ms, pp, tol = cfg.ms, cfg.pp, cfg.tol
    n, dim = st0.n, st0.dim
    tr = integrate_on_C(st0, ms, pp, tau_max=cfg.opt["tau_max"], rel_tol=tol["rel_tol"],
                        abs_tol=tol["abs_tol"], equilibrium_tol=tol["equilibrium_tol"],
                        separation_floor=tol["separation_floor"])
    header = ["tau", "v", "manifold_residual", "min_separation"] + _state_columns(n, dim, "su")
    _, v, s, u = split_mcgehee(tr.states, n, dim)
    body = np.column_stack([tr.times, v, tr.conserved_residuals["manifold"], min_separation(s),
                            s.reshape(len(s), -1), u.reshape(len(u), -1)])

    v_series = np.asarray(tr.conserved_residuals["v"])
    # v is monotone except for roundoff: allow slack at integrator scale.
    slack = 1e-9 * max(1.0, float(np.abs(v_series).max()))
    diffs = np.diff(v_series)
    end = nearest_equilibrium(s[-1], float(v[-1]), catalog, ms, pp)
    summary = {
        "termination": tr.termination,
        "tau_final": tr.times[-1],
        "v_start": v_series[0],
        "v_end": v_series[-1],
        "v_decrease_total": v_series[0] - v_series[-1],
        "v_monotone_nonincreasing": bool(np.all(diffs <= slack)),
        "v_monotone_nondecreasing": bool(np.all(diffs >= -slack)),
        "manifold_residual_max": float(np.abs(tr.conserved_residuals["manifold"]).max()),
        "nearest_equilibrium": _match_payload(end),
        "csv": name,
    }
    return summary, (name, header, body)


def cmd_eigen(cfg: RunConfig) -> tuple[dict, list]:
    # the b-term alone at the run's beta at the rest points, and at beta = 1 in their solve
    _check_unit_sphere(cfg.ms, replace(cfg.pp, alpha=0.0), replace(cfg.pp, alpha=0.0, beta=1.0))
    cases = cfg.opt["cases"]
    if cases is None:
        _require_enumerable("eigen", cfg.ms.n)
        cases = pure_b_cases(cfg.ms.n)
    ccs = pure_b_shapes(cfg.ms, cfg.pp.b, cases, cfg.tol["grad_tol"])
    reports = find_equilibria(cfg.ms, cfg.pp, ccs, tol=cfg.tol["cc_tol"])
    records = []
    for rep in reports:
        rec = {key: getattr(rep, key) for key in (
            "kind", "ambient", "v_sign", "v_value", "cc_defect", "index", "zero_modes",
            "dim_unstable", "dim_stable", "dim_energy_surface")}
        rec.update(ordering=_ordering_payload(rep.ordering), shape=rep.s0.positions,
                   restricted_eigenvalues=rep.lam, exponents=_complex_pairs(rep.mu),
                   spectrum=_complex_pairs(rep.spectrum))
        if rep.ambient == "planar":
            # the verdict of collision_flow.transversality_necessary
            rec["transversality_necessary"] = rep.index == 0
        records.append(rec)
    return {"equilibria": records}, []


def cmd_homothetic(cfg: RunConfig) -> tuple[dict, list]:
    _check_unit_sphere(cfg.ms, cfg.pp)
    s0 = _unit_shape(cfg)
    orbit = heteroclinic_orbit(
        s0,
        cfg.ms,
        cfg.pp,
        cfg.energy_h,
        rho_floor=cfg.tol["rho_floor"],
        rel_tol=cfg.tol["rel_tol"],
        abs_tol=cfg.tol["abs_tol"],
    )
    k_series = orbit.trajectory.conserved_residuals["K"]
    body = np.column_stack([orbit.taus, orbit.rhos, orbit.vs, k_series])
    payload = {
        "energy_h": orbit.h,
        "shape": s0.positions,
        "K": orbit.K,
        "k_drift": orbit.k_drift,
        "rho_max_orbit": orbit.rho_max_orbit,
        "rho_max_bisect": orbit.rho_max_bisect,
        "rho_max_gap": abs(orbit.rho_max_orbit - orbit.rho_max_bisect),
        "v_start": orbit.vs[0],
        "v_end": orbit.vs[-1],
        "termination": orbit.termination,
        "csv": "homothetic.csv",
    }
    return payload, [("homothetic.csv", ["tau", "rho", "v", "k_defect"], body)]


_COMMANDS = {
    "cc-collinear": cmd_cc_collinear,
    "cc-planar3": cmd_cc_planar3,
    "simultaneous": cmd_simultaneous,
    "simulate": cmd_simulate,
    "collision-flow": cmd_collision_flow,
    "eigen": cmd_eigen,
    "homothetic": cmd_homothetic,
}


@functools.cache  # one parser per process: parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qh",
        description="Quasihomogeneous n-body toolkit: central configurations, "
        "collision-manifold dynamics and homothetic orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config (schema 1)")
        p.add_argument("--out", default=None, help="output directory (default: cwd)")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; only on success make --out, its CSV tables, then <command>.json."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config, args.command)
        payload, tables = _COMMANDS[args.command](cfg)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QHError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    out_dir = Path(args.out) if args.out else Path.cwd()
    summary = args.command.replace("-", "_") + ".json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = [_write_csv(out_dir / name, header, body) for name, header, body in tables]
        written.append(_write_json(out_dir / summary, {**_header(cfg, args.command), **payload}))
    except OSError as exc:
        print(f"error: cannot write --out {out_dir}: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

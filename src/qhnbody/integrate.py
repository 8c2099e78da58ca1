"""Adaptive Runge-Kutta integration with dense output and event location.

The stepper is the Dormand-Prince 5(4) embedded pair with the standard
quartic interpolant for dense output, proportional-integral step-size
control, and an optional per-step renormalizer hook used to hold states
on a constraint manifold (for example the unit shape sphere).  Events are
located by bisection on the dense output to 1e-10 in the independent
variable.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldError, QHError, StiffnessError

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = np.array(
    [
        [0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    ]
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# Difference between the 5th and 4th order weights; k7 = f(t1, y1) included.
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Quartic dense-output coefficients: y(t0 + x h) = y0 + h K^T P [x, x^2, x^3, x^4].
_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
_BETA = 0.04  # integral gain of the PI controller
_EXPO = 0.2 - 0.75 * _BETA
_EVENT_TOL = 1e-10
_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class Event:
    """Scalar event function g(t, y); a sign change triggers the event.

    direction +1 reacts to g passing from negative to positive, -1 to the
    opposite crossing, 0 to both.  A terminal event stops the integration
    at the located crossing.
    """

    name: str
    fn: object
    direction: int = 0
    terminal: bool = False


@dataclass
class _Segment:
    t0: float
    h: float
    y0: np.ndarray
    q: np.ndarray  # (dim, 4)

    def eval(self, t: float) -> np.ndarray:
        x = (t - self.t0) / self.h
        powers = np.array([x, x * x, x**3, x**4])
        return self.y0 + self.h * (self.q @ powers)


@dataclass
class Trajectory:
    """Accepted steps of one integration run.

    times (N,) and states (N, dim) hold the accepted grid from t0 through
    the last step or the terminal event point (renormalized when a
    renormalizer is active), conserved_residuals the (N,) series each
    monitor returned on that grid, events the located crossings, and
    termination either "time-budget" or "event:<name>".  sample()
    evaluates the dense output at arbitrary interior times.
    """

    times: np.ndarray
    states: np.ndarray
    termination: str
    events: dict = field(default_factory=dict)
    conserved_residuals: dict = field(default_factory=dict)
    segments: list = field(default_factory=list)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def sample(self, t: float) -> np.ndarray:
        """Dense-output state at time t inside the integrated span."""
        if not self.segments:
            raise ValueError("trajectory has no dense segments")
        t0 = self.segments[0].t0
        t1 = self.segments[-1].t0 + self.segments[-1].h
        if not min(t0, t1) - 1e-12 <= t <= max(t0, t1) + 1e-12:
            raise ValueError(f"time {t!r} outside integrated span [{t0!r}, {t1!r}]")
        starts = [s.t0 for s in self.segments]
        k = max(bisect_right(starts, t) - 1, 0)
        return self.segments[k].eval(t)


def _rms_norm(x: np.ndarray) -> float:
    return math.sqrt((x * x).sum() / x.size)


def _initial_step(field_fn, t0, y0, f0, t1, rel_tol, abs_tol, max_step):
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = _rms_norm(y0 / scale)
    d1 = _rms_norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t1 - t0))
    y1 = y0 + h0 * f0
    try:
        f1 = np.asarray(field_fn(t0 + h0, y1), dtype=float)
        d2 = _rms_norm((f1 - f0) / scale) / h0
    except (QHError, ArithmeticError):
        d2 = np.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(t1 - t0), max_step)


def _locate_event(ev: Event, seg: _Segment, ta, ga, tb, gb):
    """Bisect the dense output for the crossing time of one event."""
    lo, glo, hi = ta, ga, tb
    tol = max(_EVENT_TOL, 64.0 * np.finfo(float).eps * abs(tb))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gmid = float(ev.fn(mid, seg.eval(mid)))
        if (glo <= 0.0 < gmid) or (glo > 0.0 >= gmid):
            hi = mid
        else:
            lo, glo = mid, gmid
    return 0.5 * (lo + hi)


def _triggered(ev: Event, g0: float, g1: float) -> bool:
    rising = g0 < 0.0 <= g1
    falling = g0 > 0.0 >= g1
    if ev.direction > 0:
        return rising
    if ev.direction < 0:
        return falling
    return rising or falling


def integrate(
    field_fn,
    y0,
    span,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    events=None,
    renormalizer=None,
    monitors=None,
    max_step: float = np.inf,
) -> Trajectory:
    """Integrate y' = field_fn(t, y) over span = (t0, t1), t1 > t0.

    Before the first field call, raises ValueError for a span without
    finite ends, an abs_tol that is not positive and finite, a negative
    or non-finite rel_tol (0 is allowed) or a max_step that is not
    positive.  The renormalizer, when given, maps each accepted state
    back onto its constraint manifold before the state is stored and used
    for the next step.  monitors is a dict of named functions called once, after the
    last step, as fn(times, states) on the accepted grid ((N,) and
    (N, dim), t0 and any terminal event point included; the trajectory's
    own arrays, not to be modified); each returns an (N,) series, else
    ValueError.  Raises FieldError if the field cannot
    be evaluated at the initial state and StiffnessError, carrying the
    last accepted t and state, if the step size underflows.  Later field
    errors other than QHError and ArithmeticError propagate unchanged.
    """
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise ValueError("span must satisfy t1 > t0")
    if not np.isfinite(t1 - t0):
        raise ValueError(f"span must have finite ends, got {span!r}")
    if not (np.isfinite(abs_tol) and abs_tol > 0.0):
        raise ValueError(f"abs_tol must be positive and finite, got {abs_tol!r}")
    if not (np.isfinite(rel_tol) and rel_tol >= 0.0):
        raise ValueError(f"rel_tol must be nonnegative and finite, got {rel_tol!r}")
    if not max_step > 0.0:
        raise ValueError(f"max_step must be positive, got {max_step!r}")
    y = np.array(y0, dtype=float)
    if y.ndim != 1:
        raise ValueError("state must be a flat vector")
    events = list(events) if events else []
    monitors = dict(monitors) if monitors else {}
    if renormalizer is not None:
        y = np.asarray(renormalizer(y), dtype=float)

    try:
        f = np.asarray(field_fn(t0, y), dtype=float)
        if not np.isfinite(f).all():
            raise FieldError(f"field not finite at t = {t0!r}")
    except FieldError:
        raise
    except Exception as exc:
        raise FieldError(f"field evaluation failed at t = {t0!r}: {exc}") from exc

    h = _initial_step(field_fn, t0, y, f, t1, rel_tol, abs_tol, max_step)

    t = t0
    times = [t]
    states = [y.copy()]
    segments: list[_Segment] = []
    ev_values = [float(ev.fn(t, y)) for ev in events]
    ev_hits: dict[str, list] = {ev.name: [] for ev in events}
    termination = "time-budget"
    fac_old = 1e-4
    just_rejected = False
    k = np.empty((7, y.size))
    floor_unit = 16.0 * np.finfo(float).eps

    def h_floor(at):
        return floor_unit * max(abs(at), abs(t1), 1.0)

    steps = 0
    while t < t1:
        steps += 1
        if steps > _MAX_STEPS:
            raise StiffnessError(f"step budget exhausted at t = {t!r}", t, y.copy())
        if t1 - t <= h_floor(t):
            break
        h = min(h, t1 - t)
        if h < h_floor(t):
            raise StiffnessError(
                f"step size underflow at t = {t!r} (h = {h:.3e})", t, y.copy()
            )

        failed = None
        k[0] = f
        try:
            for s in range(1, 6):
                ys = y + h * (k[:s].T @ _A[s, :s])
                k[s] = field_fn(t + _C[s] * h, ys)
            y_new = y + h * (k[:6].T @ _B)
            f_new = np.asarray(field_fn(t + h, y_new), dtype=float)
            k[6] = f_new
            if not (np.isfinite(y_new).all() and np.isfinite(f_new).all()):
                failed = "non-finite step"
        except (QHError, ArithmeticError) as exc:
            failed = str(exc)

        if failed is not None:
            h *= 0.25
            just_rejected = True
            if h < h_floor(t):
                raise StiffnessError(
                    f"field failed at t = {t!r} with h underflow: {failed}", t, y.copy()
                )
            continue

        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms_norm(h * (k.T @ _E) / scale)

        if err > 1.0:
            fac = min(_FAC_MAX, max(_FAC_MIN, _SAFETY * err**-_EXPO))
            h *= min(fac, 1.0)
            just_rejected = True
            continue

        # Accepted: PI update, dense segment, events, renormalize, store.
        fac11 = err**_EXPO if err > 0.0 else 0.0
        fac = _SAFETY * (fac_old**_BETA / fac11) if fac11 > 0.0 else _FAC_MAX
        fac = min(1.0 if just_rejected else _FAC_MAX, max(_FAC_MIN, fac))
        fac_old = max(err, 1e-4)
        just_rejected = False

        seg = _Segment(t0=t, h=h, y0=y.copy(), q=k.T @ _P)
        segments.append(seg)
        t_new = t + h

        stop_at = None
        hits = []
        for idx, ev in enumerate(events):
            g1 = float(ev.fn(t_new, y_new))
            if _triggered(ev, ev_values[idx], g1):
                te = _locate_event(ev, seg, t, ev_values[idx], t_new, g1)
                hits.append((te, ev))
            ev_values[idx] = g1
        if hits:
            hits.sort(key=lambda pair: pair[0])
            for te, ev in hits:
                if stop_at is not None and te > stop_at[0]:
                    break
                ye = seg.eval(te)
                if renormalizer is not None:
                    ye = renormalizer(ye)
                ev_hits[ev.name].append((te, ye))
                if ev.terminal and stop_at is None:
                    stop_at = (te, ye, ev.name)

        if stop_at is not None:
            te, ye, name = stop_at
            times.append(te)
            states.append(ye)
            termination = f"event:{name}"
            break

        if renormalizer is not None:
            y_new = renormalizer(y_new)
            f_new = np.asarray(field_fn(t_new, y_new), dtype=float)

        t, y, f = t_new, y_new, f_new
        times.append(t)
        states.append(y.copy())
        h = min(h * fac, max_step)

    times, states = np.array(times), np.array(states)
    residuals = {}
    for name, fn in monitors.items():
        series = np.array(fn(times, states), dtype=float)
        if series.shape != times.shape:
            raise ValueError(
                f"monitor {name!r} returned shape {series.shape}, expected {times.shape}"
            )
        residuals[name] = series
    return Trajectory(
        times=times,
        states=states,
        termination=termination,
        events=ev_hits,
        conserved_residuals=residuals,
        segments=segments,
    )

"""Adaptive Runge-Kutta integration with dense output and event location.

The stepper is DOP853, the Dormand-Prince 8(5,3) pair of Hairer, Norsett
and Wanner: 12 stages with the last field value reused as the next
step's first (12 field calls per step), their combined 5th/3rd-order
error estimate and proportional-integral step-size control.  An optional
per-step renormalizer holds states on a constraint manifold (for example
the unit shape sphere); it projects each accepted end point before that
point's one field call.  Events fire when their function falls from
above 0 to 0 or below.  Only a step in which an event falls builds the
seventh-order dense output (3 more field calls), and it is dropped once
the event is located by bisection to 1e-10 in the independent variable;
the state stored for an event is then one real step from the start of
its step to the located time, not an interpolated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldError, QHError, StiffnessError

# Dormand-Prince 8(5,3) tableau (DOP853): Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, 2nd ed. (Springer 1993), sections II.5
# and II.10, as published with their code.  Rows 0-11 are the stages of a
# step, row 12 gives y(t + h) (so k12 = f(t + h, y1) is the next step's k0),
# and rows 13-15 are the extra stages of the seventh-order dense output.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778,
])
_A = np.zeros((16, 16))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2]
_A[4, :4] = [
    2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]
_A[5, :5] = [
    3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]
_A[6, :6] = [
    3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2,
]
_A[7, :7] = [
    3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]
_A[8, :8] = [
    6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
]
_A[9, :9] = [
    4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
_A[10, :10] = [
    -9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022,
]
_A[11, :11] = [
    2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]
_A[12, :12] = [
    5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
]
_A[13, :13] = [
    5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0,
    2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3,
]
_A[14, :14] = [
    3.18346481635021405060768473261e-2, 0, 0, 0, 0, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0, 0,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1,
]
_A[15, :15] = [
    -4.28896301583791923408573538692e-1, 0, 0, 0, 0, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, 0, 0, 0, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138,
]
_B = _A[12, :12]
_ROWS = tuple(_A[s, :s].copy() for s in range(16))  # stage rows, sliced once
_NODES = _C.tolist()  # stage nodes as Python floats
# Error weights: _B minus the embedded fifth- and third-order weights.
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0, 0, 0, 0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
])
_E3 = _B.copy()
_E3[[0, 8, 11]] -= [
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
]
_ERR = np.column_stack([_E5, _E3])
# Dense output: y(t0 + x h) = y0 + x (F0 + (1-x) (F1 + x (F2 + ... x F6))),
# F0..F2 from y0, y1, f0 and f1, and F3..F6 = h _D @ k over all 16 stages.
_D = np.zeros((4, 16))
_D[0] = [
    -0.84289382761090128651353491142e+1, 0, 0, 0, 0, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1,
]
_D[1] = [
    0.10427508642579134603413151009e+2, 0, 0, 0, 0, 0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2,
]
_D[2] = [
    0.19985053242002433820987653617e+2, 0, 0, 0, 0, -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2,
]
_D[3] = [
    -0.25693933462703749003312586129e+2, 0, 0, 0, 0,
    -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
    0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
    -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
    0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
    0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
    -0.14972683625798562581422125276e+3,
]

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
_BETA = 0.04  # integral gain of the PI controller
_EXPO = 1 / 8 - 0.75 * _BETA
_EVENT_TOL = 1e-10
_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class Event:
    """Scalar event function g(t, y), triggered when g falls from above 0 to 0 or below.

    A rising crossing is not an event.  A terminal event stops the
    integration at the located crossing.
    """

    name: str
    fn: object
    terminal: bool = False


@dataclass
class _Segment:
    """One accepted step, with its dense output built on first use.

    k holds the 13 stage rows of the step; k[12] is the field at the
    stored end state, which a renormalizer may have moved off y1.  The
    first eval copies k, makes the 3 extra stages of the seventh-order
    interpolant, stores its coefficients in coef and drops k and the field.
    """

    t0: float
    h: float
    y0: np.ndarray
    y1: np.ndarray
    k: np.ndarray | None
    field_fn: object
    coef: np.ndarray | None = None

    def _build(self):
        h, dy = self.h, self.y1 - self.y0
        k = np.empty((16, dy.size))
        k[:13] = self.k
        for s in range(13, 16):
            k[s] = self.field_fn(self.t0 + _NODES[s] * h, _stage_state(s, self.y0, h, k))
        coef = np.empty((7, dy.size))
        coef[0] = dy
        coef[1] = h * k[0] - dy
        coef[2] = 2.0 * dy - h * (k[0] + k[12])
        coef[3:] = h * (_D @ k)
        self.coef, self.k, self.field_fn = coef, None, None

    def eval(self, t: float) -> np.ndarray:
        if self.coef is None:
            self._build()
        x = (t - self.t0) / self.h
        weights = np.cumprod([x, 1.0 - x, x, 1.0 - x, x, 1.0 - x, x])
        return self.y0 + weights @ self.coef


@dataclass
class Trajectory:
    """Accepted steps of one integration run.

    times (N,) and states (N, dim) hold the accepted grid from t0 through
    the last step or the terminal event point (renormalized when a
    renormalizer is active), conserved_residuals the (N,) series each
    monitor returned on that grid, events the located crossings, and
    termination either "time-budget" or "event:<name>".
    """

    times: np.ndarray
    states: np.ndarray
    termination: str
    events: dict = field(default_factory=dict)
    conserved_residuals: dict = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _stage_state(s, y, h, k) -> np.ndarray:
    """y + h * (_A[s, :s] @ k[:s]), a fresh array that a field may keep."""
    z = np.dot(_ROWS[s], k[:s])
    z *= h
    z += y
    return z


def _step(field_fn, t, y, h, k) -> np.ndarray:
    """Stages k[1:12] of a step of size h from (t, y) given k[0] = f(t, y); returns y(t + h)."""
    for s in range(1, 12):
        k[s] = field_fn(t + _NODES[s] * h, _stage_state(s, y, h, k))
    return _stage_state(12, y, h, k)


def _error_norm(h, k, scale) -> float:
    """HNW's combined error estimate of a step, in units of scale.

    |h| e5^2 / sqrt((e5^2 + 0.01 e3^2) N) with e5, e3 the scaled 2-norms of
    the fifth- and third-order error vectors: it behaves like h^8, and the
    third-order term guards against a fifth-order estimate that is too
    small by accident.
    """
    err = (k[:12].T @ _ERR) / scale[:, None]
    e5, e3 = (err * err).sum(axis=0).tolist()
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * scale.size)


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
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, abs(t1 - t0), max_step)


def _locate_event(ev: Event, seg: _Segment, lo, hi):
    """Bisect the dense output for the time at which g, above 0 at lo, falls to 0."""
    tol = max(_EVENT_TOL, 64.0 * np.finfo(float).eps * abs(hi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(ev.fn(mid, seg.eval(mid))) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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
    positive.  The renormalizer, when given, projects the end point of
    each step that passes the error test onto its constraint manifold
    before the field call there; the projected state is stored, starts
    the next step and is what events read.  A renormalizer that raises
    QHError or ArithmeticError rejects the attempt with h / 4, as a failed
    field call at the end point does.  The state stored for an event, and
    as the grid point of a terminal one, is one step from the start of
    the accepted step to the located time.  monitors is a dict of named
    functions called once, after the last step, as fn(times, states) on
    the accepted grid ((N,) and (N, dim), t0 and any terminal event point
    included; the trajectory's own arrays, not to be modified); each
    returns an (N,) series, else ValueError.  Raises FieldError if the
    field cannot be evaluated at the initial state and StiffnessError,
    carrying the last accepted t and state, if the step size underflows.
    Later field errors other than QHError and ArithmeticError propagate
    unchanged, and so does any error of the field calls made for the
    dense output or for an event's step, outside the step-size control.
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
    states = [y]
    ev_values = [float(ev.fn(t, y)) for ev in events]
    ev_hits: dict[str, list] = {ev.name: [] for ev in events}
    termination = "time-budget"
    fac_old = 1e-4
    just_rejected = False
    k = np.empty((13, y.size))
    k_event = np.empty((12, y.size))
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
            raise StiffnessError(f"step size underflow at t = {t!r} (h = {h:.3e})", t, y.copy())

        # a failed stage, a non-finite y1 (its error norm could be NaN), and a failed
        # projection or f(t + h, y_new), made only once the error test passes,
        # each reject with h / 4
        failed = err = None
        k[0] = f
        try:
            y1 = _step(field_fn, t, y, h, k)
            if not np.isfinite(y1).all():
                failed = "non-finite step"
            else:
                scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y1))
                err = _error_norm(h, k, scale)
                if err <= 1.0:
                    y_new = y1 if renormalizer is None else renormalizer(y1)
                    k[12] = f_new = np.asarray(field_fn(t + h, y_new), dtype=float)
                    if not np.isfinite(f_new).all():
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

        if not err <= 1.0:
            fac = min(_FAC_MAX, max(_FAC_MIN, _SAFETY * err**-_EXPO))
            h *= min(fac, 1.0)
            just_rejected = True
            continue

        # Accepted: PI update, events, store.
        fac11 = err**_EXPO if err > 0.0 else 0.0
        fac = _SAFETY * (fac_old**_BETA / fac11) if fac11 > 0.0 else _FAC_MAX
        fac = min(1.0 if just_rejected else _FAC_MAX, max(_FAC_MIN, fac))
        fac_old = max(err, 1e-4)
        just_rejected = False

        t_new = t + h

        # the dense output, from the raw y1, only for a step in which an event falls
        seg = None
        stop_at = None
        hits = []
        for idx, ev in enumerate(events):
            g1 = float(ev.fn(t_new, y_new))
            if ev_values[idx] > 0.0 >= g1:
                if seg is None:
                    seg = _Segment(t0=t, h=h, y0=y, y1=y1, k=k, field_fn=field_fn)
                hits.append((_locate_event(ev, seg, t, t_new), ev))
            ev_values[idx] = g1
        for te, ev in sorted(hits, key=lambda pair: pair[0]):
            if stop_at is not None and te > stop_at[0]:
                break
            # the stored state is a real step to te, not the interpolant
            k_event[0] = f
            ye = _step(field_fn, t, y, te - t, k_event)
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

        t, y, f = t_new, y_new, f_new
        times.append(t)
        states.append(y)
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
    )

"""Explicit Dormand-Prince 8(5,3) integrator (DOP853) with dense output.

`integrate(field_fn, y0, t_span, rel_tol=, events=)` is the one way to
integrate: Dormand and Prince's 8th-order pair with the combined 5th- and
3rd-order error estimate, the first-same-as-last property and the
method's own 7th-order dense output over accepted steps (Hairer, Norsett
& Wanner, Solving ODEs I, II.5 and II.10, and the code DOP853).  Works in
either time direction (t1 < t0 integrates backward); an empty span
returns the single initial sample.  Runs are deterministic: identical
inputs give bit-identical trajectories.

A run is one function generated from one template per state dimension
d and field, on Python floats: the state is d scalar locals, and
field_fn(t, y) receives the state as a list of d floats and returns d
numbers (a tuple, a list or a 1-D array; a wrong count raises ValueError
at any call).  Stage s is f(t + c_s h, y + h sum_j a_sj k_j); an
attempted step evaluates stages 2 to 12, and the new state is
y + h sum_j b_j k_j, each sum written out over the locals.  The error
norm is h E5^2 / sqrt((E5^2 + 0.01 E3^2) d), where E5^2 and E3^2 are the
sums of squares of the two error estimates sum_j e_j k_j over the scale
abs_tol + rel_tol * max(|y0|, |y1|), abs_tol = rel_tol * 1e-2, and
rel_tol must lie in [1e-14, 1e-2).  Only once a step is accepted does
the run evaluate stage 13, the field at the new state, which is the next
step's first stage.  The step's interpolant y0 + th (F0 + (1 - th) (F1 +
th (F2 + ...))) in th = (t - t0) / h, seven coefficients F0..F6 per
component, takes the three stages of the dense output besides, and is
formed only where it is read (see `Trajectory`), by a second function
generated with the run, from the same lines over the same locals.  A
call that forms at least _ARRAY_MIN_STEPS steps (`trace --dense` forms
hundreds at once) forms them on numpy columns instead, one row per step,
with the same sums in the same term order and the stages' field calls on
floats, so with the same bits at about half the cost per step; below
that, numpy's cost per call outweighs what it saves.  A field decorated
with `fields.inlined_field` (the package's four: `fields.cartesian_ode`,
`fields.spherical_ode`,
`reduced_system.reduced_time_ode` and the dH/dr of `_trace_h`, each an
ordinary module-level def) has its body, read from its module's source
as the module is imported, written into every stage in place of the
call, over the same locals and with the same bits; where one of its
guards fails, the stage calls the field, and where the source cannot be
read (a sourceless install) every stage does.  Any other callable, a
wrapper of one of those four included, is called at every stage.  The
decorator lives with the fields, so of the subcommands only `trace`,
`reduce` and `verify` load this module.  The
run holds the accept/reject loop around the step as well: the step-size
controller, the stop tests and the event sign test.  Each accepted step
extends flat `array('d')` buffers of times, states, step lengths and the
stage slopes its interpolant is formed from; the trajectory's ts, ys and
steps are numpy views of those buffers, made on first access.  A run
makes 2 RHS calls to start, 11 per attempted step and 1 more per
accepted one, and 3 more per step whose interpolant is formed, which
`dense` does for every step.  At loose tolerances an 8th-order step
costs more than it saves: see the README for measured counts.

A run stops at the end of the span (`reached_end`), at an event
(`event`), when the step size falls below MIN_STEP or one ulp of t
(`step_underflow`), when STALL_WINDOW accepted steps in a row advance t
by less than STALL_FRACTION of the span (`stalled`), or after MAX_STEPS
attempted steps (`max_steps`); each returns the trajectory up to that
point.  A stall is tested once per window.

Every event stops the run.  When an event function changes sign over an
accepted step (decided by comparing signs, never by a product that can
underflow), the run returns the event's values at the step's two rows,
and `diagnostics.refine`, the Illinois rule's float loop, locates the
crossing from that bracket, with no scan, on the step's interpolant on
floats, to EVENT_T_TOL in t (or to adjacent doubles where that is finer
than one ulp), one event evaluation per round.  The earliest crossing in
the step becomes the trajectory's last row, and `Trajectory.event` the
name of its event; the last step keeps its length and interpolant,
formed before its end row is overwritten, so `sample` gives the
crossing's state with the bits the event saw.
"""

from __future__ import annotations

import ast
import builtins
import functools
import linecache
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

# DOP853 as the decimal literals of Hairer's dop853.f (its nodes involve
# sqrt(6), so no exact rational form exists).  _C[s - 1] is the node of
# stage s.  _A[s - 2] maps each j to the weight a_sj of stage j in stage
# s; stage 13's row holds the 8th-order weights b_j, so stage 13 is the
# field at the new state (first-same-as-last), and stages 14-16 serve
# the dense output alone.  _E5 weighs stages into the 5th-order error
# estimate; the 3rd-order one is b less _BHH.  _D[r] weighs stages into
# the dense coefficient F_{r + 3}.
_C = (0.0, 0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
      0.281649658092772603273242802490, 0.333333333333333333333333333333,
      0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6,
      0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
      0.777777777777777777777777777778)
_A = (
    {1: 5.26001519587677318785587544488e-2},
    {1: 1.97250569845378994544595329183e-2,
     2: 5.91751709536136983633785987549e-2},
    {1: 2.95875854768068491816892993775e-2,
     3: 8.87627564304205475450678981324e-2},
    {1: 2.41365134159266685502369798665e-1,
     3: -8.84549479328286085344864962717e-1,
     4: 9.24834003261792003115737966543e-1},
    {1: 3.7037037037037037037037037037e-2,
     4: 1.70828608729473871279604482173e-1,
     5: 1.25467687566822425016691814123e-1},
    {1: 3.7109375e-2, 4: 1.70252211019544039314978060272e-1,
     5: 6.02165389804559606850219397283e-2, 6: -1.7578125e-2},
    {1: 3.70920001185047927108779319836e-2,
     4: 1.70383925712239993810214054705e-1,
     5: 1.07262030446373284651809199168e-1,
     6: -1.53194377486244017527936158236e-2,
     7: 8.27378916381402288758473766002e-3},
    {1: 6.24110958716075717114429577812e-1,
     4: -3.36089262944694129406857109825,
     5: -8.68219346841726006818189891453e-1,
     6: 2.75920996994467083049415600797e1,
     7: 2.01540675504778934086186788979e1,
     8: -4.34898841810699588477366255144e1},
    {1: 4.77662536438264365890433908527e-1,
     4: -2.48811461997166764192642586468,
     5: -5.90290826836842996371446475743e-1,
     6: 2.12300514481811942347288949897e1,
     7: 1.52792336328824235832596922938e1,
     8: -3.32882109689848629194453265587e1,
     9: -2.03312017085086261358222928593e-2},
    {1: -9.3714243008598732571704021658e-1,
     4: 5.18637242884406370830023853209, 5: 1.09143734899672957818500254654,
     6: -8.14978701074692612513997267357,
     7: -1.85200656599969598641566180701e1,
     8: 2.27394870993505042818970056734e1, 9: 2.49360555267965238987089396762,
     10: -3.0467644718982195003823669022},
    {1: 2.27331014751653820792359768449,
     4: -1.05344954667372501984066689879e1,
     5: -2.00087205822486249909675718444,
     6: -1.79589318631187989172765950534e1,
     7: 2.79488845294199600508499808837e1,
     8: -2.85899827713502369474065508674, 9: -8.87285693353062954433549289258,
     10: 1.23605671757943030647266201528e1,
     11: 6.43392746015763530355970484046e-1},
    {1: 5.42937341165687622380535766363e-2,
     6: 4.45031289275240888144113950566, 7: 1.89151789931450038304281599044,
     8: -5.8012039600105847814672114227, 9: 3.1116436695781989440891606237e-1,
     10: -1.52160949662516078556178806805e-1,
     11: 2.01365400804030348374776537501e-1,
     12: 4.47106157277725905176885569043e-2},
    {1: 5.61675022830479523392909219681e-2,
     7: 2.53500210216624811088794765333e-1,
     8: -2.46239037470802489917441475441e-1,
     9: -1.24191423263816360469010140626e-1,
     10: 1.5329179827876569731206322685e-1,
     11: 8.20105229563468988491666602057e-3,
     12: 7.56789766054569976138603589584e-3, 13: -8.298e-3},
    {1: 3.18346481635021405060768473261e-2,
     6: 2.83009096723667755288322961402e-2,
     7: 5.35419883074385676223797384372e-2,
     8: -5.49237485713909884646569340306e-2,
     11: -1.08347328697249322858509316994e-4,
     12: 3.82571090835658412954920192323e-4,
     13: -3.40465008687404560802977114492e-4,
     14: 1.41312443674632500278074618366e-1},
    {1: -4.28896301583791923408573538692e-1,
     6: -4.69762141536116384314449447206, 7: 7.68342119606259904184240953878,
     8: 4.06898981839711007970213554331,
     9: 3.56727187455281109270669543021e-1,
     13: -1.39902416515901462129418009734e-3,
     14: 2.9475147891527723389556272149, 15: -9.15095847217987001081870187138},
)
_B = _A[13 - 2]
_BHH = {1: 0.244094488188976377952755905512,
        9: 0.733846688281611857341361741547,
        12: 0.220588235294117647058823529412e-1}
_E5 = {1: 0.1312004499419488073250102996e-1,
       6: -0.1225156446376204440720569753e+1,
       7: -0.4957589496572501915214079952,
       8: 0.1664377182454986536961530415e+1,
       9: -0.3503288487499736816886487290, 10: 0.3341791187130174790297318841,
       11: 0.8192320648511571246570742613e-1,
       12: -0.2235530786388629525884427845e-1}
_D = (
    {1: -0.84289382761090128651353491142e+1,
     6: 0.56671495351937776962531783590,
     7: -0.30689499459498916912797304727e+1,
     8: 0.23846676565120698287728149680e+1,
     9: 0.21170345824450282767155149946e+1,
     10: -0.87139158377797299206789907490,
     11: 0.22404374302607882758541771650e+1,
     12: 0.63157877876946881815570249290,
     13: -0.88990336451333310820698117400e-1,
     14: 0.18148505520854727256656404962e+2,
     15: -0.91946323924783554000451984436e+1,
     16: -0.44360363875948939664310572000e+1},
    {1: 0.10427508642579134603413151009e+2,
     6: 0.24228349177525818288430175319e+3,
     7: 0.16520045171727028198505394887e+3,
     8: -0.37454675472269020279518312152e+3,
     9: -0.22113666853125306036270938578e+2,
     10: 0.77334326684722638389603898808e+1,
     11: -0.30674084731089398182061213626e+2,
     12: -0.93321305264302278729567221706e+1,
     13: 0.15697238121770843886131091075e+2,
     14: -0.31139403219565177677282850411e+2,
     15: -0.93529243588444783865713862664e+1,
     16: 0.35816841486394083752465898540e+2},
    {1: 0.19985053242002433820987653617e+2,
     6: -0.38703730874935176555105901742e+3,
     7: -0.18917813819516756882830838328e+3,
     8: 0.52780815920542364900561016686e+3,
     9: -0.11573902539959630126141871134e+2,
     10: 0.68812326946963000169666922661e+1,
     11: -0.10006050966910838403183860980e+1,
     12: 0.77771377980534432092869265740,
     13: -0.27782057523535084065932004339e+1,
     14: -0.60196695231264120758267380846e+2,
     15: 0.84320405506677161018159903784e+2,
     16: 0.11992291136182789328035130030e+2},
    {1: -0.25693933462703749003312586129e+2,
     6: -0.15418974869023643374053993627e+3,
     7: -0.23152937917604549567536039109e+3,
     8: 0.35763911791061412378285349910e+3,
     9: 0.93405324183624310003907691704e+2,
     10: -0.37458323136451633156875139351e+2,
     11: 0.10409964950896230045147246184e+3,
     12: 0.29840293426660503123344363579e+2,
     13: -0.43533456590011143754432175058e+2,
     14: 0.96324553959188282948394950600e+2,
     15: -0.39177261675615439165231486172e+2,
     16: -0.14972683625798562581422125276e+3},
)
# The stages whose slopes an accepted step keeps for forming its
# interpolant later: those of 13 or earlier that stages 14-16 and F1..F6
# read.
_KEPT = (1, *range(6, 14))
# A call that forms at least this many steps forms them on numpy columns
# (`_form_columns`), fewer with the generated scalar `form`.  Measured per
# call on a 2-core x86-64 host, scalar vs columns, ms: 1 step 0.015 vs
# 0.12, 16 steps 0.12 vs 0.20, 32 steps 0.22 vs 0.24, 36 steps 0.25 vs
# 0.25, 40 steps 0.28 vs 0.25, 64 steps 0.43 vs 0.35, 459 steps 3.05 vs
# 1.49.  An event forms 1 step, and `verify`'s samples at most 23 a call.
_ARRAY_MIN_STEPS = 40
# dop853.f's default step-size control: safety factor, bounds on the
# ratio of a new step to the last, no PI term (beta = 0), and the
# exponent 1/8 of the order.
_SAFETY = 0.9
_FAC_MIN = 0.333
_FAC_MAX = 6.0
_EXPO = 0.125

EVENT_T_TOL = 1e-12
MIN_STEP = 1e-14
MAX_STEPS = 1_000_000
# A run whose window of STALL_WINDOW accepted steps advances t by less
# than STALL_FRACTION of the span would need over 1e8 steps, 100 times
# MAX_STEPS, to cross the span at that pace.  Measured: dH/dr stuck on
# the turning locus advances ~2e-7 of its span per window; the longest
# run of the package, `trace --span 1e4` (17.8k steps), 0.56.
STALL_WINDOW = 10_000
STALL_FRACTION = 1e-4

STOP_REACHED_END = "reached_end"
STOP_EVENT = "event"
STOP_UNDERFLOW = "step_underflow"
STOP_MAX_STEPS = "max_steps"
STOP_STALLED = "stalled"


@dataclass(frozen=True)
class Event:
    """Zero crossing of fn(t, y) that stops the integration.

    direction > 0 reacts only to rising crossings, < 0 only to falling
    ones, 0 to both.  fn sees y as a list of floats, at accepted steps and
    while a crossing is located.
    """

    fn: Callable[[float, Sequence[float]], float]
    direction: int = 0
    name: str = "event"


@dataclass
class Trajectory:
    """Accepted-step skeleton of one integration run.

    `buffers` are the flat `array('d')` buffers the run filled, of
    accepted times, states, step lengths and, per step, the slopes of
    the stages _KEPT (k1 and k6..k13) its interpolant is formed from.
    ts and ys hold the accepted times and states (one row per point);
    steps and dense hold, per accepted step, its signed length h and the
    (7, d) coefficients of its interpolant.  ts, ys and steps are numpy
    views of the buffers, made on first access.  A step's interpolant is
    formed when it is first read, evaluating the dense output's three
    stages with field_fn, which must give the same slopes for as long as
    the trajectory is read: `dense` forms every step, `sample` the steps
    its times fall in, each step once.  `form`, generated with the run,
    forms them on floats; `_form_columns`, for calls of at least
    _ARRAY_MIN_STEPS steps, on numpy columns, with the same bits.  nfev
    counts the RHS calls made so far, nformed the steps formed.  `sample`
    evaluates the step's interpolant at th = (t - t0) / h.  `event` is the
    name of the event that stopped the run, if one did; the last row is
    then its crossing, inside the last step.
    """

    buffers: tuple[array, array, array, array]
    stop_reason: str
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    event: str | None = None
    nfev: int = 0
    naccept: int = 0
    nreject: int = 0
    nformed: int = 0
    field_fn: Callable | None = None
    form: Callable | None = None
    # Each step's 7 d coefficients and whether it is formed, from _form.
    _coefficients: array | None = None
    _formed: bytearray | None = None

    @functools.cached_property
    def ts(self) -> np.ndarray:
        return _view(self.buffers[0])

    @functools.cached_property
    def ys(self) -> np.ndarray:
        ts, ys = self.buffers[:2]
        return _view(ys, len(ys) // len(ts))

    @functools.cached_property
    def steps(self) -> np.ndarray:
        return _view(self.buffers[2])

    @functools.cached_property
    def dense(self) -> np.ndarray:
        return _view(self._form(range(len(self.buffers[2]))), 7,
                     self.ys.shape[1])

    def _form(self, indices: Iterable[int]) -> array:
        """The coefficient buffer, with the steps `indices` (distinct)
        formed in it; a step formed before is not formed again.  At least
        _ARRAY_MIN_STEPS new steps are formed on columns, where numpy's
        cost per call is spread over the steps, fewer by `form`."""
        ts, ys, steps, _ = self.buffers
        if self._formed is None:
            self._coefficients = array("d", bytes(
                8 * 7 * len(steps) * (len(ys) // len(ts))))
            self._formed = bytearray(len(steps))
        formed = self._formed
        new = [i for i in indices if not formed[i]]
        if new:
            form = (_form_columns if len(new) >= _ARRAY_MIN_STEPS
                    else self.form)
            form(self.field_fn, new, *self.buffers, self._coefficients)
            for i in new:
                formed[i] = 1
            self.nfev += 3 * len(new)
            self.nformed += len(new)
        return self._coefficients

    @property
    def t_end(self) -> float:
        return self.buffers[0][-1]

    @property
    def y_end(self) -> np.ndarray:
        return self.ys[-1].copy()

    def sample(self, t: float | Sequence[float]) -> np.ndarray:
        """Dense output at time(s) t inside the integrated span.

        At a row's time other than the last the result is that row's
        state; at the last, the last step's interpolant at th = 1, within
        an ulp of it.
        """
        import numpy as np

        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        # Times signed by the direction of travel ascend along the rows.
        sign = 1.0 if self.ts[-1] >= self.ts[0] else -1.0
        keys, key = sign * self.ts, sign * t_arr
        pad = 1e-9 * (1.0 + abs(keys[0]) + abs(keys[-1]))
        # Written so that a NaN time fails too.
        outside = ~((key >= keys[0] - pad) & (key <= keys[-1] + pad))
        if outside.any():
            raise ValueError(f"sample time {float(t_arr[outside][0])!r} "
                             f"outside the integrated span")
        if len(self.ts) == 1:
            out = np.repeat(self.ys[:1], len(t_arr), axis=0)
            return out if np.ndim(t) else out[0]
        # The step that starts at t when t is a row's time.
        i = np.clip(np.searchsorted(keys, key, side="right") - 1, 0,
                    len(keys) - 2)
        dense = _view(self._form(dict.fromkeys(i.tolist())), 7,
                      self.ys.shape[1])
        th = ((t_arr - self.ts[i]) / self.steps[i])[:, None]
        out = _interpolant(th, self.ys[i], *dense[i].transpose(1, 0, 2))
        return out if np.ndim(t) else out[0]


def _view(buffer: array, *row_shape: int) -> np.ndarray:
    """buffer as a float64 array of rows of row_shape, without a copy."""
    import numpy as np

    return np.frombuffer(buffer).reshape(-1, *row_shape)


def _form_columns(field_fn, indices: list[int], ts: array, ys: array,
                  steps: array, slopes: array, dense: array) -> None:
    """The generated `form` on numpy columns, one row per step: the same
    sums in the same term order, so the same bits.  The dense output's
    stages call field_fn on floats, one step at a time; a sum that
    overflows does so silently, as on floats."""
    import numpy as np

    d = len(ys) // len(ts)
    i = np.array(indices)
    t, hs = (_view(b)[i][:, None] for b in (ts, steps))
    rows = _view(ys, d)
    y, n = rows[i], rows[i + 1]
    k = dict(zip(_KEPT, _view(slopes, len(_KEPT), d)[i].transpose(1, 0, 2)))

    def weighed(row: dict) -> np.ndarray:
        """(sum_j w_j k_j), added left to right in stage order."""
        (j, w), *rest = row.items()
        acc = w * k[j]
        for j, w in rest:
            acc += w * k[j]
        return acc

    for s in (14, 15, 16):
        with np.errstate(all="ignore"):
            at, state = t + _C[s - 1] * hs, y + hs * weighed(_A[s - 2])
        k[s] = np.array(list(map(field_fn, at[:, 0].tolist(),
                                 state.tolist())), dtype=float)
        if k[s].shape != y.shape:
            raise ValueError(f"field_fn returned shape {k[s].shape[1:]} "
                             f"for a state of {d}")
    out = _view(dense, 7, d)
    with np.errstate(all="ignore"):
        f0 = n - y
        f1 = hs * k[1] - f0
        out[i, 0], out[i, 1], out[i, 2] = f0, f1, f0 - hs * k[13] - f1
        for r, row in enumerate(_D, start=3):
            out[i, r] = hs * weighed(row)


def _interpolant(th, y0, f0, f1, f2, f3, f4, f5, f6):
    """y0 + th (f0 + (1 - th) (f1 + th (f2 + ... + th f6))), the dense
    output of one step, written once for floats (one component, events)
    and for arrays that broadcast (`sample`), so both give the same bits
    at the same th."""
    s1 = 1.0 - th
    return y0 + th * (f0 + s1 * (f1 + th * (f2 + s1 * (
        f3 + th * (f4 + s1 * (f5 + th * f6))))))


def _rms(values: list[float]) -> float:
    """Root mean square, summed in order on Python floats."""
    acc = 0.0
    for v in values:
        acc += v * v
    return math.sqrt(acc / len(values))


def _initial_step(field_fn, t0: float, y0: list[float], f0: Sequence[float],
                  sign: float, rel_tol: float, abs_tol: float,
                  span: float) -> float:
    sc = [abs_tol + rel_tol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, sc)])
    d1 = _rms([v / s for v, s in zip(f0, sc)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    # A slope that is NaN or infinite at any start, or too large for any
    # step to resolve.
    if not (h0 > 0.0 and all(map(math.isfinite, f0))):
        raise ValueError(f"the slope at the start, {[float(v) for v in f0]}"
                         f", is not finite or too steep to take a step")
    h0 = min(h0, span)
    sh0 = sign * h0
    f1 = field_fn(t0 + sh0, [v + sh0 * p for v, p in zip(y0, f0)])
    d2 = _rms([(q - p) / s
               for q, p, s in zip(f1, f0, sc, strict=True)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _EXPO
    return min(100.0 * h0, h1, span)


def _inlined_stage(field: Callable) -> tuple[Callable, dict]:
    """(stage, names) for writing field's marked body into a run.

    stage(s, at, state) gives the lines that bind k{s}_0, k{s}_1, ... to
    the field's slope at time `at` and the state whose components are the
    expressions `state`.  The body's own names become f_<name>, and the
    module-level and builtin names it reads g_<name>, so none meets a
    name of the run; `names` binds the latter.
    """
    (fdef,) = ast.parse(field.inlined_def[1]).body
    body = fdef.body[1:] if ast.get_docstring(fdef) is not None else fdef.body
    unpack, *statements, ret = body
    time, arg = (a.arg for a in fdef.args.args)
    target = unpack.targets[0] if isinstance(unpack, ast.Assign) else None
    components = [n.id for n in getattr(target, "elts", ())
                  if isinstance(n, ast.Name)]
    assigned = {n.id for st in statements if isinstance(st, ast.Assign)
                for t in st.targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    if not (isinstance(target, (ast.Tuple, ast.List))
            and len(components) == len(target.elts)
            and isinstance(unpack.value, ast.Name)
            and unpack.value.id == arg
            and all(isinstance(st, ast.Assign)
                    or isinstance(st, ast.If) and not st.orelse
                    for st in statements)
            and not assigned & {time, *components}
            and isinstance(ret, ast.Return)
            and isinstance(ret.value, ast.Tuple)
            and len(ret.value.elts) == len(components)):
        raise ValueError(f"{fdef.name}: not a field integrate can inline")
    local = {time, *components, *assigned}
    names: dict = {}
    read: set[str] = set()

    def rename(node: ast.AST) -> str:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in local:
                read.add(n.id)
                n.id = f"f_{n.id}"
            elif isinstance(n, ast.Name):
                g = field.__globals__
                names[f"g_{n.id}"] = (g[n.id] if n.id in g
                                      else getattr(builtins, n.id))
                n.id = f"g_{n.id}"
        return ast.unparse(node)

    # A guard's test is written out, not its body: the cold path is the
    # field's own.
    lines = [(True, rename(st.test)) if isinstance(st, ast.If)
             else (False, rename(st)) for st in statements]
    slopes = [rename(e) for e in ret.value.elts]
    comps = [f"f_{c}" for c in components]

    def stage(s: int, at: str, state: list[str]) -> list[str]:
        ks = [f"k{s}_{i}" for i in range(len(comps))]
        call = f"[{', '.join(ks)}] = field_fn({at}, [{', '.join(comps)}])"
        out = [f"{c} = {v}" for c, v in zip(comps, state)]
        if time in read:
            out.append(f"f_{time} = {at}")
        indent = ""
        for guard, line in lines:
            if guard:
                out += [f"{indent}if {line}:", f"{indent}    {call}",
                        f"{indent}else:"]
                indent += "    "
            else:
                out.append(indent + line)
        return out + [f"{indent}{k} = {e}" for k, e in zip(ks, slopes)]

    return stage, names


@functools.cache
def _run_fn(d: int, field: Callable | None = None) -> tuple:
    """(run, form) for states of d components, generated on first use.

    run(field_fn, t, t1, h, y, k1, sign, rel_tol, abs_tol, min_step,
    max_steps, window, stall_dt, ts, ys, steps, slopes, ev_fns, ev_dirs,
    gs) steps from (t, y, k1) toward t1, the first step of size h,
    appends each accepted one to ts, ys, steps and slopes (its slopes of
    the stages _KEPT), and returns (stop_reason, naccept, nreject, g_lo,
    g_hi): the event values ev_fns[i](t, y) (gs at the start) at the last
    two rows, of which one event changed sign in its direction
    ev_dirs[i] if the reason is STOP_EVENT.  form(field_fn, indices, ts,
    ys, steps, slopes, dense) writes the 7 d coefficients of each step
    in indices into dense at 7 d times its index, reading the step from
    the four buffers: the same lines as the run would have, over the
    same locals.  With `field`, a function `inlined_field` marked, each
    stage is that field's body written over the run's locals, none of
    which starts with f_ or g_; without, each stage calls field_fn, and
    unpacking each slope into d locals refuses a wrong-length one.  The
    weights are written into the source as float literals.  The source is
    kept in linecache, so a traceback through a run shows its line.
    Every sum keeps a fixed term order, and an inlined body every
    operation of the field's, on which trajectories' bits rest.
    """
    names: dict = {"sqrt": math.sqrt, "crosses": _crosses, "array": array}

    def every(expr: str) -> list[str]:
        """expr for every component, '#' standing for its index."""
        return [expr.replace("#", str(i)) for i in range(d)]

    def each(expr: str, sep: str = ", ") -> str:
        return sep.join(every(expr))

    def called(s: int, at: str, state: list[str]) -> list[str]:
        return [f"[{each(f'k{s}_#')}] = field_fn({at}, [{', '.join(state)}])"]

    stage = called
    if field is not None:
        stage, field_names = _inlined_stage(field)
        names.update(field_names)

    def weighed(row: dict) -> str:
        """(sum_j w_j k_j) for component '#', in stage order."""
        return f"({' + '.join(f'{w!r} * k{j}_#' for j, w in row.items())})"

    def stages(first: int, last: int) -> list[str]:
        """Stages first..last, each at t + c_s h and y + h sum_j a_sj k_j."""
        out = []
        for s in range(first, last + 1):
            c = _C[s - 1]
            at = "t + hs" if c == 1.0 else f"t + {c!r} * hs"
            out += stage(s, at, every(f"y# + hs * {weighed(_A[s - 2])}"))
        return out

    # An attempt: stages 2-12, the new state, and the error norm over the
    # scale abs_tol + rel_tol * max(|y|, |y_new|).
    attempt = stages(2, 12) + every(f"s# = {weighed(_B)}\nn# = y# + hs * s#")
    attempt += every(f"u# = abs(y#)\nw# = abs(n#)\n"
                     f"w# = abs_tol + rel_tol * (u# if u# > w# else w#)\n"
                     f"p# = {weighed(_E5)} / w#\n"
                     f"q# = (s# - {weighed(_BHH)}) / w#")
    attempt += [f"err5 = {each('p# * p#', ' + ')}",
                f"err3 = {each('q# * q#', ' + ')}",
                "deno = err5 + 0.01 * err3",
                f"err = 0.0 if deno == 0.0 else h * err5 / sqrt(deno * {d})"]
    # An accepted step: stage 13 at the new state (the next k1).  Forming
    # its interpolant, later, over the same locals: the dense output's
    # stages 14-16 and its coefficients.
    accepted = stage(13, "t + hs", every("n#"))
    formed = stages(14, 16) + every(
        "F0_# = n# - y#\nF1_# = hs * k1_# - F0_#\n"
        "F2_# = F0_# - hs * k13_# - F1_#")
    for r, row in enumerate(_D, start=3):
        formed += every(f"F{r}_# = hs * {weighed(row)}")
    coefficients = ", ".join(f"F{r}_{i}" for r in range(7) for i in range(d))
    kept = ", ".join(f"k{s}_{i}" for s in _KEPT for i in range(d))
    width = len(_KEPT) * d

    def stop(reason: str, g_hi: str = "gs") -> str:
        return f"return {reason!r}, naccept, nreject, gs, {g_hi}"

    # dop853.f's controller, each min and max written as the comparison
    # the builtin makes.
    fac_lo, fac_hi = repr(1.0 / _FAC_MAX), repr(1.0 / _FAC_MIN)
    src = [
        "def run(field_fn, t, t1, h, y, k1, sign, rel_tol, abs_tol, "
        "min_step, max_steps, window, stall_dt, ts, ys, steps, slopes, "
        "ev_fns, ev_dirs, gs):",
        f"    [{each('y#')}] = y", f"    [{each('k1_#')}] = k1",
        "    add_t, add_y, add_h, add_slopes = (ts.append, ys.extend, "
        "steps.append, slopes.extend)",
        "    naccept = nreject = 0",
        "    just_rejected = False",
        "    t_mark = t",
        "    mark = window",
        "    for _ in range(max_steps):",
        "        rem = abs(t1 - t)",
        "        if rem < h:",
        "            h = rem",
        "        last = h == rem",
        "        if not last and (h < min_step or t + sign * h == t):",
        "            " + stop(STOP_UNDERFLOW),
        "        hs = sign * h",
        *("        " + line for text in attempt for line in text.split("\n")),
        f"        fac = err ** {_EXPO!r} / {_SAFETY!r}",
        "        if err <= 1.0:",
        # Accept.  Land exactly on t1 when the step was clamped to it.
        *("            " + line for text in accepted
          for line in text.split("\n")),
        "            t_new = t1 if last else t + hs",
        "            add_t(t_new)",
        f"            add_y(({each('n#')},))",
        "            add_h(hs)",
        f"            add_slopes(({kept}))",
        "            naccept += 1",
        "            if ev_fns:",
        f"                y_new = [{each('n#')}]",
        "                gs_new = [fn(t_new, y_new) for fn in ev_fns]",
        "                for ga, gb, sense in zip(gs, gs_new, ev_dirs):",
        "                    if crosses(ga, gb, sense):",
        "                        " + stop(STOP_EVENT, "gs_new"),
        "                gs = gs_new",
        "            t = t_new",
        *(f"            {line}" for line in every("y# = n#")
          + every("k1_# = k13_#")),
        "            if last:",
        "                " + stop(STOP_REACHED_END),
        # Progress, once per window of accepted steps.
        "            if naccept == mark:",
        "                if abs(t - t_mark) < stall_dt:",
        "                    " + stop(STOP_STALLED),
        "                t_mark = t",
        "                mark += window",
        f"            if not fac < {fac_hi}:",
        f"                fac = {fac_hi}",
        f"            if not fac > {fac_lo}:",
        f"                fac = {fac_lo}",
        "            h_next = h / fac",
        "            if just_rejected and h < h_next:",
        "                h_next = h",
        "            h = h_next",
        "            just_rejected = False",
        "        else:",
        "            nreject += 1",
        "            just_rejected = True",
        f"            h = h / (fac if fac < {fac_hi} else {fac_hi})",
        "    " + stop(STOP_MAX_STEPS),
        "def form(field_fn, indices, ts, ys, steps, slopes, dense):",
        "    for i in indices:",
        "        t = ts[i]",
        "        hs = steps[i]",
        f"        [{each('y#')}, {each('n#')}] = "
        f"ys[i * {d}:i * {d} + {2 * d}]",
        f"        [{kept}] = slopes[i * {width}:i * {width} + {width}]",
        *("        " + line for text in formed for line in text.split("\n")),
        f"        dense[i * {7 * d}:i * {7 * d} + {7 * d}] = array("
        f"'d', ({coefficients}))",
    ]
    filename = f"<dop853 step d={d}>" if field is None else (
        f"<dop853 step d={d} {field.__module__}.{field.__qualname__}>")
    text = "\n".join(src) + "\n"
    linecache.cache[filename] = (len(text), None, text.splitlines(True),
                                 filename)
    exec(compile(text, filename, "exec"), names)
    return names["run"], names["form"]


def check_rel_tol(rel_tol: float) -> None:
    """Raise ValueError unless 1e-14 <= rel_tol < 1e-2."""
    if not 1e-14 <= rel_tol < 1e-2:
        raise ValueError(f"rel_tol must lie in [1e-14, 1e-2), got {rel_tol!r}")


def integrate(field_fn: Callable[[float, list[float]], Sequence[float]],
              y0: Sequence[float],
              t_span: tuple[float, float],
              *, rel_tol: float = 1e-10,
              events: Sequence[Event] = ()) -> Trajectory:
    """Integrate dy/dt = field_fn(t, y) over t_span from y0.

    field_fn(t, y) receives y as a list of d floats and returns d numbers
    (a tuple, a list or a 1-D array, not reused between calls).  The
    trajectory keeps field_fn to form each step's interpolant when it is
    first read, so field_fn must give the same slopes for as long as the
    trajectory is read.  Stops at the far end of the span, at the first
    event crossing, when the controller can no longer resolve a step or
    no longer advances, or when the step budget runs out; the stop reason
    is recorded on the trajectory.  Over a span of nonzero length, a
    slope at y0 that is not finite, or too steep for a first step, raises
    ValueError.
    """
    check_rel_tol(rel_tol)
    abs_tol = rel_tol * 1e-2
    t0, t1 = float(t_span[0]), float(t_span[1])
    try:
        y = [float(v) for v in y0]
    except TypeError:  # a scalar, or a component that is a sequence
        raise ValueError("state must be one-dimensional") from None
    d = len(y)

    k1 = field_fn(t0, y)
    # Refused here with its shape; the run's unpacking refuses any later
    # wrong-length slope.
    try:
        [float(v) for v in k1]
    except TypeError:
        import numpy as np

        raise ValueError(f"field_fn returned shape {np.shape(k1)}, not "
                         f"{d} components") from None
    if len(k1) != d:
        raise ValueError(f"field_fn returned {len(k1)} components for a "
                         f"state of {d}")
    ts, ys, steps, slopes = (array("d", [t0]), array("d", y), array("d"),
                             array("d"))
    if t1 == t0:
        return Trajectory((ts, ys, steps, slopes), STOP_REACHED_END,
                          rel_tol=rel_tol, abs_tol=abs_tol, nfev=1)

    sign = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    events = tuple(events)
    h = _initial_step(field_fn, t0, y, k1, sign, rel_tol, abs_tol, span)
    inlined, _ = getattr(field_fn, "inlined_def", (None, ""))
    run, form = _run_fn(d, field_fn if inlined is field_fn else None)
    stop_reason, naccept, nreject, g_lo, g_hi = run(
        field_fn, t0, t1, h, y, k1, sign, rel_tol, abs_tol, MIN_STEP,
        MAX_STEPS, STALL_WINDOW, STALL_FRACTION * span, ts, ys, steps,
        slopes, tuple(ev.fn for ev in events),
        tuple(ev.direction for ev in events), [ev.fn(t0, y) for ev in events])
    # Two evaluations start the run, each attempted step makes 11 and each
    # accepted one 1 more; forming a step's interpolant makes 3.
    nfev = 2 + 11 * (naccept + nreject) + naccept
    traj = Trajectory((ts, ys, steps, slopes), stop_reason, rel_tol=rel_tol,
                      abs_tol=abs_tol, nfev=nfev, naccept=naccept,
                      nreject=nreject, field_fn=field_fn, form=form)
    if stop_reason == STOP_EVENT:
        # The crossing becomes the last row, inside the last step, whose
        # interpolant is formed while that row is still its end.
        coefficients = traj._form([naccept - 1])[-7 * d:].tolist()
        traj.event, ts[-1], y_event = _first_crossing(
            events, g_lo, g_hi, ts[-2], ts[-1], steps[-1],
            ys[-2 * d:-d].tolist(), coefficients)
        ys[-d:] = array("d", y_event)
    return traj


def _state_at(t: float, t_lo: float, h: float, y_lo: list[float],
              coefficients: list[float]) -> list[float]:
    """The interpolant of the step of length h from (t_lo, y_lo) at time
    t, on floats; coefficients are its 7 x d coefficients, flat."""
    th = (t - t_lo) / h
    d = len(y_lo)
    return [_interpolant(th, y, *coefficients[i::d])
            for i, y in enumerate(y_lo)]


def _crosses(ga: float, gb: float, direction: int) -> bool:
    """Whether an event going from ga to gb over a step changes sign, or
    lands on 0, in its direction; a NaN never does."""
    return ((ga < 0.0 <= gb or ga > 0.0 >= gb)
            and not direction * (gb - ga) < 0.0)


def _first_crossing(events: Sequence[Event], g_lo: list, g_hi: list,
                    t_lo: float, t_hi: float, h: float, y_lo: list[float],
                    coefficients: list[float]) -> tuple[str, float, list]:
    """(name, t, y) of the earliest event crossing inside one accepted
    step, of length h from (t_lo, y_lo) to t_hi, which at least one event
    crosses; g_lo and g_hi are the events' values at its two rows."""
    from .diagnostics import refine

    def state(t: float) -> list[float]:
        return _state_at(t, t_lo, h, y_lo, coefficients)

    crossings = []
    for ev, ga, gb in zip(events, g_lo, g_hi):
        if not _crosses(ga, gb, ev.direction):
            continue
        t_ev = refine(lambda t: ev.fn(t, state(t)), t_lo, t_hi, ga, gb,
                      EVENT_T_TOL)
        crossings.append((abs(t_ev - t_lo), ev.name, t_ev))
    _, name, t_ev = min(crossings, key=lambda c: c[0])
    return name, t_ev, state(t_ev)

"""Adaptive Runge-Kutta integration and bracketing root-finding on Python floats.

The two numerical workhorses of the package, written for small systems (the
Z-equation has three unknowns) where per-call overhead dominates:

* :func:`solve_ivp` is the explicit Runge-Kutta pair DOP853 of Dormand and
  Prince, order 8 with embedded error estimators of orders 5 and 3, a
  7th-degree dense output, and a terminal event located on that dense output.
  Step control, initial-step selection and dense output follow Hairer,
  Norsett & Wanner, *Solving Ordinary Differential Equations I: Nonstiff
  Problems*, 2nd ed., sections II.4-II.6, in the formulation of SciPy's
  ``scipy.integrate.DOP853`` (same tableau, constants and error norm).
* :func:`brentq` is Brent's bracketing root-finder, *Algorithms for
  Minimization without Derivatives* (1973), chapter 4, in the formulation of
  SciPy's ``scipy.optimize.brentq``.

States are sequences of floats and right-hand sides return sequences of
floats; nothing here builds a numpy array.
"""
from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

from .errors import SingularityError

__all__ = ["OdeResult", "OdeSolution", "brentq", "solve_ivp"]

EPS = sys.float_info.epsilon

#: step-size controller: safety factor and bounds on the change per step
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
#: the controlled error is the order-7 estimate, so h scales as err**(-1/8)
ERROR_EXPONENT = -1.0 / 8.0

#: relative tolerance and iteration limit of :func:`brentq`
BRENT_RTOL = 4.0 * EPS
BRENT_MAXITER = 100

MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -1: "Required step size is less than spacing between numbers.",
}

# DOP853 tableau (Hairer's DOP853 coefficients, rounded to double). Rows list
# the nonzero entries only, as (stage index, coefficient). Stages 0-11 make
# the step, stage 12 is f(t + h, y_new) and stages 13-15 serve dense output.

#: nodes and a-rows of the step stages 1-11 (stage 0 is f(t, y))
_C = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
)
_A = (
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
     (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
#: weights of the order-8 solution (the a-row of stage 12)
_B = (
    (0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.04471061572777259),
)
#: order-5 and order-3 error estimators
_E5 = (
    (0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
    (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
    (10, 0.08192320648511571), (11, -0.022355307863886294),
)
_E3 = (
    (0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.02265179219836082),
)
#: nodes and a-rows of the dense-output stages 13, 14, 15
_C_EXTRA = (0.1, 0.2, 0.7777777777777778)
_A_EXTRA = (
    ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
     (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
     (11, 0.007567897660545699), (12, -0.008298)),
    ((0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
     (7, -0.05492374857139099), (10, -0.00010834732869724932),
     (11, 0.0003825710908356584), (12, -0.00034046500868740456),
     (13, 0.1413124436746325)),
    ((0, -0.42889630158379194), (5, -4.697621415361164), (6, 7.683421196062599),
     (7, 4.06898981839711), (8, 0.3567271874552811), (12, -0.0013990241651590145),
     (13, 2.9475147891527724), (14, -9.15095847217987)),
)
#: rows 3-6 of the dense-output interpolant (rows 0-2 come from y and f)
_D = (
    ((0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917),
     (7, 2.38466765651207), (8, 2.117034582445028), (9, -0.871391583777973),
     (10, 2.2404374302607883), (11, 0.6315787787694688), (12, -0.08899033645133331),
     (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028),
     (7, -374.5467547226902), (8, -22.113666853125306), (9, 7.733432668472264),
     (10, -30.674084731089398), (11, -9.332130526430229), (12, 15.697238121770845),
     (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758),
     (7, 527.8081592054236), (8, -11.57390253995963), (9, 6.8812326946963),
     (10, -1.0006050966910838), (11, 0.7777137798053443), (12, -2.778205752353508),
     (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455),
     (7, 357.6391179106141), (8, 93.40532418362432), (9, -37.45832313645163),
     (10, 104.0996495089623), (11, 29.8402934266605), (12, -43.53345659001114),
     (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564)),
)


def _split(row):
    """(stage indices, coefficients) of a sparse tableau row."""
    return tuple(zip(*row))


_A, _B, _E5, _E3, _A_EXTRA, _D = (
    tuple(_split(r) for r in _A), _split(_B), _split(_E5), _split(_E3),
    tuple(_split(r) for r in _A_EXTRA), tuple(_split(r) for r in _D),
)


def _combine(K, row) -> list[float]:
    """``sum_j coef_j K[j]`` componentwise, for a row from :func:`_split`."""
    idx, coef = row
    return [sum(map(mul, coef, col)) for col in zip(*[K[j] for j in idx])]


def _fill_stages(f, t, y, h, K, first, nodes, rows) -> None:
    """Evaluate stages ``first, first + 1, ...`` of a step of size h into K."""
    for s, (c, row) in enumerate(zip(nodes, rows), start=first):
        dy = _combine(K, row)
        K[s] = f(t + c * h, [v + d * h for v, d in zip(y, dy)])


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v)) / len(v) ** 0.5


@dataclass
class OdeResult:
    """Outcome of :func:`solve_ivp`.

    ``t`` holds the start time and every accepted step's end (the last entry
    is the event time when the event fired), ``nfev`` counts every
    right-hand-side call including ones that raised, ``sol`` is the dense
    output over the integrated range, ``status`` is 0 (reached the end),
    1 (terminal event) or -1 (step size underflow).
    """

    t: list[float]
    nfev: int
    sol: OdeSolution
    status: int
    message: str


class _Interpolant:
    """Dense output of one DOP853 step: the degree-7 polynomial in ``x = (t - t0)/h``.

    ``rows`` holds one Horner row ``(y0, f0, ..., f6)`` per state component,
    zipped once when the step is accepted.
    """

    __slots__ = ("t0", "h", "rows")

    def __init__(self, t0: float, h: float, y0: list[float], F: list[list[float]]):
        self.t0, self.h = t0, h
        self.rows = tuple(zip(y0, *F))

    def __call__(self, t: float) -> list[float]:
        x = (t - self.t0) / self.h
        u = 1.0 - x
        return [
            ((((((f6 * x + f5) * u + f4) * x + f3) * u + f2) * x + f1) * u + f0) * x + y0
            for y0, f0, f1, f2, f3, f4, f5, f6 in self.rows
        ]


class OdeSolution:
    """Piecewise dense output; a time on a step boundary belongs to the earlier step."""

    def __init__(self, ts: list[float], interpolants: list[_Interpolant]):
        self.ts = ts
        self.interpolants = interpolants

    def __call__(self, t: float) -> list[float]:
        i = bisect.bisect_left(self.ts, t) - 1
        return self.interpolants[min(max(i, 0), len(self.interpolants) - 1)](t)


def _initial_step(fun, t0, y0, f0, t_bound, max_step, rtol, atol) -> float:
    """Starting step from the local-error heuristic of Hairer et al., sec. II.4."""
    span = t_bound - t0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t0 + h0, [v + h0 * f for v, f in zip(y0, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100.0 * h0, h1, span, max_step)


def _error_norm(K, h: float, scale: list[float]) -> float:
    """RMS norm of the order-5 error estimate, damped by the order-3 one."""
    n5 = sum((e / s) ** 2 for e, s in zip(_combine(K, _E5), scale))
    n3 = sum((e / s) ** 2 for e, s in zip(_combine(K, _E3), scale))
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * len(scale))


def solve_ivp(
    fun: Callable[[float, list[float]], Sequence[float]],
    t_span: tuple[float, float],
    y0: Sequence[float],
    rtol: float,
    atol: float,
    max_step: float = math.inf,
    event: Callable[[float, list[float]], float] | None = None,
) -> OdeResult:
    """Integrate ``y' = fun(t, y)`` forward over ``t_span`` with DOP853.

    Every step is accepted when the scaled error norm (scale
    ``atol + rtol max(|y|, |y_new|)`` per component) is below 1. Dense output
    is built on every accepted step. The optional ``event(t, y)`` is terminal:
    the integration stops in the first step over which its value goes from
    negative to non-negative, at the time located by :func:`brentq` on that
    step's dense output.

    A right-hand side that raises :class:`~rotwave.errors.SingularityError`
    rejects the trial step and halves the step size, as a failed error test
    does; the failed call still counts in ``nfev``.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t:
        raise ValueError("t_span must be increasing")
    if not max_step > 0.0:
        raise ValueError("max_step must be positive")
    rtol = max(rtol, 100.0 * EPS)
    nfev = 0

    def f(s: float, y: list[float]):
        nonlocal nfev
        nfev += 1
        return fun(s, y)

    y = [float(v) for v in y0]
    fy = f(t, y)
    h_abs = _initial_step(f, t, y, fy, t_bound, max_step, rtol, atol)
    g = event(t, y) if event is not None else 0.0
    ts = [t]
    interpolants: list[_Interpolant] = []
    K: list = [None] * 16
    status = None
    while status is None:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return OdeResult(ts, nfev, OdeSolution(ts, interpolants), -1, MESSAGES[-1])
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h
            try:
                K[0] = fy
                _fill_stages(f, t, y, h, K, 1, _C, _A)
                y_new = [v + h * d for v, d in zip(y, _combine(K, _B))]
                f_new = K[12] = f(t + h, y_new)
                scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
                err = _error_norm(K, h, scale)
                if err < 1.0:
                    _fill_stages(f, t, y, h, K, 13, _C_EXTRA, _A_EXTRA)
            except SingularityError:
                h_abs *= 0.5
                rejected = True
                continue
            if err < 1.0:
                factor = MAX_FACTOR
                if err > 0.0:
                    factor = min(MAX_FACTOR, SAFETY * err**ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err**ERROR_EXPONENT)
            rejected = True

        delta = [b - a for a, b in zip(y, y_new)]
        F = [
            delta,
            [h * a - d for a, d in zip(fy, delta)],
            [2.0 * d - h * (b + a) for d, a, b in zip(delta, fy, f_new)],
            *([h * v for v in _combine(K, row)] for row in _D),
        ]
        interp = _Interpolant(t, h, y, F)
        interpolants.append(interp)
        t_old = t
        t, y, fy = t_new, y_new, f_new
        if t >= t_bound:
            status = 0
        if event is not None:
            g_new = event(t, y)
            if g < 0.0 <= g_new:
                t = brentq(lambda s: event(s, interp(s)), t_old, t, 4.0 * EPS)
                status = 1
            g = g_new
        ts.append(t)
    return OdeResult(ts, nfev, OdeSolution(ts, interpolants), status, MESSAGES[status])


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    fa: float | None = None,
    fb: float | None = None,
) -> float:
    """Root of ``f`` in the bracket [a, b] by Brent's method.

    Converges when the bracket half-width falls below
    ``(xtol + BRENT_RTOL |x|) / 2``. ``fa`` and ``fb``, when given, are the
    known values ``f(a)`` and ``f(b)`` and save their evaluation.

    Raises
    ------
    ValueError
        If ``f(a)`` and ``f(b)`` have the same sign, if ``f`` returns NaN, or
        if ``xtol <= 0``.
    RuntimeError
        If BRENT_MAXITER iterations do not converge.
    """
    if not xtol > 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def value(x: float, fx: float | None) -> float:
        fx = f(x) if fx is None else fx
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre, fa), value(xcur, fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur, None)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations, value is {xcur}")

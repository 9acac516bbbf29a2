"""Adaptive Runge-Kutta integration and bracketing root-finding on Python floats.

The two numerical workhorses of the package, written for small systems (the
Z-equation has three unknowns) where per-call overhead dominates:

* :func:`solve_ivp` is the explicit Runge-Kutta pair DOP853 of Dormand and
  Prince, order 8 with embedded error estimators of orders 5 and 3, a
  7th-degree dense output, built only for the last step and for the steps
  that are sampled, and a terminal event located on that dense output.
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
import functools
import math
import sys
from collections.abc import Callable, Sequence

from .errors import SingularityError
from .so3 import _generated

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


def _terms(row, i: int) -> str:
    """``c0*k0_i + c3*k3_i + ...`` over a sparse row, in tableau order.

    Evaluated left to right, this is exactly the float arithmetic of
    ``sum(c * k for c, k in row)`` on Python 3.11 (up to the sign of an
    all-zero sum, which ``sum`` starts from the integer 0).
    """
    return " + ".join(f"{c!r}*k{j}_{i}" for j, c in row)


#: the stages that the dense-output kernel reads from the step: those of the
#: rows of stages 13-15 and of the interpolant, with f(t, y) and f(t + h, y_new)
_DENSE_INPUTS = tuple(sorted({0, 12} | {j for row in _A_EXTRA + _D for j, _ in row if j < 13}))


def _step_source(n: int) -> str:
    """Source of the two DOP853 kernels on an n-component state, as straight-line code.

    ``step(f, t, y, fy, h, rtol, atol)`` evaluates stages 1-12, forms the
    order-8 solution ``yn`` and ``fn = f(t + h, yn)``, and the error norm. It
    returns ``(yn, fn, err, stages)``, ``stages`` the flat tuple of the
    components of the stages in ``_DENSE_INPUTS``.

    ``dense(f, t, y, yn, h, stages)`` evaluates the dense-output stages 13-15
    of that step and returns one Horner row ``(y, f0, ..., f6)`` per component
    for :class:`_Interpolant`. It is a separate kernel because only the last
    step of a solve and a step that is sampled need it (:func:`solve_ivp`
    says when it runs); its floats and their order are those of one kernel
    doing both.

    Stage s of component i is the local ``k{s}_{i}`` in both. Each call of
    ``f`` is one line, and a SingularityError that one raises leaves either
    kernel with ``rhs_calls`` set to the calls it made, that one included:
    ``RHS_CALLS`` maps the line of each call to that count (:func:`_step_kernel`).
    """
    comps = range(n)

    def names(s: str) -> str:
        return ", ".join(f"{s}_{i}" for i in comps) + ","

    def stage(s: int, c: float, row) -> str:
        args = ", ".join(f"y_{i} + ({_terms(row, i)}) * h" for i in comps)
        return f"        {names(f'k{s}')} = f(t + {c!r} * h, [{args}])"

    reported = [
        "    except SingularityError as exc:",
        "        exc.rhs_calls = RHS_CALLS[exc.__traceback__.tb_lineno]",
        "        raise",
    ]
    kept = " ".join(names(f"k{s}") for s in _DENSE_INPUTS)
    lines = [
        "def step(f, t, y, fy, h, rtol, atol):",
        f"    {names('y')} = y",
        f"    {names('k0')} = fy",
        "    try:",
    ]
    lines += [stage(s, c, row) for s, (c, row) in enumerate(zip(_C, _A), start=1)]
    for i in comps:
        lines.append(f"        yn_{i} = y_{i} + h * ({_terms(_B, i)})")
    lines += [
        f"        yn = [{', '.join(f'yn_{i}' for i in comps)}]",
        "        fn = f(t + h, yn)",
        *reported,
        f"    {names('k12')} = fn",
    ]
    for i in comps:
        lines += [
            f"    a_{i} = abs(y_{i})",
            f"    b_{i} = abs(yn_{i})",
            # max(a, b) of two floats, NaN included
            f"    s_{i} = atol + (b_{i} if b_{i} > a_{i} else a_{i}) * rtol",
        ]
    lines.append("    try:")
    for name, row in (("n5", _E5), ("n3", _E3)):
        sq = " + ".join(f"(({_terms(row, i)}) / s_{i})**2" for i in comps)
        lines.append(f"        {name} = {sq}")
    lines += [
        # a float ** raises on overflow where numpy gives inf: the step fails
        "    except OverflowError:",
        "        err = inf",
        "    else:",
        "        if n5 == 0.0 and n3 == 0.0:",
        "            err = 0.0",
        "        else:",
        f"            err = abs(h) * n5 / sqrt((n5 + 0.01 * n3) * {n})",
        f"    return yn, fn, err, ({kept})",
        "",
        "def dense(f, t, y, yn, h, stages):",
        f"    {names('y')} = y",
        f"    {names('yn')} = yn",
        f"    {kept} = stages",
        "    try:",
    ]
    lines += [stage(s, c, row) for s, (c, row) in enumerate(zip(_C_EXTRA, _A_EXTRA), start=13)]
    lines += reported
    rows = []
    for i in comps:
        dense = ", ".join(f"h * ({_terms(row, i)})" for row in _D)
        lines.append(f"    d_{i} = yn_{i} - y_{i}")
        rows.append(
            f"(y_{i}, d_{i}, h * k0_{i} - d_{i}, 2.0 * d_{i} - h * (k12_{i} + k0_{i}), {dense})"
        )
    lines.append(f"    return ({', '.join(rows)},)")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _step_kernel(n: int) -> tuple[Callable, Callable]:
    """The compiled :func:`_step_source` kernels ``(step, dense)`` for n-component states,
    built once per n."""
    source = _step_source(n)
    calls, made = {}, 0
    for number, line in enumerate(source.splitlines(), start=1):
        if line.startswith("def "):
            made = 0
        elif " = f(" in line:
            made += 1
            calls[number] = made
    namespace = _generated(source, f"<DOP853 step, n={n}>", RHS_CALLS=calls)
    return namespace["step"], namespace["dense"]


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v)) / len(v) ** 0.5


class OdeResult:
    """Outcome of :func:`solve_ivp`.

    ``t`` holds the start time and every accepted step's end (the last entry
    is the event time when the event fired), ``nfev`` counts the
    right-hand-side calls made inside :func:`solve_ivp`, including ones that
    raised (the dense-output stages that ``sol`` evaluates later, when a step
    other than the last is first sampled, are not counted; :func:`solve_ivp`
    says how it counts), ``sol`` is the dense
    output over the integrated range, ``status`` is 0 (reached the end),
    1 (terminal event) or -1 (step size underflow). ``singular_rejections``
    counts the trial steps rejected because the right-hand side raised
    SingularityError (a probe of the initial-step heuristic is no step).
    """

    def __init__(
        self, t: list[float], nfev: int, sol: OdeSolution, status: int, message: str,
        singular_rejections: int,
    ):
        self.t, self.nfev, self.sol, self.status = t, nfev, sol, status
        self.message, self.singular_rejections = message, singular_rejections


class _Interpolant:
    """Dense output of one DOP853 step: the degree-7 polynomial in ``x = (t - t0)/h``.

    ``rows`` holds one Horner row ``(y0, f0, ..., f6)`` per state component,
    as the dense kernel returns them, or None until a sample needs them.
    Until then ``pending`` holds ``(f, dense, y, yn, stages)``, what the
    dense kernel needs to evaluate stages 13-15; :meth:`dense_rows` does that
    once, keeps the rows and drops the stages.

    A sample at the step's start needs no rows: at ``x = 0`` the polynomial
    is ``S 0 + y0``, S the rest of the Horner scheme, which is bitwise ``y0``
    while S is finite, unless ``y0`` is ``-0.0`` (the sum then takes the sign
    of ``S 0``). So such a sample returns the step's start state, and builds
    the rows only if a component of it is ``-0.0``.
    """

    __slots__ = ("t0", "h", "rows", "pending")

    def __init__(self, t0: float, h: float, pending: tuple):
        self.t0, self.h, self.rows, self.pending = t0, h, None, pending

    def __call__(self, t: float) -> list[float]:
        x = (t - self.t0) / self.h
        rows = self.rows
        if rows is None:
            y = self.pending[2]
            if x == 0.0 and all(a or math.copysign(1.0, a) > 0.0 for a in y):
                return list(y)
            rows = self.dense_rows()
        u = 1.0 - x
        return [_horner(x, u, row) for row in rows]

    def dense_rows(self) -> tuple:
        """The Horner rows, evaluating the deferred dense-output stages on first use."""
        if self.rows is None:
            f, dense, y, yn, stages = self.pending
            self.rows = dense(f, self.t0, y, yn, self.h, stages)
            self.pending = None
        return self.rows


def _horner(x, u, row):
    """One Horner row at ``x`` and ``u = 1 - x``; floats, or arrays of x, u and row entries."""
    y0, f0, f1, f2, f3, f4, f5, f6 = row
    return ((((((f6 * x + f5) * u + f4) * x + f3) * u + f2) * x + f1) * u + f0) * x + y0


class OdeSolution:
    """Piecewise dense output; a time on a step boundary belongs to the earlier step."""

    def __init__(self, ts: list[float], interpolants: list[_Interpolant]):
        self.ts = ts
        self.interpolants = interpolants

    def __call__(self, t: float) -> list[float]:
        i = bisect.bisect_left(self.ts, t) - 1
        return self.interpolants[min(max(i, 0), len(self.interpolants) - 1)](t)


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> tuple[float, int]:
    """Starting step from the local-error heuristic of Hairer et al., sec. II.4, and the
    number of probes ``fun(t0 + h0, ...)`` it took.

    A probe that raises SingularityError is retried at half the step; below
    ten ulps of ``t0`` that step is returned, for the stepper to report."""
    span = t_bound - t0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    probes = 0
    while True:
        probes += 1
        try:
            f1 = fun(t0 + h0, [v + h0 * f for v, f in zip(y0, f0)])
            break
        except SingularityError:
            h0 *= 0.5
            if h0 < 10.0 * (math.nextafter(t0, math.inf) - t0):
                return h0, probes
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100.0 * h0, h1, span), probes


def solve_ivp(
    fun: Callable[[float, list[float]], Sequence[float]],
    t_span: tuple[float, float],
    y0: Sequence[float],
    rtol: float,
    atol: float,
    event: Callable[[float, list[float]], float] | None = None,
    first_step: float | None = None,
) -> OdeResult:
    """Integrate ``y' = fun(t, y)`` forward over ``t_span`` with DOP853.

    The first trial step is ``first_step``, capped at the span, when it is
    given (a positive float), and otherwise the one of the initial-step
    heuristic of Hairer et al., sec. II.4 (:func:`_initial_step`), which costs
    one more right-hand-side call.

    Every step is accepted when the scaled error norm (the RMS norm of the
    order-5 error estimate, damped by the order-3 one, with scale
    ``atol + rtol max(|y|, |y_new|)`` per component) is below 1. One step is
    straight-line float code generated from the tableau for the state's
    dimension (:func:`_step_source`), stages 0-12 and the error norm. The
    optional ``event(t, y)``, evaluated at the end of each trial step that
    passes the error test, is terminal: the integration stops in the first
    step over which its value goes from negative to non-negative, at the time
    located by :func:`brentq` on that step's dense output.

    The dense-output stages 13-15 of a step run only when something needs its
    interpolant: inside the trial step for the last step (the one in which
    the event fires or that reaches ``t_bound``), since callers read the end
    of the range from it (``brentq``, a restart state, A(T)); else the first
    time ``sol`` samples the step at a time other than its start, and then
    once. A step that is never sampled costs 12 right-hand-side calls instead
    of 15. ``fun`` must therefore be a pure function of ``(t, y)``: a
    deferred stage calls it after this function has returned, possibly after
    other solves, and must get the value it would have got here. Those calls
    do not count in ``nfev``, and an error they raise reaches the caller of
    ``sol``.

    A right-hand side that raises :class:`~rotwave.errors.SingularityError`
    rejects the trial step, or the probe of the initial-step heuristic, and
    halves the step size, as a failed error test does; the failed call still
    counts in ``nfev``, and the step in ``singular_rejections``. That holds
    for the dense stages of the last step too. An error that ``event``
    raises reaches the caller.

    ``fun`` goes to the kernels as it is, with no counting wrapper, and
    ``nfev`` is counted by what each part of the solve calls: 1 for the start
    value, one per probe of the initial-step heuristic (each halved retry
    included), 12 per trial step and 3 for the last step's dense stages. A
    step or dense run that a SingularityError ends counts the calls it made up
    to and including the one that raised, which the kernel reports as the
    exception's ``rhs_calls`` (:func:`_step_source`).
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t:
        raise ValueError("t_span must be increasing")
    rtol = max(rtol, 100.0 * EPS)
    singular = 0
    y = [float(v) for v in y0]
    step, dense = _step_kernel(len(y))
    fy = fun(t, y)
    nfev = 1
    h_abs = first_step
    if first_step is None:
        h_abs, probes = _initial_step(fun, t, y, fy, t_bound, rtol, atol)
        nfev += probes
    g = event(t, y) if event is not None else 0.0
    ts = [t]
    interpolants: list[_Interpolant] = []
    status = None
    fired = False
    while status is None:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                sol = OdeSolution(ts, interpolants)
                return OdeResult(ts, nfev, sol, -1, MESSAGES[-1], singular)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h
            try:
                y_new, f_new, err, stages = step(fun, t, y, fy, h, rtol, atol)
            except SingularityError as exc:
                nfev += exc.rhs_calls
                h_abs *= 0.5
                rejected = True
                singular += 1
                continue
            nfev += 12
            if err < 1.0:
                interp = _Interpolant(t, h, (fun, dense, y, y_new, stages))
                if event is not None:
                    g_new = event(t_new, y_new)
                    fired = g < 0.0 <= g_new
                if fired or t_new >= t_bound:
                    # the last step: callers read the end of the range
                    # (brentq, a restart state, A(T)) from its dense output
                    try:
                        interp.dense_rows()
                    except SingularityError as exc:
                        nfev += exc.rhs_calls
                        h_abs *= 0.5
                        rejected = True
                        singular += 1
                        continue
                    nfev += 3
                factor = MAX_FACTOR
                if err > 0.0:
                    factor = min(MAX_FACTOR, SAFETY * err**ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err**ERROR_EXPONENT)
            rejected = True

        interpolants.append(interp)
        t_old = t
        t, y, fy = t_new, y_new, f_new
        if t >= t_bound:
            status = 0
        if event is not None:
            if fired:
                t = brentq(lambda s: event(s, interp(s)), t_old, t, 4.0 * EPS)
                status = 1
            g = g_new
        ts.append(t)
    return OdeResult(ts, nfev, OdeSolution(ts, interpolants), status, MESSAGES[status], singular)


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

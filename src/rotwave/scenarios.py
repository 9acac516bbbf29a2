"""Built-in forcing families with closed-form group solutions.

Each family perturbs a rigid rotation ``X_0 = x0_norm * X0_dir`` after a Hopf
bifurcation at lambda = 0 (epsilon = sqrt(lambda) throughout) and admits an
exact solution of ``Adot = A hat(X^G)``, which makes the families the test
bed for the integrator, the frequency extraction, and the drift finder:

``example1``  nonresonant meander: X^G = P gdot + Ad(exp(-P g)) (X0 + eps X1)
              with P = 2 eps (X1 + X2 + X0_dir); A = exp((X0+eps X1) t) exp(P g).
``example2``  1:1 resonant orthogonal drift: the modulation eps X1 is
              conjugated around C = X0 + eps X2; A = exp(eps X1 t) exp(C Theta).
``example3``  1:1 resonant slow meander: as example2 with eps (X0 + X1).
``example4``  k:1 resonant two-parameter family C = X0 + mu X1,
              W = (eps - mu) X0 + X1 + X2; the drift is orthogonal to X0
              exactly at mu = eps.
``example5``  modulated rotating wave with collinear modulation:
              X^G = (X0 + eps X1)(1 + eps gdot), A = exp((X0+eps X1)(t+eps g)).

``case1``..``case3`` are examples 1-3 under the names of the study cases.

Each family's forcing is one of two shapes: conjugated (example1-4), X^G = C theta' +
amp Ad(exp(-C theta)) w with A = exp(u t) exp(C theta), and collinear (example5). Each
shape is one record of :data:`_SHAPES`: the layout of the per-lambda constants, the X^G
fragment from which :mod:`rotwave.flow` generates the forcing's eval and its fused
Z-equation right-hand side, and the closed form's phase and body, built from the
Rodrigues and product fragments of :mod:`rotwave.so3` (:func:`_closed_kernel`).

Each name of :mod:`rotwave.flow` is imported where it is called: in :meth:`Scenario.forcing`,
in the forcing's eval builder and in :func:`verify_against_closed_form`. :func:`build`,
:meth:`Scenario.period` and :meth:`Scenario.closed_form` run no ``flow``, so the CLI checks a
configuration without loading the integrator.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable

from ._numpy import lazy_numpy
from .errors import ConfigError, DomainError
from .so3 import (
    _EXP_APPLY,
    _EXP_MATRIX,
    _MATMUL3,
    IntegratorConfig,
    _as_unit3,
    _cross3,
    _dot3,
    _finite,
    _frob_dist,
    _generated,
    _indented,
    _nine,
    _norm3,
    _positive,
    _renamed,
    _vec3,
)

np = lazy_numpy(globals())

__all__ = [
    "Frame",
    "Scenario",
    "available",
    "build",
    "verify_against_closed_form",
]

#: the modulation phase of the conjugated shape, ``theta = g`` (nu None) or ``nu t + lam g`` with
#: ``g = sin(freq t)``, ``freq = omega_eff + lam``: reads freq, lam, nu and t, sets phase, g and theta
_THETA = """\
phase = freq * t
g = sin(phase)
theta = g if nu is None else nu * t + lam * g
"""

#: each forcing shape as one record ``(layout, xg, phase, body)``. ``layout`` names the tuple
#: that ``lookup(lam)`` returns, and the forcing, its fused right-hand side and the closed form
#: all unpack it; ``xg`` sets X^G's x0, x1, x2 (:func:`rotwave.flow._shape_kernel`); ``phase``
#: and ``body`` set the closed form's m0..m8 (:func:`_closed_kernel`)
_SHAPES = {
    "conjugated": ("lam, freq, eps, (c0, c1, c2), nu, (w0, w1, w2), amp, (u0, u1, u2)", _THETA + """\
gdot = freq * cos(phase)
rate = gdot if nu is None else nu + lam * gdot
v0 = -(c0 * theta)
v1 = -(c1 * theta)
v2 = -(c2 * theta)
""" + _EXP_APPLY + """\
x0 = c0 * rate + amp * r0
x1 = c1 * rate + amp * r1
x2 = c2 * rate + amp * r2
""",
        _THETA,
        "v0 = u0 * t\nv1 = u1 * t\nv2 = u2 * t\n" + _renamed(_EXP_MATRIX, "e", "a")
        + "v0 = c0 * theta\nv1 = c1 * theta\nv2 = c2 * theta\n" + _renamed(_EXP_MATRIX, "e", "b")
        + _MATMUL3,
    ),
    "collinear": ("lam, freq, eps, (c0, c1, c2)", """\
rate = 1.0 + eps * (freq * cos(freq * t))
x0 = c0 * rate
x1 = c1 * rate
x2 = c2 * rate
""",
        "s = t + eps * sin(freq * t)\n",
        "v0 = c0 * s\nv1 = c1 * s\nv2 = c2 * s\n" + _renamed(_EXP_MATRIX, "e", "m"),
    ),
}


@functools.lru_cache(maxsize=None)
def _closed_kernel(shape: str) -> Callable:
    """``bind(lookup) -> closed`` for one shape, compiled from its record in :data:`_SHAPES` at
    the shape's first closed form: ``closed(t, lam)`` returns the nine floats of A(t),
    row-major. Where math's sin refuses an infinite phase, the phase raises the DomainError
    that a factor with an infinite angle raises."""
    layout, _, phase, body = _SHAPES[shape]
    guarded = ("try:\n" + _indented(phase, 1)
               + 'except ValueError:\n    raise DomainError("expected a finite 3-vector") from None\n')
    source = f"""\
def bind(lookup):
    def closed(t, lam):
        {layout} = lookup(lam)
{_indented(guarded + body, 2)}        return {_nine("m")}
    return closed
"""
    return _generated(source, f"<{shape} closed form>")["bind"]


class Frame:
    """Orthonormal right-handed frame with ``x0_dir x x1 = x2``.

    x0_dir is the primary rotation direction; x1, x2 span the transverse
    drift plane. Each is stored as a float triple.
    """

    def __init__(
        self, x0_dir: tuple = (0.0, 0.0, 1.0), x1: tuple = (1.0, 0.0, 0.0), x2: tuple = (0.0, 1.0, 0.0),
    ):
        for name, v in (("x0_dir", x0_dir), ("x1", x1), ("x2", x2)):
            try:
                setattr(self, name, _as_unit3(v, name))
            except DomainError as exc:
                raise ConfigError(f"frame vector {name}: {exc}") from None
        z, x1, x2 = self.x0_dir, self.x1, self.x2
        if max(abs(_dot3(z, x1)), abs(_dot3(z, x2)), abs(_dot3(x1, x2))) > 1e-10:
            raise ConfigError("frame vectors must be mutually orthogonal within 1e-10")
        if _norm3([a - b for a, b in zip(_cross3(z, x1), x2)]) > 1e-10:
            raise ConfigError("frame must be right-handed: x0_dir x x1 = x2")


class Scenario:
    """One forcing family instance; built via :func:`build`."""

    def __init__(
        self, name: str, family: str, omega_bif: float, x0_norm: float, r: float,
        tip_x0: tuple, frame: Frame, k: int = 1,
    ):
        self.name, self.family, self.omega_bif, self.x0_norm = name, family, omega_bif, x0_norm
        self.r, self.tip_x0, self.frame, self.k = r, tip_x0, frame, k
        self._built = {}  # None or float(mu) -> the closures of _pieces, the latest only
        self._closed = (None, None)  # a mu that is None or a float, and its closed form

    @property
    def X0(self) -> tuple:
        return tuple(self.x0_norm * a for a in self.frame.x0_dir)

    @property
    def takes_mu(self) -> bool:
        return self.family == "example4"

    def _pieces(self, mu: float | None):
        """(forcing_eval() -> xg, closed_eval() -> closed(t, lam), period(lam)) for this family at mu.

        ConfigError unless mu is None or, on example4, a finite number. Built once per ``float(mu)``,
        which they compute with; only the latest is kept, as a root find asks for a new mu each time.
        """
        if mu is not None and not self.takes_mu:
            raise ConfigError(f"scenario {self.name!r} takes no mu parameter")
        mu = None if mu is None else _finite(mu, "mu", ConfigError)
        if mu not in self._built:
            self._built.clear()
            self._built[mu] = self._build_pieces(mu)
        return self._built[mu]

    def _build_pieces(self, mu: float | None):
        """The three closures of :meth:`_pieces`.

        Each family is one shape of :data:`_SHAPES`, whose forcing ``xg`` and closed form
        ``closed`` it shares, and supplies only ``constants(lam, eps, freq)``, the tail of the
        shape's layout: ``(C, nu, w, amp, u)`` on the conjugated shape (example1-4), where
        theta = g when nu is None (example1), else ``nu t + lam g``, and u = amp w, exact as
        u = w with amp = 1.0 on example1-3; ``(X0 + eps X1,)`` on the collinear one (example5).

        ``lookup(lam)`` returns the whole layout, ``(float(lam), freq, eps, *constants)``:
        eps = sqrt(lam) and the modulation frequency freq = omega_eff + lam are computed
        there, once per lambda, and every closure computes with this ``float(lam)``, never
        with the caller's object. They may be called at any lambda; one that is not a
        nonnegative finite number raises DomainError, and constants past the float range, or
        a norm that underflows to 0, ConfigError. The tuple sits in a last-lambda memo, read
        and replaced whole, so a lambda is never paired with another's constants. It is
        keyed by the lambda object itself (``is``): the integrator passes one object for a
        whole run, ``-0.0`` and ``0.0`` (equal, but with constants of different sign) never
        share an entry, and an equal lambda in another object only recomputes.

        ``forcing_eval()`` makes ``xg`` and its fused right-hand side at the first
        :meth:`forcing` (:func:`rotwave.flow._shape_kernel`), ``closed_eval()`` makes
        ``closed`` at the first closed form (:func:`_closed_kernel`), the one path of
        :meth:`closed_form` and :func:`verify_against_closed_form`. Each float operation
        is that of the module docstring's formulas evaluated with numpy vectors and
        ``exp_rot``, in the same order, and the product sums each entry's row-by-column
        terms left to right, so the values equal those bitwise.
        """
        fr = self.frame
        X0_l, x1_l, x2_l = list(self.X0), list(fr.x1), list(fr.x2)
        omega_eff = self.omega_bif
        if self.family == "example1":
            pdir_l = [2.0 * (a + b + c) for a, b, c in zip(x1_l, x2_l, fr.x0_dir)]

            def constants(lam: float, eps: float, freq: float):
                # C = P = eps pdir; u = w = X0 + eps X1
                w = [a + eps * b for a, b in zip(X0_l, x1_l)]
                return [eps * p for p in pdir_l], None, w, 1.0, w

        elif self.family in ("example2", "example3"):
            wdir_l = x1_l if self.family == "example2" else [a + b for a, b in zip(X0_l, x1_l)]

            def constants(lam: float, eps: float, freq: float):
                C = [a + eps * b for a, b in zip(X0_l, x2_l)]
                nu = abs(freq) / math.sqrt(self.x0_norm**2 + lam)
                w = [eps * b for b in wdir_l]
                return C, nu, w, 1.0, w

        elif self.family == "example4":
            mu_val = 0.0 if mu is None else mu
            try:
                norm_c = math.sqrt(self.x0_norm**2 + mu_val**2)
            except OverflowError:
                raise ConfigError(f"|X0 + mu X1| overflows at mu = {mu!r}") from None
            # the effective Hopf frequency shifts with mu so that
            # X^G(t, 0, mu) = X0 + mu X1 holds exactly
            omega_eff = norm_c / self.k
            if omega_eff == 0.0:
                raise ConfigError(
                    f"scenario {self.name}: |X0 + mu X1| / k underflows to 0 at mu = {mu_val!r}"
                )
            C_l = [a + mu_val * b for a, b in zip(X0_l, x1_l)]

            def constants(lam: float, eps: float, freq: float):
                nu = self.k * abs(freq) / norm_c
                w = [(eps - mu_val) * a + b + c for a, b, c in zip(X0_l, x1_l, x2_l)]
                amp = eps**self.k
                return C_l, nu, w, amp, [amp * a for a in w]

        else:  # example5
            def constants(lam: float, eps: float, freq: float):
                return ([a + eps * b for a, b in zip(X0_l, x1_l)],)

        memo = (object(), None)  # a key no caller can pass

        def lookup(lam: float):
            nonlocal memo
            key, c = memo
            if lam is not key:
                lam_f = _finite(lam, "lambda", nonnegative=True)
                eps, freq = math.sqrt(lam_f), omega_eff + lam_f
                try:
                    c = (lam_f, freq, eps, *constants(lam_f, eps, freq))
                except OverflowError:
                    raise ConfigError(f"scenario {self.name} overflows at lambda {lam!r}") from None
                except ZeroDivisionError:  # example2-3: sqrt(|X0|^2 + lambda) underflows to 0
                    raise ConfigError(
                        f"scenario {self.name}: a norm underflows to 0 at lambda {lam!r}"
                    ) from None
                memo = (lam, c)
            return c

        shape = "collinear" if self.family == "example5" else "conjugated"

        @functools.cache
        def forcing_eval():
            from .flow import _shape_kernel

            return _shape_kernel(shape, *_SHAPES[shape][:2])(lookup)

        @functools.cache
        def closed_eval():
            return _closed_kernel(shape)(lookup)

        def period(lam: float) -> float:
            T = 2.0 * math.pi / abs(lookup(lam)[1])
            if T == math.inf:  # |omega + lambda| is subnormal
                raise ConfigError(
                    f"scenario {self.name}: the period 2 pi / |omega + lambda| overflows at "
                    f"lambda {lam!r}"
                )
            return T

        return forcing_eval, closed_eval, period

    def forcing(self, lam: float = 0.0, mu: float | None = None):
        """:class:`rotwave.flow.ForcingSignal` for this family (mu bound here; the signal's eval
        still takes (t, lam), so the lambda-family stays intact).

        The eval is the family's closure itself: it may be called at any
        lambda, computes with ``float(lam)`` and the lambda-only constants once per
        lambda (see :meth:`_build_pieces`), and raises DomainError for a negative lambda,
        as this method does for a ``lam`` that is not a nonnegative finite number.
        """
        from .flow import ForcingSignal

        _finite(lam, "lambda", nonnegative=True)
        forcing_eval, _, period = self._pieces(mu)
        return ForcingSignal(eval=forcing_eval(), period=period)

    def closed_form(self, t: float, lam: float, mu: float | None = None):
        """Exact A(t, lam[, mu]) for this family, as a 3x3 ndarray; DomainError
        unless t is a finite number (:func:`rotwave.so3._real`) at which the phase
        and the rotation angles are finite.

        The nine entries come from the family's generated ``closed`` on Python floats
        (:meth:`_build_pieces`), and one ndarray is built from them at the return.
        The ``closed`` of the last mu that was None or a float is kept, and a call
        with that very object reaches it without :meth:`_pieces`.
        """
        if type(t) is not float or not math.isfinite(t):
            t = _finite(t, "t")
        key, closed = self._closed
        if closed is None or mu is not key:
            closed = self._pieces(mu)[1]()
            if mu is None or type(mu) is float:
                self._closed = (mu, closed)
        return np.array(closed(t, lam)).reshape(3, 3)

    def period(self, lam: float = 0.0, mu: float | None = None) -> float:
        """Relative forcing period T(lam[, mu]) (DomainError for a negative or non-finite lam,
        ConfigError where 2 pi / |omega + lam| overflows)."""
        return self._pieces(mu)[2](lam)

    @property
    def forcing_family(self) -> Callable:
        """(lam, mu) -> ForcingSignal, the shape the drift finder consumes: :meth:`forcing`, bound."""
        return self.forcing


_TIP_A = (0.0, 0.92, 2.85)
_TIP_B = (0.44, 0.14, 2.96)

_DEFAULTS: dict[str, dict] = {
    "example1": dict(family="example1", omega_bif=20.0, x0_norm=2.0, tip=_TIP_A),
    "example2": dict(family="example2", omega_bif=20.0, x0_norm=20.0, tip=_TIP_A),
    "example3": dict(family="example3", omega_bif=20.0, x0_norm=20.0, tip=_TIP_B),
    "example4": dict(family="example4", omega_bif=20.0, x0_norm=20.0, tip=_TIP_B),
    "example5": dict(family="example5", omega_bif=20.0, x0_norm=2.0, tip=_TIP_A),
}
# the study instances case1..case3 are examples 1-3 under their own names
_DEFAULTS.update({f"case{i}": _DEFAULTS[f"example{i}"] for i in (1, 2, 3)})

_ALLOWED_OVERRIDES = {
    "omega_bif", "x0_norm", "r", "tip_x0", "frame", "k",
}


def available() -> list[str]:
    """Names accepted by :func:`build`."""
    return sorted(_DEFAULTS)


def build(name: str, **overrides) -> Scenario:
    """Construct a named scenario, applying parameter overrides.

    Parameters
    ----------
    name : str
        One of :func:`available`.
    **overrides
        omega_bif, x0_norm, r, tip_x0, frame (Frame or 3 rows),
        k (example4 resonance order).

    Raises
    ------
    ConfigError
        Unknown name or override, a value that is not a number
        (:func:`rotwave.so3._real`: a boolean or a string is none) or not a
        3-vector of them, a non-finite or non-positive scalar, inconsistent
        resonance parameters, or an invalid frame.
    """
    if name not in _DEFAULTS:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(available())}"
        )
    bad = set(overrides) - _ALLOWED_OVERRIDES
    if bad:
        raise ConfigError(f"unknown override(s) {sorted(bad)}; allowed: {sorted(_ALLOWED_OVERRIDES)}")
    spec = dict(_DEFAULTS[name])
    family = spec["family"]

    k = _positive(overrides.get("k", 1), "k", ConfigError)
    if not k.is_integer():
        raise ConfigError("k must be a positive integer")
    k = int(k)
    if k != 1 and family != "example4":
        raise ConfigError(f"scenario {name!r} has no resonance order parameter")

    x0_norm = _positive(overrides.get("x0_norm", spec["x0_norm"]), "x0_norm", ConfigError)
    if family == "example4":
        omega_bif = x0_norm / k
        if "omega_bif" in overrides and not math.isclose(
            _positive(overrides["omega_bif"], "omega_bif", ConfigError), omega_bif, rel_tol=1e-12
        ):
            raise ConfigError(
                f"example4 requires omega_bif = x0_norm / k = {omega_bif!r}"
            )
    else:
        omega_bif = _positive(overrides.get("omega_bif", spec["omega_bif"]), "omega_bif", ConfigError)
        if family in ("example2", "example3") and not math.isclose(
            x0_norm, omega_bif, rel_tol=1e-12
        ):
            raise ConfigError(
                f"{family} is a 1:1 resonant family: x0_norm must equal omega_bif "
                f"(got {x0_norm!r} vs {omega_bif!r})"
            )

    r = _positive(overrides.get("r", 3.0), "r", ConfigError)

    frame = overrides.get("frame", Frame())
    if not isinstance(frame, Frame):
        try:
            x0_dir, x1, x2 = frame
        except (TypeError, ValueError):
            raise ConfigError("frame override must be a Frame or three row vectors") from None
        frame = Frame(x0_dir, x1, x2)

    try:
        tip_raw = _vec3(overrides.get("tip_x0", spec["tip"]))
    except DomainError as exc:
        raise ConfigError(f"tip_x0: {exc}") from None
    tn = _norm3(tip_raw)
    if tn == 0.0:
        raise ConfigError("tip_x0 must be nonzero")
    s = r / tn
    tip_x0 = tuple(a * s for a in tip_raw)  # project onto the sphere of radius r

    return Scenario(
        name=name,
        family=family,
        omega_bif=omega_bif,
        x0_norm=x0_norm,
        r=r,
        tip_x0=tip_x0,
        frame=frame,
        k=k,
    )


#: the relative periods over which :func:`verify_against_closed_form` integrates, also read by
#: the CLI, which checks before a run that the end time it reaches is finite
VERIFY_PERIODS = 2.0


def verify_against_closed_form(
    scenario: Scenario,
    lam: float,
    mu: float | None = None,
    config: IntegratorConfig | None = None,
) -> float:
    """Max Frobenius deviation between the integrated and exact trajectories.

    Takes 201 samples over ``VERIFY_PERIODS`` relative periods, spaced as
    ``numpy.linspace(0, VERIFY_PERIODS * T, 201)`` spaces them. The matrices (the nine floats of
    :meth:`Scenario.closed_form`'s one path) and their difference are formed on the float chain.
    """
    from .flow import integrate_group

    stop = VERIFY_PERIODS * scenario.period(lam, mu)
    step = stop / 200
    t_grid = [i * step for i in range(200)] + [stop]
    signal = scenario.forcing(lam, mu)
    traj = integrate_group(signal, lam, t_grid[-1], config, ref_dir=scenario.frame.x0_dir)
    closed = scenario._pieces(mu)[1]()
    worst = 0.0
    for t in t_grid:
        worst = max(worst, _frob_dist(traj._A_entries(t), closed(t, lam)))
    return worst

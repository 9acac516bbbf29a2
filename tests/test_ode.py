"""DOP853 and Brent against SciPy's implementations, and a numpy-only runtime.

SciPy is a test-only dependency: it is the reference these ports must agree
with, never imported by the package itself.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq as scipy_brentq

import rotwave
from rotwave import ode
from rotwave.scenarios import build
from rotwave.so3 import _dexpinv_apply, _norm3

FAMILIES = ("case1", "case2", "case3", "example4", "example5")
RTOL, ATOL, CUTOFF = 1e-10, 1e-12, math.pi - 0.1


def _first_segment_problem(family, lam):
    sig = build(family).forcing(lam)

    def rhs(t, z):
        return _dexpinv_apply(z, np.asarray(sig.eval(t, lam)).tolist())

    def boundary(t, z):
        return _norm3(z[:3]) - CUTOFF

    boundary.terminal = True
    boundary.direction = 1
    return rhs, boundary


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1e-1])
@pytest.mark.parametrize("family", FAMILIES)
def test_first_segment_matches_scipy_dop853(family, lam):
    rhs, boundary = _first_segment_problem(family, lam)
    ours = ode.solve_ivp(rhs, (0.0, 10.0), (0.0, 0.0, 0.0), RTOL, ATOL, event=boundary)
    ref = scipy_solve_ivp(
        lambda t, z: np.array(rhs(t, z.tolist())), (0.0, 10.0), np.zeros(3),
        method="DOP853", dense_output=True, events=[boundary], rtol=RTOL, atol=ATOL,
    )
    assert ours.status == ref.status == 1
    t_event = ref.t_events[0][0]
    assert abs(ours.t[-1] - t_event) < 1e-9
    assert abs(len(ours.t) - len(ref.t)) <= 1
    for t in np.linspace(0.0, t_event, 200):
        assert np.max(np.abs(np.array(ours.sol(t)) - ref.sol(t))) < 1e-9


def test_step_size_underflow_matches_scipy():
    # y' = y^2 from y(0) = 1 blows up at t = 1; both stop there, failing
    ours = ode.solve_ivp(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [1.0], RTOL, ATOL)
    ref = scipy_solve_ivp(
        lambda t, y: y * y, (0.0, 2.0), [1.0], method="DOP853", dense_output=True,
        rtol=RTOL, atol=ATOL,
    )
    assert ours.status == ref.status == -1
    assert ours.message == ref.message
    assert abs(ours.t[-1] - ref.t[-1]) < 1e-9
    assert abs(len(ours.t) - len(ref.t)) <= 1


BRENT_CASES = [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.tanh(40.0 * (x - 0.3)) + 1e-3, -1.0, 2.0),
]


@pytest.mark.parametrize("xtol", [1e-6, 1e-13, 4 * ode.EPS])
@pytest.mark.parametrize("case", range(len(BRENT_CASES)))
def test_brentq_matches_scipy(case, xtol):
    f, a, b = BRENT_CASES[case]
    assert abs(ode.brentq(f, a, b, xtol) - scipy_brentq(f, a, b, xtol=xtol)) <= xtol


def test_brentq_reuses_known_endpoint_values():
    f, a, b = BRENT_CASES[0]
    seen = []

    def counted(x):
        seen.append(x)
        return f(x)

    root = ode.brentq(counted, a, b, 1e-13)
    n = len(seen)
    seen.clear()
    assert ode.brentq(counted, a, b, 1e-13, fa=f(a), fb=f(b)) == root
    assert len(seen) == n - 2


def test_brentq_rejects_a_one_signed_bracket():
    with pytest.raises(ValueError):
        ode.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_runtime_does_not_import_scipy():
    src = str(Path(rotwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, rotwave, rotwave.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

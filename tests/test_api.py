"""The package's public surface, pinned: adding or removing a name is a change to review."""
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rotwave

PUBLIC = [
    "BallClass", "BchBranch", "BchBreakdown", "BracketError", "CircleFit", "ConfigError",
    "DomainError", "EulerTrajectory", "FitError", "ForcingSignal", "Frame", "FrequencyReport",
    "GimbalLockError", "GroupTrajectory", "IntegrationError", "IntegratorConfig",
    "InternalInconsistency", "IoError", "MotionClass", "PeriodicPart", "ResonanceClass",
    "ResonanceKind", "RotwaveError", "Scenario", "SingularityError", "TipTrack",
    "as_rotation", "available", "bch", "bch_breakdown", "build", "classify",
    "classify_resonance", "dexp_op", "dexpinv_op", "exp_rot", "find_orthogonal_branch",
    "fit_circle", "hat", "hemisphere_sign", "integrate_euler", "integrate_group",
    "integrate_z_segment", "lifted_frequency", "log_rot", "periodic_part",
    "primary_frequency", "q_map", "rot_x", "rot_z", "tip_trajectory", "vee",
    "verify_against_closed_form",
]


def test_public_names_are_pinned():
    assert sorted(rotwave.__all__) == PUBLIC


def test_every_public_name_resolves_to_its_modules_object():
    # as an attribute and through a star import, each name is the object of the one submodule
    # whose __all__ lists it
    namespace = {}
    exec("from rotwave import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    modules = [importlib.import_module(f"rotwave.{name}") for name in rotwave._MODULES]
    for name in PUBLIC:
        (owner,) = [m for m in modules if name in m.__all__]
        assert getattr(rotwave, name) is getattr(owner, name) is namespace[name], name


def test_integrator_config_is_one_class_that_flow_re_exports():
    # it lives in so3, so that the CLI checks tolerances without running flow
    from rotwave import flow, so3

    assert rotwave.IntegratorConfig is flow.IntegratorConfig is so3.IntegratorConfig
    assert "IntegratorConfig" not in so3.__all__
    assert flow.__all__ == [
        "EulerTrajectory", "ForcingSignal", "GroupTrajectory", "IntegratorConfig",
        "integrate_euler", "integrate_group", "integrate_z_segment",
    ]


def test_bch_is_the_function_and_the_other_submodules_are_modules():
    assert isinstance(rotwave.bch, types.FunctionType) and rotwave.bch.__module__ == "rotwave.bch"
    from rotwave import flow, ode, scenarios, so3

    for module, name in ((flow, "flow"), (ode, "ode"), (scenarios, "scenarios"), (so3, "so3")):
        assert isinstance(module, types.ModuleType) and module.__name__ == f"rotwave.{name}"


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'rotwave' has no attribute 'nope'$"):
        rotwave.nope  # noqa: B018
    assert not hasattr(rotwave, "nope")


def test_dir_lists_every_public_name_in_a_fresh_interpreter():
    # help() and completion find a module's names through dir(), before any of them is read
    assert set(PUBLIC) <= set(dir(rotwave))
    code = "import rotwave; names = dir(rotwave); assert set(rotwave.__all__) <= set(names), names"
    env = dict(os.environ, PYTHONPATH=str(Path(rotwave.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr

"""The package's public surface, pinned: adding or removing a name is a change to review."""
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
    "integrate_skew_product", "integrate_z_segment", "lifted_frequency", "log_rot",
    "periodic_part", "primary_frequency", "q_map", "rot_x", "rot_z", "stuart_landau",
    "tip_trajectory", "vee", "verify_against_closed_form",
]


def test_public_names_are_pinned():
    assert sorted(rotwave.__all__) == PUBLIC

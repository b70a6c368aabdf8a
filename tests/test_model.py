"""Kinematic/force/energy relations and their invariants."""

import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from springleg import (
    BodyParams,
    CompressionPolicy,
    Configuration,
    ConfigurationError,
    DomainError,
    LegGeometry,
    LossModel,
    SpringLegError,
    SpringParams,
    config_from_values,
    emit_trajectory_csv,
    hip_force,
    max_energy,
    min_squats,
    simulate,
    spring_capacity,
    spring_energy,
)

from conftest import values_from_config, worked_config

GEOM = LegGeometry(segment_length=0.2, standing_length=0.3, max_deformation=0.1)
SPRING = SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.04)


class TestHipForce:
    def test_zero_moment_arm(self):
        assert hip_force(0.0, 0.10, GEOM, SPRING) == 0.0

    def test_undeformed_spring_is_force_free(self):
        assert hip_force(0.2, 0.12, GEOM, SPRING) == 0.0

    def test_unity_ratio_equals_spring_force(self):
        # k * (s0 - s) at x = segment_length
        assert hip_force(0.2, 0.10, GEOM, SPRING) == pytest.approx(20.0)

    def test_prototype_scale_constants(self):
        proto = SpringParams(stiffness=900.0, free_length=0.114, solid_length=0.05)
        assert hip_force(0.2, 0.104, GEOM, proto) == pytest.approx(9.0)

    def test_interior_point(self):
        assert hip_force(0.08, 0.08, GEOM, SPRING) == pytest.approx(16.0)

    @pytest.mark.parametrize("x", [0.05, 0.1, 0.15])
    def test_scales_the_spring_force_by_the_moment_arm(self, x):
        # (x / segment_length) * k * (s0 - s), with k * (s0 - s) = 20 N at s = 0.10
        assert hip_force(x, 0.10, GEOM, SPRING) == pytest.approx(x / 0.2 * 20.0)

    def test_spring_length_shown_as_given(self):
        with pytest.raises(DomainError, match=r"^spring length s=1 exceeds"):
            hip_force(0.2, 1, GEOM, SPRING)

    def test_propagates_domain_errors(self):
        with pytest.raises(DomainError):
            hip_force(0.3, 0.10, GEOM, SPRING)
        with pytest.raises(DomainError, match="slack"):
            hip_force(0.1, 0.2, GEOM, SPRING)
        with pytest.raises(DomainError, match="solid"):
            hip_force(0.1, 0.03, GEOM, SPRING)
        with pytest.raises(DomainError, match="s=nan"):
            hip_force(0.25 * GEOM.segment_length, math.nan, GEOM, SPRING)
        for bad in ("x", None):
            with pytest.raises(DomainError, match=f"spring position x needs a number, got {bad!r}"):
                hip_force(bad, 0.1, GEOM, SPRING)
            with pytest.raises(DomainError, match=f"spring length s needs a number, got {bad!r}"):
                hip_force(0.1, bad, GEOM, SPRING)

    @given(
        x=st.floats(0.01, 0.2),
        s1=st.floats(0.04, 0.12),
        s2=st.floats(0.04, 0.12),
    )
    def test_monotone_nonincreasing_in_spring_length(self, x, s1, s2):
        lo, hi = sorted((s1, s2))
        assert hip_force(x, lo, GEOM, SPRING) >= hip_force(x, hi, GEOM, SPRING)

    @given(
        x1=st.floats(0.0, 0.2),
        x2=st.floats(0.0, 0.2),
        s=st.floats(0.04, 0.12),
    )
    def test_monotone_nondecreasing_in_position(self, x1, x2, s):
        lo, hi = sorted((x1, x2))
        assert hip_force(hi, s, GEOM, SPRING) >= hip_force(lo, s, GEOM, SPRING)


class TestSpringEnergy:
    def test_undeformed_spring_stores_nothing(self):
        assert spring_energy(0.12, SPRING) == 0.0

    def test_direct_substitution(self):
        assert spring_energy(0.08, SPRING) == pytest.approx(0.8)

    def test_deep_compression(self):
        s = 0.12 - 0.2 / 3.0  # the two-squat worked example's end length
        assert spring_energy(s, SPRING) == pytest.approx(0.5 * 1000 * (0.2 / 3.0) ** 2)

    def test_slack_solid_and_nan_rejected(self):
        no_number = "spring length s needs a number"
        cases = [(0.13, "slack"), (1, "^spring length s=1 exceeds"), (0.03, "solid")]
        cases += [(math.nan, "s=nan")]
        for s, message in cases + [(s, no_number) for s in ("x", True, None)]:
            with pytest.raises(DomainError, match=message):
                spring_energy(s, SPRING)


class TestVirtualWorkConsistency:
    @pytest.mark.parametrize("x", [0.05, 0.12, 0.2])
    def test_hip_work_equals_spring_energy_gain(self, x):
        # integrate the hip force over leg deformation and compare against
        # the stored-energy difference at the stroke ends; the stroke is
        # chosen per position so the spring stays between solid and free
        l_a = min(GEOM.standing_length, SPRING.free_length * GEOM.segment_length / x)
        l_b = max(SPRING.solid_length * GEOM.segment_length / x, 0.6 * l_a)
        assert l_b < l_a
        n = 2001
        legs = np.linspace(l_a, l_b, n)
        ratio = x / GEOM.segment_length  # similar triangles: s = ratio * l
        forces = np.array([hip_force(x, ratio * l, GEOM, SPRING) for l in legs])
        work = np.trapezoid(forces, -(legs - l_a))
        gain = spring_energy(ratio * l_b, SPRING) - spring_energy(ratio * l_a, SPRING)
        assert work == pytest.approx(gain, rel=1e-6)


class TestParameterValidation:
    def test_body_bounds(self):
        with pytest.raises(ConfigurationError, match="mass"):
            BodyParams(mass=0.0)
        with pytest.raises(ConfigurationError, match="gravity"):
            BodyParams(mass=1.0, gravity=-9.8)

    def test_geometry_bounds(self):
        with pytest.raises(ConfigurationError, match="standing_length"):
            LegGeometry(segment_length=0.2, standing_length=0.45, max_deformation=0.1)
        with pytest.raises(ConfigurationError, match="max_deformation"):
            LegGeometry(segment_length=0.2, standing_length=0.3, max_deformation=0.3)

    def test_spring_bounds(self):
        with pytest.raises(ConfigurationError, match="stiffness"):
            SpringParams(stiffness=0.0, free_length=0.1)
        with pytest.raises(ConfigurationError, match="solid_length"):
            SpringParams(stiffness=100.0, free_length=0.1, solid_length=0.1)
        # every value is finite, but 0.5 * k * (free_length - solid_length)^2 is not
        with pytest.raises(ConfigurationError, match="spring capacity"):
            SpringParams(stiffness=1.7e308, free_length=2.0)

    def test_no_length_tolerance(self):
        # Full compression is the solid length itself: there is no tolerance to set.
        with pytest.raises(TypeError, match="tol_abs"):
            worked_config(tol_abs=1e-9)

    @pytest.mark.parametrize("policy", ["full_range", "force_limited", None])
    def test_policy_that_is_no_member_rejected(self, policy):
        # Once accepted: simulate then ran the capped map for any of these (35
        # squats, converged at 3.754 J), and max_energy raised NameError.
        parts = BodyParams(70.0), LegGeometry(0.45, 0.85, 0.3), SpringParams(2000.0, 0.2, 0.05)
        with pytest.raises(ConfigurationError) as error:
            Configuration(*parts, 0.08, force_cap=20.0, policy=policy)
        expected = f"policy must be a CompressionPolicy, got {type(policy).__name__}"
        assert str(error.value) == expected
        full = Configuration(*parts, 0.08, force_cap=20.0, policy=CompressionPolicy.FULL_RANGE)
        result = simulate(full)
        assert (len(result.squats.x), result.termination.value) == (3, "full_compression")
        assert result.final_energy == max_energy(full) == spring_capacity(full)
        assert result.final_energy == pytest.approx(22.5)
        # Files and flat mappings still read the policy by name.
        named = config_from_values({**values_from_config(full), "policy": "full_range"})
        assert named == full

    def test_loss_bounds(self):
        with pytest.raises(ConfigurationError, match=r"\(0, 1\]"):
            LossModel(efficiency=1.2)
        with pytest.raises(ConfigurationError, match="ratchet_pitch"):
            LossModel(efficiency=0.9, ratchet_pitch=-0.01)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="segment_length"):
            LegGeometry(segment_length=bad, standing_length=0.3, max_deformation=0.1)
        with pytest.raises(ConfigurationError, match="stiffness"):
            SpringParams(stiffness=bad, free_length=0.1)
        with pytest.raises(ConfigurationError, match="free_length"):
            SpringParams(stiffness=100.0, free_length=bad)
        with pytest.raises(ConfigurationError, match="ratchet_pitch"):
            LossModel(ratchet_pitch=bad)
        with pytest.raises(ConfigurationError, match="force_cap"):
            Configuration(
                body=BodyParams(mass=10.0),
                leg=GEOM,
                spring=SPRING,
                initial_spring_position=0.08,
                force_cap=bad,
            )

    def test_weight(self):
        assert BodyParams(mass=10.0, gravity=10.0).weight == pytest.approx(100.0)


# One case per validation rule, with the full message text: the rules of
# BodyParams, LegGeometry, SpringParams, LossModel and Configuration, the
# cross-part ones included.
VALIDATION_MESSAGES = {
    "mass": (
        lambda: BodyParams(mass=0.0),
        "mass must be finite and > 0, got 0.0",
    ),
    "gravity": (
        lambda: BodyParams(mass=1.0, gravity=-9.8),
        "gravity must be finite and > 0, got -9.8",
    ),
    "segment_length": (
        lambda: LegGeometry(segment_length=math.inf, standing_length=0.3, max_deformation=0.1),
        "segment_length must be finite and > 0, got inf",
    ),
    "standing_length": (
        lambda: LegGeometry(segment_length=0.2, standing_length=0.45, max_deformation=0.1),
        "standing_length must satisfy 0 < standing_length <= 2*segment_length (0.4), got 0.45",
    ),
    "max_deformation": (
        lambda: LegGeometry(segment_length=0.2, standing_length=0.3, max_deformation=0.3),
        "max_deformation must satisfy 0 < max_deformation < standing_length (0.3), got 0.3",
    ),
    "stiffness": (
        lambda: SpringParams(stiffness=0.0, free_length=0.1),
        "stiffness must be finite and > 0, got 0.0",
    ),
    "free_length": (
        lambda: SpringParams(stiffness=100.0, free_length=math.nan),
        "free_length must be finite and > 0, got nan",
    ),
    "solid_length": (
        lambda: SpringParams(stiffness=100.0, free_length=0.1, solid_length=0.1),
        "solid_length must satisfy 0 <= solid_length < free_length (0.1), got 0.1",
    ),
    "spring_capacity": (
        lambda: SpringParams(stiffness=1.7e308, free_length=2.0),
        "spring capacity must be finite, got inf J",
    ),
    "efficiency": (
        lambda: LossModel(efficiency=1.2),
        "efficiency must lie in (0, 1], got 1.2",
    ),
    "ratchet_pitch": (
        lambda: LossModel(ratchet_pitch=-0.01),
        "ratchet_pitch must be finite and >= 0, got -0.01",
    ),
    "initial_spring_position": (
        lambda: worked_config(initial_spring_position=0.25),
        "initial_spring_position must lie in (0, segment_length] (0.2), got 0.25",
    ),
    "force_cap": (
        lambda: worked_config(force_cap=-1.0),
        "force_cap must be finite and > 0, got -1.0",
    ),
    "single_squat_energy": (
        lambda: worked_config(body=BodyParams(mass=2e-283, gravity=2e-283), force_cap=1.0),
        "single-squat energy 0.5 * weight * max_deformation must be finite and > 0, got 0.0",
    ),
    "pitch_overflow": (
        lambda: worked_config(loss=LossModel(ratchet_pitch=5e-324)),
        "ratchet_pitch 5e-324 is too small: segment_length / ratchet_pitch overflows",
    ),
    "max_iterations": (
        lambda: worked_config(max_iterations=0),
        "max_iterations must be >= 1, got 0",
    ),
    "sample_count": (
        lambda: worked_config(sample_count=1),
        "sample_count must lie in [2, 1000000], got 1",
    ),
    "max_iterations_kind": (
        lambda: worked_config(max_iterations=2.5),
        "max_iterations needs an integer, got 2.5",
    ),
    "max_iterations_bool": (
        lambda: worked_config(max_iterations=True),
        "max_iterations needs an integer, got True",
    ),
    "sample_count_kind": (
        lambda: worked_config(sample_count=2.5),
        "sample_count needs an integer, got 2.5",
    ),
    "sample_count_integral_float": (
        lambda: worked_config(sample_count=1000.0),
        "sample_count needs an integer, got 1000.0",
    ),
    "max_iterations_huge": (
        lambda: worked_config(max_iterations=-(10**5000)),
        "max_iterations must be >= 1, got <int too long to print>",
    ),
    "sample_count_huge": (
        lambda: worked_config(sample_count=10**5000),
        "sample_count must lie in [2, 1000000], got <int too long to print>",
    ),
    "tol_gain": (
        lambda: worked_config(tol_gain=-1.0),
        "tol_gain must be finite and >= 0, got -1.0",
    ),
    "tol_gain_inf": (
        lambda: worked_config(tol_gain=math.inf),
        "tol_gain must be finite and >= 0, got inf",
    ),
    # Numbers past the float range, bools, and values that are no real number.
    "mass_past_float": (
        lambda: BodyParams(mass=10**400, gravity=9.81),
        f"mass needs a number, got {10**400}",
    ),
    "segment_length_past_float": (
        lambda: LegGeometry(segment_length=10**400, standing_length=0.3, max_deformation=0.1),
        f"segment_length needs a number, got {10**400}",
    ),
    "force_cap_past_float": (
        lambda: worked_config(force_cap=10**400),
        f"force_cap needs a number, got {10**400}",
    ),
    "efficiency_bool": (
        lambda: LossModel(efficiency=True),
        "efficiency needs a number, got True",
    ),
    "efficiency_numpy_bool": (
        lambda: LossModel(efficiency=np.True_),
        "efficiency needs a number, got np.True_",
    ),
    "ratchet_pitch_bool": (
        lambda: LossModel(ratchet_pitch=True),
        "ratchet_pitch needs a number, got True",
    ),
    "efficiency_text": (
        lambda: LossModel(efficiency="0.5"),
        "efficiency needs a number, got '0.5'",
    ),
    "stiffness_decimal": (
        lambda: SpringParams(stiffness=Decimal("1000"), free_length=0.12),
        "stiffness needs a number, got Decimal('1000')",
    ),
    "tol_gain_text": (
        lambda: worked_config(tol_gain="0"),
        "tol_gain needs a number, got '0'",
    ),
    "tol_gain_bool": (
        lambda: worked_config(tol_gain=True),
        "tol_gain needs a number, got True",
    ),
    "max_iterations_numpy_bool": (
        lambda: worked_config(max_iterations=np.True_),
        "max_iterations needs an integer, got np.True_",
    ),
    "initial_length_slack": (
        lambda: worked_config(initial_spring_position=0.1),
        "initial spring length 0.15 exceeds the free length 0.12: the spring cannot start "
        "slack (reduce initial_spring_position)",
    ),
    "initial_length_solid": (
        lambda: worked_config(initial_spring_position=0.02),
        "initial spring length 0.029999999999999995 does not exceed the solid length 0.04 "
        "(increase initial_spring_position)",
    ),
}


def test_integer_fields_take_numpy_integers():
    # Kind is checked by the index protocol, so numpy integers count as integers.
    config = worked_config(max_iterations=np.int64(2), sample_count=np.int32(5))
    assert [len(stroke) for stroke in simulate(config).trajectories] == [5, 5]
    assert type(config.max_iterations) is type(config.sample_count) is int


@pytest.mark.parametrize("rule", VALIDATION_MESSAGES)
def test_validation_message_text(rule):
    build, message = VALIDATION_MESSAGES[rule]
    with pytest.raises(ConfigurationError) as info:
        build()
    assert str(info.value) == message


WORKED = worked_config(sample_count=20)  # a run of 100 squats emits 2000 rows
# Field -> (part of the configuration, or None for its own field; flat key, or None).
NUMBER_FIELDS = {
    "mass": ("body", "mass_kg"),
    "gravity": ("body", "gravity_mps2"),
    "segment_length": ("leg", "segment_length_m"),
    "standing_length": ("leg", "standing_length_m"),
    "max_deformation": ("leg", "max_deformation_m"),
    "stiffness": ("spring", "spring_stiffness_n_per_m"),
    "free_length": ("spring", "spring_free_length_m"),
    "solid_length": ("spring", "spring_solid_length_m"),
    "efficiency": ("loss", "efficiency"),
    "ratchet_pitch": ("loss", "ratchet_pitch_m"),
    "initial_spring_position": (None, "initial_spring_position_m"),
    "force_cap": (None, "force_cap_n"),
    "max_iterations": (None, "max_iterations"),
    "sample_count": (None, "sample_count"),
    "tol_gain": (None, None),
}
INTEGER_FIELDS = ("max_iterations", "sample_count")
#: Types that are never taken as a number: bools count as no number.
NOT_NUMBERS = (bool, np.bool_, str, Decimal)
#: Every kind of value a caller may pass, a number or not.
ANY_VALUE = st.one_of(
    st.integers(-3, 3) | st.sampled_from([10**400, -(10**400)]),
    st.booleans() | st.sampled_from([np.True_, np.False_]),
    st.floats(),  # nan, +-inf and subnormals too
    st.floats().map(np.float64) | st.integers(-3, 3).map(np.int64),
    st.fractions() | st.decimals() | st.text(max_size=3),
)
#: The worked value in another type: most of these build a configuration.
KINDS = (float, int, np.float64, np.int64, Fraction, Decimal, str, bool, np.bool_)


@st.composite
def field_values(draw):
    """A field of worked_config, or ``target_energy`` of min_squats, and a value for it."""
    name = draw(st.sampled_from([*NUMBER_FIELDS, "target_energy"]))
    if name == "target_energy":
        worked = 1.0
    else:
        part = NUMBER_FIELDS[name][0]
        worked = getattr(getattr(WORKED, part) if part else WORKED, name)
    return name, draw(st.sampled_from(KINDS).map(lambda kind: kind(worked)) | ANY_VALUE)


def _build(name: str, value: object) -> Configuration | None:
    """worked_config with ``value`` for ``name``, by the direct constructors; None if rejected."""
    part = NUMBER_FIELDS[name][0]
    try:
        if part:
            return replace(WORKED, **{part: replace(getattr(WORKED, part), **{name: value})})
        return replace(WORKED, **{name: value})
    except ConfigurationError:
        return None


@settings(deadline=None)
@given(field_values())
@example(("mass", np.True_))
@example(("max_iterations", np.True_))
@example(("target_energy", np.True_))
def test_number_rule_over_the_constructors(case):
    """Each value either builds a working Configuration, holding plain floats and
    ints, or is rejected with a SpringLegError; a bool is never taken as 1."""
    name, value = case
    if name == "target_energy":
        try:
            min_squats(WORKED, value)
        except DomainError:
            return
        assert not isinstance(value, NOT_NUMBERS)
        return
    config = _build(name, value)
    key = NUMBER_FIELDS[name][1]
    if key and not isinstance(value, str):  # the flat path reads text, the constructors do not
        try:
            flat = config_from_values({**values_from_config(WORKED), key: value})
        except ConfigurationError:
            flat = None
        assert flat == config
    if config is None:
        return
    assert not isinstance(value, NOT_NUMBERS)
    part = NUMBER_FIELDS[name][0]
    stored = getattr(getattr(config, part) if part else config, name)
    kind = int if name in INTEGER_FIELDS else float
    assert type(stored) is kind and stored == kind(value)
    try:
        result = simulate(config)
        max_energy(config)
        with TemporaryDirectory() as directory:
            emit_trajectory_csv(result, f"{directory}/trajectory.csv")
    except SpringLegError:
        pass

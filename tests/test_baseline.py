"""Single-squat reference model: closed forms and consistency identities."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from springleg import (
    BodyParams,
    Configuration,
    DomainError,
    LegGeometry,
    SpringParams,
    baseline_result,
    e1_max,
    hip_force,
    simulate,
    spring_energy,
)

BODY = BodyParams(mass=10.0, gravity=10.0)  # weight 100 N
GEOM = LegGeometry(segment_length=0.2, standing_length=0.3, max_deformation=0.1)


def chain(bottom_force, body=BODY, geom=GEOM):
    return baseline_result(bottom_force, body, geom)


class TestStiffness:
    def test_no_spring_needed_at_full_leg_support(self):
        assert chain(100.0).stiffness == 0.0

    def test_leg_free_squat(self):
        assert chain(0.0).stiffness == pytest.approx(1000.0)

    def test_half_supported(self):
        assert chain(50.0).stiffness == pytest.approx(500.0)

    @pytest.mark.parametrize("bottom_force", [120.0, -1.0, float("nan")])
    def test_bottom_force_outside_zero_to_weight_rejected(self, bottom_force):
        with pytest.raises(DomainError) as info:
            chain(bottom_force)
        assert str(info.value) == (
            f"bottom force {bottom_force} outside [0, weight=100.0]: "
            "the leg cannot pull, and a heavier load would need a pulling spring"
        )


@pytest.mark.parametrize(
    "bottom_force, shown",
    [("1", "'1'"), (True, "True"), (np.True_, "np.True_"), (10**400, str(10**400))],
    ids=["str", "bool", "numpy_bool", "past_float"],
)
def test_bottom_force_must_be_a_number(bottom_force, shown):
    # float(True) is 1.0, which would run as a 1 N bottom force.
    with pytest.raises(DomainError) as info:
        chain(bottom_force)
    assert str(info.value) == f"bottom force needs a number, got {shown}"


def test_baseline_result_stores_a_float_bottom_force():
    result = baseline_result(np.int64(50), BODY, GEOM)
    assert type(result.bottom_force) is float and result.stiffness == pytest.approx(500.0)


class TestAverageForce:
    def test_full_support(self):
        assert chain(100.0).average_force == pytest.approx(100.0)

    def test_leg_free(self):
        assert chain(0.0).average_force == pytest.approx(50.0)

    def test_partial(self):
        assert chain(40.0).average_force == pytest.approx(70.0)


class TestStoredEnergy:
    def test_no_storage_at_full_support(self):
        assert chain(100.0).stored_energy == 0.0

    def test_maximum_storage(self):
        assert chain(0.0).stored_energy == pytest.approx(5.0)

    def test_partial(self):
        assert chain(40.0).stored_energy == pytest.approx(3.0)

    @pytest.mark.parametrize("bottom_force", [1e308, 9e307])
    def test_average_force_overflow_rejected(self, bottom_force):
        # weight + F overflows to inf near the float range: without this check
        # the energy and the stiffness would come out inf and -inf.
        with pytest.raises(DomainError) as info:
            baseline_result(bottom_force, BodyParams(1e308, 1.0), LegGeometry(1.0, 1.5, 1.0))
        assert str(info.value) == (
            "average force inf outside [weight/2, weight] = [5e+307, 1e+308]"
        )


@given(
    mass=st.floats(1e-3, 1e4),
    gravity=st.floats(0.1, 100.0),
    depth=st.floats(1e-6, 0.9),
    share=st.floats(0.0, 1.0),
)
@example(mass=10.0, gravity=10.0, depth=0.1, share=0.0)
@example(mass=10.0, gravity=10.0, depth=0.1, share=1.0)
@example(mass=70.0, gravity=9.80665, depth=0.4, share=1.0)  # a weight with round-off
def test_fields_equal_their_closed_forms(mass, gravity, depth, share):
    """The mean force, the energy and the stiffness, bit for bit, over bottom
    forces from 0 to the weight (share * weight rounds to at most the weight)."""
    body = BodyParams(mass, gravity)
    weight, force = body.weight, share * body.weight
    result = baseline_result(force, body, LegGeometry(1.0, 1.0, depth))
    average = 0.5 * (weight + force)
    assert result.bottom_force == force
    assert result.average_force == average
    assert result.stored_energy == (weight - average) * depth
    assert result.stiffness == (weight - force) / depth
    assert result.e1_max == 0.5 * weight * depth


class TestE1Max:
    def test_small_scale(self):
        assert e1_max(BODY, GEOM) == pytest.approx(5.0)

    def test_vanishing_range(self):
        tiny = LegGeometry(segment_length=0.2, standing_length=0.3, max_deformation=1e-12)
        assert e1_max(BODY, tiny) == pytest.approx(0.0, abs=1e-9)

    def test_adult_scale(self):
        body = BodyParams(mass=70.0, gravity=10.0)
        geom = LegGeometry(segment_length=0.45, standing_length=0.85, max_deformation=0.4)
        assert e1_max(body, geom) == pytest.approx(140.0)


class TestChainConsistency:
    @pytest.mark.parametrize("bottom_force", np.linspace(0.0, 100.0, 11).tolist())
    def test_energy_matches_stiffness_route(self, bottom_force):
        # (weight - mean force) * range must equal k*range^2/2 for the
        # stiffness that balances the same bottom force
        result = chain(bottom_force)
        expected = 0.5 * result.stiffness * GEOM.max_deformation**2
        assert result.stored_energy == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bottom_force", [0.0, 25.0, 60.0, 100.0])
    def test_e1_max_upper_bounds_storage(self, bottom_force):
        result = chain(bottom_force)
        assert result.stored_energy <= result.e1_max + 1e-15

    def test_e1_max_attained_at_zero_bottom_force(self):
        assert chain(0.0).stored_energy == pytest.approx(e1_max(BODY, GEOM), rel=1e-12)


class TestMechanismReduction:
    """With the spring hip-to-ankle and a free length equal to the standing
    length, the floating mechanism degenerates to the fixed-spring squat."""

    def test_hip_force_reduces_to_spring_ramp(self):
        geom = LegGeometry(segment_length=0.25, standing_length=0.5, max_deformation=0.2)
        spring = SpringParams(stiffness=500.0, free_length=0.5, solid_length=0.1)
        for deformation in np.linspace(0.0, geom.max_deformation, 21):
            f = hip_force(geom.segment_length, geom.standing_length - deformation, geom, spring)
            assert f == pytest.approx(spring.stiffness * deformation, rel=1e-12, abs=1e-12)

    def test_energies_agree_with_single_squat_model(self):
        # pick the stiffness that balances the weight at full depth, then
        # run the mechanism at unity advantage over the same stroke
        body = BodyParams(mass=10.0, gravity=10.0)
        geom = LegGeometry(segment_length=0.25, standing_length=0.5, max_deformation=0.2)
        single = baseline_result(0.0, body, geom)
        spring = SpringParams(stiffness=single.stiffness, free_length=0.5, solid_length=0.2)
        config = Configuration(
            body=body,
            leg=geom,
            spring=spring,
            initial_spring_position=geom.segment_length,
        )
        result = simulate(config)
        first = result.records[0]
        assert first.energy_after == pytest.approx(single.stored_energy, rel=1e-12)
        assert first.energy_after == pytest.approx(
            spring_energy(first.state.spring_length_end, spring), rel=1e-12
        )
        assert first.end_force == pytest.approx(body.weight, rel=1e-12)

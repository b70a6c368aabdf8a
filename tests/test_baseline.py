"""Single-squat reference model: closed forms and consistency identities."""

import numpy as np
import pytest

from springleg import (
    BodyParams,
    Configuration,
    DomainError,
    LegGeometry,
    SpringParams,
    average_force,
    baseline_result,
    e1_max,
    hip_force,
    required_stiffness,
    simulate,
    spring_energy,
    stored_energy_single,
)

BODY = BodyParams(mass=10.0, gravity=10.0)  # weight 100 N
GEOM = LegGeometry(segment_length=0.2, standing_length=0.3, max_deformation=0.1)


class TestRequiredStiffness:
    def test_no_spring_needed_at_full_leg_support(self):
        assert required_stiffness(100.0, BODY, GEOM) == 0.0

    def test_leg_free_squat(self):
        assert required_stiffness(0.0, BODY, GEOM) == pytest.approx(1000.0)

    def test_half_supported(self):
        assert required_stiffness(50.0, BODY, GEOM) == pytest.approx(500.0)

    def test_overweight_bottom_force_infeasible(self):
        with pytest.raises(DomainError, match="pull"):
            required_stiffness(120.0, BODY, GEOM)


@pytest.mark.parametrize(
    "bottom_force, shown",
    [("1", "'1'"), (True, "True"), (np.True_, "np.True_"), (10**400, str(10**400))],
    ids=["str", "bool", "numpy_bool", "past_float"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda force: required_stiffness(force, BODY, GEOM),
        lambda force: average_force(force, BODY),
        lambda force: baseline_result(force, BODY, GEOM),
    ],
    ids=["required_stiffness", "average_force", "baseline_result"],
)
def test_bottom_force_must_be_a_number(call, bottom_force, shown):
    # float(True) is 1.0, which would run as a 1 N bottom force.
    with pytest.raises(DomainError) as info:
        call(bottom_force)
    assert str(info.value) == f"bottom force needs a number, got {shown}"


def test_baseline_result_stores_a_float_bottom_force():
    result = baseline_result(np.int64(50), BODY, GEOM)
    assert type(result.bottom_force) is float and result.stiffness == pytest.approx(500.0)


class TestAverageForce:
    def test_full_support(self):
        assert average_force(100.0, BODY) == pytest.approx(100.0)

    def test_leg_free(self):
        assert average_force(0.0, BODY) == pytest.approx(50.0)

    def test_partial(self):
        assert average_force(40.0, BODY) == pytest.approx(70.0)


class TestStoredEnergy:
    def test_no_storage_at_full_support(self):
        assert stored_energy_single(100.0, BODY, GEOM) == 0.0

    def test_maximum_storage(self):
        assert stored_energy_single(50.0, BODY, GEOM) == pytest.approx(5.0)

    def test_partial(self):
        assert stored_energy_single(70.0, BODY, GEOM) == pytest.approx(3.0)

    @pytest.mark.parametrize("avg_force", [49.0, 101.0])
    def test_average_force_outside_half_weight_to_weight_rejected(self, avg_force):
        with pytest.raises(DomainError) as info:
            stored_energy_single(avg_force, BODY, GEOM)
        assert str(info.value) == (
            f"average force {avg_force} outside [weight/2, weight] = [50.0, 100.0]"
        )


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
        energy = stored_energy_single(average_force(bottom_force, BODY), BODY, GEOM)
        k = required_stiffness(bottom_force, BODY, GEOM)
        assert energy == pytest.approx(0.5 * k * GEOM.max_deformation**2, rel=1e-12)

    @pytest.mark.parametrize("bottom_force", [0.0, 25.0, 60.0, 100.0])
    def test_e1_max_upper_bounds_storage(self, bottom_force):
        energy = stored_energy_single(average_force(bottom_force, BODY), BODY, GEOM)
        assert energy <= e1_max(BODY, GEOM) + 1e-15

    def test_e1_max_attained_at_zero_bottom_force(self):
        assert stored_energy_single(average_force(0.0, BODY), BODY, GEOM) == pytest.approx(
            e1_max(BODY, GEOM), rel=1e-12
        )


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
        k = required_stiffness(0.0, body, geom)
        spring = SpringParams(stiffness=k, free_length=0.5, solid_length=0.2)
        config = Configuration(
            body=body,
            leg=geom,
            spring=spring,
            initial_spring_position=geom.segment_length,
        )
        result = simulate(config)
        first = result.records[0]
        expected = stored_energy_single(average_force(0.0, body), body, geom)
        assert first.energy_after == pytest.approx(expected, rel=1e-12)
        assert first.energy_after == pytest.approx(
            spring_energy(first.state.spring_length_end, spring), rel=1e-12
        )
        assert first.end_force == pytest.approx(body.weight, rel=1e-12)

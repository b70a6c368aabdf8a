"""Configuration and grid file parsing."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from springleg import (
    ALL_KEYS,
    CompressionPolicy,
    ConfigurationError,
    SimResult,
    SimulationError,
    config_from_values,
    emit_sweep_csv,
    parse_config,
    parse_config_text,
    parse_grid,
    simulate,
    sweep,
    values_from_config,
)

from conftest import CONFIG_DIR, worked_config

MINIMAL = """
mass_kg = 70.0
gravity_mps2 = 9.80665
segment_length_m = 0.205
standing_length_m = 0.32
max_deformation_m = 0.10
spring_stiffness_n_per_m = 900.0
spring_free_length_m = 0.114
spring_solid_length_m = 0.05
initial_spring_position_m = 0.07303125
"""


class TestParseConfig:
    def test_minimal_file_applies_defaults(self):
        config = parse_config_text(MINIMAL)
        assert config.force_cap == pytest.approx(70.0 * 9.80665)
        assert config.loss.efficiency == 1.0
        assert config.loss.ratchet_pitch == 0.0
        assert config.policy is CompressionPolicy.FORCE_LIMITED
        assert config.max_iterations == 100
        assert config.sample_count == 1000
        # derived initial spring length: unloaded spring at standing
        assert config.initial_spring_position / 0.205 * 0.32 == pytest.approx(0.114, rel=1e-9)

    def test_shipped_configs_parse(self):
        for name in ("prototype.cfg", "prototype_trend.cfg", "four_squat_demo.cfg"):
            config = parse_config(CONFIG_DIR / name)
            assert config.spring.stiffness > 0

    def test_comments_and_blanks_ignored(self):
        config = parse_config_text(MINIMAL + "\n# comment\n\nefficiency = 0.9 # loss\n")
        assert config.loss.efficiency == 0.9

    def test_efficiency_bound_named(self):
        with pytest.raises(ConfigurationError, match=r"efficiency.*\(0, 1\]"):
            parse_config_text(MINIMAL + "efficiency = 1.2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate key 'mass_kg'"):
            parse_config_text(MINIMAL + "mass_kg = 60\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key 'spring_rate'"):
            parse_config_text(MINIMAL + "spring_rate = 900\n")

    def test_missing_required_key_rejected(self):
        text = MINIMAL.replace("mass_kg = 70.0", "")
        with pytest.raises(ConfigurationError, match="missing required keys: mass_kg"):
            parse_config_text(text)

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigurationError, match="mass_kg"):
            parse_config_text(MINIMAL.replace("70.0", "seventy"))

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="policy"):
            parse_config_text(MINIMAL + "policy = unlimited\n")

    def test_slack_initial_position_rejected(self):
        with pytest.raises(ConfigurationError, match="slack"):
            parse_config_text(MINIMAL.replace("0.07303125", "0.09"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")

    def test_non_integer_iterations_rejected(self):
        with pytest.raises(ConfigurationError, match="max_iterations"):
            parse_config_text(MINIMAL + "max_iterations = 2.5\n")

    def test_integral_number_accepted_for_integer_key(self):
        assert parse_config_text(MINIMAL + "max_iterations = 1e2\n").max_iterations == 100
        with pytest.raises(ConfigurationError, match=r"<config>:11: key 'max_iterations'"):
            parse_config_text(MINIMAL + "max_iterations = 2.5\n")

    def test_errors_name_the_source_file(self, tmp_path):
        path = tmp_path / "short.cfg"
        path.write_text(MINIMAL.replace("mass_kg = 70.0", ""))
        with pytest.raises(ConfigurationError, match=r"short\.cfg: missing required keys: mass"):
            parse_config(path)
        path.write_text(MINIMAL + "efficiency = 1.2\n")
        with pytest.raises(ConfigurationError, match=r"short\.cfg: efficiency must lie"):
            parse_config(path)


class TestValuesRoundTrip:
    def test_config_to_values_to_config(self):
        config = parse_config(CONFIG_DIR / "prototype_trend.cfg")
        values = values_from_config(config)
        rebuilt = config_from_values(values)
        assert rebuilt == config

    def test_unknown_value_key_rejected(self):
        values = values_from_config(parse_config(CONFIG_DIR / "prototype.cfg"))
        values["typo"] = 1.0
        with pytest.raises(ConfigurationError, match="unknown keys: typo"):
            config_from_values(values)


class TestParseGrid:
    def test_cartesian_product_last_key_fastest(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("force_cap_n = 10, 20\nefficiency = 0.8, 0.9, 1.0\n")
        points = parse_grid(grid)
        assert len(points) == 6
        assert points[0] == {"force_cap_n": 10.0, "efficiency": 0.8}
        assert points[1] == {"force_cap_n": 10.0, "efficiency": 0.9}
        assert points[3] == {"force_cap_n": 20.0, "efficiency": 0.8}
        assert list(points[0].keys()) == ["force_cap_n", "efficiency"]

    def test_unknown_key_rejected(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("bogus = 1, 2\n")
        with pytest.raises(ConfigurationError, match="unknown key 'bogus'"):
            parse_grid(grid)

    def test_policy_points_stay_text_in_sweep_csv(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("policy = force_limited, full_range\n")
        points = parse_grid(grid)
        assert points == [{"policy": "force_limited"}, {"policy": "full_range"}]
        path = emit_sweep_csv(sweep(worked_config(), points), ["policy"], tmp_path / "sweep.csv")
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["force_limited", "ok"],
            ["full_range", "ok"],
        ]

    def test_bad_value_names_grid_line(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("force_cap_n = 10, 20\npolicy = full_range, unlimited\n")
        with pytest.raises(ConfigurationError, match=r"grid\.txt:2: policy must be one of"):
            parse_grid(grid)

    def test_empty_grid_rejected(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("# nothing here\n")
        with pytest.raises(ConfigurationError, match="empty grid"):
            parse_grid(grid)


NUMERIC_KEYS = [key for key in ALL_KEYS if key != "policy"]
WORKED_VALUES = values_from_config(worked_config())


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(NUMERIC_KEYS), st.floats() | st.floats(0.0, 1.0)))
@example({"ratchet_pitch_m": 5e-324})
@example({"spring_stiffness_n_per_m": 5e-324})
@example({"ratchet_pitch_m": 0.01, "spring_free_length_m": 1e200, "policy": "full_range"})
@example({"spring_free_length_m": 1e200, "policy": "full_range"})
def test_any_float_gives_a_config_or_configuration_error(overrides):
    """Every float, inf and nan included, is either accepted or rejected
    with ConfigurationError; an accepted config simulates to a finite
    energy or raises SimulationError.  Nothing else escapes."""
    try:
        config = config_from_values({**WORKED_VALUES, **overrides})
    except ConfigurationError:
        return
    # The cap bounds the runtime only; the first 200 squats are unchanged.
    config = replace(config, max_iterations=min(config.max_iterations, 200))
    try:
        result = simulate(config)
    except SimulationError:
        return
    assert isinstance(result, SimResult)
    assert math.isfinite(result.final_energy)


def test_overflowing_spring_capacity_rejected():
    # simulated to final_energy = inf before the capacity was bounded
    with pytest.raises(ConfigurationError, match="spring capacity"):
        config_from_values(
            {**WORKED_VALUES, "spring_free_length_m": 1e200, "policy": "full_range"}
        )


@pytest.mark.parametrize("mass", [2e-283, 1e300])
def test_unrepresentable_single_squat_energy_rejected(mass):
    # m*g underflowed to 0 and `springleg simulate` divided by e1_max = 0
    with pytest.raises(ConfigurationError, match="single-squat energy"):
        config_from_values({**WORKED_VALUES, "mass_kg": mass, "gravity_mps2": mass})

"""Command-line surface: subcommands, artifacts, exit codes."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from springleg import ALL_KEYS, values_from_config
from springleg.cli import main
from springleg.model import MAX_SAMPLE_COUNT

from conftest import CONFIG_DIR, worked_config

PROTO = str(CONFIG_DIR / "prototype_trend.cfg")
DEMO = str(CONFIG_DIR / "four_squat_demo.cfg")


def write_stall_config(tmp_path) -> str:
    # preload force 4 N against a 1 N cap: the first squat cannot move
    text = """
mass_kg = 10.0
gravity_mps2 = 10.0
segment_length_m = 0.2
standing_length_m = 0.3
max_deformation_m = 0.1
spring_stiffness_n_per_m = 1000.0
spring_free_length_m = 0.13
spring_solid_length_m = 0.04
initial_spring_position_m = 0.08
force_cap_n = 1.0
"""
    path = tmp_path / "stall.cfg"
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_no_arguments_exits_2(self):
        assert main([]) == 2

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mass_kg = -1\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_finite_config_value_exits_2(self, tmp_path, capsys):
        # 5e-324 is finite, but segment_length / pitch overflows
        cases = (("inf", "ratchet_pitch must be finite"), ("5e-324", "ratchet_pitch"))
        for value, message in cases:
            config = tmp_path / "inf.cfg"
            config.write_text(
                (CONFIG_DIR / "prototype.cfg").read_text() + f"ratchet_pitch_m = {value}\n"
            )
            assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2
            assert message in capsys.readouterr().err

    def test_sample_count_above_bound_exits_2(self, tmp_path, capsys):
        for value in ("1e20", str(MAX_SAMPLE_COUNT + 1)):
            config = tmp_path / "many.cfg"
            demo = (CONFIG_DIR / "four_squat_demo.cfg").read_text()
            config.write_text(demo.replace("sample_count = 1000", f"sample_count = {value}"))
            assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2
            assert f"sample_count must lie in [2, {MAX_SAMPLE_COUNT}]" in capsys.readouterr().err

    def test_first_squat_stall_exits_3(self, tmp_path, capsys):
        stall = write_stall_config(tmp_path)
        assert main(["simulate", "--config", stall, "--out", str(tmp_path)]) == 3
        assert "no compression" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out


class TestSimulateCommand:
    def test_writes_artifacts_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--config", DEMO, "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "full compression        : after 4 squats" in captured
        assert (out / "trajectory.csv").exists()
        assert (out / "trajectory_summary.csv").exists()

    def test_summary_names_termination(self, tmp_path, capsys):
        assert main(["simulate", "--config", DEMO, "--out", str(tmp_path)]) == 0
        assert "termination             : full_compression" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", PROTO, "--out", str(out_a)])
        main(["simulate", "--config", PROTO, "--out", str(out_b)])
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()


class TestBaselineCommand:
    def test_prints_reference_quantities(self, capsys):
        assert main(["baseline", "--config", DEMO, "--bottom-force", "0"]) == 0
        out = capsys.readouterr().out
        assert "single-squat bound [J]  : 110.16" in out


class TestReleaseCommand:
    def test_release_from_final_state(self, tmp_path, capsys):
        out = tmp_path / "rel"
        assert main(["release", "--config", DEMO, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "peak assistive force [N]: 702" in printed
        assert (out / "release.csv").exists()

    def test_unreachable_release_exits_3(self, tmp_path, capsys):
        assert (
            main(
                [
                    "release",
                    "--config",
                    PROTO,
                    "--out",
                    str(tmp_path),
                    "--x-release",
                    "0.205",
                ]
            )
            == 3
        )
        assert "release" in capsys.readouterr().err


class TestSweepCommand:
    def test_grid_sweep_with_flagged_rows(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("spring_stiffness_n_per_m = 900.0, -5.0\n")
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", PROTO, "--grid", str(grid), "--out", str(out), "--workers", "2"]
        ) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "(2 ok" not in capsys.readouterr().out  # one row is invalid
        assert ",invalid," in lines[2]


class TestFitCommand:
    def test_round_trip_fit(self, tmp_path, capsys):
        run = tmp_path / "run"
        main(["simulate", "--config", PROTO, "--out", str(run)])
        out = tmp_path / "fit"
        code = main(
            [
                "fit",
                "--config",
                PROTO,
                "--data",
                str(run / "trajectory.csv"),
                "--out",
                str(out),
                "--unknowns",
                "efficiency",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "fitted efficiency      : 0.84" in printed
        assert (out / "fit.csv").exists()
        assert (out / "fit.txt").exists()

    def test_unknown_fit_parameter_exits_2(self, tmp_path):
        run = tmp_path / "run"
        main(["simulate", "--config", PROTO, "--out", str(run)])
        assert (
            main(
                [
                    "fit",
                    "--config",
                    PROTO,
                    "--data",
                    str(run / "trajectory.csv"),
                    "--out",
                    str(tmp_path),
                    "--unknowns",
                    "ratchet",
                ]
            )
            == 2
        )

    @pytest.mark.parametrize("unknowns, code", [(None, 2), ("efficiency", 0)])
    def test_full_range_fits_the_efficiency_only(self, tmp_path, capsys, unknowns, code):
        config = tmp_path / "full_range.cfg"
        config.write_text(Path(PROTO).read_text().replace("force_limited", "full_range"))
        run = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
        argv = ["fit", "--config", str(config), "--data", str(run / "trajectory.csv")]
        argv += ["--out", str(tmp_path / "fit")]
        if unknowns is not None:
            argv += ["--unknowns", unknowns]
        assert main(argv) == code
        if code:
            assert "force cap has no effect under full_range" in capsys.readouterr().err
        else:
            assert "fitted efficiency      : 0.84" in capsys.readouterr().out


class TestPlotCommand:
    @pytest.mark.parametrize("kind", ["force_deflection", "energy"])
    def test_writes_svg(self, tmp_path, kind):
        out = tmp_path / "plots"
        assert main(["plot", "--config", DEMO, "--out", str(out), "--kind", kind]) == 0
        svg = (out / f"{kind}.svg").read_text()
        assert svg.startswith("<svg")


NUMERIC_KEYS = [key for key in ALL_KEYS if key != "policy"]
WORKED_VALUES = values_from_config(worked_config())


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(NUMERIC_KEYS), st.floats() | st.floats(0.0, 1.0)))
@example({"ratchet_pitch_m": float("inf")})
@example({"spring_free_length_m": 1e200, "policy": "full_range"})
@example({"mass_kg": 2.069868439956789e-283, "gravity_mps2": 2.069868439956789e-283})
def test_any_float_in_a_config_file_exits_0_2_or_3(overrides):
    """Every float, inf and nan included, in any numeric key of a config
    file: ``springleg simulate`` exits 0, 2 or 3 and prints no traceback."""
    values = {**WORKED_VALUES, **overrides}
    # The caps bound the runtime and the CSV size only; they touch accepted
    # counts alone, so the first 200 squats and every rejection are unchanged.
    for key, cap in (("max_iterations", 200), ("sample_count", 16)):
        if float(values[key]).is_integer() and values[key] > cap:
            values[key] = cap
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        config = Path(folder) / "any.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(config), "--out", folder])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()

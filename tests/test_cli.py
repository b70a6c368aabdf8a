"""Command-line surface: subcommands, artifacts, exit codes."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import springleg
from springleg import ALL_KEYS
from springleg.cli import main
from springleg.model import MAX_SAMPLE_COUNT

from conftest import CONFIG_DIR, values_from_config, worked_config

PROTO = str(CONFIG_DIR / "prototype_trend.cfg")
GOLDEN = Path(__file__).parent / "golden"
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

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_undecodable_input_exits_2(self, tmp_path, capsys, command):
        """A 0xFF byte in the config or in the fit's data is an error naming the file."""
        config, data = tmp_path / "demo.cfg", tmp_path / "data.csv"
        config.write_bytes(Path(DEMO).read_bytes() + (b"# \xff\n" if command == "simulate" else b""))
        data.write_bytes((GOLDEN / "four_squat_trajectory.csv").read_bytes() + b"4,1,0.2,0,\xff\n")
        argv = [command, "--config", str(config), "--out", str(tmp_path)]
        assert main(argv + (["--data", str(data)] if command == "fit" else [])) == 2
        err = capsys.readouterr().err
        bad = config if command == "simulate" else data
        assert err.startswith("springleg: error: ") and str(bad) in err
        assert "Traceback" not in err

    def test_first_squat_stall_exits_3(self, tmp_path, capsys):
        stall = write_stall_config(tmp_path)
        assert main(["simulate", "--config", stall, "--out", str(tmp_path)]) == 3
        assert "no compression" in capsys.readouterr().err

    def test_workers_option_is_a_usage_error(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("force_cap_n = 5.0\n")
        argv = ["sweep", "--config", PROTO, "--grid", str(grid), "--out", str(tmp_path)]
        assert main([*argv, "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "usage" in err and "unrecognized arguments: --workers 2" in err
        assert "Traceback" not in err and not (tmp_path / "sweep.csv").exists()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["baseline", "simulate", "release", "sweep", "fit", "plot"])
    def test_shared_options_in_every_command_help(self, capsys, command):
        """Every command takes --config, and all but baseline take --out."""
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "--config CONFIG" in text
        assert ("--out OUT" in text) is (command != "baseline")

    def test_missing_config_is_a_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "usage" in err and "the following arguments are required: --config" in err
        assert "Traceback" not in err and not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("below", ["", "x"], ids=["file", "below_file"])
    @pytest.mark.parametrize("command", ["simulate", "plot", "release", "sweep", "fit"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command, below):
        """An --out that is a file, or lies below one, is an error naming
        the path, not a traceback."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        argv = [command, "--config", DEMO, "--out", str(blocker / below)]
        if command == "sweep":
            grid = tmp_path / "grid.txt"
            grid.write_text("force_cap_n = 5.0, 6.0\n")
            argv += ["--grid", str(grid)]
        if command == "fit":
            argv += ["--data", str(GOLDEN / "four_squat_trajectory.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"springleg: error: cannot write {blocker}")
        assert "Traceback" not in err


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
        assert capsys.readouterr().out.splitlines()[:8] == [
            "squat 1: x=0.5 m, s 0.9 -> 0.594 m, force 0 -> 306 N, energy 46.818 J [force_cap]",
            "squat 2: x=0.33 m, s 0.594 -> 0.436363636 m, force 201.96 -> 306 N, "
            "energy 107.479339 J [force_cap]",
            "squat 3: x=0.242424242 m, s 0.436363636 -> 0.268875 m, force 224.793388 -> 306 N, "
            "energy 199.159383 J [force_cap]",
            "squat 4: x=0.149375 m, s 0.268875 -> 0.198 m, force 188.548594 -> 209.7225 N, "
            "energy 246.402 J [spring_solid]",
            "final energy [J]        : 246.402",
            "final / single-squat    : 2.23676471",
            "full compression        : after 4 squats",
            "termination             : full_compression",
        ]

    def test_closed_stdout_exits_0_quietly(self, tmp_path):
        """A reader that closes standard output after one line (``| head -1``)
        ends the command with exit 0 and an empty stderr, the files written.
        Full-range squats of 5e-5 of the standing length give 2000 summary
        lines, over 64 KiB, more than a pipe holds."""
        config = tmp_path / "long.cfg"
        config.write_text(
            "mass_kg = 100\ngravity_mps2 = 10\nsegment_length_m = 0.3\n"
            "standing_length_m = 0.5\nmax_deformation_m = 0.000025\n"
            "spring_stiffness_n_per_m = 1000\nspring_free_length_m = 0.5\n"
            "spring_solid_length_m = 0.2\ninitial_spring_position_m = 0.3\n"
            "force_cap_n = 1000\npolicy = full_range\nmax_iterations = 2000\nsample_count = 2\n"
        )
        src = str(Path(springleg.__file__).resolve().parent.parent)
        command = [sys.executable, "-m", "springleg.cli", "simulate", "--config", str(config)]
        with subprocess.Popen(
            [*command, "--out", str(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        ) as run:
            assert run.stdout.readline().startswith(b"squat 1: ")
            run.stdout.close()
            assert run.stderr.read() == b""
            assert run.wait(timeout=60) == 0
        assert (tmp_path / "trajectory_summary.csv").read_text().count("\n") > 2000

    def test_stdout_closed_before_the_summary_exits_0_quietly(self, tmp_path):
        """A summary shorter than stdout's buffer is written only when it is
        flushed; with the pipe's read end closed from the start, that flush
        fails, and the command still exits 0 with an empty stderr.  Stdout
        is block-buffered, as for a user, whatever PYTHONUNBUFFERED says here."""
        src = str(Path(springleg.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        command = [sys.executable, "-m", "springleg.cli", "simulate", "--config", PROTO]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run(
                [*command, "--out", str(tmp_path)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**env, "PYTHONPATH": src},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (run.returncode, run.stderr) == (0, b"")
        assert (tmp_path / "trajectory_summary.csv").exists()

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

    @pytest.mark.parametrize("x_release", ["0.25", "0.1"])
    def test_release_beyond_standing_exits_3(self, tmp_path, capsys, x_release):
        # The demo's 0.5 m spring would compress as the leg extends to standing.
        arguments = ["--spring-length", "0.5", "--x-release", x_release]
        assert main(["release", "--config", DEMO, "--out", str(tmp_path), *arguments]) == 3
        assert "beyond the standing length" in capsys.readouterr().err
        assert not (tmp_path / "release.csv").exists()


class TestSweepCommand:
    def test_grid_sweep_with_flagged_rows(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("spring_stiffness_n_per_m = 900.0, -5.0\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", PROTO, "--grid", str(grid), "--out", str(out)]) == 0
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

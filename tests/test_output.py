"""CSV/SVG emission: schemas, round trips, determinism."""

import csv
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from springleg import (
    DataError,
    DomainError,
    FitReport,
    LegGeometry,
    LossModel,
    MeasuredCycle,
    SpringParams,
    SweepRow,
    Trajectory,
    e1_max,
    emit_fit_report_csv,
    emit_plot_svg,
    emit_sweep_csv,
    emit_trajectory_csv,
    parse_config,
    read_measured_cycles,
    simulate,
    sweep,
)
from springleg import cyclic, output
from springleg.output import PLOT_KINDS, SUMMARY_HEADER, TRAJECTORY_HEADER, format_number

from conftest import CONFIG_DIR, random_config, worked_config
from oracle import read_lines


class TestFormatNumber:
    def test_decimal_notation_only(self):
        assert format_number(0.0000469117766) == "0.0000469117766"
        assert format_number(306.0) == "306"
        assert format_number(0.12) == "0.12"
        assert "e" not in format_number(1.23456789e-7)

    def test_nine_significant_digits(self):
        assert format_number(1.0 / 3.0) == "0.333333333"
        assert format_number(123456789.123) == "123456789"

    @given(st.floats())
    @example(-0.0)
    @example(5e-324)
    @example(1e-4)
    @example(9.99999999e-5)
    @example(1e9)
    @example(999999999.5)
    @example(100000000.5)
    def test_matches_positional_dragon4(self, value):
        assert format_number(value) == positional(value)

    def test_matches_positional_dragon4_at_every_edge(self):
        powers = 2.0 ** np.arange(-1074, 1024)
        carries = 9.9999999995 * 10.0 ** np.arange(-330, 300)
        # Ties at the tenth digit: exact ones from 1e9 up, near ones below.
        ties = np.concatenate(
            [np.arange(10**9 + 5, 10**9 + 500, 10), (np.arange(10**8, 10**8 + 9) + 0.5) * 1e-14]
        )
        sides = np.array([1e-4, 999999999.5, 1e9, 1e8])
        values = np.concatenate([powers, carries, ties, sides, 5e-324 * np.arange(1, 64)])
        near = [np.nextafter(values, side) for side in (-np.inf, np.inf)]
        values = np.concatenate([values, *near, [0.0, np.nan, np.inf]])
        values = np.concatenate([values, -values]).tolist()
        assert max(map(len, map(format_number, values))) == 335  # -5e-324: 332 decimals
        wrong = [(v, format_number(v)) for v in values if format_number(v) != positional(v)]
        assert not wrong, wrong[:5]


def positional(value: float) -> str:
    return np.format_float_positional(value, precision=9, unique=False, fractional=False, trim="-")


class TestTrajectoryCsv:
    def test_single_sample_two_lines(self, tmp_path):
        trajectory = Trajectory(
            np.array([0.0]), np.array([0.12]), np.array([0.0]), np.array([0.0])
        )
        path = emit_trajectory_csv(trajectory, tmp_path / "one.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == TRAJECTORY_HEADER
        assert lines[1] == "1,0,0.12,0,0"

    def test_exponent_range_rows_match_format_number(self, tmp_path):
        columns = [
            np.array([1e-5, 0.25, 2.5e9, 5e-324, 0.5]),
            np.array([0.12, 3.2e-7, 1.0, -0.0, 0.12]),
            np.array([999999999.5, 1e-4, 9.99999999e-5, 100000000.5, 306.0]),
            np.array([0.0, 1e300, 7.0, float("inf"), 1.0 / 3.0]),
        ]
        path = emit_trajectory_csv(Trajectory(*columns), tmp_path / "exp.csv", iteration=3)
        expected = [",".join(["3", *map(format_number, row)]) for row in zip(*columns)]
        assert path.read_text().splitlines()[1:] == expected

    def test_newline_terminated(self, tmp_path):
        path = emit_trajectory_csv(simulate(worked_config()), tmp_path / "run.csv")
        assert path.read_text().endswith("\n")

    def test_worked_run_row_count_and_summary(self, tmp_path):
        config = worked_config(max_iterations=2, sample_count=50)
        result = simulate(config)
        path = emit_trajectory_csv(result, tmp_path / "run.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2 * 50 + 1
        summary = (tmp_path / "run_summary.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert summary[1].startswith("1,0.08,")
        assert summary[1].endswith(",leg_range")
        cells = summary[2].split(",")
        assert float(cells[1]) == pytest.approx(0.08 * 2 / 3, rel=1e-8)
        assert float(cells[7]) == pytest.approx(2.2222, rel=1e-4)

    def test_empty_trajectory_rejected(self, tmp_path):
        empty = Trajectory(np.array([]), np.array([]), np.array([]), np.array([]))
        with pytest.raises(DomainError, match="empty"):
            emit_trajectory_csv(empty, tmp_path / "no.csv")

    def test_unequal_trajectory_arrays_rejected(self):
        with pytest.raises(DomainError, match="^trajectory arrays must have equal length$"):
            Trajectory(np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("kind", ["trajectory", *PLOT_KINDS])
    def test_empty_result_rejected(self, tmp_path, kind):
        result = simulate(worked_config())
        empty = replace(result, squats=cyclic.Squats(*[()] * len(result.squats)))
        path = tmp_path / "empty"
        with pytest.raises(DomainError) as error:
            if kind == "trajectory":
                emit_trajectory_csv(empty, path)
            else:
                emit_plot_svg(empty, kind, path)
        verb = "emit" if kind == "trajectory" else "plot"
        assert str(error.value) == f"cannot {verb} an empty simulation result"
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["trajectory", *PLOT_KINDS])
    @pytest.mark.parametrize("data", [None, "run.csv", 5], ids=["none", "str", "int"])
    def test_wrong_type_rejected_before_writing(self, tmp_path, kind, data):
        with pytest.raises(DomainError) as error:
            if kind == "trajectory":
                emit_trajectory_csv(data, tmp_path / "out.csv")
            else:
                emit_plot_svg(data, kind, tmp_path / "out.svg")
        if kind == "trajectory":
            expected = "data must be a SimResult or a Trajectory"
        else:
            expected = "result must be a SimResult"
        assert str(error.value) == f"{expected}, got {type(data).__name__}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "iteration, message",
        [
            (2.5, "iteration needs an integer, got 2.5"),
            (True, "iteration needs an integer, got True"),
            (np.True_, "iteration needs an integer, got np.True_"),
            ("3", "iteration needs an integer, got '3'"),
            (10**5000, "iteration <int too long to print> is not a printable integer"),
        ],
        ids=["float", "bool", "numpy_bool", "str", "huge_int"],
    )
    def test_non_integer_iteration_rejected(self, tmp_path, iteration, message):
        """Rows read_measured_cycles could not read back are not written."""
        trajectory = Trajectory(*(np.array([0.0, 0.1]) for _ in range(4)))
        with pytest.raises(DataError) as error:
            emit_trajectory_csv(trajectory, tmp_path / "bad.csv", iteration=iteration)
        assert str(error.value) == message
        assert not (tmp_path / "bad.csv").exists()

    def test_numpy_integer_iteration_reads_back(self, tmp_path):
        trajectory = Trajectory(*(np.array([0.0, 0.1]) for _ in range(4)))
        path = emit_trajectory_csv(trajectory, tmp_path / "one.csv", iteration=np.int64(-7))
        assert path.read_text().splitlines()[1:] == ["-7,0,0,0,0", "-7,0.1,0.1,0.1,0.1"]
        assert [cycle.iteration for cycle in read_measured_cycles(path)] == [-7]

    def test_round_trip_reader_reproduces_samples(self, tmp_path):
        config = worked_config(max_iterations=3, sample_count=40)
        result = simulate(config)
        path = emit_trajectory_csv(result, tmp_path / "run.csv")
        cycles = read_measured_cycles(path)
        assert [c.iteration for c in cycles] == [1, 2, 3]
        # printed digits survive a write -> read -> write cycle unchanged
        rewritten = tmp_path / "again.csv"
        first = cycles[0]
        emit_trajectory_csv(
            Trajectory(
                first.hip_displacement,
                np.full_like(first.hip_displacement, first.spring_length_start),
                first.hip_force,
                np.zeros_like(first.hip_displacement),
            ),
            rewritten,
        )
        for line_a, line_b in zip(
            path.read_text().splitlines()[1:41], rewritten.read_text().splitlines()[1:]
        ):
            a_cells = line_a.split(",")
            b_cells = line_b.split(",")
            assert a_cells[1] == b_cells[1]  # displacement
            assert a_cells[3] == b_cells[3]  # force

    def test_reader_extracts_locked_lengths(self, tmp_path):
        config = worked_config(max_iterations=2, sample_count=30)
        result = simulate(config)
        path = emit_trajectory_csv(result, tmp_path / "run.csv")
        cycles = read_measured_cycles(path)
        for record, cycle in zip(result.records, cycles):
            assert cycle.spring_length_start == pytest.approx(
                record.state.spring_length_start, rel=1e-8
            )
            assert cycle.spring_length_end == pytest.approx(
                record.state.spring_length_end, rel=1e-8
            )

    def test_identical_runs_identical_bytes(self, tmp_path):
        a = emit_trajectory_csv(simulate(worked_config()), tmp_path / "a.csv")
        b = emit_trajectory_csv(simulate(worked_config()), tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                f"{TRAJECTORY_HEADER}\n1,0,0.12,0,0\n\n\n1,0.1,oops,0,0\n",
                ":5: unparsable row '1,0.1,oops,0,0'",
            ),
            (f"\n{TRAJECTORY_HEADER}\n1,0,0.12,0,0\n1,0.1\n", ":4: expected 5 columns, got 2"),
            (
                f"{TRAJECTORY_HEADER}\r\n1,0,0.12,0,0\f\r\n1,x,0,0,0\r\n",
                ":3: unparsable row '1,x,0,0,0'",
            ),
            ("iteration,x\n1,0\n", f": expected header {TRAJECTORY_HEADER!r}"),
        ],
        ids=[
            "blank_lines_before_row",
            "blank_line_before_header",
            "crlf_and_form_feed",
            "wrong_header",
        ],
    )
    def test_reader_error_names_the_line_in_the_file(self, tmp_path, text, message):
        path = tmp_path / "gappy.csv"
        path.write_text(text)
        with pytest.raises(DataError) as error:
            read_measured_cycles(path)
        assert str(error.value) == f"{path}{message}"

    def test_missing_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(DataError) as error:
            read_measured_cycles(path)
        assert str(error.value).startswith(f"cannot read measured-cycle CSV {path}: ")
        assert isinstance(error.value.__cause__, FileNotFoundError)

    @pytest.mark.parametrize("path", [None, 5], ids=["none", "int"])
    def test_path_that_is_no_path_is_a_data_error(self, path):
        with pytest.raises(DataError) as error:
            read_measured_cycles(path)
        assert str(error.value).startswith(f"cannot read measured-cycle CSV {path}: ")
        assert isinstance(error.value.__cause__, TypeError)

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a full device")
    @pytest.mark.parametrize("kind", ["trajectory", *PLOT_KINDS])
    def test_write_error_part_way_is_a_domain_error(self, kind):
        # Every write to /dev/full fails once the buffer is flushed, after it was opened.
        result, full = simulate(worked_config()), Path("/dev/full")
        with pytest.raises(DomainError, match="^cannot write /dev/full: No space left"):
            if kind == "trajectory":
                emit_trajectory_csv(result, full)
            else:
                emit_plot_svg(result, kind, full)

    @pytest.mark.parametrize("row", [b"1,0.1,0.12,0,\xff", b"1,0.1,\xff,0,0"])
    def test_reader_names_the_line_of_an_undecodable_byte(self, tmp_path, row):
        path = tmp_path / "binary.csv"
        path.write_bytes(TRAJECTORY_HEADER.encode() + b"\r\n1,0,0.12,0,0\r\n\r\n" + row + b"\n")
        with pytest.raises(DataError) as error:
            read_measured_cycles(path)
        text = row.decode(errors="surrogateescape")
        assert str(error.value) == f"{path}:4: undecodable bytes in row {text!r}"

    @pytest.mark.parametrize("name", ["four_squat", "ratchet_slack"])
    def test_reader_equals_a_float_per_cell_on_the_goldens(self, name):
        path = Path(__file__).parent / "golden" / f"{name}_trajectory.csv"
        assert_cycles_equal(read_measured_cycles(path), naive_cycles(path.read_bytes()))

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(-3, 3),
                st.floats(0.0, 1.0),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(["\n", "\r\n", "\r"]),
                st.sampled_from(["", " \n", "\f\r\n", "\t \r"]),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @example(rows=[(-1, 0.5, -0.0, 5e-324, "\r\n", "\n"), (1, 0.0, 1e300, -2.5, "\r", "")])
    def test_reader_equals_a_float_per_cell(self, tmp_path_factory, rows):
        # Each iteration's displacements climb in file order, as MeasuredCycle asks;
        # groups interleave, blank lines and line ends vary.
        climbed: dict[int, float] = {}
        text = TRAJECTORY_HEADER + "\n"
        for iteration, step, length, force, end, blank in rows:
            climbed[iteration] = climbed.get(iteration, 0.0) + step
            cells = (iteration, repr(climbed[iteration]), repr(length), format_number(force), "0")
            text += ",".join(map(str, cells)) + end + blank
        path = tmp_path_factory.mktemp("drawn") / "drawn.csv"
        path.write_bytes(text.encode())
        assert_cycles_equal(read_measured_cycles(path), naive_cycles(text.encode()))


def naive_cycles(data: bytes) -> list[tuple]:
    """(iteration, displacements, forces, first and last length) per iteration,
    in order of first row: one ``float()`` per cell of each non-blank line."""
    lines = data.decode().replace("\r\n", "\n").replace("\r", "\n").split("\n")
    groups: dict[int, list[list[float]]] = {}
    for line in [line for line in lines if line.strip()][1:]:
        cells = line.split(",")
        groups.setdefault(int(cells[0]), []).append([float(cell) for cell in cells[1:4]])
    return [
        (n, np.array([r[0] for r in rows]), np.array([r[2] for r in rows]), rows[0][1], rows[-1][1])
        for n, rows in groups.items()
    ]


def assert_cycles_equal(cycles, expected) -> None:
    assert len(cycles) == len(expected)
    for cycle, (iteration, displacement, force, first, last) in zip(cycles, expected):
        assert cycle.iteration == iteration
        for got, want in ((cycle.hip_displacement, displacement), (cycle.hip_force, force)):
            assert np.array_equal(got, want) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()  # -0.0 too
        lengths = (cycle.spring_length_start, cycle.spring_length_end)
        assert [x.hex() for x in lengths] == [first.hex(), last.hex()]


def read_both(path: Path, block: int | None = None) -> tuple:
    """``read_measured_cycles`` of ``path``, the first line of each block that the line
    rules read (``loadtxt`` refused it), and the reference line reader's result; a
    result is the cycles or the ``DataError`` text."""

    def outcome(read):
        try:
            return read()
        except DataError as error:
            return str(error)

    def reference():
        with path.open(errors="surrogateescape") as file:
            return [MeasuredCycle(*group) for group in read_lines(file, path)]

    with mock.patch.object(output, "_BLOCK", 4 * block if block else output._BLOCK):
        with mock.patch.object(output, "_rows", wraps=output._rows) as rows:
            got = outcome(lambda: read_measured_cycles(path))
    return got, [call.args[1] for call in rows.call_args_list], outcome(reference)


def counting_loadtxt() -> tuple[list, object]:
    """A list of the rows each ``np.loadtxt`` call parsed (``None`` where it refused the
    block), and a stand-in for ``np.loadtxt`` that fills it."""
    parsed, loadtxt = [], np.loadtxt

    def counted(*args, **kwargs):
        parsed.append(None)  # stays None where loadtxt refuses the block
        block = loadtxt(*args, **kwargs)
        parsed[-1] = len(block)
        return block

    return parsed, counted


def assert_same_outcome(got, want) -> None:
    """Equal ``DataError`` texts, or cycles equal bit for bit, lengths by ``float.hex``."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, str):
        assert got == want
        return
    assert_cycles_equal(
        got,
        [
            (c.iteration, c.hip_displacement, c.hip_force, c.spring_length_start, c.spring_length_end)
            for c in want
        ],
    )


READER_ROWS = ("1,0,0.12,0,0", "1,0.001,0.119,0.9,0.5", "2,0,0.118,0,0", "2,0.002,0.117,1.8,1")


def reader_text(*rows: str, end: str = "\n") -> bytes:
    """A trajectory CSV of ``rows`` after the header, each line ended by ``end``."""
    return "".join(line + end for line in (TRAJECTORY_HEADER, *rows)).encode(errors="surrogateescape")


class TestReaderPaths:
    """The C parser reads each block it can vouch for; the line rules read the blocks
    it refuses and alone raise.  Either way the cycles or the error equal the
    reference line reader's."""

    @pytest.mark.parametrize(
        "data, line_rules, error",
        [
            (reader_text("1,1_0,0.12,0,0"), True, None),
            (reader_text("1,0,0.1٢,0,0"), True, None),
            (reader_text("+1,0,0.12,0,0", "01,0.1,0.11,2,0"), False, None),
            (reader_text("9223372036854775808,0,0.12,0,0"), True, None),
            (reader_text("1.5,0,0.12,0,0"), True, ":2: unparsable row"),
            (reader_text("1e0,0,0.12,0,0"), True, ":2: unparsable row"),
            (reader_text("1,0,0.12,1e400,0"), False, "cycle 1: displacements and forces must be finite"),
            (reader_text("1,0,inf,1,0"), False, "spring_length_start must be None or a finite number"),
            (reader_text("1,0,0.12,0,#", *READER_ROWS[1:]), True, None),
            (reader_text(READER_ROWS[0], "1,0.001,0.119,0.9"), True, ":3: expected 5 columns, got 4"),
            (reader_text(READER_ROWS[0], "1,0.001,0.119,0.9,0,0"), True, ":3: expected 5 columns, got 6"),
            (reader_text(READER_ROWS[0], " \t", *READER_ROWS[1:]), True, None),
            (reader_text(*READER_ROWS, end="\r"), False, None),
            (reader_text(*READER_ROWS, end="\r\n"), False, None),
            (reader_text(READER_ROWS[0], "1,0.001,0.119,0.9,\udcff"), True, ":3: undecodable bytes"),
            (reader_text(*READER_ROWS[::2], *READER_ROWS[1::2]), False, None),
        ],
        ids=[
            "underscore_digits", "arabic_indic_digit", "plus_and_leading_zero_iterations",
            "iteration_past_int64", "iteration_one_and_a_half", "iteration_in_exponent_form",
            "overflowing_force", "infinite_length", "hash_in_energy",
            "four_columns", "six_columns", "whitespace_line", "cr_ends", "crlf_ends",
            "undecodable_byte", "interleaved_iterations",
        ],
    )
    def test_hazard_read_as_the_line_reader_reads_it(self, tmp_path, data, line_rules, error):
        path = tmp_path / "hazard.csv"
        path.write_bytes(data)
        got, refused, want = read_both(path)
        assert_same_outcome(got, want)
        assert refused == ([2] if line_rules else [])  # one block, after the header
        if error is None:
            assert not isinstance(got, str), got
        else:
            assert error in got

    @pytest.mark.parametrize(
        "rows, blocks, refused, lengths",
        [
            ((READER_ROWS[0], *READER_ROWS), [2, 2, 1], [], [3, 2]),
            (READER_ROWS, [2, 2], [], [2, 2]),
            ((*READER_ROWS, "", ""), [2, 2, None], [6], [2, 2]),
            ((READER_ROWS[0], "", *READER_ROWS[1:]), [1, 2, 1], [], [2, 2]),
        ],
        ids=[
            "group_spans_two_blocks", "exactly_two_blocks", "two_blocks_then_blank_lines",
            "blank_line_in_a_block",
        ],
    )
    def test_blocks_join_as_one_read(self, tmp_path, rows, blocks, refused, lengths):
        """``loadtxt`` parses blocks of at most ``_BLOCK // 4`` lines, which join into the
        cycles of one read; it warns on a block with no row, which the line rules then
        read, and the warning does not escape."""
        path = tmp_path / "blocks.csv"
        path.write_bytes(reader_text(*rows))
        parsed, counted = counting_loadtxt()
        with warnings.catch_warnings(), mock.patch.object(np, "loadtxt", counted):
            warnings.simplefilter("error")
            got, got_refused, want = read_both(path, block=2)
        assert_same_outcome(got, want)
        assert got_refused == refused
        assert parsed == blocks
        assert [len(c.hip_force) for c in got] == lengths

    def test_line_numbers_count_across_blocks(self, tmp_path):
        """Blocks of 2 lines: the C parser reads the first and third, the line rules the
        second (a whitespace-only line) and the fourth, whose 4-column row they name by
        its line in the file.  Iterations 1 and 2 each resume after the other's rows."""
        lines = [
            TRAJECTORY_HEADER,  # line 1
            READER_ROWS[0], "",  # lines 2-3: parsed
            READER_ROWS[2], " \t",  # lines 4-5: refused
            READER_ROWS[1], "1,0.002,0.118,1.2,0.7",  # lines 6-7: parsed
            READER_ROWS[3], "1,0.003,0.117,1.5",  # lines 8-9: refused, line 9 has 4 columns
        ]
        path = tmp_path / "blocks.csv"

        def read(rows: list[str]) -> tuple:
            path.write_text("\n".join(rows) + "\n")
            parsed, counted = counting_loadtxt()
            with mock.patch.object(np, "loadtxt", counted):
                got, refused, want = read_both(path, block=2)
            assert_same_outcome(got, want)
            return got, parsed, refused

        got, parsed, refused = read(lines)
        assert got.endswith(":9: expected 5 columns, got 4"), got
        assert (parsed, refused) == ([1, None, 2, None], [4, 8])  # rows per loadtxt call
        got, parsed, refused = read(lines[:-1])
        assert (parsed, refused) == ([1, None, 2, 1], [4])
        assert [(c.iteration, len(c.hip_force)) for c in got] == [(1, 3), (2, 2)]

    @pytest.mark.parametrize("iteration", ["1.5", "1e0"])
    def test_integer_written_as_a_float_refused_with_warnings_ignored(self, tmp_path, iteration):
        """numpy before 2.4 parses an ``i8`` cell such as ``1.5`` through the float, as 1,
        and only warns (``DeprecationWarning``), which a filter may silence.  The reader
        makes that warning a refusal, so the line rules raise either way; ``before_2_4``
        stands in for such a numpy."""
        path = tmp_path / "float_iteration.csv"
        path.write_bytes(reader_text(f"{iteration},0,0.12,0,0", *READER_ROWS[1:]))
        loadtxt = np.loadtxt

        def before_2_4(lines, dtype, **kwargs):
            lines = list(lines)
            whole = [re.sub("^[^,]*", lambda i: str(int(float(i[0]))), line) for line in lines]
            if whole != lines:
                try:
                    warnings.warn("Parsing an integer via a float", DeprecationWarning)
                except DeprecationWarning as exc:  # loadtxt's error on a cell it cannot convert
                    raise ValueError("could not convert string to int64") from exc
            return loadtxt(whole, dtype, **kwargs)

        for numpy_loadtxt in (loadtxt, before_2_4):
            with warnings.catch_warnings(), mock.patch.object(np, "loadtxt", numpy_loadtxt):
                warnings.simplefilter("ignore")
                got, refused, want = read_both(path)
            assert refused == [2]
            assert got == want
            assert got.endswith(f":2: unparsable row '{iteration},0,0.12,0,0'")

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_pipe_reads_as_the_file(self, tmp_path):
        path = tmp_path / "file.csv"
        path.write_bytes(reader_text(*READER_ROWS[::2], *READER_ROWS[1::2]))
        read, write = os.pipe()
        try:
            os.write(write, path.read_bytes())
            os.close(write)
            parsed, counted = counting_loadtxt()
            with mock.patch.object(np, "loadtxt", counted):
                with mock.patch.object(output, "_rows", side_effect=AssertionError) as rows:
                    piped = read_measured_cycles(f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert (parsed, rows.called) == ([4], False)
        assert_same_outcome(piped, read_measured_cycles(path))
        assert [c.iteration for c in piped] == [1, 2]

    @settings(max_examples=200, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["replace", "insert", "delete", "duplicate_line"]),
                st.integers(0, 10**6),
                st.sampled_from(list(b"019-+.e,_# \t\f\r\n\x00\xff")),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @pytest.mark.parametrize("block", [2, 5, 16384])
    def test_mutated_csv_read_as_the_line_reader_reads_it(self, tmp_path_factory, emitted, block, edits):
        data = bytearray(emitted)
        for kind, at, byte in edits:
            at %= len(data) + (kind == "insert")
            if kind == "replace" and at < len(data):
                data[at] = byte
            elif kind == "insert":
                data.insert(at, byte)
            elif kind == "delete" and at < len(data):
                del data[at]
            elif kind == "duplicate_line":
                start = data.rfind(b"\n", 0, at) + 1
                stop = data.find(b"\n", at)
                stop = len(data) if stop < 0 else stop + 1
                data[stop:stop] = data[start:stop]
        path = tmp_path_factory.mktemp("mutated") / "mutated.csv"
        path.write_bytes(bytes(data))
        got, _, want = read_both(path, block=block)
        assert_same_outcome(got, want)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory) -> bytes:
    """A small emitted trajectory CSV: 3 squats of 4 samples."""
    path = tmp_path_factory.mktemp("emitted") / "base.csv"
    emit_trajectory_csv(simulate(worked_config(max_iterations=3, sample_count=4)), path)
    return path.read_bytes()


# Values on either side of where %.9g switches to an exponent; st.floats() adds nan and inf.
EDGE_VALUES = (-0.0, 5e-324, 9.99999999e-5, 1e-4, 99999999.5, 1e8, 999999999.5, 1e9)
FAST, FLAGGED = (0.5, 0.12, 306.0, 1.0 / 3.0), (0.5, 5e-324, 306.0, 1.0 / 3.0)
cells = st.floats() | st.sampled_from(EDGE_VALUES) | st.floats(-2.0, 2.0)
plotted = cells | st.floats(-72.0, 424.0)


class TestSweepCsv:
    def test_every_row_has_the_header_width(self, tmp_path):
        # Flagged points keep their cells: a comma, quote or newline is quoted,
        # an int past the int-to-str digit limit is named by its type, a bool
        # is printed in lower case.  Header keys are cells too: "a,b" is
        # quoted and the key 1 printed.  Cells are spelled once per distinct
        # object, so 0.0 and -0.0 (equal, but two objects) keep their signs,
        # and one object on many rows is spelled on each.
        repeated = 12.0
        points = [
            {"policy": "fast,slow"},
            {"mass_kg": 10**5000},
            {"policy": 'a"b'},
            {"policy": "a\nb\r"},
            {"mass_kg": (1, 2)},
            {"mass_kg": (10**5000,)},
            {"mass_kg": True},
            {"mass_kg": False},
            {"mass_kg": 0.0},
            {"mass_kg": -0.0},
            {"mass_kg": math.nan},
            *[{"mass_kg": repeated, "policy": "full_range"}] * 3,
        ]
        rows = sweep(worked_config(), points)
        assert [row.status for row in rows] == ["invalid"] * 11 + ["ok"] * 3
        keys = ["policy", "mass_kg", "a,b", 1]
        path = emit_sweep_csv(rows, keys, tmp_path / "sweep.csv")
        # Generators of the rows and of the keys write the same bytes as their lists.
        streamed = emit_sweep_csv((row for row in rows), iter(keys), tmp_path / "streamed.csv")
        assert streamed.read_bytes() == path.read_bytes()
        with open(path, newline="") as handle:
            header, *table = csv.reader(handle)
        assert header[:5] == ["policy", "mass_kg", "a,b", "1", "status"]
        assert len(table) == len(points)
        assert all(len(line) == len(header) for line in table)
        assert [line[:2] for line in table] == [
            ["fast,slow", ""],
            ["", "<int too long to print>"],
            ["a'b", ""],
            ["a\nb\r", ""],
            ["", "(1, 2)"],
            ["", "<tuple too long to print>"],
            ["", "true"],
            ["", "false"],
            ["", "0"],
            ["", "-0"],
            ["", "nan"],
            *[["full_range", "12"]] * 3,
        ]

    def test_float_subclass_spelled_as_a_float(self, tmp_path):
        # np.float64 is a float but not exactly one: format_number spells it, not str.
        rows = sweep(worked_config(), [{"ratchet_pitch_m": np.float64(5e-05)}])
        assert rows[0].status == "ok" and str(rows[0].params["ratchet_pitch_m"]) == "5e-05"
        path = emit_sweep_csv(rows, ["ratchet_pitch_m"], tmp_path / "sweep.csv")
        assert path.read_text().splitlines()[1].split(",")[:2] == ["0.00005", "ok"]

    @pytest.mark.parametrize("rows", [0, 1])
    def test_unhashable_key_rejected_before_writing(self, tmp_path, rows):
        rows = sweep(worked_config(), [{"mass_kg": 12.0}] * rows)
        path = tmp_path / "sweep.csv"
        with pytest.raises(DomainError, match=r"^sweep key \['a'\] is not hashable$"):
            emit_sweep_csv(rows, ["mass_kg", ["a"]], path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            (None, "rows must be an iterable of SweepRow, got NoneType"),
            (5, "rows must be an iterable of SweepRow, got int"),
            ([object()], "rows must be SweepRows, got object"),
            ([{"mass_kg": 12.0}], "rows must be SweepRows, got dict"),
            (
                [SweepRow({"mass_kg": 12.0}, "ok"), SweepRow(None, "ok")],
                "sweep row params must be a mapping, got NoneType",
            ),
            ([SweepRow([1], "ok")], "sweep row params must be a mapping, got list"),
            ([SweepRow({}, "ok", reason=5)], "sweep row reason must be a string, got int"),
        ],
        ids=["none", "int", "object", "mapping", "params_none", "params_list", "reason_int"],
    )
    def test_rows_that_are_no_sweep_rows_rejected_before_writing(self, tmp_path, rows, message):
        path = tmp_path / "sweep.csv"
        with pytest.raises(DomainError) as error:
            emit_sweep_csv(rows, ["mass_kg"], path)
        assert str(error.value) == message
        assert not path.exists()

    def test_keys_checked_before_writing(self, tmp_path):
        rows = sweep(worked_config(), [{"mass_kg": 12.0}])
        with pytest.raises(DomainError) as error:
            emit_sweep_csv(rows, None, tmp_path / "sweep.csv")
        assert str(error.value) == "keys must be an iterable of column names, got NoneType"
        assert not any(tmp_path.iterdir())


REPORT = FitReport(0.9, 12.0, (0.5, 0.25), 0.01, (0.9,), False)
#: Each public emitter, called with its data and a path.
EMITTERS = {
    "trajectory": lambda path: emit_trajectory_csv(simulate(worked_config()), path),
    "plot": lambda path: emit_plot_svg(simulate(worked_config()), "energy", path),
    "sweep": lambda path: emit_sweep_csv(sweep(worked_config(), [{}]), ["mass_kg"], path),
    "fit_report": lambda path: emit_fit_report_csv(REPORT, path),
}


@pytest.mark.parametrize("path", [None, 5, b"out.csv"], ids=["none", "int", "bytes"])
@pytest.mark.parametrize("emitter", EMITTERS)
def test_path_that_is_no_path_rejected(tmp_path, monkeypatch, emitter, path):
    monkeypatch.chdir(tmp_path)  # where a path taken as one would be written
    with pytest.raises(DomainError) as error:
        EMITTERS[emitter](path)
    assert str(error.value) == f"path must be a str or os.PathLike, got {type(path).__name__}"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("report", [None, "fit", {"efficiency": 0.9}], ids=["none", "str", "dict"])
def test_fit_report_of_another_type_rejected_before_writing(tmp_path, report):
    with pytest.raises(DomainError) as error:
        emit_fit_report_csv(report, tmp_path / "fit.csv")
    assert str(error.value) == f"report must be a FitReport, got {type(report).__name__}"
    assert not any(tmp_path.iterdir())


class TestBlockFormatting:
    """Rows formatted one block per ``%`` call equal the per-row formatting."""

    @given(
        rows=st.lists(st.tuples(cells, cells, cells, cells), min_size=1, max_size=24),
        iteration=st.integers(-(10**6), 10**6),
        block=st.integers(1, 5),
    )
    @example(rows=[(v, 0.5, 306.0, v) for v in EDGE_VALUES], iteration=1, block=2)
    @example(rows=[FAST, FAST, FLAGGED, FAST, FAST], iteration=2, block=2)  # first of a block
    @example(rows=[FAST, FLAGGED, FAST, FAST, FLAGGED], iteration=3, block=2)  # last of a block
    @example(rows=[FAST] * 7, iteration=4, block=3)  # three blocks, the last one short
    def test_trajectory_rows_match_per_row_output(self, rows, iteration, block):
        columns = [np.array(c, dtype=float) for c in zip(*rows)]
        with mock.patch.object(output, "_BLOCK", 4 * block):
            pieces = list(output._trajectory_rows(Trajectory(*columns), iteration))
        expected = [",".join((str(iteration), *map(format_number, row))) for row in rows]
        assert "\n".join(pieces).split("\n") == expected

    def test_trajectory_rows_match_per_row_output_at_every_edge(self):
        decades = 10.0 ** np.arange(-4, 9)
        carries = 9.9999999995 * decades
        rng = np.random.default_rng(26)
        digits = rng.integers(10**8, 10**9, (12, 20))
        # (j + 0.5) * 10^(e-8) for e = -4..7, and nearly that on either side; and odd
        # multiples of 2^(e-9), which are exact ties in decade e.
        halves = np.concatenate([digits + 0.5, digits + (0.5 - 1e-5), digits + (0.5 + 1e-5)], 1)
        ties = (halves * 10.0 ** np.arange(-12, 0)[:, None]).ravel()
        e = np.arange(-4, 8)[:, None]
        odd = 2 * np.floor(rng.uniform(1, 10, (12, 20)) * 10.0**e * 2.0 ** (8 - e)) + 1
        ties = np.concatenate([ties, (odd * 2.0 ** (e - 9)).ravel()])
        twelve_decimals = rng.integers(10**8, 10**9, 100) * 1e-12  # e = -4
        values = np.concatenate([decades, carries, ties, twelve_decimals, [2.0**-13, 1e-4, 1e8]])
        near = [np.nextafter(values, side) for side in (-np.inf, np.inf)]
        values = np.concatenate([values, *near, [0.0, np.nan, np.inf]])
        values = np.concatenate([values, -values])
        # Each value in each column, the other three cells spelled.
        rows = np.tile(FAST, (4 * len(values), 1))
        for column in range(4):
            rows[column :: 4, column] = values
        columns = [rows[:, k] for k in range(4)]
        expected = [",".join(map(format_number, row)) for row in rows.tolist()]
        # Prefixes of 1 to 9 characters; the short blocks on the first 500 rows.
        prefixes = [int("123456789"[:n]) for n in range(1, 10)] + [-7, -12345678]
        for iteration, block in zip(prefixes, (4096, 3, 1, 2, 5, 4096, 1, 2, 3, 4, 4096)):
            size = len(rows) if block in (3, 4096) else 500
            trajectory = Trajectory(*(c[:size] for c in columns))
            with mock.patch.object(output, "_BLOCK", 4 * block):
                pieces = list(output._trajectory_rows(trajectory, iteration))
            if block == 4096:  # a run of spelled rows per piece: most rows
                assert len(pieces) < size / 2
            lines = "\n".join(pieces).split("\n")
            pairs = zip(lines, (f"{iteration},{line}" for line in expected))
            wrong = [(n, a, b) for n, (a, b) in enumerate(pairs) if a != b]
            assert len(lines) == size and not wrong, (iteration, block, wrong[:5])

    @given(
        points=st.lists(st.tuples(plotted, plotted), max_size=24),
        block=st.integers(1, 5),
    )
    @example(points=[(v, -v) for v in EDGE_VALUES], block=3)
    @example(points=[(1.0, 2.0), (3.0, 4.0), (-80.0, 5.0), (6.0, 7.0), (8.0, 500.0)], block=2)
    @example(points=[(-80.0, 1.0), (2.0, 3.0), (4.0, 5.0), (6.0, 7.0), (8.0, 500.0)], block=3)
    @example(points=[(0.005, 1.0), (928.0, 2.0), (927.995, -575.995)], block=1)
    def test_polyline_matches_per_point_output(self, points, block):
        # sx and sy take [-72, 928) and (-576, 424] onto [0, 1000), the digit tables' range.
        x, y = (np.array([p[i] for p in points], dtype=float) for i in (0, 1))

        def sx(v):
            return 72.0 + v

        def sy(v):
            return 424.0 - v

        with mock.patch.object(output, "_BLOCK", 4 * block):
            svg = output._polyline(x, y, sx, sy, "#444444")
        expected = " ".join(map("%.2f,%.2f".__mod__, zip(sx(x).tolist(), sy(y).tolist())))
        assert svg.split(' points="')[1] == f'{expected}"/>'

    def test_polyline_matches_per_point_output_at_every_cent(self):
        # Each cent value from 0.00 to 999.99, its float neighbours, and the
        # floats on either side of each tie between two cents.
        cents = np.arange(100_000) / 100
        ties = (np.arange(100_000) + 0.5) / 100
        near = [np.nextafter(v, side) for v in (cents, ties) for side in (-np.inf, np.inf)]
        values = np.concatenate([cents, ties, *near])
        x, y = values, values[::-1]
        svg = output._polyline(x, y, lambda v: v, lambda v: v, "#444444")
        points = svg.split(' points="')[1].removesuffix('"/>').split(" ")
        expected = list(map("%.2f,%.2f".__mod__, zip(x.tolist(), y.tolist())))
        # Point by point: a diff of the whole strings would take minutes.
        wrong = [(n, p, e) for n, (p, e) in enumerate(zip(points, expected)) if p != e]
        assert len(points) == len(expected) and not wrong, wrong[:5]


class TestPlotSvg:
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="kind"):
            emit_plot_svg(simulate(worked_config()), "pie", tmp_path / "x.svg")

    def test_deterministic_bytes(self, tmp_path):
        result = simulate(worked_config())
        a = emit_plot_svg(result, "force_deflection", tmp_path / "a.svg")
        b = emit_plot_svg(simulate(worked_config()), "force_deflection", tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()

    def test_energy_curve_monotone_within_squats(self):
        result = simulate(worked_config())
        for trajectory in result.trajectories:
            assert np.all(np.diff(trajectory.stored_energy) >= 0)

    def test_lossy_run_shows_sawtooth_energy_drops(self):
        result = simulate(worked_config(loss=LossModel(efficiency=0.84)))
        for prev, cur in zip(result.trajectories, result.trajectories[1:]):
            assert cur.stored_energy[0] < prev.stored_energy[-1]

    @pytest.mark.parametrize("kind", ["force_deflection", "energy"])
    def test_reference_curve_ends_at_the_single_squat_bound(self, tmp_path, kind):
        # The dashed curve is one squat on a fixed spring: force rises linearly
        # to the body weight over the leg's range; energy rises as k d^2 / 2 up
        # to the deflection at the force cap, or to solid.
        config = worked_config()
        result = simulate(config)
        e1, cap = e1_max(config.body, config.leg), config.force_cap
        spring = config.spring
        with mock.patch.object(output, "_polyline", wraps=output._polyline) as spy:
            emit_plot_svg(result, kind, tmp_path / "plot.svg")
        (x, y, *_), = [c.args for c in spy.call_args_list if c.kwargs.get("dashed")]
        assert len(x) == 64 and x[0] == 0.0 and y[0] == 0.0
        if kind == "force_deflection":
            assert x[-1] == pytest.approx(config.leg.max_deformation, rel=1e-12)
            assert y[-1] * cap == pytest.approx(config.body.weight, rel=1e-12)
            slope = config.body.weight / config.leg.max_deformation / cap
            assert np.allclose(np.diff(y) / np.diff(x), slope, rtol=1e-9)
        else:
            d_cap = min(cap / spring.stiffness, spring.free_length - spring.solid_length)
            assert x[-1] == pytest.approx(d_cap, rel=1e-12)
            assert y * e1 == pytest.approx(0.5 * spring.stiffness * x**2, rel=1e-12)
            assert np.all(np.diff(y) > 0)

    def test_strokes_take_their_extremes_at_their_two_samples(self):
        # The axis bounds come from strokes sampled at two points: each stroke
        # of every sample count must have its extremes at its ends, and the
        # 2-sample stroke must be those ends bit for bit.  Energy may dip to 0
        # inside (a stroke from past the free length): the plot's y_lo <= 0.
        rng = np.random.default_rng(29)
        configs = [
            random_config(
                rng,
                efficiency=(1.0, float(rng.uniform(0.8, 1.0)))[case % 4 == 0],
                ratchet_pitch=(0.0, float(10 ** rng.uniform(-4, -2)))[case % 3 == 0],
                sample_count=int(rng.integers(2, 400)),
                max_iterations=int(rng.integers(1, 120)),
            )
            for case in range(60)
        ]
        configs.append(parse_config(CONFIG_DIR / "ratchet_slack.cfg"))
        near = worked_config(  # runs to the budget just below its critical cap
            spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
            loss=LossModel(efficiency=0.95),
            tol_gain=0.0,
            max_iterations=300,
        )
        critical = 0.12**2 * 1000.0 / (4 * 0.95**0.5 * 0.3)  # s0**2 k / (4 sqrt(eta) l_stand)
        for offset, samples in ((1e-7, 1000), (3e-4, 333)):
            cap = critical * (1 - offset)
            configs.append(replace(near, force_cap=cap, sample_count=samples))
        slack = long = 0
        for config in configs:
            result = simulate(config)
            ends = cyclic._trajectories(replace(result, config=replace(config, sample_count=2)))
            for stroke, two in zip(result.trajectories, ends, strict=True):
                for name, samples in vars(stroke).items():
                    pair = getattr(two, name)
                    assert pair.tobytes() == samples[[0, -1]].tobytes()
                    assert samples.max() == pair.max()
                    low = samples.min()
                    assert low == pair.min() or name == "stored_energy" and low == 0.0
                slack += len(stroke.leg_deformation) == 2 < config.sample_count
            long += len(result.squats.x) >= 300
        assert slack and long == 2

    def test_svg_is_wellformed_and_contains_curves(self, tmp_path):
        import xml.etree.ElementTree as ET

        result = simulate(worked_config())
        for kind in ("force_deflection", "energy"):
            path = emit_plot_svg(result, kind, tmp_path / f"{kind}.svg")
            root = ET.fromstring(path.read_text())
            polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
            assert len(polylines) == len(result.records) + 1  # curves + reference

    def test_energy_plot_of_no_deflection_is_finite(self, tmp_path):
        # One slack squat at the free length, and cap / k underflows to 0: the
        # reference and the squat both span no deflection, so the x axis takes 1.
        leg = LegGeometry(segment_length=0.5, standing_length=0.9, max_deformation=0.1)
        spring = SpringParams(1e300, 0.9, 0.898)
        config = worked_config(leg=leg, spring=spring, initial_spring_position=0.5, force_cap=1e-30)
        slack = (0.5, 0.9, 0.0, 0.9, cyclic.StopReason.ENGAGED_ONLY, 0.0, 0.0, 0.0, 0.0, 0.0)
        squats = cyclic.Squats(*zip(slack))
        result = cyclic.SimResult(squats, config, cyclic.Termination.STALLED)
        svg = emit_plot_svg(result, "energy", tmp_path / "energy.svg").read_text()
        assert "<polyline" in svg
        assert not re.search("nan|inf", svg, re.IGNORECASE), svg


def distinct_squats(squats: int, samples: int = 5):
    """``simulate`` of ``test_samples_not_stored_per_squat``'s config at fewer
    squats and samples: just below the critical cap every squat differs from
    the one before, so the run stops at the budget."""
    config = worked_config(
        spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
        force_cap=12.0 * (1 - 1e-7),
        max_iterations=squats,
        sample_count=samples,
        tol_gain=0.0,
    )
    result = simulate(config)
    assert len(set(zip(*result.squats))) == squats
    return result


def overhead(call) -> int:
    """Peak traced bytes of ``call()`` above what its result holds, first-use
    caches (the digit tables) built beforehand."""
    call()
    tracemalloc.start()
    try:
        kept = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return peak - held


class TestBoundedMemory:
    def test_emit_and_read_peaks_do_not_grow_with_the_rows(self, tmp_path):
        # Blocks of 10 squats of 5 samples: 50 squats make 5 blocks, 400 make 40;
        # the writer spells and the reader parses blocks of 50 lines.
        # Holding every row, curve or read cell would add about 1 kB a squat.
        # The emitters add nothing; the reader keeps a small entry per group until
        # its cycles are built, which hold the group's arrays as they were read.
        peaks = {}
        with mock.patch.object(cyclic, "_BLOCK", 50), mock.patch.object(output, "_BLOCK", 200):
            for squats in (50, 400):
                result, path = distinct_squats(squats), tmp_path / f"{squats}.csv"
                peaks[squats] = {
                    "csv": overhead(lambda: emit_trajectory_csv(result, path)),
                    **{
                        kind: overhead(lambda: emit_plot_svg(result, kind, tmp_path / "p.svg"))
                        for kind in PLOT_KINDS
                    },
                    "read": overhead(lambda: read_measured_cycles(path)),
                }
        growth = {name: peaks[400][name] - peaks[50][name] for name in peaks[50]}
        assert max(growth[kind] for kind in ("csv", *PLOT_KINDS)) < 16 * 1024, peaks
        assert growth["read"] < 350 * 200, peaks

    def test_read_of_one_long_iteration_keeps_no_blocks(self, tmp_path):
        # One iteration over 5 and 40 blocks of 50 lines: the cycle holds 16 B a row,
        # and joining it from copies of its runs adds as much again.  A run that kept
        # its block (40 B a row) until the join would add 56 B a row.
        peaks = {}
        with mock.patch.object(output, "_BLOCK", 200):
            for rows in (250, 2000):
                path = tmp_path / f"{rows}.csv"
                path.write_bytes(reader_text(*(f"1,{n}e-6,0.1,{n}e-3,0" for n in range(rows))))
                peaks[rows] = overhead(lambda: read_measured_cycles(path))
        assert peaks[2000] - peaks[250] < 32 * (2000 - 250), peaks

    def test_read_at_the_default_block_holds_one_block(self, tmp_path):
        # artifact_emit's largest run, 40 squats of 1000 samples (40,001 lines), read
        # in blocks of 4096 lines holds one block's lines and parsed rows, about 1 MB,
        # and the open group's runs; blocks of 16,384 lines would hold about 3.7 MB.
        path = emit_trajectory_csv(distinct_squats(40, samples=1000), tmp_path / "t.csv")
        assert overhead(lambda: read_measured_cycles(path)) < 1.5 * 2**20

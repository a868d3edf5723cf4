"""Table emission round trips and the work-samples file format."""

import json
import math
import re
import string
import tempfile
import tracemalloc
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdr.io import (
    SAMPLES_FIELDS,
    format_value,
    read_csv_table,
    read_samples,
    render_csv,
    render_json,
    write_samples,
)
from qfdr.protocol import (
    COHERENT,
    INCOHERENT,
    ProtocolSpec,
    SpamModel,
    WorkSampleSet,
    sample_work,
    step_table,
)
from qfdr.qubit import ThermalSpec

# cell text that survives a CSV line: no comma, no line break, no leading '#'
CELL_TEXT = st.text(string.ascii_letters + string.digits + "_-. ", min_size=1)
CELLS = st.one_of(
    CELL_TEXT,
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.booleans(),
)


@st.composite
def tables(draw):
    fieldnames = draw(st.lists(st.text(string.ascii_lowercase + "_", min_size=1),
                               min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({name: CELLS for name in fieldnames}),
                         max_size=20))
    return fieldnames, rows


# special floats drawn on purpose: nan, infinities, signed zero, subnormals
SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072e-308])
# columns of one type each: those the commands write, and numpy scalars a library caller may pass
COLUMN_CELLS = [
    st.floats() | SPECIAL_FLOATS,
    (st.floats() | SPECIAL_FLOATS).map(np.float64),
    st.floats(width=32).map(np.float32),
    CELL_TEXT,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.booleans().map(np.bool_),
]


@st.composite
def homogeneous_tables(draw):
    """Tables whose every column holds values of one type."""
    fieldnames = draw(st.lists(st.text(string.ascii_lowercase + "_", min_size=1),
                               min_size=1, max_size=5, unique=True))
    cells = {name: draw(st.sampled_from(COLUMN_CELLS)) for name in fieldnames}
    rows = draw(st.lists(st.fixed_dictionaries(cells), max_size=20))
    return fieldnames, rows


def _row_at_a_time(fieldnames, rows) -> str:
    """The CSV text rendered one cell at a time by ``format_value``."""
    return ",".join(fieldnames) + "\n" + "".join(
        ",".join(format_value(row[name]) for name in fieldnames) + "\n" for row in rows
    )


@st.composite
def sample_setups(draw):
    thermal = ThermalSpec.from_beta(draw(st.floats(0.0, 10.0)))
    n_steps = draw(st.integers(1, 12))
    if draw(st.booleans()):
        spam = draw(st.none() | st.builds(SpamModel, st.floats(0.0, 0.49), st.floats(0.0, 0.49)))
        return ProtocolSpec(COHERENT, n_steps, thermal), spam
    omega_start = draw(st.floats(0.05, 20.0))
    omega_end = draw(st.just(omega_start) | st.floats(0.05, 20.0))
    return ProtocolSpec(INCOHERENT, n_steps, thermal, omega_start, omega_end), None


def _assert_same_text(actual: str, expected: str) -> None:
    """Report the first differing line only: pytest's full diff of two texts
    of thousands of lines takes minutes, and hypothesis repeats it while
    shrinking."""
    pairs = zip_longest(actual.splitlines(), expected.splitlines())
    first = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
    assert first is None, f"line {first + 1} differs"
    assert actual == expected  # line endings


def _per_row_rendering(samples) -> str:
    """The samples table as first written, one dict per row."""
    rows = [{"run_index": i, "total_work": float(w)} for i, w in enumerate(samples.totals)]
    return render_csv(SAMPLES_FIELDS, rows)


class TestTables:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(table=tables() | homogeneous_tables())
    def test_csv_round_trip_is_the_identity(self, table):
        """Mixed columns take the per-cell path, one-type columns the
        whole-column one; both render as one cell at a time would."""
        fieldnames, rows = table
        text = render_csv(fieldnames, rows)
        assert text == _row_at_a_time(fieldnames, rows)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "table.csv"
            path.write_text(text)
            parsed_names, parsed_rows = read_csv_table(path)
        assert parsed_names == fieldnames
        assert parsed_rows == [{name: format_value(row[name]) for name in fieldnames}
                               for row in rows]
        assert render_csv(parsed_names, parsed_rows) == text

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(table=tables())
    def test_json_round_trip_is_the_identity(self, table):
        _, rows = table
        text = render_json(rows)
        assert json.loads(text) == rows
        assert render_json(json.loads(text)) == text

    def test_zero_rows_render_the_header_alone(self):
        assert render_csv(["a", "b_c"], []) == "a,b_c\n" == _row_at_a_time(["a", "b_c"], [])
        # rows without columns print no lines
        assert render_csv([], [{}, {}]) == "\n"

    def test_special_floats_in_float_columns(self):
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072e-308, 0.1]
        rows = [{"x": x, "y": np.float64(x), "label": "s"} for x in values]
        text = render_csv(["x", "y", "label"], rows)
        assert text == _row_at_a_time(["x", "y", "label"], rows)
        assert text.splitlines()[1:5] == ["nan,nan,s", "inf,inf,s", "-inf,-inf,s", "-0,-0,s"]

    def test_bools_and_numpy_scalars(self):
        rows = [{"pass": True, "n": np.int64(3), "x": np.float64(0.1), "y": np.float32(0.5),
                 "flag": np.bool_(False)},
                {"pass": False, "n": 7, "x": 1e-300, "y": "nan", "flag": np.bool_(True)}]
        assert render_csv(["pass", "n", "x", "y", "flag"], rows) == (
            "pass,n,x,y,flag\ntrue,3,0.10000000000000001,0.5,false\nfalse,7,1e-300,nan,true\n"
        )
        assert json.loads(render_json(rows))[0] == {"pass": True, "n": 3, "x": 0.1, "y": 0.5,
                                                    "flag": False}


class TestSamplesFile:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(setup=sample_setups(), runs=st.integers(1, 3000), seed=st.integers(0, 2**64 - 1))
    def test_bytes_and_round_trip(self, setup, runs, seed):
        spec, spam = setup
        samples = sample_work(spec, spam, runs, seed)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "samples.csv"
            write_samples(path, samples)
            text = path.read_text()
            read = read_samples(path)
            write_samples(path, read)
            _assert_same_text(path.read_text(), text)

        lines = text.splitlines(keepends=True)
        n_header = sum(line.startswith("# ") for line in lines)
        assert all(line.startswith("# ") for line in lines[:n_header])
        _assert_same_text("".join(lines[n_header:]), _per_row_rendering(samples))

        np.testing.assert_array_equal(read.levels, samples.levels)
        np.testing.assert_array_equal(read.codes, samples.codes)
        assert read.codes.dtype == samples.codes.dtype
        np.testing.assert_array_equal(read.first_excited_counts, samples.first_excited_counts)
        np.testing.assert_array_equal(read.flip_counts, samples.flip_counts)
        assert read.first_excited_counts.dtype == read.flip_counts.dtype == np.int64
        assert (read.seed, read.spec, read.spam) == (seed, spec, spam)

    def test_writer_memory_is_bounded(self, tmp_path):
        """The traced peak of writing 100k rows stays far below their text
        held as one string per row (8 MB)."""
        spec = ProtocolSpec(COHERENT, 10, ThermalSpec.from_beta(3.413))
        samples = sample_work(spec, None, runs=100_000, seed=0)
        tracemalloc.start()
        try:
            write_samples(tmp_path / "samples.csv", samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("reader, bound", [("from_level_sums", 1.5e6), ("read_samples", 2.5e6)])
    def test_coding_memory_is_bounded(self, tmp_path, reader, bound):
        """Coding 100k runs by their level sums, alone and behind the reader,
        sorts no copy of the runs: traced peaks 0.1 and 2.0 MB, against 4.1 and
        5.0 MB when ``np.unique`` returns the inverse of all the totals."""
        spec = ProtocolSpec(COHERENT, 10, ThermalSpec.from_beta(3.413))
        samples = sample_work(spec, None, runs=100_000, seed=0)
        path = tmp_path / "samples.csv"
        write_samples(path, samples)
        table = step_table(spec)
        sums = table.level_sums(samples.totals)
        calls = {
            "from_level_sums": lambda: WorkSampleSet.from_level_sums(
                table, sums, first_excited_counts=samples.first_excited_counts,
                flip_counts=samples.flip_counts, seed=0, spec=spec),
            "read_samples": lambda: read_samples(path),
        }
        tracemalloc.start()
        try:
            calls[reader]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"traced peak {peak / 1e6:.2f} MB"


def _crlf(header, columns, rows):
    return "\r\n".join([*header, columns, *rows]) + "\r\n"


def _blank_and_note_between_rows(header, columns, rows):
    return "\n".join([*header, columns, *rows[:3], "", "# note", *rows[3:]]) + "\n"


def _columns_swapped(header, columns, rows):
    swapped = [",".join(reversed(line.split(","))) for line in [columns, *rows]]
    return "\n".join([*header, *swapped]) + "\n"


def _set_header(key, value):
    """An edit of a samples file's lines that gives one header key a new value."""
    return lambda lines: [f"# {key}={value}" if line.startswith(f"# {key}=") else line
                          for line in lines]


def _set_total(text):
    """An edit of a samples file's lines that sets the next-to-last run's total to ``text``."""
    return lambda lines: lines[:-2] + [lines[-2].split(",")[0] + "," + text, lines[-1]]


def _repeat_header(key, value):
    """An edit that adds a second ``key`` line, with ``value``, after the first."""
    return lambda lines: [copy for line in lines for copy in
                          ([line, f"# {key}={value}"] if line.startswith(f"# {key}=") else [line])]


def _no_runs(lines):
    """An edit that leaves a samples file with runs=0, zero counts and no data rows."""
    for key, value in (("runs", "0"), ("first_excited_counts", "0,0,0"), ("flip_counts", "0,0,0")):
        lines = _set_header(key, value)(lines)
    return [line for line in lines if line.startswith("# ")] + [",".join(SAMPLES_FIELDS)]


# the plain file: totals on the integer grid -3 .. 3
COHERENT_N3 = ProtocolSpec(COHERENT, 3, ThermalSpec.from_beta(3.413))
# totals on the grid 1 - 2i/3, i = 0 .. 3
DESCENDING_N3 = ProtocolSpec(INCOHERENT, 3, ThermalSpec.from_beta(3.413), 3.0, 1.0)


class TestSamplesFileFormat:
    """Layouts of one samples file that must all read as the file itself."""

    @staticmethod
    def _write_plain(path, runs=50, spec=COHERENT_N3):
        """Write the runs of ``spec``, with readout error if it is coherent."""
        spam = SpamModel(0.004, 0.01) if spec.kind == COHERENT else None
        samples = sample_work(spec, spam, runs, seed=6)
        write_samples(path, samples)
        return samples

    @staticmethod
    def _assert_same_set(actual, expected):
        np.testing.assert_array_equal(actual.levels, expected.levels)
        np.testing.assert_array_equal(actual.codes, expected.codes)
        assert actual.codes.dtype == expected.codes.dtype
        np.testing.assert_array_equal(actual.first_excited_counts, expected.first_excited_counts)
        np.testing.assert_array_equal(actual.flip_counts, expected.flip_counts)
        assert (actual.seed, actual.spec, actual.spam) == (expected.seed, expected.spec,
                                                          expected.spam)

    @pytest.mark.parametrize("layout", [_crlf, _blank_and_note_between_rows, _columns_swapped])
    def test_layout_reads_as_the_plain_file(self, tmp_path, layout):
        path = tmp_path / "samples.csv"
        samples = self._write_plain(path)
        plain = read_samples(path)
        self._assert_same_set(plain, samples)
        lines = path.read_text().splitlines()
        n_header = sum(line.startswith("# ") for line in lines)
        path.write_bytes(layout(lines[:n_header], lines[n_header], lines[n_header + 1:]).encode())
        self._assert_same_set(read_samples(path), plain)

    def test_single_data_row(self, tmp_path):
        path = tmp_path / "samples.csv"
        samples = self._write_plain(path, runs=1)
        read = read_samples(path)
        assert read.runs == 1
        self._assert_same_set(read, samples)

    def test_non_numeric_total_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        self._write_plain(path)
        lines = path.read_text().splitlines()
        lines[-2] = lines[-2].split(",")[0] + ",abc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_samples(path)

    def test_flat_ramp_reads_with_one_level(self, tmp_path):
        """A flat ramp has a zero step, so every run totals 0."""
        path = tmp_path / "samples.csv"
        flat = ProtocolSpec(INCOHERENT, 4, ThermalSpec.from_beta(3.413), 2.0, 2.0)
        samples = self._write_plain(path, spec=flat)
        read = read_samples(path)
        self._assert_same_set(read, samples)
        np.testing.assert_array_equal(read.levels, [0.0])
        assert not read.codes.any()

    @pytest.mark.parametrize("spec, edit, message", [
        *((COHERENT_N3, edit, message) for edit, message in [
            (lambda lines: lines[:-20], "30 data rows, header says runs=50"),
            (lambda lines: lines + lines[-3:], "53 data rows, header says runs=50"),
            (lambda lines: [line.rpartition(",")[0] if line.startswith("# first_excited_counts=")
                            else line for line in lines], "first_excited_counts has 2 entries"),
            (lambda lines: [line + ",0" if line.startswith("# flip_counts=")
                            else line for line in lines], "flip_counts has 4 entries"),
            (lambda lines: [line.replace("total_work", "work") for line in lines],
             "'total_work' is not in list"),
            (_set_header("n_steps", "x"), r"invalid literal for int\(\) with base 10: 'x'"),
            (_set_header("seed", "1.5"), r"invalid literal for int\(\) with base 10: '1.5'"),
            (_set_header("runs", "ten"), r"invalid literal for int\(\) with base 10: 'ten'"),
            (_set_header("beta", "abc"), "could not convert string to float: 'abc'"),
            (_set_header("kind", "foo"), "kind must be 'coherent' or 'incoherent', got 'foo'"),
            (_set_header("flip_counts", "4,2,x"), r"invalid literal for int\(\) with base 10: 'x'"),
            (_set_total("abc"), "could not convert string 'abc' to float64 at row 48"),
            (_set_header("first_excited_counts", "-5,0,2"),
             r"first_excited_counts has an entry outside \[0, runs=50\]: -5,0,2$"),
            (_set_header("flip_counts", "4,51,2"),
             r"flip_counts has an entry outside \[0, runs=50\]: 4,51,2$"),
            (_set_total("nan"), "total nan at row 48 is not finite$"),
            (_set_total("inf"), "total inf at row 48 is not finite$"),
            (_set_total("-inf"), "total -inf at row 48 is not finite$"),
            (_no_runs, "runs must be >= 1, got 0$"),
            (_set_total("0.5"), "total 0.5 at row 48 is not a run total$"),
            (_set_total("2.5"), "total 2.5 at row 48 is not a run total$"),
            (_set_total("1e6"), "total 1000000.0 at row 48 is not a run total$"),
            (_set_total("1.0000000000000002"),
             "total 1.0000000000000002 at row 48 is not a run total$"),
            (_repeat_header("beta", "0.5"), "header repeats beta$"),
        ]),
        (DESCENDING_N3, _set_total("0"), "total 0.0 at row 48 is not a run total$"),
        (DESCENDING_N3, lambda lines: ["# spam_bright=0.2", "# spam_dark=0.3", *lines],
         "SPAM perturbation is supported for coherent protocols only$"),
        (DESCENDING_N3, _set_header("omega_end", "1e300"),
         r"incoherent gaps must be finite and positive, at most MAX_GAP = 1000, got 3.0, 1e\+300$"),
    ], ids=["truncated", "padded", "short-first-excited", "long-flips", "no-total-column",
            "n-steps-word", "seed-fraction", "runs-word", "beta-word", "unknown-kind",
            "count-word", "total-word", "negative-count", "count-above-runs", "nan-total",
            "inf-total", "minus-inf-total", "runs-zero", "total-0.5", "total-2.5", "total-1e6",
            "total-one-ulp-above-1", "repeated-beta", "descending-total-0",
            "incoherent-spam", "gap-above-bound"])
    def test_inconsistent_file_rejected(self, tmp_path, spec, edit, message):
        """The header's counts are over all the runs it names, so a file whose
        rows or count vectors disagree with it would bias the estimate, as
        would a total that no run of its protocol can produce (even one ulp
        off a grid total), a header key set twice, of which no copy may win,
        or readout-error rates on an incoherent protocol, which has no such
        model; and every malformed file is rejected with its path named once,
        in front."""
        path = tmp_path / "samples.csv"
        self._write_plain(path, spec=spec)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}") as error:
            read_samples(path)
        assert str(error.value).count(str(path)) == 1

    @pytest.mark.parametrize("key", ["kind", "n_steps", "beta", "omega_start", "omega_end", "runs",
                                     "seed", "first_excited_counts", "flip_counts", "spam_dark"])
    def test_header_without_key_rejected(self, tmp_path, key):
        """A malformed header raises ``ValueError`` like any malformed file;
        without ``spam_dark`` the file keeps a lone ``spam_bright``."""
        path = tmp_path / "samples.csv"
        self._write_plain(path)
        path.write_text("\n".join(line for line in path.read_text().splitlines()
                                  if not line.startswith(f"# {key}=")) + "\n")
        with pytest.raises(ValueError, match=f"header lacks {key}$"):
            read_samples(path)

    def test_file_without_column_line_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        self._write_plain(path)
        header = [line for line in path.read_text().splitlines() if line.startswith("# ")]
        path.write_text("\n".join(header) + "\n")
        with pytest.raises(ValueError, match="no column-name line"):
            read_samples(path)

"""Bit-stable CSV/JSON emission and the work-sample record format.

All floats are written with 17 significant digits and '.' decimals so that
re-running a command with the same configuration and seed yields
byte-identical files, and re-parsing plus re-emitting any table is the
identity.  CSV tables are rendered a column at a time: a column of Python
floats alone goes through the module's one float conversion, '%.17g',
once per cell, a column of strings alone is passed through, and any other
column, numpy scalars included, is formatted cell by cell by
``format_value``, which gives a float the same conversion; one '%' then lays
the cells out row by row, so the text equals the cell-by-cell rendering.  Sample files format each distinct work
level once (a run total takes one of a few), write their rows in blocks of
runs, and have their data rows parsed by numpy's C reader (``np.loadtxt``).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .protocol import BLOCK_RUNS, ProtocolSpec, SpamModel, WorkSampleSet, step_table
from .qubit import ThermalSpec

# the one text of a float: 17 significant digits, round-trip exact
_FLOAT = "%.17g"


def format_value(value) -> str:
    # floats first: they fill most cells, and no float is a bool or an int
    if isinstance(value, (float, np.floating)):
        return _FLOAT % float(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _column_spec(values: list) -> tuple[str, list]:
    """The ``%`` conversion and the cells of one column, by the module's type rule."""
    types = set(map(type, values))
    if types == {float}:
        return _FLOAT, values
    if types <= {str}:
        return "%s", values
    return "%s", list(map(format_value, values))


def render_csv(fieldnames: list[str], rows: list[dict]) -> str:
    specs, columns = [], []
    for name in fieldnames:
        spec, column = _column_spec(list(map(itemgetter(name), rows)))
        specs.append(spec)
        columns.append(column)
    # one '%' over the cells, row-major; a table with no columns has no row lines
    lines = (",".join(specs) + "\n") * (len(rows) if columns else 0)
    return ",".join(fieldnames) + "\n" + lines % tuple(chain.from_iterable(zip(*columns)))


def render_json(rows: list[dict]) -> str:
    import json  # on first use: only --format json needs it

    # numpy scalars that json cannot take become the Python value they hold
    return json.dumps(rows, indent=2, default=np.generic.item) + "\n"


def write_table(path: Path, rows: list[dict], fmt: str = "csv") -> None:
    """Write ``rows`` as CSV or JSON; the columns are the keys of ``rows[0]``, in order."""
    path = Path(path)
    if fmt == "csv":
        path.write_text(render_csv(list(rows[0]), rows))
    elif fmt == "json":
        path.write_text(render_json(rows))
    else:
        raise ValueError(f"unknown format {fmt!r}")


def read_csv_table(path: Path) -> tuple[list[str], list[dict]]:
    """Parse an emitted CSV, or the bundled reference points, into
    (fieldnames, rows of strings), skipping blank and '#' comment lines."""
    body = [line for line in Path(path).read_text().splitlines()
            if line and not line.startswith("#")]
    fieldnames = body[0].split(",")
    rows = [dict(zip(fieldnames, line.split(","))) for line in body[1:]]
    return fieldnames, rows


SAMPLES_FIELDS = ["run_index", "total_work"]
# header keys of every samples file; spam_bright and spam_dark come as a pair
_HEADER_KEYS = {"kind", "n_steps", "beta", "omega_start", "omega_end", "runs", "seed",
                "first_excited_counts", "flip_counts"}
_SPAM_KEYS = {"spam_bright", "spam_dark"}


def write_samples(path: Path, samples: WorkSampleSet) -> None:
    """One total per row, preceded by a comment header carrying the setup.
    Rows are written ``BLOCK_RUNS`` at a time, never the whole text at once."""
    spec = samples.spec
    header = {
        "kind": spec.kind,
        "n_steps": spec.n_steps,
        "beta": spec.thermal.beta,
        "omega_start": spec.omega_start,
        "omega_end": spec.omega_end,
        "runs": samples.runs,
        "seed": samples.seed,
        "first_excited_counts": ",".join(str(int(c)) for c in samples.first_excited_counts),
        "flip_counts": ",".join(str(int(c)) for c in samples.flip_counts),
    }
    if samples.spam is not None:
        header["spam_bright"] = samples.spam.p_bright_given_0
        header["spam_dark"] = samples.spam.p_dark_given_1
    level_text = [format_value(level) for level in samples.levels.tolist()]
    with open(path, "w") as handle:
        handle.writelines(f"# {key}={format_value(value)}\n" for key, value in header.items())
        handle.write(",".join(SAMPLES_FIELDS) + "\n")
        for start in range(0, samples.runs, BLOCK_RUNS):
            codes = samples.codes[start : start + BLOCK_RUNS].tolist()
            handle.write("".join([f"{i},{level_text[c]}\n" for i, c in enumerate(codes, start)]))


def read_samples(path: Path) -> WorkSampleSet:
    """Parse a samples file back into the ``WorkSampleSet`` it was written from.

    Header keys are read from the leading block of ``# key=value`` lines only,
    up to the column-name line.  The data rows are parsed by numpy's C reader,
    which skips blank and ``#`` lines among them, and each total is mapped back
    to its run's level sum by the header's ``step_table``.  Every malformed
    file raises ``ValueError`` with the path in front of its message: a
    column-name line without ``total_work``, a total that is not a finite
    number or is no run total of the header's protocol, a header value that
    does not parse or describes no protocol (a gap above ``MAX_GAP``, or
    readout-error rates on an incoherent ramp), a header that lacks a key,
    repeats one or has one of ``spam_bright`` and ``spam_dark`` without the
    other, ``runs`` below 1, a truncated or padded file, whose data rows
    differ in number from the header's ``runs``, and a count vector
    (``first_excited_counts``, ``flip_counts``) without one entry per step or
    with an entry outside [0, ``runs``]: the header's counts are over all the
    runs it names.
    """
    header: dict[str, str] = {}
    consumed = 0
    try:
        with open(path) as handle:
            for line in handle:
                consumed += 1
                line = line.rstrip("\n")
                if line.startswith("# ") and "=" in line:
                    key, _, value = line[2:].partition("=")
                    if key in header:
                        raise ValueError(f"header repeats {key}")
                    header[key] = value
                elif line and not line.startswith("#"):
                    column = line.split(",").index("total_work")
                    break
            else:
                raise ValueError("no column-name line")
        required = _HEADER_KEYS | _SPAM_KEYS if _SPAM_KEYS & header.keys() else _HEADER_KEYS
        if missing := sorted(required - header.keys()):
            raise ValueError(f"header lacks {', '.join(missing)}")
        spec = ProtocolSpec(
            kind=header["kind"],
            n_steps=int(header["n_steps"]),
            thermal=ThermalSpec.from_beta(float(header["beta"])),
            omega_start=float(header["omega_start"]),
            omega_end=float(header["omega_end"]),
        )
        spam = None if "spam_bright" not in header else SpamModel(
            p_bright_given_0=float(header["spam_bright"]),
            p_dark_given_1=float(header["spam_dark"]))
        runs = int(header["runs"])
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        totals = np.loadtxt(path, delimiter=",", comments="#", usecols=column,
                            skiprows=consumed, ndmin=1)
        if totals.size != runs:
            raise ValueError(f"{totals.size} data rows, header says runs={runs}")
        if (bad := np.flatnonzero(~np.isfinite(totals))).size:
            raise ValueError(f"total {totals[bad[0]]} at row {bad[0]} is not finite")
        counts = {key: np.array(header[key].split(","), dtype=np.int64)
                  for key in ("first_excited_counts", "flip_counts")}
        for key, count in counts.items():
            if count.size != spec.n_steps:
                raise ValueError(f"{key} has {count.size} entries, n_steps={spec.n_steps}")
            if count.min() < 0 or count.max() > runs:
                raise ValueError(f"{key} has an entry outside [0, runs={runs}]: {header[key]}")
        table = step_table(spec, spam)
        return WorkSampleSet.from_level_sums(table, table.level_sums(totals), **counts,
                                             seed=int(header["seed"]), spec=spec, spam=spam)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error

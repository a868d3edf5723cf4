"""Run configuration: key=value documents, flag overrides, validation.

A configuration document is plain text with one ``key = value`` pair per
line, each key at most once; blank lines and comments are ignored.  A '#'
opens a comment at the start of a line or after whitespace, so a value such
as ``out#1.csv`` keeps its '#'.
Command-line flags override file keys one for one.  Unknown keys and
out-of-range values are rejected with the offending key (and line, for file
input) named in the error.  Each command reads only its own keys
(``COMMAND_KEYS``) and refuses any other key that is set, so one document
configures one command, and a document shared across commands is refused.
``simulate`` takes at most ``MAX_SIMULATE_STEPS``
steps: its bootstrap builds the exact (W, K) law, (N(L-1)+1)(N+1) float64
cells, in O(N^3) time.  A coherent N = 1000 took 9 s at a 98 MB peak RSS on
a 2-core Xeon (incoherent: 3 s, 67 MB); N = 100000 would need 149 GiB.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

from .protocol import COHERENT, INCOHERENT, KINDS, MAX_GAP
from .reference import EXPERIMENT_BETA, EXPERIMENT_READOUT_ERROR, EXPERIMENT_RUNS


class ConfigError(ValueError):
    """Malformed document, unknown key, or out-of-range value."""


COMMANDS = ("simulate", "analytic", "sweep", "certify", "temperature-profile", "calibrate")
FORMATS = ("csv", "json")

DEFAULT_BETAS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
MAX_SIMULATE_STEPS = 1000
# the incoherent closed form holds two float64 arrays of N entries, 16 bytes
# per step: 16 MB at the bound (the coherent closed forms are O(1) in N)
MAX_INCOHERENT_STEPS = 10**6

# The keys each command reads besides command and output: the gaps for incoherent
# specs only, readout error for coherent ones only, and its rates by simulate with spam.
COMMAND_KEYS = {
    "simulate": {"kind", "n_steps", "beta", "omega_start", "omega_end", "runs", "resamples",
                 "seed", "workers", "spam", "spam_bright", "spam_dark"},
    "analytic": {"kind", "n_steps", "beta", "omega_start", "omega_end", "format"},
    "sweep": {"beta", "include_experiment", "format", "spam_bright", "spam_dark"},
    "certify": {"beta", "threshold", "format", "spam_bright", "spam_dark"},
    "temperature-profile": {"n_steps", "betas", "format"},
    "calibrate": {"seed", "target_theta", "shots", "format"},
}


def _key(requirement: str, check, flag_help: str | None = None, **default):
    """A RunConfig field whose value must satisfy ``check``, or else the
    error states ``requirement``; ``flag_help`` is its flag's help text."""
    return field(**default, metadata={"requirement": requirement, "check": check,
                                      "help": flag_help})


@dataclass
class RunConfig:
    """The settings of one run, one field per configuration key and flag.

    A field's annotation picks how its text is parsed (a ``list[...]`` field
    takes a comma list, a float must be finite); its metadata, where it has
    any, holds its range or choices and its flag help (see ``_key``).
    """

    command: str = _key(f"must be one of {COMMANDS}", lambda v: v in COMMANDS, default="")
    kind: str = _key(f"must be one of {KINDS}", lambda v: v in KINDS, default=COHERENT)
    n_steps: list[int] = _key("must be positive integers", lambda v: v and min(v) >= 1,
                              "step count, or comma list for batch jobs",
                              default_factory=lambda: [2])
    beta: float = _key("must be >= 0", lambda v: v >= 0.0, default=EXPERIMENT_BETA)
    omega_start: float = _key(f"must lie in (0, {MAX_GAP:g}]", lambda v: 0.0 < v <= MAX_GAP,
                              default=1.0)
    omega_end: float = _key(f"must lie in (0, {MAX_GAP:g}]", lambda v: 0.0 < v <= MAX_GAP,
                            default=2.0)
    runs: int = _key("must be >= 1", lambda v: v >= 1, default=EXPERIMENT_RUNS)
    resamples: int = _key("must be >= 2", lambda v: v >= 2, default=200)
    seed: int = _key("must be a 64-bit unsigned integer", lambda v: 0 <= v < 2**64, default=0)
    workers: int = _key("must be >= 1", lambda v: v >= 1, default=1)
    spam: bool = False
    spam_bright: float = _key("must lie in [0, 0.5)", lambda v: 0.0 <= v < 0.5,
                              default=EXPERIMENT_READOUT_ERROR)
    spam_dark: float = _key("must lie in [0, 0.5)", lambda v: 0.0 <= v < 0.5,
                            default=EXPERIMENT_READOUT_ERROR)
    threshold: float = _key("must be > 0", lambda v: v > 0.0, default=10.0)
    include_experiment: bool = True
    betas: list[float] = _key("must be a non-empty list of values >= 0",
                              lambda v: v and min(v) >= 0.0,
                              "comma list of inverse temperatures",
                              default_factory=lambda: list(DEFAULT_BETAS))
    target_theta: float = math.pi / 2.0
    shots: int = _key("must be >= 1", lambda v: v >= 1, default=5000)
    output: str = ""
    format: str = _key(f"must be one of {FORMATS}", lambda v: v in FORMATS, default="csv")


_FIELDS = {key.name: key for key in fields(RunConfig)}


def parse_document(text: str) -> dict[str, tuple[str, int]]:
    """Split a key=value document into raw assignments with line numbers."""
    assignments: dict[str, tuple[str, int]] = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw_line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed line {line_number}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"malformed line {line_number}: empty key")
        if key in assignments:
            first = assignments[key][1]
            raise ConfigError(f"{key}: set on line {first} and again on line {line_number}")
        assignments[key] = (value, line_number)
    return assignments


def _fail(key: str, message: str, line: int | None) -> None:
    location = f" (line {line})" if line is not None else ""
    raise ConfigError(f"{key}: {message}{location}")


def _to_bool(key: str, value: str, line: int | None) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "on", "yes", "1"):
        return True
    if lowered in ("false", "off", "no", "0"):
        return False
    _fail(key, f"expected a boolean, got {value!r}", line)


def _to_int(key: str, value: str, line: int | None) -> int:
    try:
        return int(value)
    except ValueError:
        _fail(key, f"expected an integer, got {value!r}", line)


def _to_float(key: str, value: str, line: int | None) -> float:
    try:
        number = float(value)
    except ValueError:
        _fail(key, f"expected a number, got {value!r}", line)
    if not math.isfinite(number):
        _fail(key, f"must be finite, got {value!r}", line)
    return number


_CONVERTERS = {"bool": _to_bool, "int": _to_int, "float": _to_float}


def _convert(key: str, value, line: int | None):
    """Convert a value from a file, a flag or a library caller.

    A typed value is first written out as text (a list as a comma list), so
    every source takes the same parser and the same finiteness check: a
    float for an int key, or a bool for a number key, is rejected like its
    text.  The field's annotation picks the parser.
    """
    if key not in _FIELDS:
        _fail(key, "unknown key", line)
    text = ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
    kind = _FIELDS[key].type
    if kind.startswith("list["):
        convert = _CONVERTERS[kind[len("list[") : -1]]
        return [convert(key, part, line) for part in text.split(",") if part.strip()]
    if kind in _CONVERTERS:
        return _CONVERTERS[kind](key, text, line)
    return text


def build_config(
    file_values: dict[str, tuple[str, int]] | None = None,
    overrides: dict[str, object] | None = None,
) -> RunConfig:
    """Merge file assignments with flag overrides into a validated RunConfig.

    Overrides may be typed values or flag strings; a None override is unset.
    """
    config = RunConfig()
    lines: dict[str, int | None] = {}
    for key, (raw, line) in (file_values or {}).items():
        setattr(config, key, _convert(key, raw, line))
        lines[key] = line
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        setattr(config, key, _convert(key, value, None))
        lines[key] = None
    _validate(config, lines)
    return config


def _validate(config: RunConfig, lines: dict[str, int | None]) -> None:
    for key in _FIELDS.values():
        value = getattr(config, key.name)
        if "check" in key.metadata and not key.metadata["check"](value):
            _fail(key.name, f"{key.metadata['requirement']}, got {value!r}", lines.get(key.name))
    read = COMMAND_KEYS[config.command] | {"output"}
    if config.kind == COHERENT:
        read -= {"omega_start", "omega_end"}
    elif "kind" in read:
        read -= {"spam", "spam_bright", "spam_dark"}
    if config.command == "simulate" and not config.spam:
        read -= {"spam_bright", "spam_dark"}
    unread = [key for key in _FIELDS if key in lines and key not in read | {"command"}]
    if unread:
        reads = ", ".join(key for key in _FIELDS if key in read)
        _fail(unread[0], f"{config.command} does not read it here, only {reads}", lines[unread[0]])
    if config.command == "certify" and config.beta != EXPERIMENT_BETA:
        message = f"certify compares against points measured at beta = {EXPERIMENT_BETA}"
        _fail("beta", f"{message}, got {config.beta}", lines.get("beta"))
    if config.command == "simulate" and len(set(config.n_steps)) < len(config.n_steps):
        _fail("n_steps", f"simulate writes one file per step count, got {config.n_steps}",
              lines.get("n_steps"))
    if config.command == "simulate" and max(config.n_steps) > MAX_SIMULATE_STEPS:
        _fail("n_steps", f"simulate takes at most {MAX_SIMULATE_STEPS} steps, got {config.n_steps}",
              lines.get("n_steps"))
    if config.kind == INCOHERENT and max(config.n_steps) > MAX_INCOHERENT_STEPS:
        _fail("n_steps", f"incoherent ramps take at most {MAX_INCOHERENT_STEPS} steps, "
              f"got {config.n_steps}", lines.get("n_steps"))

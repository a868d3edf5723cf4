"""Run configuration: key=value documents, flag overrides, validation.

A configuration document is plain text with one ``key = value`` pair per
line; blank lines and '#' comments are ignored.  Command-line flags override
file keys one for one.  Unknown keys and out-of-range values are rejected
with the offending key (and line, for file input) named in the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .reference import EXPERIMENT_BETA


class ConfigError(ValueError):
    """Malformed document, unknown key, or out-of-range value."""


COMMANDS = ("simulate", "analytic", "sweep", "certify", "temperature-profile", "calibrate")
KINDS = ("coherent", "incoherent")
FORMATS = ("csv", "json")

DEFAULT_BETAS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


@dataclass
class RunConfig:
    command: str = ""
    kind: str = "coherent"
    n_steps: list[int] = field(default_factory=lambda: [2])
    beta: float = 3.413
    omega_start: float = 1.0
    omega_end: float = 2.0
    runs: int = 8000
    resamples: int = 200
    seed: int = 0
    workers: int = 1
    spam: bool = False
    spam_bright: float = 0.004
    spam_dark: float = 0.004
    threshold: float = 10.0
    include_experiment: bool = True
    betas: list[float] = field(default_factory=lambda: list(DEFAULT_BETAS))
    target_theta: float = math.pi / 2.0
    shots: int = 5000
    output: str = ""
    format: str = "csv"


_KEY_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_document(text: str) -> dict[str, tuple[str, int]]:
    """Split a key=value document into raw assignments with line numbers."""
    assignments: dict[str, tuple[str, int]] = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed line {line_number}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"malformed line {line_number}: empty key")
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
    """Convert a raw value: a string from a file or a flag, or a typed value.

    The field's annotation picks the conversion; a ``list[...]`` field takes
    a comma list.
    """
    if key not in _KEY_TYPES:
        _fail(key, "unknown key", line)
    if not isinstance(value, str):
        return value
    kind = _KEY_TYPES[key]
    if kind.startswith("list["):
        convert = _CONVERTERS[kind[len("list[") : -1]]
        return [convert(key, part, line) for part in value.split(",") if part.strip()]
    if kind in _CONVERTERS:
        return _CONVERTERS[kind](key, value, line)
    return value


def build_config(
    file_values: dict[str, tuple[str, int]] | None = None,
    overrides: dict[str, object] | None = None,
) -> RunConfig:
    """Merge file assignments with flag overrides into a validated RunConfig."""
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
    def where(key: str) -> int | None:
        return lines.get(key)

    if config.command not in COMMANDS:
        _fail("command", f"must be one of {COMMANDS}, got {config.command!r}", where("command"))
    if config.kind not in KINDS:
        _fail("kind", f"must be one of {KINDS}, got {config.kind!r}", where("kind"))
    if config.format not in FORMATS:
        _fail("format", f"must be one of {FORMATS}, got {config.format!r}", where("format"))
    if not config.n_steps or any(n < 1 for n in config.n_steps):
        _fail("n_steps", f"must be positive integers, got {config.n_steps}", where("n_steps"))
    if config.beta < 0.0:
        _fail("beta", f"must be >= 0, got {config.beta}", where("beta"))
    if config.command == "certify" and config.beta != EXPERIMENT_BETA:
        message = f"certify compares against points measured at beta = {EXPERIMENT_BETA}"
        _fail("beta", f"{message}, got {config.beta}", where("beta"))
    if config.spam and config.kind == "incoherent":
        _fail("spam", "readout error is modelled for coherent protocols only", where("spam"))
    if config.omega_start <= 0.0:
        _fail("omega_start", f"must be > 0, got {config.omega_start}", where("omega_start"))
    if config.omega_end <= 0.0:
        _fail("omega_end", f"must be > 0, got {config.omega_end}", where("omega_end"))
    if config.runs < 1:
        _fail("runs", f"must be >= 1, got {config.runs}", where("runs"))
    if config.resamples < 2:
        _fail("resamples", f"must be >= 2, got {config.resamples}", where("resamples"))
    if not 0 <= config.seed < 2**64:
        _fail("seed", f"must be a 64-bit unsigned integer, got {config.seed}", where("seed"))
    if config.workers < 1:
        _fail("workers", f"must be >= 1, got {config.workers}", where("workers"))
    for key in ("spam_bright", "spam_dark"):
        value = getattr(config, key)
        if not 0.0 <= value < 0.5:
            _fail(key, f"must lie in [0, 0.5), got {value}", where(key))
    if config.threshold <= 0.0:
        _fail("threshold", f"must be > 0, got {config.threshold}", where("threshold"))
    if any(b < 0.0 for b in config.betas):
        _fail("betas", f"must be >= 0, got {config.betas}", where("betas"))
    if config.shots < 1:
        _fail("shots", f"must be >= 1, got {config.shots}", where("shots"))
    if not math.isfinite(config.target_theta):
        _fail("target_theta", "must be finite", where("target_theta"))

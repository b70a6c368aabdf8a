"""Flat key-value configuration files and sweep grid files.

The configuration format is a plain text file of ``key = value`` lines (a
``#`` starts a comment).  Keys are fixed and SI-suffixed; unknown or
duplicate keys are rejected so that sweep inputs diff cleanly.  A grid file
uses the same keys with comma-separated value lists; the cartesian product
of the lists, in file order with the last key varying fastest, defines the
sweep points.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from pathlib import Path

from .errors import ConfigurationError
from .model import _PARTS, CompressionPolicy, Configuration, _expect, _integer, _real, _repr

#: Flat key -> (Configuration part, field), in file order.  Part None is a
#: field of Configuration itself.
_FIELDS: dict[str, tuple[str | None, str]] = {
    "mass_kg": ("body", "mass"),
    "gravity_mps2": ("body", "gravity"),
    "segment_length_m": ("leg", "segment_length"),
    "standing_length_m": ("leg", "standing_length"),
    "max_deformation_m": ("leg", "max_deformation"),
    "spring_stiffness_n_per_m": ("spring", "stiffness"),
    "spring_free_length_m": ("spring", "free_length"),
    "spring_solid_length_m": ("spring", "solid_length"),
    "initial_spring_position_m": (None, "initial_spring_position"),
    "force_cap_n": (None, "force_cap"),
    "efficiency": ("loss", "efficiency"),
    "ratchet_pitch_m": ("loss", "ratchet_pitch"),
    "policy": (None, "policy"),
    "max_iterations": (None, "max_iterations"),
    "sample_count": (None, "sample_count"),
}

#: Keys that may be left out; the defaults of ``model`` then apply.
OPTIONAL_KEYS = (
    "force_cap_n", "efficiency", "ratchet_pitch_m", "policy", "max_iterations", "sample_count"
)
ALL_KEYS = tuple(_FIELDS)
REQUIRED_KEYS = tuple(k for k in ALL_KEYS if k not in OPTIONAL_KEYS)

_INT_KEYS = frozenset({"max_iterations", "sample_count"})
#: Each key as its value's messages name it, formatted once.
_NAMES = {key: f"key {key!r}" for key in _FIELDS}


def parse_config(path: str | Path) -> Configuration:
    """Read and validate a configuration file.

    Raises
    ------
    ConfigurationError
        On unknown, duplicate, or missing keys, unparsable values, or any
        violated parameter bound; the message names the file, the key and
        the bound.
    """
    source, text = str(path), _read(path, "config")
    values = {key: _file_value(key, value, source, n) for n, key, value in _lines(text, source)}
    try:
        return config_from_values(values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}: {exc}") from exc


def config_from_values(values: Mapping[str, object]) -> Configuration:
    """Build a validated Configuration from a flat key-value mapping."""
    _expect(values, Mapping, "config values", ConfigurationError, "mapping")
    return apply_overrides(None, values)


def apply_overrides(template: Configuration | None, values: Mapping[str, object]) -> Configuration:
    """A validated Configuration from flat ``values`` over ``template``, or from every
    required key; of a template, only the parts that ``values`` touch are built again."""
    if not values.keys() <= _FIELDS.keys():
        unknown = sorted(k if isinstance(k, str) else _repr(k) for k in values.keys() - _FIELDS)
        raise ConfigurationError(f"unknown keys: {', '.join(unknown)}")
    if template is None and (missing := [k for k in REQUIRED_KEYS if k not in values]):
        raise ConfigurationError(f"missing required keys: {', '.join(missing)}")
    # A copy: a dataclass's vars are its fields, and the template stays as it is.
    fields, changes = {} if template is None else {**vars(template)}, {part: {} for part in _PARTS}
    for key, (part, name) in _FIELDS.items():  # in ALL_KEYS order
        if key in values:
            (changes[part] if part else fields)[name] = _convert(key, values[key])
    for part, given in changes.items():
        if given or template is None:
            fields[part] = _PARTS[part](**({**vars(fields[part]), **given} if template else given))
    return Configuration(**fields)


def parse_grid(path: str | Path) -> list[dict[str, object]]:
    """Read a sweep grid file into an explicit list of override points.

    Each line is ``key = v1, v2, ...`` with a known configuration key; the
    points are the cartesian product of the listed values, in file order
    with the last key varying fastest.
    """
    source = str(path)
    columns: dict[str, list[object]] = {}
    for lineno, key, rest in _lines(_read(path, "grid"), source):
        items = [item.strip() for item in rest.split(",") if item.strip()]
        if not items:
            raise ConfigurationError(f"{source}:{lineno}: no values for key {key!r}")
        columns[key] = [_file_value(key, item, source, lineno) for item in items]
    if not columns:
        raise ConfigurationError(f"{source}: empty grid file")
    return [dict(zip(columns, combo)) for combo in itertools.product(*columns.values())]


def _read(path: str | Path, kind: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError, TypeError) as exc:  # decode errors name the byte's offset
        raise ConfigurationError(f"cannot read {kind} file {path}: {exc}") from exc


def _lines(text: str, source: str) -> Iterator[tuple[int, str, str]]:
    """Yield ``(lineno, key, value text)`` for each non-blank line."""
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigurationError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _FIELDS:
            raise ConfigurationError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        yield lineno, key, value.strip()


def _file_value(key: str, text: str, source: str, lineno: int) -> object:
    """Check one value from a file; a policy stays text, as in a flat mapping."""
    try:
        value = _convert(key, text)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}:{lineno}: {exc}") from exc
    return text if key == "policy" else value


def _convert(key: str, value: object) -> object:
    """The one value rule, for file text and mappings alike.

    Text is read as a number, as an int for an integer key where it is
    integral; then the model's number rule applies.  ``policy`` takes a
    policy or its name.
    """
    if key == "policy":
        try:
            return CompressionPolicy(value)
        except ValueError:
            names = sorted(p.value for p in CompressionPolicy)
            raise ConfigurationError(f"policy must be one of {names}, got {_repr(value)}") from None
    if isinstance(value, str):
        try:
            value = float(value)
            value = int(value) if key in _INT_KEYS and value.is_integer() else value
        except ValueError:
            pass  # text that is no number: rejected below, as given
    return (_integer if key in _INT_KEYS else _real)(_NAMES[key], value)


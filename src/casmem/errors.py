"""Error taxonomy shared by the library and the command line, its file I/O and config typing.

ConfigError covers malformed configs, unreadable or unwritable files and shape
mismatches (CLI exit code 2); NumericalError covers quadrature non-convergence
and degenerate fits (exit code 3). Every JSON input goes through read_json_object,
every result file through write_text, and every config field and snapshot L and
day through check_value.
"""
import dataclasses
import json
import math
import numbers
import os

_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


class ConfigError(ValueError):
    pass


class NumericalError(Exception):
    pass


def read_json_object(path) -> dict:
    """The JSON object in the file at path; ConfigError if it cannot be read or is not one."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def write_text(path, text: str):
    """Write text to path, making its directory first; returns path. ConfigError if it cannot."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def check_value(name: str, value, annotation: str):
    """value as its string annotation int, float or str (each maybe | None) admits it.

    ConfigError names the value otherwise. A bool is no number; floats must be
    finite and come back as float (50 -> 50.0).
    """
    kind = annotation.removesuffix(" | None")
    if kind not in _FIELD_TYPES or value is None and kind != annotation:
        return value
    finite = kind != "float" or isinstance(value, numbers.Real) and math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]) or not finite:
        expected = "a finite float" if kind == "float" else annotation
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    return float(value) if kind == "float" else value


def check_fields(config, label: str = "") -> None:
    """Type every field of a frozen dataclass config by check_value, in place."""
    for field in dataclasses.fields(config):
        value = check_value(label + field.name, getattr(config, field.name), field.type)
        object.__setattr__(config, field.name, value)

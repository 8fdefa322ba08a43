"""Error taxonomy shared by the library and the command line, and its file I/O.

ConfigError covers malformed configs, unreadable or unwritable files and
shape mismatches (CLI exit code 2); NumericalError covers quadrature
non-convergence and degenerate fits (exit code 3). Every JSON input goes
through read_json_object and every result file through write_text.
"""
import json
import os


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

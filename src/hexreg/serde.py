"""JSON input and output for every loader and writer in the package.

Every input file holds one JSON object, read by read_object, whose fields
each loader checks with require_fields.  Floats are
emitted through Python's shortest round-trip repr, which is a pure function
of the double value, and keys are sorted, so identical data produces
byte-identical files.
"""

from __future__ import annotations

import json


def _numpy_value(obj):
    """json.dumps's default hook: a numpy array or scalar as the list or
    Python number its tolist gives; anything else is refused, as json does."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def read_object(path) -> dict:
    """The JSON object in the file at path; ValueError if it holds another value."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def require_fields(data, what: str, required, optional=()) -> None:
    """Raise ValueError unless data is a JSON object holding every field of
    required and none outside required and optional; what names the
    document in the message, and field names are listed sorted."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r:.40}")
    unknown = set(data).difference(required, optional)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(required).difference(data)
    if missing:
        raise ValueError(f"missing {what} fields: {sorted(missing)}")


def dumps_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=True,
                      default=_numpy_value) + "\n"


def dump_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(data))

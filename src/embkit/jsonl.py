"""Line-delimited JSON input/output, and the one reader of JSON from outside.

Every persisted artifact in this toolkit is a UTF-8 JSONL file: one record
per line, streamable and diff-friendly.  Every input, the config and every
reranker reply is read through `parse`, and a loader checks a record's
fields with `require`, `string`, `as_string` and `number`, so a bad line
fails as a RecordError naming its file, line and field whatever its bytes are.

The inputs of `mine` are large, so their loaders go through `load`: it
parses with orjson first, and reads the file again through `parse` only
when that fails, so every value and every error is still the one `json`
gives.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Iterator, TypeVar

import orjson

from .errors import EmbkitError, RecordError, is_number

T = TypeVar("T")
Records = Iterator[tuple[int, dict]]

# `json` decodes nesting this deep whatever the caller's stack depth; orjson
# decodes any depth, so a line that may nest deeper is left to `json`.
MAX_OPEN = 200

# json.dumps builds a new encoder on every call that passes options.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(", ", ": "))


def parse(data: bytes) -> Any:
    """The JSON value that data holds, or ValueError.

    That covers bytes that are not UTF-8, text that is not JSON, an integer
    longer than Python's digit limit and nesting too deep to decode.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError as exc:
        raise ValueError("nested too deeply") from exc


def iter_records(path) -> Records:
    """Yield (lineno, record) for each non-blank line of a JSONL file.

    Lines end at \\n, \\r or \\r\\n.  Raises RecordError with the 1-based line
    number when a line is not UTF-8 JSON or not a JSON object.
    """
    # surrogateescape keeps bytes that are not UTF-8 until `parse` sees the line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = parse(line.encode("utf-8", "surrogateescape"))
            except ValueError as exc:
                raise RecordError(path, lineno, f"malformed JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise RecordError(path, lineno, "record is not a JSON object")
            yield lineno, record


def iter_orjson(path) -> Records:
    """`iter_records` parsed by orjson, or ValueError on a line it cannot vouch for.

    Lines end at \\n alone, so a line holding a \\r raises, as do a line
    that opens MAX_OPEN arrays and objects or more, one that orjson rejects
    (NaN, a lone surrogate, bytes that are not UTF-8, a number beyond float
    range) and one whose value is not an object.  orjson's values are
    `json`'s, except that an integer beyond 64 bits comes back as a float.
    """
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if b"\r" in line:
                raise ValueError(f"line {lineno} holds a carriage return")
            if line.isspace():
                continue
            if line.count(b"[") + line.count(b"{") >= MAX_OPEN:
                raise ValueError(f"line {lineno} may nest deeper than json decodes")
            record = orjson.loads(line)
            if type(record) is not dict:
                raise ValueError(f"line {lineno} is not a JSON object")
            yield lineno, record


def load(path, build: Callable[[Any, Records], T]) -> T:
    """build(path, records) over the records `iter_orjson` reads from path.

    If that raises EmbkitError, ValueError or OverflowError, the result is
    built again from `iter_records`: every value and every error is then the
    one `json` gives.  A build must read numbers through `float()`, or reject
    a float where it needs an int, so that orjson's floats for big integers
    cannot change it.
    """
    try:
        return build(path, iter_orjson(path))
    except (EmbkitError, ValueError, OverflowError):
        return build(path, iter_records(path))


def require(record: dict, field: str, path, lineno) -> Any:
    """Fetch a required field, raising RecordError if it is missing."""
    if field not in record:
        raise RecordError(path, lineno, f"missing required field '{field}'")
    return record[field]


def string(record: dict, field: str, path, lineno, non_empty: bool = False) -> str:
    """A required field, or RecordError naming it unless it is a JSON string (a non-empty one if asked)."""
    return as_string(require(record, field, path, lineno), field, path, lineno, non_empty)


def as_string(value, field: str, path, lineno, non_empty: bool = False) -> str:
    """`string` for a value already fetched: an optional or nested field."""
    if not isinstance(value, str) or (non_empty and not value):
        noun = "a non-empty string" if non_empty else "a string"
        raise RecordError(path, lineno, f"field '{field}' must be {noun}, got {value!r}")
    return value


def number(value, field: str, path, lineno) -> float:
    """value as a float, or RecordError naming the field unless it is a finite JSON number."""
    if not is_number(value):
        raise RecordError(path, lineno, f"field '{field}' must be a finite number, got {value!r}")
    return float(value)


def dumps(record: dict) -> str:
    """Serialize one record the way every writer in the toolkit does.

    Key order is the insertion order of the dict, floats round-trip exactly,
    and non-ASCII text is kept readable.  Byte-stable for identical input.
    """
    return _ENCODER.encode(record)


def write_records(path, records: Iterable[dict]) -> int:
    """Write records to a JSONL file; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(dumps(record))
            handle.write("\n")
            count += 1
    return count

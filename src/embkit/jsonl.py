"""Line-delimited JSON input/output.

Every persisted artifact in this toolkit is a UTF-8 JSONL file: one record
per line, streamable and diff-friendly.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator

from .errors import RecordError, is_number

# json.dumps builds a new encoder on every call that passes options.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(", ", ": "))


def iter_records(path) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, record) for each non-blank line of a JSONL file.

    Raises RecordError with the 1-based line number when a line is not a
    JSON object.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(path, lineno, f"malformed JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise RecordError(path, lineno, "record is not a JSON object")
            yield lineno, record


def require(record: dict, field: str, path, lineno) -> Any:
    """Fetch a required field, raising RecordError if it is missing."""
    if field not in record:
        raise RecordError(path, lineno, f"missing required field '{field}'")
    return record[field]


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

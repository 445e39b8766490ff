"""Exception hierarchy and the value predicates that validation shares."""

import math
import sys


class EmbkitError(Exception):
    """Base class for all embkit errors."""


class RecordError(EmbkitError):
    """A line-delimited input file contains an invalid record.

    Carries the path and 1-based line number so callers can point at the
    offending line.
    """

    def __init__(self, path, lineno, message):
        self.path = str(path)
        self.lineno = lineno
        super().__init__(f"{self.path}:{lineno}: {message}")


class ValidationError(EmbkitError):
    """An in-memory value violates a contract; `problems` lists every violation found."""

    def __init__(self, *problems: str):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class RerankTransportError(EmbkitError):
    """The reranker endpoint could not be reached; safe to retry."""


class RerankProtocolError(EmbkitError):
    """The reranker endpoint answered, but the response is malformed."""


class PipelineStageError(EmbkitError):
    """A pipeline stage failed; names the stage and the query being processed."""

    def __init__(self, stage, query_id, cause):
        self.stage = stage
        self.query_id = query_id
        self.cause = cause
        where = f"stage '{stage}'" + (f", query '{query_id}'" if query_id else "")
        super().__init__(f"{where}: {cause}")


def is_integer(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite int or float; bools, NaN, infinities and ints beyond float range are not."""
    if isinstance(value, float):
        return math.isfinite(value)
    return is_integer(value) and abs(value) <= sys.float_info.max


def number_problems(name: str, value, rule: str = "", in_range=lambda v: True) -> list[str]:
    """`name: must be ...` when value is not a finite number that in_range accepts, else []."""
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{name}: must be finite, got {value!r}"]
    if not is_number(value):
        return [f"{name}: must be a number, got {value!r}"]
    return [] if in_range(value) else [f"{name}: must be {rule}, got {value!r}"]

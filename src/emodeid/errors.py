"""Exception hierarchy shared across the toolkit, and the one reader of the
JSON documents that come from outside the program."""

import json
from pathlib import Path


class EmodeidError(Exception):
    """Base class for all toolkit errors."""


class InvalidParamError(EmodeidError):
    """A parameter, signal or collection violates its documented contract."""


class ParseError(EmodeidError):
    """A structured document could not be parsed; the message names the file,
    and the line or record when known, in parentheses at its end."""


class ClientUnavailableError(EmodeidError):
    """A remote service, or a mock client's fixture table, gave no usable reply."""


class JudgeParseError(EmodeidError):
    """Judge reply did not match the answer grammar, even after a retry."""


# What a malformed document raises between its bytes and a checked value:
# json.loads raises ValueError (UnicodeDecodeError too) or, nested too deeply,
# RecursionError; a check that indexes, converts or calls into a value of the
# wrong shape raises the rest.
MALFORMED = (ValueError, RecursionError, KeyError, TypeError, AttributeError, OverflowError)


def parse_json(data: str | bytes, check, what: str, context: str | None = None):
    """``check`` applied to the JSON document ``data``. Anything MALFORMED
    that decoding or the check raises becomes a ParseError, "bad <what>:
    <reason>", followed by " (<context>)" when a context is given."""
    try:
        return check(json.loads(data))
    except MALFORMED as exc:
        raise ParseError(f"bad {what}: {exc}" + (f" ({context})" if context else ""))


def parse_json_lines(path: str | Path, check, what: str) -> list:
    """``check`` applied to each non-blank line of a JSON-lines file; an error
    names the file and the line."""
    return [parse_json(line, check, what, f"{path}: line {lineno}")
            for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1)
            if line.strip()]

"""The file boundary: every reader reports a malformed file the same way.

``parse_lines`` reads a file line by line ("\\n" ends a line, blank lines
are skipped); what a line raises becomes "bad {what} in {path} on line N:
...", N counting every line.  Dump records, saved-corpus records and
JSON-lines row files (``parse_rows``) go through it.  ``reading`` wraps a
reader of a whole file (an index, a model, a saved-corpus header): what it
raises becomes "cannot read {what} {path}: ...".  Either way the message is
a plain ValueError that names the file once, which ``cli.main`` prints as
its one "error:" line.  No other module catches a parse error.
"""

import json
import zlib
from contextlib import contextmanager
from zipfile import BadZipFile

# what parsing a truncated or corrupted file raises: JSON and Unicode errors
# are ValueErrors, and gzip and zip files add EOFError, zlib.error,
# BadZipFile and OSError (a CRC mismatch, a seek past the end)
PARSE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError,
                EOFError, zlib.error, BadZipFile, OSError)


def _reason(exc) -> str:
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


@contextmanager
def reading(path, what):
    """Re-raise what reading the file at path raises as ValueError("cannot read
    {what} {path}: ..."); a ValueError or an OSError (a missing file) passes
    unchanged when its message names path already."""
    try:
        yield
    except (*PARSE_ERRORS, MemoryError) as exc:  # an npy header may declare petabytes
        if isinstance(exc, (ValueError, OSError)) and str(path) in str(exc):
            raise
        raise ValueError(f"cannot read {what} {path}: {_reason(exc)}") from exc


def parse_lines(path, byte_lines, what, parse, first_line=1) -> list:
    """[parse(line) for each non-blank line], byte_lines being the file's lines
    (bytes cut at each "\\n") from line number first_line on; what a line
    raises names the file and the line."""
    out, lineno = [], first_line  # lineno is bound should reading the first line fail
    try:
        for lineno, raw in enumerate(byte_lines, start=first_line):
            line = raw.decode("utf-8")
            if line.strip():
                out.append(parse(line))
    except PARSE_ERRORS as exc:
        raise ValueError(f"bad {what} in {path} on line {lineno}: {_reason(exc)}") from exc
    return out


def json_object(line) -> dict:
    """The JSON object a line holds."""
    row = json.loads(line)
    if not isinstance(row, dict):
        raise TypeError(f"expected a JSON object, got {type(row).__name__}")
    return row


def parse_rows(path, what, parse) -> list:
    """[parse(row) for each row] of a JSON-lines file; a line that is not a JSON
    object, or whose row parse refuses, is a bad "{what} row"."""
    with open(path, "rb") as fp:
        return parse_lines(path, fp, f"{what} row", lambda line: parse(json_object(line)))


def write_rows(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for row in rows:
            fp.write(json.dumps(row, ensure_ascii=False))
            fp.write("\n")


def write_json(path, obj) -> None:
    """One JSON document, keys sorted, indented by two, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(obj, fp, sort_keys=True, indent=2)
        fp.write("\n")


def parse_table(path, what, key, parse) -> dict:
    """{k: v} over the (k, v) pairs parse returns per row; key names k in the
    message when a row repeats an earlier row's k."""
    table = {}

    def parse_new(row):
        k, v = parse(row)
        if k in table:
            raise ValueError(f"repeated {key} {k!r}")
        table[k] = v

    parse_rows(path, what, parse_new)
    return table


def scalar_field(row, key):
    """row[key], a claim id: a JSON string or integer, never a bool or a float
    (which would equal an integer id)."""
    if type(row[key]) not in (int, str):
        raise ValueError(f"{key} {row[key]!r} is not a string or an integer")
    return row[key]


def sentence_ref(page, line) -> tuple:
    """(page, line) of a sentence reference: a string page id and an integer line."""
    if not isinstance(page, str) or type(line) is not int:
        raise ValueError(f"sentence reference {[page, line]!r} is not [page_id, line]")
    return page, line


def number_field(row, key, count=False):
    """row[key], which must be a JSON number, not a string or a bool; with count,
    a non-negative integer."""
    value = row[key]
    if type(value) not in ((int,) if count else (int, float)) or (count and value < 0):
        raise ValueError(f"{key} {value!r} is not a {'count' if count else 'number'}")
    return value

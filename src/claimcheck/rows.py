"""JSON-lines row files: one JSON object per line, blank lines skipped.

Every row file the pipeline reads goes through parse_rows, so a malformed row
fails the same way everywhere: one exception, "bad {what} row on line N: ...",
where N counts every line of the file, blank ones included.
"""

import json
from contextlib import contextmanager


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


@contextmanager
def row_error(what, lineno, error=ValueError):
    """Re-raise what a malformed row raises as error("bad {what} row on line N: ...")."""
    try:
        yield
    except KeyError as exc:
        raise error(f"bad {what} row on line {lineno}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise error(f"bad {what} row on line {lineno}: {exc}") from exc


def parse_rows(path, what, parse, error=ValueError):
    """parse(row) for each row; decoding, framing and parse errors name the line."""
    with open(path, "rb") as fp:
        for lineno, raw in enumerate(fp, start=1):
            with row_error(what, lineno, error):
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise TypeError(f"expected a JSON object, got {type(row).__name__}")
                item = parse(row)
            yield item


def parse_table(path, what, key, parse, error=ValueError) -> dict:
    """{k: v} over the (k, v) pairs parse returns per row; key names k in the
    message when a row repeats an earlier row's k."""
    table = {}

    def parse_new(row):
        k, v = parse(row)
        if k in table:
            raise ValueError(f"repeated {key} {k!r}")
        return k, v

    for k, v in parse_rows(path, what, parse_new, error):
        table[k] = v
    return table


def scalar_field(row, key):
    """row[key], which must not be a list or an object (ids are dict keys)."""
    if isinstance(row[key], (list, dict)):
        raise ValueError(f"{key} {row[key]!r} is not a string or number")
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

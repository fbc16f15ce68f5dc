"""Every file format of the package, written and read in one place.

JSON files are strict JSON: ``write_json`` never writes NaN or an infinity,
and each reader of a document checks every field it uses with the typed
field readers below, which reject them.  A CSV file is one header line, then
one line per row: finite numbers in ``repr`` form, optionally followed by
one text column.  Lines end in CRLF, as ``csv.writer`` ends them.  A reader
raises the caller's error type, naming the file and the byte or line.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


def write_json(obj, path, indent=1) -> None:
    """obj as strict JSON in one write (json.dump would make thousands of
    small ones); indent None writes it compact.  A writer makes the parent
    directory of its file."""
    text = json.dumps(obj, indent=indent, allow_nan=False)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


def read_json(path, error):
    """The JSON document in path; text that is not JSON raises error naming
    the file and the byte."""
    try:
        return json.loads(text := Path(path).read_bytes().decode())
    except json.JSONDecodeError as e:  # e.pos counts characters
        raise error(f"{path}: invalid JSON at byte {len(text[:e.pos].encode())}: {e.msg}") from e
    except (UnicodeDecodeError, RecursionError) as e:  # not UTF-8, or nested too deep
        raise error(f"{path}: invalid JSON: {e}") from e


def canonical_json(obj) -> bytes:
    """obj as sorted-key JSON, str() for a value JSON cannot hold; the config hash digests it."""
    return json.dumps(obj, sort_keys=True, default=str).encode()


def write_csv(path, header, rows, labels) -> None:
    """header, then one line per row of rows (finite numbers), ended by its
    entry of labels unless labels is None.  The header is quoted as
    csv.writer quotes it; a label must need no quoting."""
    rows = np.asarray(rows, float)
    if not np.isfinite(rows).all():
        raise ValueError(f"{path}: a CSV row holds a number that is not finite")
    lines = (",".join(map(repr, row)) for row in rows.tolist())
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(header)
        ends = ("\r\n",) * len(rows) if labels is None else (f",{s}\r\n" for s in labels)
        f.writelines(line + end for line, end in zip(lines, ends))


def read_csv(path, header, labels, error):
    """The header, the numbers and the labels of a CSV file as write_csv
    writes it.  header is the header the file must have, or None to take its
    own; labels is the tuple of values the last column may hold, or None when
    every column is a number.  Returns the file's header, a (rows, numbers)
    array and the array of labels; a file without data rows, or a row that
    is not one finite number per numeric column (and a label), raises error
    naming file:line."""
    values, texts = [], []
    try:
        # a byte that is not UTF-8 reads as U+FFFD, which no check accepts
        with open(path, newline="", encoding="utf-8", errors="replace") as f:
            reader = csv.reader(f)
            got = next(reader, None)
            if got is None:
                raise error(f"{path}: empty file")
            if header is not None and [h.strip() for h in got] != header:
                raise error(f"{path}:1: header {','.join(got)!r}, need {','.join(header)!r}")
            n = len(got) - (labels is not None)
            need = f"need {n} finite numbers" + (
                "" if labels is None else f" and a {got[-1]} of {' or '.join(labels)}")
            for cells in reader:
                try:
                    row = list(map(float, cells[:n]))
                except ValueError:
                    row = [math.nan]
                if (len(cells) != len(got) or not all(map(math.isfinite, row))
                        or (labels is not None and cells[-1] not in labels)):
                    raise error(f"{path}:{reader.line_num}: {need}, got {','.join(cells)!r}")
                values.append(row)
                if labels is not None:
                    texts.append(cells[-1])
    except csv.Error as e:
        raise error(f"{path}:{reader.line_num + 1}: {e}") from e
    if not values:
        raise error(f"{path}: no data rows")
    return got, np.array(values), np.array(texts)


# Typed reads of JSON fields, shared by every reader of a JSON document.  A
# failed check raises _FieldError naming the field; the reader raises it again
# as its own error type, naming the file or the entry.


class _FieldError(Exception):
    pass


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _get(obj, *keys):
    """The value at the path keys under a JSON object."""
    for i, key in enumerate(keys):
        if not isinstance(obj, dict) or key not in obj:
            raise _FieldError(f"missing field {'.'.join(map(str, keys[: i + 1]))}")
        obj = obj[key]
    return obj


def _typed(value, name: str, kind: type):
    """value, when it is a dict, list or str as kind says."""
    if isinstance(value, kind):
        return value
    raise _FieldError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def _strings(value, name: str, size: int) -> list:
    """value, a list of size strings."""
    if isinstance(value, list) and len(value) == size and set(map(type, value)) == {str}:
        return value
    raise _FieldError(f"{name} must be a list of {size} strings, got {value!r}")


_NUMBER_TYPES = frozenset({int, float})


def _is_number(value) -> bool:
    """An int or a float; a bool is no number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, name: str, low=None) -> float:
    """value as a float; with low, it must also be finite and above low."""
    if type(value) is float and low is None:  # most values, and the cheapest test
        return value
    if _is_number(value) and (low is None or low < value < math.inf):
        return float(value)
    where = "" if low is None else f" in ({low}, inf)"
    raise _FieldError(f"{name} must be a number{where}, got {value!r}")


def _numbers(value, name: str, size=None, low=-math.inf) -> list:
    """value, a non-empty list of finite numbers above low, size of them if
    given."""
    if (isinstance(value, list) and value and len(value) == (size or len(value))
            # the exact types first, as JSON lists hold ints and floats
            and (_NUMBER_TYPES.issuperset(map(type, value)) or all(map(_is_number, value)))
            and all(map(math.isfinite, value)) and (low == -math.inf or min(value) > low)):
        return value
    raise _FieldError(f"{name} must be a list of {size or 'one or more'} "
                      f"numbers in ({low}, inf), got {value!r}")

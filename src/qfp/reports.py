"""Deterministic CSV/JSON report emission.

Same rows in, same bytes out: floats are rendered with ``repr`` (shortest
round-trip form), key order is fixed by the caller, files carry no
timestamps, and writes go through a temp file plus rename so a crashed run
never leaves a half-written report.  A report may be written as a sequence
of chunks, so a long one never has to sit in memory whole.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Iterable, Iterator, Mapping, Sequence


def render_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write ``text``, or its chunks in order, to ``path`` through a
    private temp file and a rename.

    The temp file sits next to ``path`` under a random name, so concurrent
    writers never share one, and is removed if the write or rename fails,
    including when producing a chunk raises; ``path`` is then untouched.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def csv_text(fieldnames: Sequence[str],
             rows: Iterable[Mapping[str, object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([render_value(row[name]) for name in fieldnames])
    return buf.getvalue()


def json_chunks(payload) -> Iterator[str]:
    """The text of :func:`json_text` as the encoder's chunks, so a long
    report is written without ever being held whole."""
    yield from json.JSONEncoder(indent=2).iterencode(payload)
    yield "\n"


def json_text(payload) -> str:
    return "".join(json_chunks(payload))

"""Deterministic CSV/JSON report emission.

Same rows in, same bytes out: floats are rendered with ``repr`` (shortest
round-trip form), key order is fixed by the caller, files carry no
timestamps, and writes go through a temp file plus rename so a crashed run
never leaves a half-written report.  A large table is :class:`Rows`,
rendered a block at a time, so its text never has to sit in memory whole.
"""

from __future__ import annotations

import io
import os
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence


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
    import csv  # the render functions import what only they use

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([render_value(row[name]) for name in fieldnames])
    return buf.getvalue()


def json_text(payload) -> str:
    import json

    return json.JSONEncoder(indent=2).encode(payload) + "\n"


# rows per chunk of a streamed table; a chunk's text and its encoded copy
# set a report run's peak memory: 2^12 rows cost ~2 MB more than 2^10
_ROW_BLOCK = 1 << 10
SLOT = "<slot>"  # stands for a cell that varies from row to row


class Rows(NamedTuple):
    """``size`` rows: ``template`` has :data:`SLOT` in each cell that varies;
    ``block(start, stop)`` gives each row's key, the distinct keys, their
    cells (one list per varying column but the last) and each row's last
    varying cell, an int or a finite float."""

    template: dict
    size: int
    block: Callable


def _stream(text: str, cells, rows: Rows) -> Iterator[str]:
    # ``text`` holds two template rows and ``cells`` renders a list of
    # values in its format.  Split at the rendered slot, it gives the text
    # before, inside, between and after the rows.  A row is its key's
    # prefix (the joint and the row up to its last slot) and last cell.
    parts = text.split(cells([SLOT])[0])
    joint = parts[len(parts) // 2]
    prefix = "{}".join(part.replace("{", "{{").replace("}", "}}")
                       for part in parts[len(parts) // 2:-1]).format

    def block(start: int) -> str:  # frees its rows before they are written
        keys, distinct, key_cells, last = rows.block(
            start, min(start + _ROW_BLOCK, rows.size))
        prefixes = dict(zip(distinct, map(prefix, *map(cells, key_cells))))
        pieces = [joint] * (2 * len(last))
        pieces[::2] = map(prefixes.__getitem__, keys)
        pieces[1::2] = map(repr, last)
        if start == 0:  # no joint before the first row
            pieces[0] = pieces[0][len(joint):]
        return "".join(pieces)

    yield parts[0]
    yield from map(block, range(0, rows.size, _ROW_BLOCK))
    yield parts[-1]


def csv_chunks(fieldnames: Sequence[str], rows) -> Iterable[str]:
    """:func:`csv_text` in chunks, for row dicts or :class:`Rows`."""
    if not isinstance(rows, Rows):
        return [csv_text(fieldnames, rows)]
    return _stream(csv_text(fieldnames, [rows.template] * 2),
                   lambda values: list(map(render_value, values)), rows)


def json_chunks(payload: dict) -> Iterable[str]:
    """:func:`json_text` in chunks, :class:`Rows` under "rows" included."""
    rows = payload.get("rows")
    if not isinstance(rows, Rows):
        return [json_text(payload)]
    import json

    # one C-encoded list parted at raw newlines, which JSON text never has
    return _stream(json_text({**payload, "rows": [rows.template] * 2}),
                   lambda values: json.dumps(values, separators=(
                       "\n", ":"))[1:-1].split("\n"), rows)

"""Deterministic CSV/JSON report emission.

Same rows in, same bytes out: floats are rendered with ``repr`` (shortest
round-trip form), key order is fixed by the caller, a CSV header is its
rows' keys, and files carry no timestamps.  :func:`chunks` renders both
reports in one pass; a large table is :class:`Rows`, built once per block
for both files.  :func:`write` writes the chunks as bytes through one temp
file per report, all opened before the first row is rendered and renamed
after the last, so a failed run leaves neither report unless the second
rename fails after the first."""

from __future__ import annotations

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


def write(paths: Sequence, chunks: Iterable[Sequence[str]]) -> None:
    """Write string i of each chunk, in order, to ``paths[i]``.

    Each path gets a private temp file next to it under a random name, so
    concurrent writers never share one.  If opening, producing or writing
    a chunk, or a rename fails, every temp file not yet renamed is
    removed, so no target is touched but those renamed before.
    """
    files, renamed = [], 0
    try:
        try:
            for path in paths:
                files.append(open(
                    f"{os.fsdecode(path)}.{os.urandom(8).hex()}.tmp", "xb"))
            for chunk in chunks:
                for fh, text in zip(files, chunk, strict=True):
                    fh.write(text.encode())
                chunk = text = None  # freed before the next is made
        finally:
            for fh in files:
                fh.close()
        for fh, path in zip(files, paths):
            os.replace(fh.name, path)
            renamed += 1
    except BaseException:
        for fh in files[renamed:]:
            os.unlink(fh.name)
        raise


def csv_text(fieldnames: Sequence[str],
             rows: Iterable[Mapping[str, object]]) -> str:
    """One line per row of cells joined by commas, unquoted: no cell of a
    report holds a comma, a quote or a line break."""
    lines = [",".join(fieldnames)]
    lines += (",".join([render_value(row[name]) for name in fieldnames])
              for row in rows)
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    import json

    return json.JSONEncoder(indent=2).encode(payload) + "\n"


# rows per chunk of a streamed table: the widest sampled row (Hadamard
# n = 20) takes ~260 JSON bytes, so a chunk stays near 67 KB, under glibc's
# 128 KiB mmap threshold, and no block's memory depends on heap layout
_ROW_BLOCK = 1 << 8
SLOT = "<slot>"  # stands for a cell that varies from row to row


class Rows(NamedTuple):
    """``size`` rows: ``template`` has :data:`SLOT` in each cell that varies.
    ``cells(key)`` gives the leading varying cells of every row with that
    key; ``block(start, stop)`` gives each row's key and its other varying
    cells, one list per column of ints or finite floats."""

    template: dict
    size: int
    cells: Callable
    block: Callable


def _stream(texts: Sequence[str], cells, rows: Rows) -> Iterator[list[str]]:
    # each text holds two template rows; its ``cells`` renders values in
    # its format.  ``befores`` is the text before each slot of the second
    # row, the joint first.  A row is its key's prefix, built once per
    # table, then each tail cell after the text before it.
    splits = [text.split(render([SLOT])[0])
              for text, render in zip(texts, cells)]
    befores = [parts[len(parts) // 2:-1] for parts in splits]
    prefixes = [{} for _ in texts]

    def block(start: int) -> list[str]:  # one row build for every file
        keys, tail = rows.block(start, min(start + _ROW_BLOCK, rows.size))
        tail = [list(map(repr, column)) for column in tail]
        for key in set(keys).difference(prefixes[0]):
            values = rows.cells(key)
            for before, prefix, render in zip(befores, prefixes, cells):
                prefix[key] = "".join([text + cell for text, cell in zip(
                    before, render(values))]) + before[len(values)]
        width = 2 * len(tail)  # pieces per row
        chunk = []
        for before, prefix in zip(befores, prefixes):
            pieces = [None] * width
            pieces[2::2] = before[len(before) - len(tail) + 1:]
            pieces *= len(keys)
            pieces[::width] = map(prefix.__getitem__, keys)
            for i, column in enumerate(tail):
                pieces[2 * i + 1::width] = column
            if start == 0:  # no joint before the first row
                pieces[0] = pieces[0][len(before[0]):]
            chunk.append("".join(pieces))
        return chunk

    yield [parts[0] for parts in splits]
    yield from map(block, range(0, rows.size, _ROW_BLOCK))
    yield [parts[-1] for parts in splits]


def chunks(payload: dict, csv: bool, json: bool) -> Iterable[list[str]]:
    """The CSV text of payload["rows"] (if ``csv``), headed by the first
    row's keys, then the JSON text of ``payload`` (if ``json``), as chunks
    of one string per file; :class:`Rows` are rendered a block per
    chunk."""
    rows = payload.get("rows")
    streamed = isinstance(rows, Rows)
    if streamed:
        payload = {**payload, "rows": [rows.template] * 2}
    texts, cells = [], []
    if csv:
        texts.append(csv_text(tuple(payload["rows"][0]), payload["rows"]))
        cells.append(lambda values: list(map(render_value, values)))
    if json:
        from json import dumps

        texts.append(json_text(payload))
        cells.append(lambda values: list(map(dumps, values)))
    return _stream(texts, cells, rows) if streamed else [texts]

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
                    f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp", "xb"))
            for chunk in chunks:
                for fh, text in zip(files, chunk, strict=True):
                    fh.write(text.encode())
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
    """``size`` rows: ``template`` has :data:`SLOT` in each cell that varies;
    ``block(start, stop)`` gives each row's key, the distinct keys, their
    cells (one list per varying column but the last) and each row's last
    varying cell, an int or a finite float."""

    template: dict
    size: int
    block: Callable


def _stream(texts: Sequence[str], cells, rows: Rows) -> Iterator[list[str]]:
    # each text holds two template rows and its ``cells`` renders a list of
    # values in its format.  Split at the rendered slot, it gives the text
    # before, inside, between and after the rows.  A row is its key's
    # prefix (the joint and the row up to its last slot) and last cell.
    splits = [text.split(render([SLOT])[0])
              for text, render in zip(texts, cells)]
    joints = [parts[len(parts) // 2] for parts in splits]
    prefixes = ["{}".join(part.replace("{", "{{").replace("}", "}}")
                          for part in parts[len(parts) // 2:-1]).format
                for parts in splits]

    def block(start: int) -> list[str]:  # one row build for every file
        keys, distinct, key_cells, last = rows.block(
            start, min(start + _ROW_BLOCK, rows.size))
        last = list(map(repr, last))
        chunk = []
        for joint, prefix, render in zip(joints, prefixes, cells):
            by_key = dict(zip(distinct, map(prefix, *map(render, key_cells))))
            pieces = [joint] * (2 * len(last))
            pieces[::2] = map(by_key.__getitem__, keys)
            pieces[1::2] = last
            if start == 0:  # no joint before the first row
                pieces[0] = pieces[0][len(joint):]
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
        # one C-encoded list parted at raw newlines, which JSON text never has
        cells.append(lambda values: dumps(values, separators=(
            "\n", ":"))[1:-1].split("\n"))
    return _stream(texts, cells, rows) if streamed else [texts]

"""Report emission: CSV rows and atomic writes."""

import os

import pytest

from qfp.reports import atomic_write_text, csv_text


def test_write_replaces_contents_and_leaves_no_temp(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("old\n")
    atomic_write_text(path, "a,b\n1,2\n")
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert os.listdir(tmp_path) == ["report.csv"]


def test_mode_matches_plain_open(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("")
    atomic_write_text(tmp_path / "atomic", "x")
    assert (tmp_path / "atomic").stat().st_mode == plain.stat().st_mode


def test_failed_rename_removes_temp(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_text(target, "x")
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_failed_chunk_leaves_target_untouched(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("old\n")

    def chunks():
        yield "a,b\n"
        yield "1,2\n"
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="renderer failed"):
        atomic_write_text(path, chunks())
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["report.csv"]


def test_chunks_written_in_order(tmp_path):
    path = tmp_path / "report.csv"
    atomic_write_text(path, iter(["a,b\n", "", "1,2\n"]))
    assert path.read_bytes() == b"a,b\n1,2\n"


def test_csv_row_missing_a_field_raises():
    assert csv_text(("a", "b"), [{"a": 1, "b": None}]) == "a,b\n1,\n"
    with pytest.raises(KeyError, match="'b'"):
        csv_text(("a", "b"), [{"a": 1}])

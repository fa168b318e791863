"""Report emission: CSV rows and atomic writes of one or two files."""

import os

import pytest

from qfp.reports import csv_text, write


def test_write_replaces_contents_and_leaves_no_temp(tmp_path):
    csv_path, json_path = tmp_path / "report.csv", tmp_path / "report.json"
    csv_path.write_text("old\n")
    json_path.write_text("old json\n")
    write([csv_path, json_path], [["a,b\n1,2\n", "{}\n"]])
    assert csv_path.read_bytes() == b"a,b\n1,2\n"
    assert json_path.read_bytes() == b"{}\n"
    assert sorted(os.listdir(tmp_path)) == ["report.csv", "report.json"]


def test_mode_matches_plain_open(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("")
    write([tmp_path / "atomic"], [["x"]])
    assert (tmp_path / "atomic").stat().st_mode == plain.stat().st_mode


def test_failed_rename_removes_temp(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        write([target, tmp_path / "second"], [["x", "y"]])
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_failed_second_rename_keeps_the_first(tmp_path):
    # the one case that leaves a report: the first rename has happened
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        write([tmp_path / "first", target], [["x", "y"]])
    assert sorted(os.listdir(tmp_path)) == ["first", "taken"]
    assert (tmp_path / "first").read_bytes() == b"x"
    assert os.listdir(target) == []


def test_failed_open_writes_nothing(tmp_path):
    ok = tmp_path / "ok.csv"
    with pytest.raises(FileNotFoundError):
        write([ok, tmp_path / "missing" / "r.json"], [["a\n", "{}\n"]])
    assert os.listdir(tmp_path) == []


def test_failed_chunk_leaves_target_untouched(tmp_path):
    csv_path, json_path = tmp_path / "report.csv", tmp_path / "report.json"
    csv_path.write_text("old\n")
    json_path.write_text("old json\n")

    def chunks():
        yield ["a,b\n", "{\n"]
        yield ["1,2\n", "}\n"]
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="renderer failed"):
        write([csv_path, json_path], chunks())
    assert csv_path.read_bytes() == b"old\n"
    assert json_path.read_bytes() == b"old json\n"
    assert sorted(os.listdir(tmp_path)) == ["report.csv", "report.json"]


def test_chunks_written_in_order(tmp_path):
    csv_path, json_path = tmp_path / "report.csv", tmp_path / "report.json"
    write([csv_path, json_path],
          iter([["a,b\n", "["], ["", "1"], ["1,2\n", "]\n"]]))
    assert csv_path.read_bytes() == b"a,b\n1,2\n"
    assert json_path.read_bytes() == b"[1]\n"


def test_csv_row_missing_a_field_raises():
    assert csv_text(("a", "b"), [{"a": 1, "b": None}]) == "a,b\n1,\n"
    with pytest.raises(KeyError, match="'b'"):
        csv_text(("a", "b"), [{"a": 1}])

"""CLI behavior: subcommands, config files, determinism, exit codes."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfp
from qfp import cli, ecc, protocol, reports
from qfp.cli import main, parse_length, parse_time
from qfp.errors import LIMITS

# sha256 of the CSV and JSON reports of sampled runs, recorded before the
# reports were streamed from the batch arrays; the last case renders its
# rows in blocks of 8, so they cross block boundaries
SAMPLED_GOLDENS = {
    "one_trial": (
        ["--code", "hadamard", "--n", "4", "--x", "0000", "--y", "0101",
         "--k", "3", "--trials", "1", "--seed", "5"], None,
        "7af8d78cd2458e555c8abd7c497e407baef2a81c8a1e62e2645a084ee67a61d2",
        "b5ee740e039ab07a45076a7bde415df11be9c0abb6e3b6a80da1e452e7361dfb"),
    "equal_inputs": (
        ["--code", "hadamard", "--n", "3", "--x", "101", "--y", "101",
         "--k", "4", "--trials", "50", "--seed", "3"], None,
        "6122409f4784c65e0b68057a2fc82d6a77cd0a87aedba6c14d16bf5ed950ea43",
        "f34a0b38ac078f3e5f156a20117d412eff08bdf740956964a557f7b09077e9f3"),
    "epsilon_sets_k": (
        ["--code", "hadamard", "--n", "3", "--x", "000", "--y", "001",
         "--epsilon", "0.01", "--trials", "40", "--seed", "9"], None,
        "e5d05ab71722994e64d688606d4299ab7cffcd119427fbbe7d34aee61cedcab4",
        "f8e3664f9382231f672a18de129a25c8fa5c3f77e43cc79e044840529b6fc6ed"),
    "random_code_hex": (
        ["--code", "random", "--n", "12", "--m", "40", "--code-seed", "3",
         "--x", "101100111010", "--y", "011011000101", "--k", "6",
         "--trials", "60", "--seed", "11"], None,
        "d709c1402e4b114a7d0b40eaa928f3068454f97876fc74f6386e5e618b95c6ff",
        "b0a35d6f3dd3380f98c5dd0b734ff94d8d43fceac36efdad32dac25f97dd2dc9"),
    "block_crossing": (
        ["--code", "hadamard", "--n", "4", "--x", "0110", "--y", "0011",
         "--k", "7", "--trials", "37", "--seed", "123"], 8,
        "9f5479ce4f56d2f18ab21baa08c7d99d49c15b30de9aba8c94f62b8410553880",
        "df78463d73383a86b579d752322ec25d62a4ffe736b06390aaa6cc9f5308c65e"),
}


# every config key of each subcommand: (raw value, converted value); the
# keys are the subcommand's option dests, nothing more
CONFIG_SAMPLES = {
    "run": {
        "code": ("hadamard", "hadamard"), "n": ("4", 4), "r": ("3", 3),
        "m": ("10", 10), "code_seed": ("7", 7),
        "code_file": ("a.code", "a.code"), "x": ("0101", "0101"),
        "y": ("1111", "1111"), "exact": ("false", False), "k": ("5", 5),
        "epsilon": ("0.01", 0.01), "trials": ("20", 20), "seed": ("9", 9),
        "phase_protocol": ("yes", True), "q": ("3", 3),
        "phase_x": ("1", 1), "phase_y": ("2", 2), "all_pairs": ("on", True),
        "out": ("r.csv", "r.csv"), "json": ("r.json", "r.json"),
    },
    "classical": {
        "q": ("3", 3), "alice": ("2", 2), "bob": ("2", 2),
        "bounds": ("1", True), "breakeven": ("no", False), "n": ("64", 64),
        "epsilon": ("0.05", 0.05), "mu": ("2.5", 2.5),
        "out": ("c.csv", "c.csv"), "json": ("c.json", "c.json"),
    },
    "feasibility": {
        "separation": ("2km", 2000.0), "period": ("1ns", 1e-9),
        "index": ("1.5", 1.5), "window_factor": ("2", 2.0),
        "mu_photon": ("0.1", 0.1), "noise": ("true", True),
        "pn": ("0.25", 0.25), "k": ("3", 3), "trials": ("100", 100),
        "seed": ("4", 4), "dark": ("1e-5", 1e-5),
        "transmission": ("0.9", 0.9), "efficiency": ("0.8", 0.8),
        "slots": ("50", 50), "deterministic_source": ("off", False),
        "sweep_dark": ("0,1e-5", [0.0, 1e-5]),
        "out": ("f.csv", "f.csv"), "json": ("f.json", "f.json"),
    },
}


CHILD_ENV = dict(os.environ,
                 PYTHONPATH=str(Path(qfp.__file__).resolve().parents[1]))


# spawns one command and writes its exit code, wall seconds and peak RSS
# (KiB, from wait4) to the file descriptor in argv[1]
_MEASURE = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), f"{os.waitstatus_to_exitcode(status)} "
         f"{time.perf_counter() - start} {usage.ru_maxrss}".encode())
"""


def run_child(argv, cwd, stdout=subprocess.DEVNULL, stderr=None,
              timeout=None):
    """Run ``qfp`` in a fresh interpreter; (exit code, seconds, peak MB).

    The child is spawned by a small launcher interpreter, not by the test
    process: Linux carries a parent's high-water RSS into a child across
    vfork and exec, so a child spawned here would report at least this
    process's peak.  The launcher and the child are killed once they run
    past ``timeout`` seconds; the peak is then None.
    """
    start = time.perf_counter()
    read, write = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", "-c", _MEASURE, str(write),
         sys.executable, "-m", "qfp.cli", *argv], cwd=cwd, env=CHILD_ENV,
        stdout=stdout, stderr=stderr, pass_fds=(write,),
        start_new_session=True)
    os.close(write)
    try:
        proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    with os.fdopen(read) as fh:
        report = fh.read().split()
    if not report:
        return proc.returncode, time.perf_counter() - start, None
    rc, seconds, peak_kib = report
    return int(rc), float(seconds), int(peak_kib) / 1024


def assert_refused_at_once(argv, cwd, entry):
    """``qfp argv`` exits 2 within a second and under 100 MB, naming the
    budget ``entry``, with nothing on stdout and no traceback."""
    out, err = cwd / "refused.out", cwd / "refused.err"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        rc, seconds, peak_mb = run_child(argv, cwd, fo, fe, timeout=60)
    assert rc == 2
    assert seconds < 1.0 and peak_mb < 100
    assert out.read_text() == ""
    stderr = err.read_text()
    assert f"resource limit: {entry}: " in stderr
    assert "Traceback" not in stderr


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestUnits:
    def test_lengths(self):
        assert parse_length("10km") == 10_000.0
        assert parse_length("250m") == 250.0
        assert parse_length("123") == 123.0

    def test_times(self):
        assert parse_time("1ns") == 1e-9
        assert parse_time("3us") == 3e-6
        assert parse_time("2.5ms") == 2.5e-3
        assert parse_time("1") == 1.0

    def test_bad_units(self):
        with pytest.raises(ValueError):
            parse_length("10kg")
        with pytest.raises(ValueError):
            parse_time("abc")


class TestRunCommand:
    def test_exact_hadamard_neighbors(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["run", "--code", "hadamard", "--n", "4", "--x", "0000",
                     "--y", "0001", "--exact", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["pN_exact"]) == pytest.approx(0.5, abs=1e-12)
        assert rows[0]["verdict"] == "NotEqual"
        assert rows[0]["x_hex"] == "0" and rows[0]["y_hex"] == "1"
        assert rows[0]["k"] == "" and rows[0]["seed"] == ""

    def test_phase_protocol_all_pairs_average(self, tmp_path):
        out = tmp_path / "phase.csv"
        code = main(["run", "--q", "3", "--phase-protocol", "--all-pairs",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 9
        for row in rows:
            assert float(row["avg_error"]) == pytest.approx(1 / 6, abs=1e-12)
            x, y = int(row["x"]), int(row["y"])
            expected = 0.0 if x == y else 0.75
            assert float(row["pN_exact"]) == pytest.approx(expected,
                                                           abs=1e-12)

    def test_phase_pair_budget_refused_at_once(self, tmp_path):
        # q^2 pairs past the "phase pairs" limit exit 2 before any
        # pair is evaluated or anything is printed; q = 301 is the
        # smallest q refused
        for q in (10**20, math.isqrt(LIMITS["phase pairs"]) + 1):
            assert_refused_at_once(
                ["run", "--phase-protocol", "--q", str(q), "--phase-x", "0",
                 "--phase-y", "1"], tmp_path, "phase pairs")

    def test_phase_worst_admitted_case_memory(self, tmp_path):
        # the largest q the pair budget admits, every row in both reports,
        # rendered a block at a time from the pN table
        q = math.isqrt(LIMITS["phase pairs"])
        rc, seconds, peak_mb = run_child(
            ["run", "--phase-protocol", "--q", str(q), "--all-pairs",
             "--out", "p.csv", "--json", "p.json"], tmp_path)
        assert rc == 0
        assert (tmp_path / "p.csv").read_bytes().count(b"\n") == q * q + 1
        assert peak_mb < 50 and seconds < 10

    def test_phase_without_reports_memory(self, tmp_path):
        # no report file: the pN table alone, no row is built
        q = math.isqrt(LIMITS["phase pairs"])
        rc, _, peak_mb = run_child(
            ["run", "--phase-protocol", "--q", str(q), "--all-pairs"],
            tmp_path)
        assert rc == 0
        assert peak_mb < 50

    def test_sampled_deterministic_bytes(self, tmp_path):
        argv = ["run", "--code", "hadamard", "--n", "4", "--x", "0000",
                "--y", "0001", "--k", "10", "--trials", "200",
                "--seed", "42"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sampled_golden_bytes(self, tmp_path):
        # sha256 of the CSV and JSON reports, pinned across refactors
        out, jpath = tmp_path / "run.csv", tmp_path / "run.json"
        assert main(["run", "--code", "hadamard", "--n", "4", "--x", "0000",
                     "--y", "1111", "--k", "5", "--trials", "300",
                     "--seed", "7", "--out", str(out),
                     "--json", str(jpath)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3995f0dfcb36d8d1375d762898b80e596285e1e7dc775ac6680aef85f606bb38")
        assert hashlib.sha256(jpath.read_bytes()).hexdigest() == (
            "9e01e253e8da3ebbd058db225a32d3e1bec73ff47762a7f04fd5273e849cea1e")

    @pytest.mark.parametrize("name", sorted(SAMPLED_GOLDENS))
    def test_sampled_report_goldens(self, tmp_path, monkeypatch, name):
        argv, block, csv_sha, json_sha = SAMPLED_GOLDENS[name]
        if block is not None:
            monkeypatch.setattr(reports, "_ROW_BLOCK", block)
        out, jpath = tmp_path / "run.csv", tmp_path / "run.json"
        assert main(["run", *argv, "--out", str(out),
                     "--json", str(jpath)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(jpath.read_bytes()).hexdigest() == json_sha

    @pytest.mark.parametrize("argv, printed", [
        (["--code", "hadamard", "--n", "4", "--x", "0000", "--y", "0001",
          "--k", "3", "--trials", "100"], "sampled 100 trials"),
        (["--phase-protocol", "--q", "300", "--all-pairs"],
         "phase protocol q=300"),
    ], ids=["sampled", "phase"])
    def test_no_report_files_render_no_rows(self, monkeypatch, capsys, argv,
                                            printed):
        def refuse(*args):
            raise AssertionError("rows rendered without an output file")

        monkeypatch.setattr(reports, "_stream", refuse)
        assert main(["run", *argv]) == 0
        assert printed in capsys.readouterr().out

    def test_report_memory_stays_flat_in_trials(self, tmp_path):
        # rows are rendered a block at a time, so peak memory is the
        # per-trial counts plus one block of text, not one dict per trial
        rc, _, peak_mb = run_child(
            ["run", "--code", "hadamard", "--n", "4", "--x", "0000",
             "--y", "0110", "--k", "10", "--trials", "300000", "--seed", "3",
             "--out", "run.csv", "--json", "run.json"], tmp_path)
        assert rc == 0
        assert (tmp_path / "run.csv").read_bytes().count(b"\n") == 300_001
        assert peak_mb < 45

    def test_one_row_build_per_block(self, tmp_path, monkeypatch):
        # the CSV and the JSON are rendered from one Rows.block call per
        # block, made in order
        calls = []
        batch_rows = protocol.batch_rows

        def counted(*args):
            rows = batch_rows(*args)

            def block(start, stop):
                calls.append((start, stop))
                return rows.block(start, stop)

            return rows._replace(block=block)

        monkeypatch.setattr(protocol, "batch_rows", counted)
        trials, size = 5 * reports._ROW_BLOCK + 3, reports._ROW_BLOCK
        assert main(["run", "--code", "hadamard", "--n", "4", "--x", "0000",
                     "--y", "0110", "--k", "10", "--trials", str(trials),
                     "--out", str(tmp_path / "r.csv"),
                     "--json", str(tmp_path / "r.json")]) == 0
        assert calls == [(start, min(start + size, trials))
                         for start in range(0, trials, size)]

    @pytest.mark.parametrize("out, json_path, config", [
        ("r", "r", ""), ("r", "./r", ""), ("r", None, "json = r\n"),
    ], ids=["flags", "spelled-apart", "config"])
    def test_same_path_for_both_reports_refused(self, tmp_path, monkeypatch,
                                                capsys, out, json_path,
                                                config):
        # a usage error before anything is computed, flags and config
        # file alike; nothing is printed or written
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--code", "hadamard", "--n", "4", "--x", "0000",
                "--y", "0110", "--k", "3", "--trials", "10", "--out", out]
        if json_path is not None:
            argv += ["--json", json_path]
        if config:
            (tmp_path / "c.cfg").write_text("[run]\n" + config)
            argv += ["--config", "c.cfg"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out and --json" in captured.err
        assert sorted(os.listdir(tmp_path)) == (["c.cfg"] if config else [])

    def test_failed_report_write_leaves_nothing(self, tmp_path, monkeypatch,
                                                capsys):
        # the JSON's directory is missing: neither file is written, no
        # temp file is left and no "wrote" line is printed
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--code", "hadamard", "--n", "4", "--x", "0000",
                     "--y", "0110", "--k", "3", "--trials", "10",
                     "--out", "ok.csv", "--json", "missing_dir/r.json"]) == 1
        captured = capsys.readouterr()
        assert "wrote" not in captured.out
        assert captured.err.startswith("error: ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["run", "--code", "hadamard", "--n", "4", "--x", "0000",
         "--y", "0110", "--k", "10", "--trials", "1000000000"],
        ["run", "--code", "hadamard", "--n", "4", "--x", "0000",
         "--y", "0110", "--k", "100000000000", "--trials", "1"],
        ["feasibility", "--noise", "--pn", "0.25", "--k", "100000000000",
         "--trials", "1"],
    ], ids=["trials", "k", "noise_k"])
    def test_run_budget_refused_before_sampling(self, tmp_path, argv):
        # trials x k runs past the "runs" limit exit 2 at once, with
        # nothing allocated or printed
        assert_refused_at_once(argv, tmp_path, "runs")

    def test_exact_hadamard_20_memory(self, tmp_path):
        # modes are evaluated per bit-pair class: one byte of class per
        # mode and one leaf of floats for the pN sum, no (2, m) complex
        # state, and the codewords are encoded from the row formula, with
        # no 20 MiB generator (~32 MB; 39 MB with the pN gather)
        rc, _, peak_mb = run_child(
            ["run", "--exact", "--code", "hadamard", "--n", "20",
             "--x", "11001100110011001100", "--y", "10110110110110110110"],
            tmp_path)
        assert rc == 0
        assert peak_mb < 36

    def test_exact_hadamard_18_memory(self, tmp_path):
        # one byte of class per mode and one leaf of floats for the pN
        # sum (~31 MB)
        rc, _, peak_mb = run_child(
            ["run", "--exact", "--code", "hadamard", "--n", "18",
             "--x", "101100111000101101", "--y", "011011000111010010"],
            tmp_path)
        assert rc == 0
        assert peak_mb < 50

    # a code at the "generator entries" limit
    AT_THE_LIMIT = ["--code", "repetition", "--n", "1", "--r",
                    str(LIMITS["generator entries"]), "--x", "1", "--y", "0"]

    def test_sampled_generator_at_the_limit_memory(self, tmp_path):
        # pN and the threshold c are each summed one leaf or block of
        # per-mode values at a time, so the 20 MiB class word is most of
        # what the run holds above the interpreter and numpy (~51 MB;
        # 210 MB with the pN gather)
        rc, _, peak_mb = run_child(["run", *self.AT_THE_LIMIT, "--k", "1"],
                                   tmp_path)
        assert rc == 0
        assert peak_mb < 100

    def test_exact_generator_at_the_limit_memory(self, tmp_path):
        # pN is summed one leaf of per-mode values at a time (~50 MB;
        # 210 MB with the pN gather)
        rc, _, peak_mb = run_child(["run", "--exact", *self.AT_THE_LIMIT],
                                   tmp_path)
        assert rc == 0
        assert peak_mb < 100

    def test_sampled_hadamard_20_memory(self, tmp_path):
        # no 2m per-mode vector and no pN gather: the samplers take the
        # threshold c alone (~32 MB; 39 MB with the gather, 55 MB with
        # the vector)
        rc, _, peak_mb = run_child(
            ["run", "--code", "hadamard", "--n", "20",
             "--x", "11001100110011001100", "--y", "10110110110110110110",
             "--k", "5", "--trials", "1000"], tmp_path)
        assert rc == 0
        assert peak_mb < 36

    def test_sampled_memory_flat_in_trials(self, tmp_path):
        # trials are sampled a block at a time and no seeds are stored:
        # 1e7 trials keep one byte of N-click count each
        rc, _, peak_mb = run_child(
            ["run", "--code", "hadamard", "--n", "4", "--x", "0000",
             "--y", "0110", "--k", "10", "--trials", "10000000"], tmp_path)
        assert rc == 0
        assert peak_mb < 100

    @pytest.mark.parametrize("argv", [
        ["--code", "identity", "--n", "100000000000000000000"],
        ["--code", "repetition", "--n", "2", "--r", "100000000000000000000"],
    ], ids=["identity", "repetition"])
    def test_oversized_analytic_code_exits_2(self, argv, capsys):
        assert main(["run", *argv, "--x", "0", "--y", "1"]) == 2
        assert "resource limit" in capsys.readouterr().err

    def test_json_mirror_field_names(self, tmp_path):
        out = tmp_path / "run.csv"
        jpath = tmp_path / "run.json"
        assert main(["run", "--code", "identity", "--n", "3", "--x", "101",
                     "--y", "100", "--k", "2", "--trials", "3", "--seed",
                     "1", "--out", str(out), "--json", str(jpath)]) == 0
        payload = json.loads(jpath.read_text())
        assert payload["master_seed"] == 1
        csv_fields = read_csv(out)[0].keys()
        assert set(payload["rows"][0]) == set(csv_fields)

    def test_sampled_epsilon_sets_k(self, tmp_path, capsys):
        assert main(["run", "--code", "hadamard", "--n", "3", "--x", "000",
                     "--y", "001", "--epsilon", "0.01", "--trials", "1",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "k = 7" in out  # (1/2)^7 <= 0.01
        assert "master_seed = 0" in out

    @pytest.mark.parametrize("code", [["identity", "--n", "1"],
                                      ["repetition", "--n", "1", "--r", "3"]])
    def test_relative_distance_one_needs_one_run(self, code, capsys):
        # t = m: every unequal pair clicks N on every run
        assert main(["run", "--code", *code, "--x", "0", "--y", "1",
                     "--trials", "5", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "k = 1: NotEqual fraction = 1.0" in out

    @pytest.mark.parametrize("code", [
        ["identity", "--n", "3", "--x", "000", "--y", "111"],
        ["repetition", "--n", "1", "--r", "3", "--x", "0", "--y", "1"]])
    def test_pn_sum_past_one_is_clamped(self, code, tmp_path, capsys):
        # the per-mode N-port values of these pairs sum to
        # 1.0000000000000002; pN is a probability, so 1.0 is printed and
        # reported, and every draw of a sampled run clicks N
        out = tmp_path / "run.csv"
        assert main(["run", "--exact", "--code", *code]) == 0
        assert "exact: pN = 1.0 verdict = NotEqual" in capsys.readouterr().out
        assert main(["run", "--code", *code, "--k", "3", "--trials", "50",
                     "--seed", "2", "--out", str(out)]) == 0
        assert ("k = 3: NotEqual fraction = 1.0 (exact pN = 1.0)"
                in capsys.readouterr().out)
        rows = read_csv(out)
        assert {row["pN_exact"] for row in rows} == {"1.0"}
        assert {row["n_clicks_N"] for row in rows} == {"3"}

    def test_widest_threshold_gap_bytes(self, tmp_path, monkeypatch, capsys):
        # a repetition pair whose E-port total sits 19,968 steps of 2^-53
        # above 1 - pN: the bytes were recorded while the sampler drew
        # against that total, and drawing against 1 - pN moves no draw
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--code", "repetition", "--n", "8", "--r",
                     "100000", "--x", "01101001", "--y", "11001010",
                     "--k", "10", "--trials", "20000", "--seed", "4",
                     "--out", "r.csv", "--json", "r.json"]) == 0
        digests = [hashlib.sha256(data).hexdigest() for data in (
            capsys.readouterr().out.encode(),
            (tmp_path / "r.csv").read_bytes(),
            (tmp_path / "r.json").read_bytes())]
        assert digests == [
            "6db9e98d22282af0dea01014a295a6963ddf593e6ef812e677e5b59a2df7c589",
            "901baf0920c8d016f024c1155fbb2048011b32f7953c62cc9f6b71e7587f1b6c",
            "7a51dd0b2102f3adbe00efede96204635b01e08e42323524f89b997ddd95be99"]

    def test_code_file_input(self, tmp_path):
        code_path = tmp_path / "code.txt"
        assert main(["codes", "export", "--kind", "hadamard", "--n", "3",
                     "--out", str(code_path)]) == 0
        out = tmp_path / "run.csv"
        assert main(["run", "--code-file", str(code_path), "--x", "000",
                     "--y", "111", "--exact", "--out", str(out)]) == 0
        assert float(read_csv(out)[0]["pN_exact"]) == pytest.approx(0.5)

    def test_missing_inputs_usage_error(self, capsys):
        assert main(["run", "--code", "hadamard", "--n", "4"]) == 1
        assert "--x" in capsys.readouterr().err


class TestClassicalCommand:
    def test_brute_force_report(self, tmp_path, capsys):
        out = tmp_path / "smp.csv"
        jpath = tmp_path / "smp.json"
        assert main(["classical", "--q", "3", "--alice", "3", "--bob", "2",
                     "--out", str(out), "--json", str(jpath)]) == 0
        row = read_csv(out)[0]
        assert row["min_avg_error"] == "2/9"
        assert row["strategies_searched"] == "13824"
        stdout = capsys.readouterr().out
        assert "alice map" in stdout and "referee table" in stdout
        witness = json.loads(jpath.read_text())["witness"]
        assert len(witness["alice_map"]) == 3
        assert len(witness["referee"]) == 3

    def test_bounds_arithmetic(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["classical", "--bounds", "--n", "10000000000",
                     "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["max_lower"]) == pytest.approx(5000.0)
        assert float(row["shared_bit_lower"]) == pytest.approx(2500.0)

    def test_bounds_n_past_float_range_is_domain_error(self, capsys):
        assert main(["classical", "--bounds", "--n", str(10**400)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_breakeven_prints_both_sides(self, capsys):
        assert main(["classical", "--breakeven", "--epsilon", "0.01",
                     "--mu", "2"]) == 0
        out = capsys.readouterr().out
        assert "break-even n* = " in out
        assert "at n*:" in out and "at n*/2:" in out
        n_star = int(out.split("break-even n* = ")[1].split()[0])
        assert 10**9 <= n_star <= 10**11

    @pytest.mark.parametrize("epsilon", ["0.5", "0.6", "0", "-0.1"])
    def test_breakeven_rejects_epsilon_outside_half(self, epsilon, capsys):
        # the same (0, 1/2) domain as run; rejected before any output
        assert main(["classical", "--breakeven", "--epsilon", epsilon]) == 1
        captured = capsys.readouterr()
        assert "epsilon must lie in (0, 1/2)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("epsilon", ["0.5", "0.6"])
    def test_bounds_rejects_epsilon_outside_half(self, epsilon, capsys):
        # the quantum cost in the bound report uses the same target
        assert main(["classical", "--bounds", "--n", "1000",
                     "--epsilon", epsilon]) == 1
        captured = capsys.readouterr()
        assert "epsilon must lie in (0, 1/2)" in captured.err
        assert captured.out == ""

    def test_oversized_search_exits_2(self, capsys):
        assert main(["classical", "--q", "4", "--alice", "4",
                     "--bob", "4"]) == 2
        assert "resource limit" in capsys.readouterr().err


class TestFeasibilityCommand:
    def test_slot_report(self, tmp_path):
        jpath = tmp_path / "feas.json"
        assert main(["feasibility", "--L", "10km", "--period", "1ns",
                     "--index", "1", "--json", str(jpath)]) == 0
        payload = json.loads(jpath.read_text())
        assert payload["d_vacuum"] == 33356
        assert payload["d_nominal_3us"] == 3000
        assert payload["separation_m"] == 10000.0
        assert payload["pulse_period_s"] == 1e-9

    def test_zero_period_is_domain_error(self, capsys):
        assert main(["feasibility", "--period", "0s"]) == 1
        assert "pulse_period" in capsys.readouterr().err

    def test_photon_statistics_echo(self, capsys):
        assert main(["feasibility", "--mu-photon", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "p1 = 0.0904" in out

    def test_noise_run_and_seed_echo(self, tmp_path, capsys):
        out = tmp_path / "noise.csv"
        assert main(["feasibility", "--noise", "--pn", "0.5", "--k", "3",
                     "--trials", "2000", "--seed", "11",
                     "--deterministic-source", "--out", str(out)]) == 0
        assert "master_seed = 11" in capsys.readouterr().out
        row = read_csv(out)[0]
        assert row["parameter"] == "dark_count_prob"
        assert 0.0 <= float(row["false_equal_rate"]) <= 1.0

    def test_master_seed_reported_mod_2_64(self, tmp_path, capsys):
        # -1 and 2^64 - 1 draw the same stream, and are reported as run
        # reports its master seed: reduced mod 2^64
        outputs, jpath = [], tmp_path / "noise.json"
        for seed in ("-1", str(2**64 - 1)):
            assert main(["feasibility", "--noise", "--pn", "0.5", "--k", "3",
                         "--trials", "100", "--seed", seed,
                         "--json", str(jpath)]) == 0
            outputs.append((capsys.readouterr().out, jpath.read_bytes()))
        assert outputs[0] == outputs[1]
        assert f"master_seed = {2**64 - 1}" in outputs[0][0]

    def test_long_link_dark_counts_bounded(self, tmp_path):
        # 1000 km at 1 ps is ~4.9e9 dark-count slots per detector window
        rc, seconds, peak_mb = run_child(
            ["feasibility", "--noise", "--pn", "0.25", "--L", "1000km",
             "--period", "1ps"], tmp_path)
        assert rc == 0
        assert seconds < 60 and peak_mb < 150

    def test_noise_memory_flat_in_trials(self, tmp_path):
        # verdicts are filled a block at a time: one byte per trial
        rc, _, peak_mb = run_child(
            ["feasibility", "--noise", "--pn", "0.25", "--k", "10",
             "--trials", "2000000"], tmp_path)
        assert rc == 0
        assert peak_mb < 100

    @pytest.mark.parametrize("argv", [
        ["--period", "1e-320"], ["--L", "1e309"], ["--index", "1e308"],
        ["--window-factor", "1e308"], ["--mu-photon", "inf"],
        ["--mu-photon", "nan"],
        ["--noise", "--pn", "0.5", "--period", "1e-320"],
    ], ids=" ".join)
    def test_non_finite_inputs_are_domain_errors(self, argv, capsys):
        # an exception main does not catch (a traceback at the command
        # line) fails the call here
        assert main(["feasibility", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""  # rejected before any output

    @pytest.mark.parametrize("argv", [
        ["--noise", "--pn", "2"], ["--noise", "--pn", "0.5", "--k", "0"],
        ["--noise", "--pn", "0.5", "--trials", "0"],
        ["--noise", "--pn", "0.5", "--slots", "-1"],
        ["--sweep-dark", "0,2", "--pn", "0.5", "--trials", "100"],
    ], ids=" ".join)
    def test_rejected_noise_run_prints_nothing(self, argv, capsys):
        # every point, the last swept value too, is computed before the
        # master seed line is printed
        assert main(["feasibility", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_dark_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["feasibility", "--sweep-dark", "0,1e-4,1e-3",
                     "--pn", "0", "--k", "2", "--trials", "500",
                     "--seed", "3", "--slots", "50",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [float(r["value"]) for r in rows] == [0.0, 1e-4, 1e-3]
        assert float(rows[0]["false_notequal_rate"]) == 0.0

    def test_empty_dark_sweep_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = ["--pn", "0", "--trials", "10", "--out", str(out)]
        assert main(["feasibility", "--sweep-dark", ",", *args]) == 1
        assert "sweep-dark" in capsys.readouterr().err
        conf = tmp_path / "sweep.cfg"
        conf.write_text("[feasibility]\nsweep_dark =\n")
        assert main(["feasibility", "--config", str(conf), *args]) == 1
        assert "sweep_dark" in capsys.readouterr().err
        assert not out.exists()


class TestCodesCommand:
    def test_export_show_verify_cycle(self, tmp_path, capsys):
        path = tmp_path / "had.code"
        assert main(["codes", "export", "--kind", "hadamard", "--n", "4",
                     "--out", str(path)]) == 0
        assert main(["codes", "show", "--in", str(path)]) == 0
        assert "n=4 m=16 t=8" in capsys.readouterr().out
        assert main(["codes", "verify", "--in", str(path)]) == 0
        assert "distance verified" in capsys.readouterr().out

    def test_verify_catches_tampered_distance(self, tmp_path, capsys):
        # only a random code's declared distance is left to the oracle;
        # loading rejects a wrong t on the analytic kinds
        path = tmp_path / "bad.code"
        assert main(["codes", "export", "--kind", "random", "--n", "4",
                     "--m", "10", "--seed", "9", "--out", str(path)]) == 0
        path.write_text(path.read_text().replace("4 10 1", "4 10 2"))
        assert main(["codes", "verify", "--in", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_random_export_is_seeded(self, tmp_path):
        a, b = tmp_path / "a.code", tmp_path / "b.code"
        for path in (a, b):
            assert main(["codes", "export", "--kind", "random", "--n", "4",
                         "--m", "10", "--seed", "9", "--out",
                         str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_random_export_seed_defaults_to_zero(self, tmp_path):
        a, b = tmp_path / "a.code", tmp_path / "b.code"
        argv = ["codes", "export", "--kind", "random", "--n", "6", "--m", "16"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--seed", "0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_failed_export_keeps_the_old_file(self, tmp_path):
        # a 64 KiB file-size limit fails the write of a 1 MiB code: the
        # code is written through a temp file and a rename, so the old
        # file keeps its bytes and no temp file is left
        (tmp_path / "my.code").write_bytes(b"old\n")
        script = ("import resource, signal, sys;"
                  " signal.signal(signal.SIGXFSZ, signal.SIG_IGN);"
                  " resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16,) * 2);"
                  " from qfp.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "codes", "export", "--kind",
             "hadamard", "--n", "16", "--out", "my.code"], cwd=tmp_path,
            env=CHILD_ENV, capture_output=True, text=True)
        assert proc.returncode == 1
        assert "File too large" in proc.stderr
        assert (tmp_path / "my.code").read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["my.code"]

    def test_missing_action(self, capsys):
        assert main(["codes"]) == 1
        assert "export, import, show, verify" in capsys.readouterr().err

    def test_show_hadamard_20_memory(self, tmp_path):
        # each row of the file is compared with the construction's as it
        # is read and none is kept, so neither the file's text nor its
        # 20 MiB generator is held whole (~36 MB; 53 MB with the
        # generator kept)
        assert main(["codes", "export", "--kind", "hadamard", "--n", "20",
                     "--out", str(tmp_path / "had.code")]) == 0
        rc, _, peak_mb = run_child(["codes", "show", "--in", "had.code"],
                                   tmp_path)
        assert rc == 0
        assert peak_mb < 45

    def test_verify_hadamard_20_charged_before_its_generator(self, tmp_path):
        # the oracle's budget refuses the file before its 20 MiB generator
        # is built (48.6 MB when it was built first)
        assert main(["codes", "export", "--kind", "hadamard", "--n", "20",
                     "--out", str(tmp_path / "had.code")]) == 0
        with open(tmp_path / "verify.err", "wb") as err:
            rc, _, peak_mb = run_child(["codes", "verify", "--in", "had.code"],
                                       tmp_path, stderr=err)
        assert rc == 2
        assert peak_mb < 40
        assert "resource limit: oracle word steps: " in (
            tmp_path / "verify.err").read_text()

    @staticmethod
    def _one_row_random_file(cwd, bits):
        # one RandomLinear row of ``bits`` bits, declared distance 1
        (cwd / "one_row.code").write_text(
            f"1 {bits} 1 RandomLinear\n" + "1" * bits + "\n")

    @pytest.mark.parametrize("argv", [
        ["codes", "show", "--in", "one_row.code"],
        ["codes", "verify", "--in", "one_row.code"],
        ["run", "--code-file", "one_row.code", "--x", "1", "--y", "0",
         "--exact"],
    ], ids=["show", "verify", "run"])
    def test_code_file_over_generator_entries_refused(self, argv, tmp_path):
        # the header is charged before any row is read, as the same shape
        # given as flags is
        self._one_row_random_file(tmp_path, LIMITS["generator entries"] + 1)
        assert_refused_at_once(argv, tmp_path, "generator entries")

    def test_code_file_at_generator_entries_loads(self, tmp_path):
        self._one_row_random_file(tmp_path, LIMITS["generator entries"])
        rc, _, _ = run_child(["codes", "show", "--in", "one_row.code"],
                             tmp_path)
        assert rc == 0

    def test_widest_random_code_memory(self, tmp_path):
        # the oracle packs the 10 x 2,000,000 generator straight into
        # 64-bit words, and the code keeps no padding columns (~56 MB;
        # 70-72 MB with a padded byte copy of the generator)
        rc, _, peak_mb = run_child(
            ["codes", "export", "--kind", "random", "--n", "10",
             "--m", "2000000", "--out", "wide.code"], tmp_path)
        assert rc == 0
        assert peak_mb < 62
        rc, _, peak_mb = run_child(["codes", "verify", "--in", "wide.code"],
                                   tmp_path)
        assert rc == 0
        assert peak_mb < 62
        # one row at the generator entries limit is written in pieces from
        # the stored row, not held as text (~130 MB when it was)
        rc, _, peak_mb = run_child(
            ["codes", "export", "--kind", "random", "--n", "1",
             "--m", str(20 << 20), "--out", "row.code"], tmp_path)
        assert rc == 0
        assert peak_mb < 62

    # a file of ``before``, a 16 MiB run of ``filler``, then ``after``
    @pytest.mark.parametrize("before,filler,after,rc,message", [
        # a row is read to one character past its m bits and fails
        ("2 4 1 RandomLinear\n", "0", "\n0101\n", 1,
         "error: generator row 1 is not 4 bits"),
        # a blank line is dropped in pieces, between rows or before the
        # header
        ("2 4 1 RandomLinear\n1010\n", " ", "\n0101\n", 0, "n=2 m=4 t=1"),
        ("", " ", "\n2 4 1 RandomLinear\n1010\n0101\n", 0, "n=2 m=4 t=1"),
        # a header is read to 4096 characters and one more
        ("", " ", "2 4 1 RandomLinear\n1010\n0101\n", 1,
         "error: bad header: longer than 4096 characters"),
    ], ids=["long row", "blank row", "blank before header", "long header"])
    def test_long_lines_read_in_bounded_memory(self, before, filler, after,
                                               rc, message, tmp_path):
        # held whole, each 16 MiB line took the reader past 60 MB
        (tmp_path / "long.code").write_text(
            before + filler * (16 << 20) + after)
        out, err = tmp_path / "show.out", tmp_path / "show.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            got, _, peak_mb = run_child(["codes", "show", "--in",
                                         "long.code"], tmp_path, fo, fe)
        assert got == rc
        assert message in (out if rc == 0 else err).read_text()
        assert peak_mb < 40

    def test_non_utf8_code_file_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "bad.code"
        path.write_bytes(b"\xff\xfe1 1 1 Identity\n1\n")
        assert main(["codes", "show", "--in", str(path)]) == 1
        assert main(["run", "--code-file", str(path), "--x", "0", "--y",
                     "1", "--exact"]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("not UTF-8") == 2
        assert captured.out == ""

    def test_import_alias_loads_file(self, tmp_path, capsys):
        path = tmp_path / "rep.code"
        assert main(["codes", "export", "--kind", "repetition", "--n", "2",
                     "--r", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["codes", "import", "--in", str(path)]) == 0
        assert "n=2 m=6 t=3" in capsys.readouterr().out


# per entry of the work budget: the largest input it admits, then inputs
# it refuses, the smallest first.  The phase-pair edges are q = 300 and q = 301 in
# TestRunCommand.
def _random_export(n, m):
    return ["codes", "export", "--kind", "random", "--n", str(n),
            "--m", str(m), "--out", "c.txt"]


def _smp(q):
    return ["classical", "--q", str(q), "--alice", "1", "--bob", "1"]


def _sampled(trials, k=65536, *reports):
    return ["run", "--code", "hadamard", "--n", "4", "--x", "0000",
            "--y", "0110", "--k", str(k), "--trials", str(trials), *reports]


def _sweep(points, k=1):
    return ["feasibility", "--noise", "--pn", "0.25", "--k", str(k),
            "--trials", str(1 << 14), "--sweep-dark",
            ",".join(["1e-4"] * points)]


BUDGET_EDGES = {
    # k x one started block: 2^16 x 2^14 runs, then a sweep whose second
    # point alone takes it past the limit
    "runs": (_sampled(1 << 14), _sampled((1 << 14) + 1),
             _sweep(2, 1 << 16)),
    # each point adds (points x block) arrays to every kernel block
    "sweep points": (_sweep(LIMITS["sweep points"]),
                     _sweep(LIMITS["sweep points"] + 1)),
    "generator entries": (
        ["codes", "export", "--kind", "hadamard", "--n", "20",
         "--out", "c.txt"],
        ["codes", "export", "--kind", "repetition", "--n", "1",
         "--r", str((20 << 20) + 1), "--out", "c.txt"]),
    # 2^30 x 1 words, then 2^31 x 1 and 2^20 x 1025; the last is the
    # largest generator the entries admit, refused before its stream is
    # drawn: unpacked, it would take ~1.3 GB
    "oracle word steps": (_random_export(30, 64), _random_export(31, 1),
                          _random_export(20, 65537),
                          _random_export(20 << 20, 1)),
    # 2 strategies x 7071^2 pairs, just under 10^8
    "SMP scored pairs": (_smp(7071), _smp(7072)),
    # 2^20 trials with both files; a run without them is not charged
    "report rows": (
        _sampled(1 << 20, 1, "--out", "r.csv", "--json", "r.json"),
        _sampled((1 << 20) + 1, 1, "--out", "r.csv", "--json", "r.json"),
        _sampled((1 << 20) + 1, 1, "--json", "r.json")),
}


class TestWorkBudget:
    def test_every_entry_has_edges(self):
        assert set(BUDGET_EDGES) | {"phase pairs"} == set(LIMITS)

    @pytest.mark.parametrize("entry", sorted(BUDGET_EDGES))
    def test_edges_in_a_child(self, entry, tmp_path):
        admitted, *refused = BUDGET_EDGES[entry]
        rc, seconds, peak_mb = run_child(admitted, tmp_path)
        assert rc == 0
        assert seconds < 20 and peak_mb < 100
        for i, argv in enumerate(refused):
            cwd = tmp_path / f"refused{i}"
            cwd.mkdir()
            assert_refused_at_once(argv, cwd, entry)
            # nothing written but the captured output
            assert len(list(cwd.iterdir())) == 2

    def test_run_without_reports_is_not_charged_for_rows(self, tmp_path):
        rc, _, _ = run_child(_sampled((1 << 20) + 1, 1), tmp_path)
        assert rc == 0

    def test_run_without_reports_is_flat_in_trials(self, tmp_path):
        # 2^26 one-run trials keep a two-entry tally, no count per trial
        rc, _, peak_mb = run_child(
            ["run", "--code", "hadamard", "--n", "4", "--x", "0110",
             "--y", "1011", "--k", "1", "--trials", str(1 << 26)], tmp_path)
        assert rc == 0
        assert peak_mb < 40


class TestConfigFiles:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        conf = tmp_path / "exp.cfg"
        conf.write_text(
            "[run]\ncode = hadamard\nn = 4\nx = 0000\ny = 0001\n"
            "exact = true\n")
        out1 = tmp_path / "a.csv"
        assert main(["run", "--config", str(conf), "--out",
                     str(out1)]) == 0
        assert float(read_csv(out1)[0]["pN_exact"]) == pytest.approx(0.5)
        # explicit flag overrides the config value
        out2 = tmp_path / "b.csv"
        assert main(["run", "--config", str(conf), "--y", "1111", "--out",
                     str(out2)]) == 0
        assert read_csv(out2)[0]["y_hex"] == "f"
        assert read_csv(out1)[0]["y_hex"] == "1"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "bad.cfg"
        conf.write_text("[run]\ncode = hadamard\nbogus_key = 3\n")
        assert main(["run", "--config", str(conf)]) == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_bad_value_reported_with_key(self, tmp_path, capsys):
        conf = tmp_path / "bad.cfg"
        conf.write_text("[run]\nn = four\n")
        assert main(["run", "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert "n" in err and "four" in err

    def test_syntax_error_reports_line(self, tmp_path, capsys):
        conf = tmp_path / "broken.cfg"
        conf.write_text("[run]\nthis is not a key value pair\n")
        assert main(["run", "--config", str(conf)]) == 1
        assert "line" in capsys.readouterr().err.lower()

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        conf = tmp_path / "bad.cfg"
        conf.write_bytes(b"\xff\xfe[run]\nk = 3\n")
        assert main(["run", "--config", str(conf), "--out",
                     str(tmp_path / "r.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "not UTF-8" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [conf]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_long_config_refused_at_once(self, tmp_path):
        # read to 2^20 characters and one more, and refused unparsed: a
        # 16 MiB comment line was accepted at ~62 MB
        (tmp_path / "long.cfg").write_text(
            "[run]\n#" + "c" * (16 << 20) + "\nk = 3\n")
        with open(tmp_path / "long.err", "wb") as err:
            rc, seconds, peak_mb = run_child(["run", "--config", "long.cfg"],
                                             tmp_path, stderr=err)
        assert rc == 1
        assert seconds < 1.0 and peak_mb < 40
        assert "is longer than 1048576 characters" in (
            tmp_path / "long.err").read_text()

    def test_config_at_the_bound_loads(self, tmp_path):
        head = "[run]\ncode = hadamard\nn = 2\nx = 00\ny = 01\nexact = 1\n#"
        conf = tmp_path / "at.cfg"
        conf.write_text(head + "c" * ((1 << 20) - len(head) - 1) + "\n")
        assert conf.stat().st_size == 1 << 20
        with open(tmp_path / "at.out", "wb") as out:
            rc, _, _ = run_child(["run", "--config", "at.cfg"], tmp_path,
                                 stdout=out)
        assert rc == 0
        assert "pN" in (tmp_path / "at.out").read_text()
        # one character more is refused
        conf.write_text(head + "c" * ((1 << 20) - len(head)) + "\n")
        assert main(["run", "--config", str(conf)]) == 1

    def test_config_for_feasibility_with_units(self, tmp_path):
        conf = tmp_path / "f.cfg"
        conf.write_text("[feasibility]\nseparation = 10km\nperiod = 1ns\n"
                        "index = 1.0\n")
        jpath = tmp_path / "feas.json"
        assert main(["feasibility", "--config", str(conf), "--json",
                     str(jpath)]) == 0
        assert json.loads(jpath.read_text())["d_vacuum"] == 33356

    @pytest.mark.parametrize("command", sorted(CONFIG_SAMPLES))
    def test_every_option_is_a_config_key(self, command, tmp_path):
        parser = cli.build_parser()
        types = cli._config_types(parser.parse_args([command]).subparser)
        samples = CONFIG_SAMPLES[command]
        assert set(types) == set(samples)
        for key, (raw, value) in samples.items():
            for spelling in (key, key.replace("_", "-")):
                conf = tmp_path / "c.cfg"
                conf.write_text(f"[{command}]\n{spelling} = {raw}\n")
                loaded = cli._load_config_section(str(conf), command, types)
                assert loaded == {key: value}
            # the flag converts the same text to the same value
            flag = "--" + key.replace("_", "-")
            if isinstance(value, bool):
                parsed = parser.parse_args([command, flag])
                assert getattr(parsed, key) is True
            else:
                parsed = parser.parse_args([command, flag, raw])
                assert getattr(parsed, key) == value

    # (command, key, parser default, config value, flag value)
    PARSER_DEFAULTS = [("run", "epsilon", 0.01, 0.05, 0.2),
                       ("run", "trials", 1, 7, 9),
                       ("run", "seed", 0, 5, 6),
                       ("run", "code_seed", 0, 3, 4),
                       ("feasibility", "k", 1, 3, 4),
                       ("feasibility", "trials", 10_000, 50, 60),
                       ("feasibility", "seed", 0, 5, 6)]

    @pytest.mark.parametrize("command,key,default,in_config,in_flag",
                             PARSER_DEFAULTS)
    def test_config_beats_parser_default_and_loses_to_flag(
            self, command, key, default, in_config, in_flag, tmp_path,
            monkeypatch):
        # the handler sees the options as resolved after the config merge
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}",
                            lambda args: seen.append(getattr(args, key)) or 0)
        conf = tmp_path / "c.cfg"
        conf.write_text(f"[{command}]\n{key} = {in_config}\n")
        flag = "--" + key.replace("_", "-")
        for argv in ([], ["--config", str(conf)],
                     ["--config", str(conf), flag, str(in_flag)],
                     [flag, str(in_flag), "--config", str(conf)]):
            assert main([command, *argv]) == 0
        assert seen == [default, in_config, in_flag, in_flag]

    def test_config_without_the_section_changes_nothing(self, tmp_path,
                                                        capsys):
        # a file with no [run] section leaves every parser default
        conf = tmp_path / "other.cfg"
        conf.write_text("[classical]\nq = 3\n")
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        argv = ["run", "--exact", "--code", "hadamard", "--n", "3",
                "--x", "101", "--y", "011", "--out", str(csv_path),
                "--json", str(json_path)]
        results = []
        for extra in ([], ["--config", str(conf)]):
            assert main([*argv, *extra]) == 0
            results.append((capsys.readouterr().out, csv_path.read_bytes(),
                            json_path.read_bytes()))
            csv_path.unlink()
            json_path.unlink()
        assert results[0] == results[1]

    @pytest.mark.parametrize("key", ["config", "help", "L", "handler",
                                     "subparser"])
    def test_non_option_keys_rejected(self, key, tmp_path, capsys):
        conf = tmp_path / "c.cfg"
        conf.write_text(f"[feasibility]\n{key} = x\n")
        assert main(["feasibility", "--config", str(conf)]) == 1
        assert "unknown key" in capsys.readouterr().err


def _type_name(convert) -> str | None:
    # the cli name of a converter, else its own: parse_length and
    # parse_time are both closures named "parse"
    if convert is None:
        return None
    return next((name for name, value in vars(cli).items()
                 if value is convert), convert.__name__)


def _option_table(parser) -> list[str]:
    """One line per action of ``parser`` and of each parser below it, the
    subcommand entries included: what ``--help`` and a config file read
    of each option.  Values of ``set_defaults`` are not actions."""
    lines = []
    for action in parser._actions:
        cells = (parser.prog, type(action).__name__, action.option_strings,
                 action.dest, action.default, _type_name(action.type),
                 action.nargs, action.metavar, action.required,
                 action.help,
                 list(action.choices) if action.choices else None)
        lines.append(" | ".join(map(repr, cells)))
        if isinstance(action, argparse._SubParsersAction):
            # each subcommand's help line, then its parser, once: an alias
            # names the same parser again
            lines += [repr((parser.prog, entry.metavar, entry.help))
                      for entry in action._get_subactions()]
            for sub in dict.fromkeys(action.choices.values()):
                lines += _option_table(sub)
    return lines


class TestOptionTable:
    # sha256 of the option table of qfp and its seven subparsers, recorded
    # when --help was last compared byte for byte; --help's own layout
    # moves with the Python version, this table does not
    OPTIONS_SHA256 = (
        "6bb532817a345106d2a344d59c1f5893136f21fb5101262df713ed7cfe9713f0")

    def test_options_are_pinned(self):
        table = "\n".join(_option_table(cli.build_parser()))
        assert hashlib.sha256(table.encode()).hexdigest() == (
            self.OPTIONS_SHA256), table


class TestTableLessModes:
    # modes that write only a JSON payload: --out, as a flag or a config
    # key, is a usage error raised before either file is written
    MODES = {
        "breakeven": ["classical", "--breakeven", "--epsilon", "0.01"],
        "slots": ["feasibility", "--L", "1km"],
    }

    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_out_rejected(self, mode, via_config, tmp_path, capsys):
        command, *argv = self.MODES[mode]
        out = str(tmp_path / "t.csv")
        conf = tmp_path / "t.cfg"
        conf.write_text(f"[{command}]\nout = {out}\n")
        argv += ["--config", str(conf)] if via_config else ["--out", out]
        assert main([command, *argv, "--json",
                     str(tmp_path / "t.json")]) == 1
        captured = capsys.readouterr()
        assert "--out" in captured.err
        assert captured.out == ""  # rejected before the report is computed
        assert list(tmp_path.iterdir()) == [conf]


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["run", "--nonsense"]) == 1
        assert "nonsense" in capsys.readouterr().err

    def test_import_loads_layers_not_report_modules(self):
        # the standard-library modules only some commands use are imported
        # where they are used
        layers = ("cli", "modes", "ecc", "protocol", "classical",
                  "physical", "kernels", "reports")
        unused = ("fractions", "decimal", "configparser", "json", "csv")
        out = subprocess.run(
            [sys.executable, "-c", "import sys, qfp.cli; print(*sorted("
             "sys.modules))"], env=CHILD_ENV, capture_output=True,
            text=True, check=True).stdout.split()
        assert {f"qfp.{layer}" for layer in layers} <= set(out)
        assert not set(unused) & set(out)

    def test_sampled_report_imports_no_numpy_ma(self, tmp_path):
        # np.unique would import all of numpy.ma on its first call
        script = ("import sys; from qfp.cli import main; main(sys.argv[1:]);"
                  " print('numpy.ma' in sys.modules)")
        out = subprocess.run(
            [sys.executable, "-c", script,
             *_sampled(300, 3, "--out", "r.csv", "--json", "r.json")],
            cwd=tmp_path, env=CHILD_ENV, capture_output=True, text=True,
            check=True).stdout.split()
        assert (tmp_path / "r.csv").exists()
        assert out[-1] == "False"

    @pytest.mark.parametrize("argv", [
        _sampled(300, 3, "--out", "r.csv", "--json", "r.json"),
        ["classical", "--q", "3", "--alice", "3", "--bob", "2",
         "--out", "s.csv"],
        ["feasibility", "--noise", "--pn", "0.5", "--trials", "1000",
         "--out", "n.csv"],
    ], ids=["sampled", "smp", "noise"])
    def test_csv_report_imports_no_csv_module(self, tmp_path, argv):
        # every CSV cell is written by reports.render_value, unquoted
        script = ("import sys; from qfp.cli import main; main(sys.argv[1:]);"
                  " print('csv' in sys.modules)")
        out = subprocess.run(
            [sys.executable, "-c", script, *argv], cwd=tmp_path,
            env=CHILD_ENV, capture_output=True, text=True,
            check=True).stdout.split()
        assert (tmp_path / argv[argv.index("--out") + 1]).exists()
        assert out[-1] == "False"

    def test_unit_equivalence_end_to_end(self, tmp_path):
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["feasibility", "--L", "10km", "--period", "1ns",
                     "--index", "1", "--json", str(j1)]) == 0
        assert main(["feasibility", "--L", "10000m", "--period", "1ns",
                     "--index", "1", "--json", str(j2)]) == 0
        assert j1.read_bytes() == j2.read_bytes()


# adversarial option values: zero, negative, non-finite, subnormal, huge
NUMBERS = ["0", "-1", "-0", "nan", "inf", "-inf", "1e-320", "1e20",
           "1e309", "100000000000000000000", str(2**64), str(10**400),
           "1", "2", "3", "7", "0.25", "0.6"]


def _argv(prefix, options, flags=()):
    """argv strategy: ``prefix``, a subset of ``flags`` and of the value
    ``options``, each value drawn from NUMBERS."""
    pairs = st.lists(st.tuples(st.sampled_from(options),
                               st.sampled_from(NUMBERS)),
                     max_size=len(options), unique_by=lambda p: p[0])
    return st.tuples(st.lists(st.sampled_from(flags), unique=True)
                     if flags else st.just([]), pairs).map(
        lambda t: [*prefix, *t[0], *(x for pair in t[1] for x in pair)])


def _code_run(kind):
    # a well-formed code run over 3-bit inputs; a fuzzed option after it
    # overrides its value
    return ["run", "--code", kind, "--n", "3", "--r", "2", "--m", "5",
            "--x", "101", "--y", "011", "--out", "r.csv", "--json", "r.json"]


CODE_KINDS = ("identity", "repetition", "hadamard", "random")
LINK_OPTIONS = ["--L", "--period", "--mu-photon", "--dark", "--transmission",
                "--efficiency"]

FUZZ_ARGV = st.one_of(
    _argv(["run", "--phase-protocol"], ["--q", "--phase-x", "--phase-y"],
          ["--all-pairs"]),
    *(_argv(_code_run(kind), ["--n", "--r", "--m", "--code-seed", "--k",
                              "--epsilon", "--trials", "--seed"],
            ["--exact"])
      for kind in CODE_KINDS),
    _argv(["feasibility"], [*LINK_OPTIONS, "--index", "--window-factor"],
          ["--deterministic-source"]),
    _argv(["feasibility", "--noise", "--pn", "0.25", "--out", "f.csv"],
          [*LINK_OPTIONS, "--pn", "--k", "--trials", "--seed", "--slots"],
          ["--deterministic-source"]),
    _argv(["classical", "--q", "3", "--alice", "2", "--bob", "2",
           "--out", "s.csv"], ["--q", "--alice", "--bob"]),
    _argv(["classical", "--bounds"], ["--n", "--epsilon", "--mu"]),
    _argv(["classical", "--breakeven"], ["--epsilon", "--mu"]),
    *(_argv(["codes", "export", "--kind", kind, "--n", "3", "--r", "2",
             "--m", "5", "--out", "c.code"], ["--n", "--r", "--m", "--seed"])
      for kind in CODE_KINDS),
)


def _splice(text: bytes, at: int, cut: int, insert: bytes) -> bytes:
    at %= len(text) + 1
    return text[:at] + insert + text[at + cut:]


def _saved(code) -> bytes:
    buf = io.StringIO()
    ecc.save_code(code, buf)
    return buf.getvalue().encode()


def _code_text(n, m, t, kind, rows) -> bytes:
    return "".join(f"{line}\n" for line in [f"{n} {m} {t} {kind}",
                                              *rows]).encode()


SAVED_CODES = st.one_of(
    st.builds(ecc.identity_code, st.integers(1, 5)),
    st.builds(ecc.repetition_code, st.integers(1, 4), st.integers(1, 3)),
    st.builds(ecc.hadamard_code, st.integers(1, 4)),
    st.builds(ecc.random_linear_code, st.integers(1, 5), st.integers(1, 12),
              st.integers(0, 3)),
).map(_saved)
HEADER_FIELDS = ["0", "1", "2", "3", "5", "6", "8", "-1", "3.0", "x",
                 str(2**64), str(10**400)]
CODE_FILES = st.one_of(
    SAVED_CODES,
    # a few bytes cut or inserted anywhere
    st.builds(_splice, SAVED_CODES, st.integers(0, 63), st.integers(0, 4),
              st.binary(max_size=4)),
    # every header kind, and wrong ones, over short bit rows
    st.builds(_code_text, *[st.sampled_from(HEADER_FIELDS)] * 3,
              st.sampled_from([*(k.value for k in ecc.CodeKind),
                               "hadamard", ""]),
              st.lists(st.text("01", max_size=9), max_size=5)),
    st.binary(max_size=64),
)


def _messages(data: bytes) -> list[str]:
    # --x and --y of the header's n when it is small, else of n = 3
    head = data.split(maxsplit=1)[:1]
    n = int(head[0]) if head and head[0].isdigit() else 3
    n = n if 1 <= n <= 64 else 3
    return ["--x", "1" * n, "--y", "0" * (n - 1) + "1"]


# a well-formed section per subcommand; the fuzzed entries replace or add
# keys, their values drawn from the fuzzed numbers, the key's own sample
# and a few strings other keys take
CONFIG_BASES = {
    "run": {"code": "hadamard", "n": "3", "x": "101", "y": "011",
            "trials": "5", "out": "r.csv", "json": "r.json"},
    "classical": {"q": "3", "alice": "2", "bob": "2", "out": "s.csv"},
    "feasibility": {"noise": "true", "pn": "0.25", "trials": "100",
                    "out": "f.csv"},
}
CONFIG_VALUES = [*NUMBERS, "", "hadamard", "random", "0101", "101", "yes",
                 "1km", "1ns", "0,1e-5"]


def _config_text(command, entries) -> bytes:
    section = {**CONFIG_BASES[command], **dict(entries)}
    return "".join(f"{line}\n" for line in [f"[{command}]", *(
        f"{key} = {value}" for key, value in section.items())]).encode()


def _config_files(command):
    samples = {**CONFIG_SAMPLES[command], "bogus": ("1", None)}
    entries = st.lists(st.sampled_from(sorted(samples)).flatmap(
        lambda key: st.tuples(st.just(key), st.one_of(
            st.just(samples[key][0]), st.sampled_from(CONFIG_VALUES)))),
        max_size=4)
    return st.tuples(st.just(command), st.one_of(
        entries.map(lambda e: _config_text(command, e)),
        st.binary(max_size=64).map(
            lambda raw: _config_text(command, []) + raw)))


CONFIG_FILES = st.one_of(*map(_config_files, sorted(CONFIG_BASES)))


@contextlib.contextmanager
def _quiet_scratch():
    # a fresh working directory, stdout and stderr captured
    with tempfile.TemporaryDirectory() as scratch, \
            contextlib.chdir(scratch), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        yield


class TestFuzz:
    @settings(max_examples=600, deadline=None)
    @given(argv=FUZZ_ARGV)
    @example(argv=["run", "--phase-protocol", "--q", "100000000000000000000",
                   "--phase-x", "0", "--phase-y", "1"])
    @example(argv=["run", "--phase-protocol", "--q", "100000000000000000000",
                   "--all-pairs"])
    @example(argv=["run", "--code", "identity",
                   "--n", "100000000000000000000", "--x", "0", "--y", "1"])
    @example(argv=["run", "--code", "repetition", "--n", "2",
                   "--r", "100000000000000000000", "--x", "0", "--y", "1"])
    @example(argv=["run", "--code", "hadamard", "--n", "4", "--x", "0000",
                   "--y", "0110", "--k", "100000000000", "--trials", "1"])
    @example(argv=["run", "--code", "hadamard", "--n", "4", "--x", "0000",
                   "--y", "0110", "--trials", "1000000000"])
    @example(argv=["feasibility", "--noise", "--pn", "0.25",
                   "--k", "100000000000", "--trials", "1"])
    @example(argv=["feasibility", "--period", "1e-320"])
    @example(argv=["feasibility", "--L", "1e309"])
    @example(argv=["feasibility", "--index", "1e308"])
    @example(argv=["feasibility", "--window-factor", "1e308"])
    @example(argv=["feasibility", "--mu-photon", "inf"])
    @example(argv=["run", "--code", "random", "--n", "4",
                   "--m", "100000000000000000000", "--x", "0001",
                   "--y", "0010", "--exact"])
    @example(argv=["codes", "export", "--kind", "random", "--n", "4",
                   "--m", "100000000000000000000", "--out", "c.txt"])
    @example(argv=["classical", "--q", "100000000000000000000",
                   "--alice", "1", "--bob", "1"])
    @example(argv=["classical", "--q", "3000000", "--alice", "1",
                   "--bob", "1"])
    @example(argv=["classical", "--q", "100000000000000000000",
                   "--alice", "2", "--bob", "1"])
    @example(argv=["classical", "--q", "3", "--alice",
                   "100000000000000000000", "--bob", "100000000000000000000"])
    @example(argv=["classical", "--breakeven", "--epsilon", "0.6"])
    @example(argv=["classical", "--bounds", "--n", str(10**400)])
    @example(argv=["classical", "--bounds", "--n", str(10**400),
                   "--epsilon", "0.01"])
    @example(argv=["codes", "export", "--kind", "random", "--n", "20",
                   "--m", "1048576", "--out", "c.code"])
    @example(argv=["classical", "--q", "7071", "--alice", "1", "--bob", "1"])
    @example(argv=["feasibility", "--noise", "--pn", "0.25",
                   "--slots", str(10**400)])
    def test_every_input_ends_in_an_exit_code(self, argv):
        # an exception escaping main would be a traceback at the command
        # line; reports are written to a scratch directory
        with _quiet_scratch():
            assert main(argv) in (0, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(data=CODE_FILES)
    def test_every_code_file_ends_in_an_exit_code(self, data):
        with _quiet_scratch():
            Path("f.code").write_bytes(data)
            for argv in (["codes", "show", "--in", "f.code"],
                         ["codes", "verify", "--in", "f.code"],
                         ["run", "--code-file", "f.code", "--exact",
                          *_messages(data)]):
                assert main(argv) in (0, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(config=CONFIG_FILES)
    def test_every_config_file_ends_in_an_exit_code(self, config):
        command, data = config
        with _quiet_scratch():
            Path("c.cfg").write_bytes(data)
            assert main([command, "--config", "c.cfg"]) in (0, 1, 2)

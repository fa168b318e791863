"""The contract between ``perfbench/`` and the program: the argument names
its tracer binds, the ``RunResult`` fields its replay check reads."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import qfp
from qfp import ProtocolParams, batch_rows, hadamard_code, run_batch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(qfp.__file__).resolve().parents[1]

X, Y, K, TRIALS, SEED = "0000", "0110", 10, 1000, 3


def _workloads(monkeypatch):
    # perfbench/workloads.py, imported under a private name; its
    # dataclasses look their module up in sys.modules
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _trace(tmp_path, invocations) -> dict:
    # run perfbench/tracer.py on the invocations; its result JSON
    plan = {"dir": str(tmp_path), "invocations": invocations}
    plan_path, result_path = tmp_path / "plan.json", tmp_path / "result.json"
    plan_path.write_text(json.dumps(plan))
    # the tracer changes into the plan's directory before it writes, so
    # the result path is absolute
    subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"),
                    str(plan_path), str(result_path.resolve())],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                   capture_output=True, timeout=120)
    return json.loads(result_path.read_text())


def test_tracer_counts_sampled_and_exact_runs(tmp_path):
    code = ["--code", "hadamard", "--n", "4", "--x", X, "--y", Y]
    result = _trace(tmp_path, [
        ["run", *code, "--k", str(K), "--trials", str(TRIALS),
         "--seed", str(SEED)],
        ["run", "--exact", *code],
    ])
    assert [inv["rc"] for inv in result["invocations"]] == [0, 0]
    assert result["metrics"]["kernels.click_draws"] == K * TRIALS
    assert "kernels.click_counts" not in result["missing"]


def test_tracer_counts_certify_runs(tmp_path):
    # the code export and verify, the SMP search and the exact run of the
    # certify workload; the oracle's count reads its ``generator`` argument
    result = _trace(tmp_path, [
        ["codes", "export", "--kind", "random", "--n", "20", "--m", "64",
         "--out", "code.txt"],
        ["codes", "verify", "--in", "code.txt"],
        ["classical", "--q", "4", "--alice", "3", "--bob", "3"],
        ["run", "--exact", "--code", "hadamard", "--n", "10",
         "--x", "1011001110", "--y", "0110110001"],
    ])
    assert [inv["rc"] for inv in result["invocations"]] == [0, 0, 0, 0]
    assert result["metrics"]["kernels.oracle_messages"] == 2 * (2**20 - 1)
    assert result["metrics"]["kernels.smp_strategies"] == 3359232
    for function in ("kernels.min_nonzero_weight",
                     "kernels.smp_exhaustive_search", "protocol.run_exact"):
        assert function not in result["missing"]


def test_tracer_absent_names_are_pinned(tmp_path):
    # the SPANS names no longer in qfp; a traced function deleted or
    # renamed would join them, its time moving silently into cli.self_s
    result = _trace(tmp_path, [])
    assert sorted(result["missing"]) == [
        "classical.shared_randomness_floor", "kernels.binomial_cdf",
        "modes.apply_phases", "modes.inverse_recombine",
        "modes.port_probabilities", "modes.prepare_split", "modes.recombine",
        "protocol.batch_report_rows", "reports.atomic_write_text"]


def test_workload_replay_is_the_batch_trial(monkeypatch):
    workloads = _workloads(monkeypatch)
    assert workloads.K == K and workloads.SAMPLED_N == 4
    params = ProtocolParams(4, hadamard_code(4), K, 0.01)
    # each trial's count and seed, as the batch's report rows give them
    counts, [seeds] = batch_rows(params, X, Y,
                                 run_batch(params, X, Y, SEED, 64)).block(0, 64)
    for clicks, seed in zip(counts, seeds):
        verdict = "NotEqual" if clicks else "Equal"
        assert workloads.replay(X, Y, seed) == (verdict, clicks)

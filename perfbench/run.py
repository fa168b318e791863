#!/usr/bin/env python3
"""qfp benchmark: fixed CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sampled, certify, or ``all`` for each in turn.
Run from anywhere; the program is taken from ``src/`` next to this
directory, and scratch files go to ``.perfbench_work/`` beside it and are
removed at the end.

A pass runs the workload's invocations one at a time, each as its own
``python -m qfp.cli`` subprocess with numpy single-threaded.  Passes repeat
until S seconds have gone; inputs depend only on N, so every pass does the
same work and must write the same bytes.  The first pass is checked
against the workload's invariants and later passes against its digests.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (summed wall time
of the subprocesses of one pass), ``peak_rss_mb`` (largest child peak RSS
of one pass), both as medians over passes, and ``setup_s`` (median time of
a fresh ``import qfp.cli`` subprocess, timed three times before each
pass).  ``--trace 1`` alternates untraced passes with traced ones
(``tracer.py``) and reports the per-layer metrics, as medians over traced
passes.  The last line of stdout is the
JSON result; the lines before it give the manifest and every metric with
its unit, sample count and quartiles.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES_PER_PASS = 3
INVOCATION_TIMEOUT_S = 150.0
SUM_TOLERANCE_S = 1e-6

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

MANIFEST_SCRIPT = """
import json, os, platform, sys
import numpy
import qfp.cli
try:
    import numba  # noqa: F401
    have_numba = True
except ImportError:
    have_numba = False
try:
    from qfp import backend
    active = backend.active()
except ImportError:
    active = None
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__,
                  "nproc": len(os.sched_getaffinity(0)),
                  "numba_imports": have_numba,
                  "qfp_backend_active": active,
                  "QFP_BACKEND": os.environ.get("QFP_BACKEND")}))
"""


@dataclass
class Child:
    rc: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes


def spawn(argv: list, cwd: Path, env: dict) -> Child:
    """Run one subprocess to the end; wall time and its own peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    timer.start()
    reaped = False
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        timer.cancel()
        proc.stdout.close()
        if not reaped:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def file_digest(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def read_outputs(directory: Path, invocation, rc: int, stdout: bytes):
    files = {name: (directory / name).read_bytes()
             for name in invocation.writes if (directory / name).exists()}
    return workloads.Output(rc, stdout, files)


@dataclass
class Run:
    """Everything one workload run measured and found.

    While children run, this process only streams output files through
    sha256: a child's peak RSS as ``wait4`` reports it includes the peak
    RSS of the process that spawned it, so this one must stay small until
    the last pass.  The first pass's outputs stay on disk and are checked
    by ``check`` after the measurements.
    """

    workload: object
    env: dict
    directory: Path
    setup: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    overheads: list = field(default_factory=list)
    first: list = field(default_factory=list)       # (rc, stdout) of pass 0
    reference: list = field(default_factory=list)   # digests of pass 0
    same: list = field(default_factory=list)        # (invocation, matched)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    selftest_ok: bool = False
    manifest: dict = field(default_factory=dict)

    def record(self, directory: Path, results: list, label: str) -> None:
        """Compare one pass's (rc, stdout) and files with the first pass."""
        digests = [(rc, hashlib.sha256(stdout).hexdigest(),
                    {name: file_digest(directory / name)
                     for name in inv.writes if (directory / name).exists()})
                   for inv, (rc, stdout) in zip(self.workload.invocations,
                                                results)]
        if not self.reference:
            self.first, self.reference = results, digests
            directory.rename(self.directory / "first")
        else:
            shutil.rmtree(directory)
        for i, (dig, ref) in enumerate(zip(digests, self.reference)):
            self.same.append((i, dig == ref))
            if dig != ref:
                self.problems.append(f"{label} invocation {i}: output "
                                     f"differs from the first pass")

    def check(self) -> None:
        """Check pass 0 and the self-test; count failed invocations."""
        outputs = [read_outputs(self.directory / "first", inv, rc, stdout)
                   for inv, (rc, stdout) in zip(self.workload.invocations,
                                                self.first)]
        broken = []
        for inv, out in zip(self.workload.invocations, outputs):
            found = inv.check(out)
            broken.append(bool(found))
            self.problems += [f"{inv.argv[0]}: {p}" for p in found]
        self.self_test(outputs)
        self.attempted = len(self.same)
        self.failed = sum(not matched or broken[i]
                          for i, matched in self.same)

    def self_test(self, outputs: list) -> None:
        """A corrupted copy of one output must fail its check."""
        try:
            index, corrupted = self.workload.corrupt(outputs)
        except (KeyError, IndexError, ValueError) as exc:
            self.problems.append(f"self-test could not corrupt outputs: "
                                 f"{exc!r}")
            return
        self.selftest_ok = bool(self.workload.invocations[index]
                                .check(corrupted))
        if not self.selftest_ok:
            self.problems.append("self-test: a corrupted output passed "
                                 "its check")

    def probe(self) -> None:
        """Untimed first import: writes bytecode caches, reads the manifest."""
        probe = spawn([sys.executable, "-c", MANIFEST_SCRIPT], ROOT,
                      self.env)
        if probe.rc != 0:
            raise SystemExit(f"cannot import qfp from {SRC}")
        self.manifest.update(json.loads(probe.stdout))

    def time_setup(self) -> None:
        for _ in range(SETUP_SAMPLES_PER_PASS):
            child = spawn([sys.executable, "-c", "import qfp.cli"], ROOT,
                          self.env)
            self.setup.append(child.wall_s)

    def plain_pass(self, index: int) -> None:
        directory = self.directory / f"plain-{index}"
        directory.mkdir()
        children = [spawn([sys.executable, "-m", "qfp.cli", *inv.argv],
                          directory, self.env)
                    for inv in self.workload.invocations]
        self.walls.append(sum(child.wall_s for child in children))
        self.rss.append(max(child.peak_rss_mb for child in children))
        self.record(directory, [(child.rc, child.stdout)
                                for child in children], f"pass {index}")

    def traced_pass(self, index: int) -> None:
        directory = self.directory / f"traced-{index}"
        directory.mkdir()
        plan = self.directory / "plan.json"
        result = self.directory / "trace.json"
        plan.write_text(json.dumps({
            "dir": str(directory),
            "invocations": [list(inv.argv)
                            for inv in self.workload.invocations]}))
        child = spawn([sys.executable, str(HERE / "tracer.py"), str(plan),
                       str(result)], ROOT, self.env)
        if child.rc != 0:
            raise SystemExit(f"traced pass exited with {child.rc}")
        traced = json.loads(result.read_text())
        if traced["missing"]:
            print(f"warning: not traced, absent from qfp: "
                  f"{', '.join(traced['missing'])}", file=sys.stderr)
        self.record(directory, [(got["rc"], got["stdout"].encode("utf-8"))
                                for got in traced["invocations"]],
                    f"traced pass {index}")
        metrics = traced["metrics"]
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        if abs(self_sum - metrics["trace.total_s"]) > SUM_TOLERANCE_S:
            self.problems.append(
                f"traced pass {index}: self times add up to {self_sum!r}, "
                f"not trace.total_s = {metrics['trace.total_s']!r}")
        self.layers.append(metrics)

    def measure(self, seconds: float, trace: bool) -> None:
        """Passes until the next one would end after ``seconds`` (>= 1).

        Set-up is timed before each pass, so that its samples spread over
        the run as the passes do.
        """
        self.probe()
        start = time.perf_counter()
        index = 0
        while True:
            begun = time.perf_counter()
            self.time_setup()
            self.plain_pass(index)
            if trace:
                self.traced_pass(index)
                untraced = (self.walls[-1] - len(self.workload.invocations)
                            * statistics.median(self.setup))
                self.overheads.append(self.layers[-1]["trace.total_s"]
                                      - untraced)
            index += 1
            now = time.perf_counter()
            if now + (now - begun) - start > seconds:
                break

    def end_to_end(self) -> dict:
        return {"wall_s": self.walls, "peak_rss_mb": self.rss,
                "setup_s": self.setup}

    def per_layer(self) -> dict:
        samples = {name: [layer[name] for layer in self.layers]
                   for name in self.layers[0]}
        samples["trace.overhead_s"] = self.overheads
        return samples


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def summarize(samples: list) -> tuple:
    """Median, first and third quartile."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return statistics.median(samples), q1, q3


def report(run: Run, trace: bool) -> dict:
    """Print the readable lines and return the metrics of the JSON line."""
    name = run.workload.name
    tables = [(run.end_to_end(), lambda m: END_TO_END_UNITS[m])]
    if trace:
        tables.append((run.per_layer(), layer_unit))
    metrics = {}
    for table, unit_of in tables:
        for metric, samples in table.items():
            median, q1, q3 = summarize(samples)
            unit = unit_of(metric)
            print(f"{name:<15} {metric:<38} {median:>14.6g} {unit:<5} "
                  f"n={len(samples)} q1={q1:.6g} q3={q3:.6g}")
            metrics[metric] = {"value": median, "unit": unit}
    verdict = "rejected" if run.selftest_ok else "ACCEPTED"
    print(f"{name:<15} {'ops_failed':<38} {run.failed:>14d} count "
          f"of {run.attempted} ops; the check {verdict} a corrupted output")
    for problem in run.problems:
        print(f"{name:<15} problem: {problem}")
    if trace:
        return {m: metrics[m] for m in run.per_layer()}
    return {m: metrics[m] for m in END_TO_END_UNITS}


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    workload = workloads.WORKLOADS[name](seed)
    directory = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    run = Run(workload, child_env(), directory)
    try:
        run.measure(seconds, trace)
        run.check()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    run.manifest.update({
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "interpreter": sys.executable,
        "invocations": [["qfp", *inv.argv] for inv in workload.invocations],
    })
    print("manifest " + json.dumps(run.manifest, sort_keys=True))
    metrics = report(run, trace)
    correct = not run.problems and run.selftest_ok
    return correct, run.attempted, run.failed, metrics


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # spawn then kills its running child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "qfp" / "cli.py").is_file():
        print(f"perfbench: no qfp sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks replay rows through qfp
    if args.workload != "all":
        correct, attempted, failed, metrics = benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in workloads.WORKLOADS:
            # a process per workload, so no workload's checks inflate the
            # peak RSS that the next one's children report
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            *lines, last = child.stdout.splitlines()
            print("\n".join(lines))
            result = json.loads(last)
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{metric}": value
                            for metric, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

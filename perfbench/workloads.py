"""The benchmark workloads and the checks on their outputs.

A workload is a fixed sequence of ``qfp`` CLI invocations.  Every input
(bit strings, master seeds, code seeds) comes from the workload seed; the
amount of work does not.  Each invocation carries a check that takes its
exit code, stdout and output files and returns the invariants it broke;
any broken invariant counts the invocation as failed.  Each workload also
names one corruption of a recorded output, which its check must reject,
so a run shows that the checks can fail.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

K = 10                     # repetitions per sampled protocol
SAMPLED_N = 4              # Hadamard message length of the sampled runs
EXACT_N = 18               # Hadamard message length of the exact run
REPORT_TRIALS = 100_000
MONTECARLO_TRIALS = 500_000
NOISE_TRIALS = 100_000
NOISE_PN = 0.25
DARK_SWEEP = (0.0, 1e-6, 1e-5, 1e-4)
SMP_STRATEGIES = 3 ** 4 * 3 ** 4 * 2 ** 9   # q = 4, 3 x 3 messages
REPLAYED_ROWS = 64
SIGMAS = 6.0


@dataclass(frozen=True)
class Output:
    """What one invocation produced: exit code, stdout, files by name."""

    rc: int
    stdout: bytes
    files: dict


Check = Callable[[Output], list]


@dataclass(frozen=True)
class Invocation:
    argv: tuple          # arguments after ``qfp``
    writes: tuple        # files the invocation writes into its directory
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    corrupt: Callable[[list], tuple]  # outputs -> (invocation index, output)


# --- independent references ---------------------------------------------------

def hadamard_distance(x: str, y: str) -> int:
    """d_H of the Hadamard codewords of x and y: one bit <x, z> mod 2 per z."""
    diff = sum(1 << j for j, (a, b) in enumerate(zip(x, y)) if a != b)
    return sum((diff & z).bit_count() & 1 for z in range(1 << len(x)))


def not_equal_probability(x: str, y: str, k: int) -> float:
    """1 - (1 - d_H/m)^k: the chance that some of k runs clicks N."""
    return 1.0 - (1.0 - hadamard_distance(x, y) / 2 ** len(x)) ** k


def within_sigmas(fraction: float, p: float, trials: int) -> bool:
    return abs(fraction - p) <= SIGMAS * math.sqrt(p * (1.0 - p) / trials)


def _unequal_pair(rng: random.Random, n: int, ones: int | None = None):
    """Two distinct n-bit strings; with ``ones``, each has that weight."""
    def draw():
        if ones is None:
            return "".join(rng.choice("01") for _ in range(n))
        bits = ["1"] * ones + ["0"] * (n - ones)
        rng.shuffle(bits)
        return "".join(bits)

    x = draw()
    y = draw()
    while y == x:
        y = draw()
    return x, y


# --- checks -------------------------------------------------------------------

def _lines(out: Output) -> list:
    return out.stdout.decode("utf-8", "replace").splitlines()


def _exit_ok(out: Output) -> list:
    return [] if out.rc == 0 else [f"exit code {out.rc}"]


def _printed_fraction(out: Output, trials: int):
    pattern = re.compile(rf"^sampled {trials} trials, k = {K}: "
                         r"NotEqual fraction = (\S+) ")
    for line in _lines(out):
        match = pattern.match(line)
        if match:
            return float(match.group(1))
    return None


def _check_fraction(out, x, y, trials) -> list:
    fraction = _printed_fraction(out, trials)
    if fraction is None:
        return ["no NotEqual fraction line on stdout"]
    p = not_equal_probability(x, y, K)
    if not within_sigmas(fraction, p, trials):
        return [f"NotEqual fraction {fraction!r} outside {SIGMAS:g} sigma "
                f"of {p!r}"]
    return []


def _csv_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def replay(x: str, y: str, row_seed: int) -> tuple:
    """(verdict, n_clicks_N) of one sampled protocol, from ``qfp`` itself."""
    from qfp import ecc, protocol

    params = protocol.ProtocolParams(SAMPLED_N, ecc.hadamard_code(SAMPLED_N),
                                     K, 0.01)
    result = protocol.run_sampled(params, x, y, row_seed)
    return result.verdict.value, result.n_clicks_not_equal


def check_report(out: Output, x: str, y: str, master_seed: int,
                         replay_rows: list) -> list:
    """Row count, CSV/JSON agreement, replayed rows, NotEqual fraction."""
    problems = _exit_ok(out) + _check_fraction(out, x, y, REPORT_TRIALS)
    csv_bytes = out.files.get("report.csv")
    json_bytes = out.files.get("report.json")
    if csv_bytes is None or json_bytes is None:
        return problems + ["report.csv or report.json missing"]
    n_lines = csv_bytes.count(b"\n")
    if n_lines != REPORT_TRIALS + 1:
        problems.append(f"CSV has {n_lines} lines, want {REPORT_TRIALS + 1}")
    reader = csv.reader(io.StringIO(csv_bytes.decode("ascii")))
    header = next(reader)
    csv_rows = list(reader)
    payload = json.loads(json_bytes)
    json_rows = payload["rows"]
    if len(csv_rows) != len(json_rows):
        return problems + [f"{len(csv_rows)} CSV rows vs {len(json_rows)} "
                           f"JSON rows"]
    for i, (cells, row) in enumerate(zip(csv_rows, json_rows)):
        if list(row) != header or cells != [_csv_cell(v)
                                            for v in row.values()]:
            problems.append(f"row {i}: CSV and JSON disagree")
            break
    n_not_equal = 0
    for i, row in enumerate(json_rows):
        clicks = row["n_clicks_N"]
        n_not_equal += row["verdict"] == "NotEqual"
        if not 0 <= clicks <= K or (row["verdict"] == "NotEqual") != (
                clicks > 0):
            problems.append(f"row {i}: verdict {row['verdict']} with "
                            f"{clicks} N clicks")
            break
    if payload["master_seed"] != master_seed or payload["k"] != K \
            or payload["trials"] != REPORT_TRIALS:
        problems.append("JSON header does not echo seed, k and trials")
    if payload["not_equal_fraction"] != n_not_equal / REPORT_TRIALS:
        problems.append("JSON not_equal_fraction does not match its rows")
    p = not_equal_probability(x, y, K)
    if not within_sigmas(n_not_equal / REPORT_TRIALS, p, REPORT_TRIALS):
        problems.append(f"row NotEqual fraction outside {SIGMAS:g} sigma")
    for i in replay_rows:
        row = json_rows[i]
        verdict, clicks = replay(x, y, row["seed"])
        if (verdict, clicks) != (row["verdict"], row["n_clicks_N"]):
            problems.append(f"row {i}: replay gives {verdict}/{clicks}, "
                            f"report has {row['verdict']}/"
                            f"{row['n_clicks_N']}")
            break
    return problems


def check_run(out: Output, x: str, y: str) -> list:
    return _exit_ok(out) + _check_fraction(out, x, y, MONTECARLO_TRIALS)


def check_sweep(out: Output, seed: int) -> list:
    problems = _exit_ok(out)
    raw = out.files.get("sweep.json")
    if raw is None:
        return problems + ["sweep.json missing"]
    payload = json.loads(raw)
    rows = payload["rows"]
    if [row["value"] for row in rows] != list(DARK_SWEEP):
        problems.append("sweep JSON does not hold one row per dark value")
    if payload["master_seed"] != seed or payload["trials"] != NOISE_TRIALS:
        problems.append("sweep JSON does not echo seed and trials")
    for row in rows:
        for key, value in row.items():
            if key.endswith("_rate") and not 0.0 <= value <= 1.0:
                problems.append(f"dark={row['value']!r}: {key} = {value!r}")
    return problems


def check_export(out: Output) -> list:
    problems = _exit_ok(out)
    if not any(line.startswith("wrote code.txt: n=20 m=64 t=")
               for line in _lines(out)):
        problems.append("export did not report the code it wrote")
    if "code.txt" not in out.files:
        problems.append("code.txt missing")
    return problems


def check_verify(out: Output) -> list:
    problems = _exit_ok(out)
    if "distance verified" not in _lines(out):
        problems.append("verify did not print 'distance verified'")
    return problems


def check_smp(out: Output) -> list:
    problems = _exit_ok(out)
    want = (f"searched {SMP_STRATEGIES} strategies: "
            f"min average error = 1/8 ")
    if not any(line.startswith(want) for line in _lines(out)):
        problems.append(f"SMP search did not give 1/8 over {SMP_STRATEGIES} "
                        f"strategies")
    return problems


def check_exact(out: Output, x: str, y: str) -> list:
    problems = _exit_ok(out)
    want = hadamard_distance(x, y) / 2 ** len(x)
    for line in _lines(out):
        match = re.match(r"^exact: pN = (\S+) verdict = NotEqual$", line)
        if match:
            if abs(float(match.group(1)) - want) > 1e-12:
                problems.append(f"exact pN {match.group(1)} != d_H/m "
                                f"= {want!r}")
            return problems
    return problems + ["no exact pN line on stdout"]


# --- corruptions for the self-test -------------------------------------------

def _flip_one_verdict(outputs: list, rng: random.Random) -> tuple:
    out = outputs[0]
    lines = out.files["report.csv"].split(b"\n")
    row = 1 + rng.randrange(REPORT_TRIALS)
    cells = lines[row].split(b",")
    cells[7] = b"Equal" if cells[7] == b"NotEqual" else b"NotEqual"
    lines[row] = b",".join(cells)
    files = dict(out.files, **{"report.csv": b"\n".join(lines)})
    return 0, Output(out.rc, out.stdout, files)


def _wrong_smp_floor(outputs: list) -> tuple:
    out = outputs[2]
    return 2, Output(out.rc, out.stdout.replace(b"= 1/8 ", b"= 1/9 "),
                     out.files)


# --- workloads ----------------------------------------------------------------

def sampled(seed: int) -> Workload:
    rng = random.Random(f"sampled/{seed}")
    x, y = _unequal_pair(rng, SAMPLED_N)
    report_seed, run_seed, noise_seed = (rng.getrandbits(32)
                                         for _ in range(3))
    rows = sorted(rng.sample(range(REPORT_TRIALS), REPLAYED_ROWS))
    code = ("--code", "hadamard", "--n", str(SAMPLED_N), "--x", x, "--y", y,
            "--k", str(K))
    report = ("run", *code, "--trials", str(REPORT_TRIALS),
              "--seed", str(report_seed),
              "--out", "report.csv", "--json", "report.json")
    run = ("run", *code, "--trials", str(MONTECARLO_TRIALS),
           "--seed", str(run_seed))
    sweep = ("feasibility", "--noise", "--pn", repr(NOISE_PN),
             "--k", str(K), "--trials", str(NOISE_TRIALS),
             "--seed", str(noise_seed),
             "--sweep-dark", ",".join(repr(d) for d in DARK_SWEEP),
             "--json", "sweep.json")
    return Workload("sampled", (
        Invocation(report, ("report.csv", "report.json"),
                   lambda out: check_report(out, x, y, report_seed,
                                                    rows)),
        Invocation(run, (), lambda out: check_run(out, x, y)),
        Invocation(sweep, ("sweep.json",),
                   lambda out: check_sweep(out, noise_seed)),
    ), lambda outs: _flip_one_verdict(outs, rng))


def certify(seed: int) -> Workload:
    rng = random.Random(f"certify/{seed}")
    code_seed = rng.getrandbits(32)
    # equal weights keep the encoding work independent of the seed
    x, y = _unequal_pair(rng, EXACT_N, ones=EXACT_N // 2)
    return Workload("certify", (
        Invocation(("codes", "export", "--kind", "random", "--n", "20",
                    "--m", "64", "--seed", str(code_seed),
                    "--out", "code.txt"), ("code.txt",), check_export),
        Invocation(("codes", "verify", "--in", "code.txt"), (),
                   check_verify),
        Invocation(("classical", "--q", "4", "--alice", "3", "--bob", "3"),
                   (), check_smp),
        Invocation(("run", "--exact", "--code", "hadamard",
                    "--n", str(EXACT_N), "--x", x, "--y", y), (),
                   lambda out: check_exact(out, x, y)),
    ), _wrong_smp_floor)


WORKLOADS = {"sampled": sampled, "certify": certify}

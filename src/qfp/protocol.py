"""End-to-end equality fingerprinting on the split single photon.

Alice and Bob encode their inputs as phase flips on the modes of the
shared photon (angle pi times each codeword bit); the referee recombines
the branches and watches the two output ports.  Equal inputs can never
light the N port, so the referee answers NotEqual exactly when some run
clicks N, and the only possible error is missing an unequal pair.  With
codeword distance t out of m, an unequal pair clicks N with probability
d_H/m >= t/m per run, and k independent runs push the miss probability
below (1 - t/m)^k.

Mode i's port amplitudes depend only on the bit pair (e(x)_i, e(y)_i), so
the code protocols evaluate :func:`qfp.modes.interferometer` once per bit
pair and read the result per mode; no ``(2, m)`` state is built.  pN is
summed leaf by leaf in numpy's pairwise order, with no m-float gather,
and a sampled run draws against it alone: a run clicks N iff its uniform
u >= 1 - pN, which equal inputs (pN = 0, threshold 1) never reach.

Small-alphabet variants (one symbol, one mode, phase 2*pi*x/q) are
included; they are the q-ary one-mode case of the same interferometer,
evaluated for all q^2 symbol pairs in one call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels, reports
from .ecc import Code, bits_to_hex, encode
from .errors import DimensionError, DomainError, check
from .modes import interferometer


class Verdict(enum.Enum):
    EQUAL = "Equal"
    NOT_EQUAL = "NotEqual"


def check_target_error(epsilon: float) -> None:
    """A one-sided error target must lie in (0, 1/2)."""
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")


@dataclass(frozen=True)
class ProtocolParams:
    """Input length, code, repetition count and target error."""

    n: int
    code: Code
    k: int
    epsilon: float

    def __post_init__(self):
        if self.n != self.code.n:
            raise DimensionError(
                f"n = {self.n} does not match code.n = {self.code.n}"
            )
        if self.k < 1:
            raise DomainError(f"repetition count must be >= 1, got {self.k}")
        check_target_error(self.epsilon)

    @classmethod
    def for_error_target(cls, code: Code, epsilon: float) -> "ProtocolParams":
        """Pick k so the miss bound (1 - t/m)^k reaches ``epsilon``."""
        k = (1 if code.t == code.m
             else repetitions_needed(code.t / code.m, epsilon))
        return cls(code.n, code, k, epsilon)


class RunResult(NamedTuple):
    """Outcome of one sampled k-run protocol: the verdict, the exact
    per-run N-port probability, how many of the k runs clicked N, and the
    substream seed that replays it."""

    verdict: Verdict
    pn_exact: float
    n_clicks_not_equal: int
    seed: int


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Outcome of many independently seeded sampled protocols: entry j of
    the tally counts the trials with j N clicks, and the threshold
    ``c = 1 - pn_exact`` and the master seed draw every trial again."""

    pn_exact: float
    c: float
    k: int
    master_seed: int
    tally: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.tally.sum())

    @property
    def n_not_equal(self) -> int:
        return self.trials - int(self.tally[0])

    @property
    def not_equal_fraction(self) -> float:
        return self.n_not_equal / self.trials


# branch phases (A, B) of the four bit-pair classes; class c carries
# phase pi * (c >> 1) on branch A and pi * (c & 1) on branch B
_CLASS_PHASES = np.pi * np.array([[0, 0, 1, 1], [0, 1, 0, 1]],
                                 dtype=np.uint8)


# modes gathered at once, per leaf of pN's sum: at least numpy's pairwise
# block of 128 values, so no leaf splits a range that numpy sums in one piece
_PN_LEAF = 1 << 12


def _pairwise_sum(values: np.ndarray, index: np.ndarray) -> float:
    # float(values[index].sum()), one leaf gathered at a time: numpy splits
    # a sum of more than 128 values at n // 2 rounded down to a multiple
    # of 8, and this splits at the same points
    n = index.shape[0]
    if n <= _PN_LEAF:
        return float(np.add.reduce(values[index]))
    half = n // 2 - n // 2 % 8
    return (_pairwise_sum(values, index[:half])
            + _pairwise_sum(values, index[half:]))


def run_exact(code: Code, x, y) -> float:
    """Exact N-port probability for one run: equals d_H(e(x), e(y)) / m.

    Mode i has the port statistics of its bit-pair class
    (e(x)_i << 1) | e(y)_i, one byte per mode, built in place.  The m
    per-mode N-port values are summed leaf by leaf in numpy's pairwise
    order: numpy's sum of them, bit for bit, with one leaf held.  A sum
    that rounds past 1 is clamped to 1.
    """
    pair = encode(code, x)
    pair <<= 1
    pair |= encode(code, y)
    pn = _pairwise_sum(interferometer(_CLASS_PHASES, code.m)[1], pair)
    return min(pn, 1.0)


def run_sampled(params: ProtocolParams, x, y, seed: int) -> RunResult:
    """Sample one k-run protocol; NotEqual iff any run clicks port N.

    Reproducible: the k runs are drawn from the splitmix64 substream at
    ``seed`` (recorded in the result for replay) by the block sampler of
    :func:`run_batch`, so a batch trial's seed replays it exactly.
    """
    pn = run_exact(params.code, x, y)
    n_clicks = kernels.replay_click_count(1.0 - pn, params.k, seed)
    verdict = Verdict.NOT_EQUAL if n_clicks else Verdict.EQUAL
    return RunResult(verdict, pn, n_clicks, int(seed) & (2**64 - 1))


def run_batch(params: ProtocolParams, x, y, master_seed: int,
              trials: int) -> BatchResult:
    """Sample ``trials`` independent protocols from one master seed.

    Trial i uses the substream seeded with output i + 1 of the master
    stream; ``run_sampled`` with that seed replays the trial.  Only the
    k + 1 entries of the N-click tally are kept, so memory does not grow
    with ``trials``; :func:`batch_rows` draws the trials again.  More runs
    than ``errors.LIMITS["runs"]`` raise ``ResourceLimitError`` first.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    kernels.check_runs(params.k, trials)
    pn = run_exact(params.code, x, y)
    c = 1.0 - pn
    return BatchResult(pn, c, params.k, int(master_seed) & (2**64 - 1),
                       kernels.click_counts(c, params.k, trials, master_seed))


def repetitions_needed(nu: float, epsilon: float) -> int:
    """Smallest k with (1 - nu)^k <= epsilon.

    Computed as ceil(ln eps / ln(1 - nu)) and then checked against the
    defining inequality at k and k - 1, which kills floating-point
    boundary artifacts (the log ratio may land a hair on the wrong side).
    """
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu must lie in (0, 1), got {nu!r}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    base = 1.0 - nu
    k = max(1, math.ceil(math.log(epsilon) / math.log(base)))
    while base**k > epsilon:
        k += 1
    while k > 1 and base ** (k - 1) <= epsilon:
        k -= 1
    return k


def amplified_error_bound(nu: float, k: int) -> float:
    """Worst-case probability of a false Equal after k runs: (1 - nu)^k."""
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu must lie in (0, 1), got {nu!r}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return (1.0 - nu) ** k


# --- small-alphabet phase protocols ----------------------------------------

def _check_alphabet(q: int) -> None:
    if q < 2:
        raise DomainError(f"alphabet size q must be >= 2, got {q}")


def check_symbol(q: int, value: int, name: str) -> None:
    """A phase-protocol symbol must lie in 0..q-1."""
    if not 0 <= value < q:
        raise DomainError(f"{name} = {value} outside 0..{q - 1}")


def _symbol_phases(q: int, x, y) -> np.ndarray:
    # Alice's phase 2*pi*x/q over Bob's 2*pi*y/q, one column per pair
    return np.stack([2.0 * np.pi * np.asarray(x, dtype=np.float64) / q,
                     2.0 * np.pi * np.asarray(y, dtype=np.float64) / q])


def phase_protocol_pn(q: int, x: int, y: int) -> float:
    """N-port probability for single-symbol inputs encoded as phases.

    One internal mode; Alice applies phase 2*pi*x/q and Bob 2*pi*y/q.
    Runs the interferometer on that one column; the closed form is
    sin^2(pi (x - y) / q) and the two agree to machine precision.
    """
    _check_alphabet(q)
    check_symbol(q, x, "x")
    check_symbol(q, y, "y")
    return float(interferometer(_symbol_phases(q, [x], [y]), 1)[1, 0])


def phase_protocol_table(q: int) -> tuple[np.ndarray, float]:
    """N-port probability of every symbol pair, and the average error.

    Returns a read-only ``(q, q)`` array whose entry ``[x, y]`` equals
    ``phase_protocol_pn(q, x, y)``, and the average of
    :func:`phase_protocol_average_error`.  The table is evaluated one x
    row at a time, so no temporary outgrows a row.  More pairs than
    ``errors.LIMITS["phase pairs"]`` raise ``ResourceLimitError`` before
    anything is allocated.
    """
    _check_alphabet(q)
    check("phase pairs", (q, 2))
    symbols = np.arange(q)
    table = np.empty((q, q))
    total = 0.0
    for x in range(q):
        table[x] = interferometer(_symbol_phases(q, np.full(q, x), symbols),
                                  1)[1]
        # 1 - pN over x != y in x-major order, summed left to right
        unequal = 1.0 - np.delete(table[x], x)
        total = float(np.cumsum(np.concatenate(([total], unequal)))[-1])
    table.setflags(write=False)
    return table, total / (q * q)


def phase_protocol_average_error(q: int) -> float:
    """Referee error averaged over uniform (x, y) pairs.

    The referee answers with the port label, so equal pairs never err and
    an unequal pair errs with probability 1 - pN: the average is
    (1/q^2) sum_{x != y} (1 - pN(x, y)).
    """
    return phase_protocol_table(q)[1]


# --- report rows ------------------------------------------------------------

RUN_CSV_FIELDS = ("n", "m", "t", "k", "x_hex", "y_hex", "pN_exact",
                  "verdict", "n_clicks_N", "seed")


def _run_row(code: Code, k, x, y, pn, verdict, n_clicks, seed) -> dict:
    return dict(zip(RUN_CSV_FIELDS,
                    (code.n, code.m, code.t, k, bits_to_hex(x),
                     bits_to_hex(y), pn, verdict, n_clicks, seed),
                    strict=True))


def exact_report_row(code: Code, x, y) -> dict:
    """Single CSV/JSON row for an exact (non-sampled) evaluation."""
    pn = run_exact(code, x, y)
    verdict = Verdict.EQUAL if pn == 0.0 else Verdict.NOT_EQUAL
    return _run_row(code, None, x, y, pn, verdict.value, None, None)


def batch_rows(params: ProtocolParams, x, y,
               batch: BatchResult) -> reports.Rows:
    """Report rows of a batch, one per trial, replayable from its seed:
    keyed by N-click count, which gives the verdict too, seed last.

    The rows draw the trials again, a kernel block at a time, as they are
    read.  A report states the batch's NotEqual fraction before its first
    row, so the tally must be complete before any row is written, and one
    pass would have to hold a count per trial: two draws keep memory flat
    in the trials."""
    def cells(count):
        return [(Verdict.NOT_EQUAL if count else Verdict.EQUAL).value, count]

    blocks = ((counts, [seeds]) for counts, seeds in kernels.click_blocks(
        batch.c, batch.k, batch.trials, batch.master_seed))
    return reports.Rows(_run_row(params.code, params.k, x, y, batch.pn_exact,
                                 *[reports.SLOT] * 3), cells, blocks)


PHASE_CSV_FIELDS = ("q", "x", "y", "pN_exact", "referee_error", "avg_error")


def phase_rows(q: int, table: np.ndarray, avg: float, pairs) -> reports.Rows:
    """Report rows of the symbol ``pairs`` (x * q + y for (x, y)) from the
    ``table`` and ``avg`` of :func:`phase_protocol_table`, keyed by x, read
    q pairs at a time."""
    def blocks():
        for start in range(0, len(pairs), q):
            x, y = np.divmod(pairs[start:start + q], q)
            pn = table[x, y]
            yield x, [y, pn, np.where(x == y, pn, 1.0 - pn)]

    template = dict(zip(PHASE_CSV_FIELDS, (q, *[reports.SLOT] * 4, avg)))
    return reports.Rows(template, lambda x: [x], blocks())

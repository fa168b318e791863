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
pair and gather the result per mode; no ``(2, m)`` complex state is built.

Small-alphabet variants (one symbol, one mode, phase 2*pi*x/q) are
included; they are the q-ary one-mode case of the same interferometer,
evaluated for all q^2 symbol pairs in one call.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Iterator

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
        """Pick k so the miss probability bound reaches ``epsilon``."""
        k = repetitions_needed(code.t / code.m, epsilon)
        return cls(code.n, code, k, epsilon)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one sampled k-run protocol: the verdict, the exact
    per-run N-port probability, how many of the k runs clicked N, and the
    substream seed that replays it."""

    verdict: Verdict
    pn_exact: float
    n_clicks_not_equal: int
    seed: int


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Outcome of many independently seeded sampled protocols."""

    pn_exact: float
    k: int
    master_seed: int
    n_clicks: np.ndarray

    @property
    def trial_seeds(self) -> np.ndarray:
        """Substream seed of each trial, derived from ``master_seed``."""
        return kernels.derive_stream_seeds(self.master_seed, self.trials)

    @property
    def trials(self) -> int:
        return int(self.n_clicks.shape[0])

    @property
    def n_not_equal(self) -> int:
        return int(np.count_nonzero(self.n_clicks))

    @property
    def not_equal_fraction(self) -> float:
        return self.n_not_equal / self.trials


# branch phases (A, B) of the four bit-pair classes; class c carries
# phase pi * (c >> 1) on branch A and pi * (c & 1) on branch B
_CLASS_PHASES = np.pi * np.array([[0, 0, 1, 1], [0, 1, 0, 1]],
                                 dtype=np.uint8)


def _port_table(code: Code, x, y) -> tuple[np.ndarray, np.ndarray]:
    # port statistics of the four bit-pair classes, and each mode's class
    # (e(x)_i << 1) | e(y)_i, one byte per mode, built in place
    pair = encode(code, x)
    pair <<= 1
    pair |= encode(code, y)
    return interferometer(_CLASS_PHASES, code.m), pair


def run_exact(code: Code, x, y) -> float:
    """Exact N-port probability for one run: equals d_H(e(x), e(y)) / m."""
    table, pair = _port_table(code, x, y)
    return float(table[1][pair].sum())


def _port_distribution(code: Code, x, y) -> tuple[np.ndarray, float]:
    # the 2m per-mode probabilities, E port then N port, and pN
    table, pair = _port_table(code, x, y)
    per_mode = np.take(table, pair, axis=1)
    return per_mode.ravel(), float(per_mode[1].sum())


def run_sampled(params: ProtocolParams, x, y, seed: int) -> RunResult:
    """Sample one k-run protocol; NotEqual iff any run clicks port N.

    Reproducible: the k runs are drawn from the splitmix64 substream at
    ``seed`` (recorded in the result for replay) by the block sampler of
    :func:`run_batch`, so a batch trial's seed replays it exactly.
    """
    probs, pn = _port_distribution(params.code, x, y)
    n_clicks = kernels.replay_click_count(probs, params.k, seed)
    verdict = Verdict.NOT_EQUAL if n_clicks else Verdict.EQUAL
    return RunResult(verdict, pn, n_clicks, int(seed) & (2**64 - 1))


def run_batch(params: ProtocolParams, x, y, master_seed: int,
              trials: int) -> BatchResult:
    """Sample ``trials`` independent protocols from one master seed.

    Trial i uses the substream seeded with ``trial_seeds[i]``;
    ``run_sampled`` with that seed reproduces the trial exactly.  Only the
    N-click counts are stored, in the smallest unsigned type that holds k;
    the seeds are derived again whenever they are read.  More runs than
    ``errors.LIMITS["runs"]`` raise ``ResourceLimitError`` first.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    kernels.check_runs(params.k, trials)
    probs, pn = _port_distribution(params.code, x, y)
    counts = kernels.click_counts(probs, params.k, trials, master_seed,
                                  dtype=np.min_scalar_type(params.k))
    return BatchResult(pn, params.k, int(master_seed) & (2**64 - 1), counts)


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
    :func:`phase_protocol_average_error`, both from one interferometer
    call over all q^2 pairs.  More pairs than ``errors.LIMITS["phase pairs"]``
    raise ``ResourceLimitError`` before anything is allocated.
    """
    _check_alphabet(q)
    check("phase pairs", (q, 2))
    symbols = np.arange(q)
    pn = interferometer(_symbol_phases(q, np.repeat(symbols, q),
                                       np.tile(symbols, q)), 1)[1]
    table = pn.reshape(q, q)
    # 1 - pN over x != y in x-major order, summed left to right
    unequal = 1.0 - table[~np.eye(q, dtype=bool)]
    total = float(np.cumsum(unequal)[-1])
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


# trials rendered per report chunk; a chunk's text and its encoded copy
# set a report run's peak memory: 2^12 trials cost ~2 MB more than 2^10
_ROW_BLOCK = 1 << 10
_SLOT = "<slot>"  # stands for a per-trial value in a rendered template row


def _template_row(params: ProtocolParams, x, y, batch: BatchResult) -> dict:
    return _run_row(params.code, params.k, x, y, batch.pn_exact,
                    _SLOT, _SLOT, _SLOT)


def _stream_rows(text: str, encode, batch: BatchResult) -> Iterator[str]:
    # ``text`` is a whole report holding two template rows and ``encode``
    # renders one string value in its format.  Both rows agree except at
    # the slots, so splitting at the rendered slot gives the text before
    # the first row, the pieces inside a row, the joint between rows and
    # the text after the last row.  The verdict and the click count both
    # follow from the count, so a row is its count's prefix and its seed;
    # prefixes are rendered once per count that occurs, joined to the
    # seeds one block of trials per chunk.
    head, verdict_to_count, count_to_seed, joint, _, _, tail = text.split(
        encode(_SLOT))
    verdict = {False: encode(Verdict.EQUAL.value),
               True: encode(Verdict.NOT_EQUAL.value)}
    glue = {}  # count -> joint + that count's row prefix
    yield head
    for start in range(0, batch.trials, _ROW_BLOCK):
        clicks = batch.n_clicks[start:start + _ROW_BLOCK]
        for count in np.unique(clicks).tolist():
            if count not in glue:
                glue[count] = (f"{joint}{verdict[count > 0]}"
                               f"{verdict_to_count}{count}{count_to_seed}")
        pieces = [joint] * (2 * clicks.size)
        pieces[::2] = map(glue.__getitem__, clicks.tolist())
        pieces[1::2] = map(str, kernels.derive_stream_seeds(
            batch.master_seed, clicks.size, start).tolist())
        if start == 0:  # no joint before the first row
            pieces[0] = pieces[0][len(joint):]
        yield "".join(pieces)
    yield tail


def batch_report_csv(params: ProtocolParams, x, y,
                     batch: BatchResult) -> Iterator[str]:
    """CSV report of a batch, one row per trial, replayable from its seed.

    Rendered in chunks straight from the batch arrays; the bytes are those
    of ``reports.csv_text(RUN_CSV_FIELDS, rows)`` over one row per trial.
    """
    row = _template_row(params, x, y, batch)
    return _stream_rows(reports.csv_text(RUN_CSV_FIELDS, [row, row]),
                        reports.render_value, batch)


def batch_report_json(params: ProtocolParams, x, y, batch: BatchResult,
                      payload: dict) -> Iterator[str]:
    """JSON report of a batch: ``payload`` with one row per trial, the
    columns of :func:`batch_report_csv`, under "rows".

    Rendered in chunks like :func:`batch_report_csv`; the bytes are those
    of ``reports.json_text`` over the payload with its rows.
    """
    row = _template_row(params, x, y, batch)
    return _stream_rows(reports.json_text({**payload, "rows": [row, row]}),
                        json.dumps, batch)

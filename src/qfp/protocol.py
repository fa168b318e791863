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
the code protocols evaluate the interferometer once per bit pair with
:func:`qfp.modes.pi_phase_ports` and gather the result per mode; no
``(2, m)`` complex state is built.

Small-alphabet variants (one symbol, one mode pair, phase 2*pi*x/q) are
included; they are the q-ary analogues of the same interferometer, and
the only protocols here that build a :class:`qfp.modes.ModeState`.
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
from .errors import DimensionError, DomainError
from .modes import (ModeLabel, Stage, apply_phases, pi_phase_ports,
                    port_probabilities, prepare_split, recombine)


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
    """Outcome of one sampled k-run protocol."""

    verdict: Verdict
    pn_exact: float
    clicks: tuple[ModeLabel, ...]
    seed: int

    @property
    def n_clicks_not_equal(self) -> int:
        return sum(1 for c in self.clicks if c.side == "N")


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

    def verdicts(self) -> list[Verdict]:
        return [Verdict.NOT_EQUAL if c else Verdict.EQUAL
                for c in self.n_clicks]


def _port_table(code: Code, x, y) -> tuple[np.ndarray, np.ndarray]:
    # port statistics of the four bit-pair classes, and each mode's class
    # (e(x)_i << 1) | e(y)_i, one byte per mode
    pair = (encode(code, x) << 1) | encode(code, y)
    return pi_phase_ports(np.bincount(pair, minlength=4)), pair


def run_exact(code: Code, x, y) -> float:
    """Exact N-port probability for one run: equals d_H(e(x), e(y)) / m."""
    table, pair = _port_table(code, x, y)
    return float(table[1][pair].sum())


def _port_distribution(code: Code, x, y) -> tuple[np.ndarray, float]:
    # the 2m per-mode probabilities, E port then N port, and pN
    table, pair = _port_table(code, x, y)
    per_mode = np.take(table, pair, axis=1)
    return per_mode.ravel(), float(per_mode[1].sum())


def _label_for_index(m: int, idx: int) -> ModeLabel:
    side = "E" if idx < m else "N"
    return ModeLabel(Stage.PORT, side, idx % m + 1)


def run_sampled(params: ProtocolParams, x, y, seed: int) -> RunResult:
    """Sample one k-run protocol; NotEqual iff any run clicks port N.

    Reproducible: the k port outcomes are drawn by inverse CDF over the 2m
    per-mode probabilities from the splitmix64 substream at ``seed``
    (recorded in the result for replay).
    """
    probs, pn = _port_distribution(params.code, x, y)
    idx = kernels.sample_indices(probs, params.k, seed)
    clicks = tuple(_label_for_index(params.code.m, int(i)) for i in idx)
    verdict = (Verdict.NOT_EQUAL if any(c.side == "N" for c in clicks)
               else Verdict.EQUAL)
    return RunResult(verdict, pn, clicks, int(seed) & (2**64 - 1))


def run_batch(params: ProtocolParams, x, y, master_seed: int,
              trials: int) -> BatchResult:
    """Sample ``trials`` independent protocols from one master seed.

    Trial i uses the substream seeded with ``trial_seeds[i]``;
    ``run_sampled`` with that seed reproduces the trial exactly.  Only the
    N-click counts are stored, in the smallest unsigned type that holds k;
    the seeds are derived again whenever they are read.  More than
    ``kernels.RUN_BUDGET`` runs in all raise ``ResourceLimitError``.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    kernels.check_run_budget(params.k, trials)
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

def _check_symbol(q: int, value: int, name: str) -> None:
    if not 0 <= value < q:
        raise DomainError(f"{name} = {value} outside 0..{q - 1}")


def phase_protocol_pn(q: int, x: int, y: int) -> float:
    """N-port probability for single-symbol inputs encoded as phases.

    One internal mode; Alice applies phase 2*pi*x/q and Bob 2*pi*y/q.
    Runs the actual interferometer pipeline; the closed form is
    sin^2(pi (x - y) / q) and the two agree to machine precision.
    """
    if q < 2:
        raise DomainError(f"alphabet size q must be >= 2, got {q}")
    _check_symbol(q, x, "x")
    _check_symbol(q, y, "y")
    state = prepare_split(1)
    state = apply_phases(state, "A", [2.0 * np.pi * x / q])
    state = apply_phases(state, "B", [2.0 * np.pi * y / q])
    return port_probabilities(recombine(state)).p_not_equal


def phase_protocol_average_error(q: int) -> float:
    """Referee error averaged over uniform (x, y) pairs.

    The referee answers with the port label, so equal pairs never err and
    an unequal pair errs with probability 1 - pN: the average is
    (1/q^2) sum_{x != y} (1 - pN(x, y)).
    """
    if q < 2:
        raise DomainError(f"alphabet size q must be >= 2, got {q}")
    total = 0.0
    for x in range(q):
        for y in range(q):
            if x != y:
                total += 1.0 - phase_protocol_pn(q, x, y)
    return total / (q * q)


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


# trials rendered per report chunk; the text of a 2^14-trial JSON chunk
# outweighed every per-trial array of the run
_ROW_BLOCK = 1 << 12
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

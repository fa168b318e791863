"""Classical simultaneous-message-passing baselines and bound arithmetic.

Two kinds of results live here.  First, an exhaustive search over every
deterministic SMP strategy on small alphabets (Alice's message map, Bob's
message map, and the referee's decision table), which certifies floors
like "no bit-plus-trit strategy averages below 2/9".  Shared randomness
cannot beat that floor: a shared coin just mixes deterministic strategies,
and the average error of a mixture is the mixture of average errors.
Second, closed-form calculators for the known communication lower bounds
and for the break-even input length where the quantum protocol's qubits
per party undercut the classical bound.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import kernels
from .ecc import justesen_nu
from .errors import DomainError, check
from .protocol import Verdict, check_target_error, repetitions_needed

if TYPE_CHECKING:  # fractions loads decimal, so it is imported on use
    from fractions import Fraction

# (x, y) input pairs per step of the witness re-score
_RESCORE_PAIRS = 1 << 20


class Strategy(NamedTuple):
    """One deterministic SMP strategy, fully tabulated."""

    alice_map: tuple[int, ...]
    bob_map: tuple[int, ...]
    referee: tuple[tuple[Verdict, ...], ...]  # [alice_msg][bob_msg]

    def misclassified_pairs(self) -> int:
        """Input pairs whose decision is wrong, each pair decided and
        compared with x == y on its own, in blocks of x rows."""
        q = len(self.alice_map)
        says_equal = np.array([[v is Verdict.EQUAL for v in row]
                               for row in self.referee])
        alice, bob = np.array(self.alice_map), np.array(self.bob_map)
        y = np.arange(q)
        rows = max(1, _RESCORE_PAIRS // q)
        errors = 0
        for start in range(0, q, rows):
            x = np.arange(start, min(start + rows, q))
            # referee[alice[x]][bob[y]] is Equal, against the truth x == y
            decided = says_equal[alice[x]][:, bob]
            errors += int(np.count_nonzero(decided != (x[:, None] == y)))
        return errors


class SmpSearchResult(NamedTuple):
    """Exact optimum over all deterministic strategies."""

    q: int
    alice_msgs: int
    bob_msgs: int
    average_error: Fraction
    misclassified_pairs: int
    worst_case_error: int  # 0 iff a perfect strategy exists, else 1
    strategies_searched: int
    witness: Strategy


def strategy_space_size(q: int, alice_msgs: int, bob_msgs: int) -> int:
    return (alice_msgs**q) * (bob_msgs**q) * (1 << (alice_msgs * bob_msgs))


def brute_force_smp(q: int, alice_msgs: int, bob_msgs: int) -> SmpSearchResult:
    """Minimum average error over every deterministic SMP strategy.

    The error of a strategy is the fraction of the q^2 uniform input pairs
    it misclassifies, so the result is the exact rational
    (misclassified pairs) / q^2.  The witness is re-scored independently
    of the search kernel before being returned.
    """
    from fractions import Fraction

    if q < 1 or alice_msgs < 1 or bob_msgs < 1:
        raise DomainError("alphabet and message counts must be >= 1")
    # every strategy is scored on the q^2 input pairs
    check("SMP scored pairs", (alice_msgs, q), (bob_msgs, q),
          (2, alice_msgs * bob_msgs), (q, 2))
    best, ai, bi, mask = kernels.smp_exhaustive_search(q, alice_msgs,
                                                       bob_msgs)
    alice_map, bob_map, says_equal = kernels.decode_strategy(
        q, alice_msgs, bob_msgs, ai, bi, mask)
    witness = Strategy(alice_map, bob_map, tuple(
        tuple(Verdict.EQUAL if equal else Verdict.NOT_EQUAL for equal in row)
        for row in says_equal))
    rescored = witness.misclassified_pairs()
    if rescored != best:
        raise AssertionError(
            f"witness re-score {rescored} != search minimum {best}"
        )
    return SmpSearchResult(
        q=q, alice_msgs=alice_msgs, bob_msgs=bob_msgs,
        average_error=Fraction(best, q * q),
        misclassified_pairs=best,
        worst_case_error=0 if best == 0 else 1,
        strategies_searched=strategy_space_size(q, alice_msgs, bob_msgs),
        witness=witness,
    )


class BoundReport(NamedTuple):
    """Communication lower bounds for equality on n-bit inputs."""

    n: int
    ab_lower: float            # product of message lengths a*b
    max_lower: float           # max(a, b)
    shared_bit_lower: float    # per-party bits given one shared random bit
    quantum_cost_per_party: float | None = None
    breakeven: bool | None = None


def smp_equality_lower_bounds(n: int) -> BoundReport:
    """Known floors for private-coin SMP equality with error below 1%.

    Message lengths a (Alice) and b (Bob) must satisfy a*b >= n/400, hence
    max(a, b) >= sqrt(n)/20; one shared random bit can save at most a
    factor 2, leaving sqrt(n)/40 per party.
    """
    if not 1 <= n <= sys.float_info.max:
        raise DomainError(f"n must lie in 1..{sys.float_info.max:.6g} "
                          f"(the float range), got {n}")
    root = math.sqrt(n)
    return BoundReport(n=n, ab_lower=n / 400.0, max_lower=root / 20.0,
                       shared_bit_lower=root / 40.0)


def breakeven_sides(n: int, k: int) -> tuple[float, float]:
    """Both sides of the break-even test at input length n: the quantum
    protocol's total qubits per party, k (1 + log2 n), and the classical
    shared-bit floor sqrt(n)/40."""
    return k * (1.0 + math.log2(n)), math.sqrt(n) / 40.0


def _quantum_beats_classical(n: int, k: int) -> bool:
    quantum, floor = breakeven_sides(n, k)
    return quantum <= floor


def breakeven_n(epsilon: float, mu: float = 2.0) -> int:
    """Smallest input length where the quantum protocol undercuts the
    classical shared-bit floor.

    Uses the rate-1/mu distance nu = justesen_nu(mu) and the matching
    repetition count k; see :func:`breakeven_for_k`.
    """
    return breakeven_for_k(repetitions_needed(justesen_nu(mu), epsilon))


def breakeven_for_k(k: int) -> int:
    """First n with k (1 + log2 n) <= sqrt(n)/40, found by doubling then
    integer bisection.  The crossing is checked on both sides before
    returning.
    """
    hi = 1
    while not _quantum_beats_classical(hi, k):
        hi *= 2
        if hi > 1 << 200:
            raise DomainError(
                "no break-even found below 2^200; parameters out of range"
            )
    lo = max(1, hi // 2)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _quantum_beats_classical(mid, k):
            hi = mid
        else:
            lo = mid
    if not _quantum_beats_classical(hi, k):
        raise AssertionError("bisection lost the crossing")
    if hi > 1 and _quantum_beats_classical(hi - 1, k):
        raise AssertionError("bisection overshot the crossing")
    return hi


def full_bound_report(n: int, epsilon: float, mu: float = 2.0) -> BoundReport:
    """Lower bounds plus the quantum side's total cost and break-even flag.

    ``epsilon`` is the quantum side's one-sided error target, in (0, 1/2).
    """
    check_target_error(epsilon)
    base = smp_equality_lower_bounds(n)
    k = repetitions_needed(justesen_nu(mu), epsilon)
    cost, floor = breakeven_sides(n, k)
    return base._replace(quantum_cost_per_party=cost, breakeven=cost <= floor)

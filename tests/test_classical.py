"""Classical baselines: exhaustive SMP search, bound calculators,
break-even arithmetic."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from qfp import (DomainError, ResourceLimitError, Verdict, breakeven_n,
                 brute_force_smp, full_bound_report,
                 phase_protocol_average_error, smp_equality_lower_bounds,
                 strategy_space_size)
from qfp.classical import Strategy
from qfp.ecc import justesen_nu
from qfp.protocol import repetitions_needed


class TestBruteForceSmp:
    def test_trit_alice_bit_bob_floor(self):
        result = brute_force_smp(3, 3, 2)
        assert result.average_error == Fraction(2, 9)
        assert result.misclassified_pairs == 2
        assert result.strategies_searched == 27 * 8 * 64
        # the witness really achieves the optimum
        assert result.witness.misclassified_pairs() == 2

    def test_full_information_perfect(self):
        assert brute_force_smp(2, 2, 2).average_error == 0
        assert brute_force_smp(3, 3, 3).average_error == 0

    def test_identity_strategy_is_perfect_for_q4(self):
        # the q=4 full-information search exceeds the search guard,
        # but a perfect strategy exists by construction
        referee = tuple(
            tuple(Verdict.EQUAL if i == j else Verdict.NOT_EQUAL
                  for j in range(4))
            for i in range(4))
        strategy = Strategy((0, 1, 2, 3), (0, 1, 2, 3), referee)
        assert strategy.misclassified_pairs() == 0
        with pytest.raises(ResourceLimitError):
            brute_force_smp(4, 4, 4)

    def test_monotone_in_message_counts(self):
        base = brute_force_smp(3, 3, 2).average_error
        assert brute_force_smp(3, 3, 3).average_error <= base
        assert brute_force_smp(3, 2, 2).average_error >= base

    def test_squeezed_both_parties(self):
        # one bit each on trits: exhaustive value
        result = brute_force_smp(3, 2, 2)
        assert result.average_error == Fraction(result.misclassified_pairs, 9)

    def test_worst_case_flag(self):
        assert brute_force_smp(3, 3, 2).worst_case_error == 1
        assert brute_force_smp(2, 2, 2).worst_case_error == 0

    def test_guard_and_size_formula(self):
        assert strategy_space_size(3, 3, 2) == 13824
        with pytest.raises(ResourceLimitError):
            brute_force_smp(5, 4, 5)
        with pytest.raises(DomainError):
            brute_force_smp(0, 1, 1)

    def test_guard_counts_scored_pairs(self):
        # strategies x q^2 input pairs: the q = 4 search with 3 x 3
        # messages fits, a one-map space over a large alphabet does not
        assert brute_force_smp(4, 3, 3).strategies_searched == 81 * 81 * 512
        for shape in ((7072, 1, 1), (3_000_000, 1, 1), (10**20, 1, 1),
                      (10**20, 2, 1), (3, 10**20, 10**20), (4, 4, 4)):
            with pytest.raises(ResourceLimitError,
                               match="SMP scored pairs"):
                brute_force_smp(*shape)

    @pytest.mark.parametrize("kernel", ["numpy"])
    def test_backend_parity(self, kernel):
        # the search kernel against a pure-Python scan of every strategy
        assert brute_force_smp(3, 3, 2).average_error == Fraction(2, 9)
        q, a, b = 3, 2, 2
        verdicts = (Verdict.NOT_EQUAL, Verdict.EQUAL)
        best = min(
            Strategy(alice, bob, tuple(
                tuple(verdicts[(mask >> (i * b + j)) & 1] for j in range(b))
                for i in range(a))).misclassified_pairs()
            for alice in itertools.product(range(a), repeat=q)
            for bob in itertools.product(range(b), repeat=q)
            for mask in range(1 << (a * b)))
        assert brute_force_smp(q, a, b).misclassified_pairs == best


class TestSharedRandomnessFloor:
    def test_mixtures_cannot_beat_pure(self):
        # random mixtures of random deterministic strategies average at
        # or above the deterministic floor (linearity of expectation)
        floor = brute_force_smp(3, 3, 2).average_error
        rng = random.Random(4)
        for _ in range(20):
            support = []
            for _ in range(10):
                alice = tuple(rng.randrange(3) for _ in range(3))
                bob = tuple(rng.randrange(2) for _ in range(3))
                referee = tuple(
                    tuple(rng.choice((Verdict.EQUAL, Verdict.NOT_EQUAL))
                          for _ in range(2))
                    for _ in range(3))
                support.append(Strategy(alice, bob, referee))
            weights = [rng.random() for _ in support]
            total = sum(weights)
            mixture_error = sum(
                w / total * Fraction(s.misclassified_pairs(), 9)
                for w, s in zip(weights, support))
            assert mixture_error >= floor

    def test_quantum_trit_beats_classical_floor(self):
        quantum = phase_protocol_average_error(3)
        floor = brute_force_smp(3, 3, 2).average_error
        assert Fraction(1, 6) < Fraction(2, 9)
        assert quantum < float(floor)
        assert abs(quantum - 1 / 6) < 1e-12


class TestLowerBounds:
    def test_round_point(self):
        report = smp_equality_lower_bounds(400)
        assert report.ab_lower == 1.0
        assert report.max_lower == 1.0
        assert report.shared_bit_lower == 0.5

    def test_ten_billion(self):
        report = smp_equality_lower_bounds(10**10)
        assert report.max_lower == pytest.approx(5000.0)
        assert report.shared_bit_lower == pytest.approx(2500.0)

    def test_single_bit(self):
        assert smp_equality_lower_bounds(1).ab_lower == 0.0025

    def test_domain(self):
        with pytest.raises(DomainError):
            smp_equality_lower_bounds(0)
        # past the float range sqrt(n) and n/400 cannot be formed
        with pytest.raises(DomainError):
            smp_equality_lower_bounds(10**400)
        assert smp_equality_lower_bounds(int(1.7e308)).ab_lower > 4e305


class TestBreakeven:
    def test_crossing_bracketed_and_tight(self):
        n_star = breakeven_n(0.01, 2.0)
        assert 10**9 <= n_star <= 10**11
        k = repetitions_needed(justesen_nu(2.0), 0.01)
        assert k == 67

        def quantum_wins(n):
            return k * (1 + math.log2(n)) <= math.sqrt(n) / 40

        assert quantum_wins(n_star)
        assert not quantum_wins(n_star - 1)
        assert not quantum_wins(n_star // 2)

    def test_inequality_at_ten_billion(self):
        # direct evaluation: 67 * (1 + log2 1e10) ~ 2293 <= 2500
        lhs = 67 * (1 + math.log2(10**10))
        assert lhs == pytest.approx(2292.69, abs=0.01)
        assert lhs <= math.sqrt(10**10) / 40

    def test_weaker_target_smaller_breakeven(self):
        assert breakeven_n(0.3, 2.0) < breakeven_n(0.01, 2.0)

    def test_domain_propagates(self):
        with pytest.raises(DomainError):
            breakeven_n(0.01, 1.5)
        with pytest.raises(DomainError):
            breakeven_n(0.0, 2.0)


class TestFullBoundReport:
    def test_breakeven_flag_flips(self):
        n_star = breakeven_n(0.01, 2.0)
        at = full_bound_report(n_star, 0.01, 2.0)
        below = full_bound_report(n_star // 2, 0.01, 2.0)
        assert at.breakeven is True
        assert below.breakeven is False
        assert at.quantum_cost_per_party == pytest.approx(
            67 * (1 + math.log2(n_star)))

    def test_partial_report_leaves_quantum_fields_empty(self):
        report = smp_equality_lower_bounds(100)
        assert report.quantum_cost_per_party is None
        assert report.breakeven is None

"""Mode-state core: preparation, phase encoding, recombination, statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfp import (DimensionError, ModeState, NormalizationError, Stage,
                 StageMismatchError, apply_phases, port_probabilities,
                 prepare_split, recombine)
from qfp.modes import pi_phase_ports

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_branch_state(rng, m):
    amps = rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m))
    amps /= np.linalg.norm(amps)
    return ModeState(Stage.BRANCH, amps)


class TestPrepareSplit:
    def test_single_mode(self):
        state = prepare_split(1)
        assert state.stage is Stage.BRANCH
        assert state.amps[0, 0] == pytest.approx(INV_SQRT2, abs=1e-12)
        assert state.amps[1, 0] == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_two_modes_quarter_amplitudes(self):
        state = prepare_split(2)
        for row in (0, 1):  # sides A and B
            for i in (0, 1):
                assert state.amps[row, i] == pytest.approx(0.5)

    def test_sixteen_modes_normalized(self):
        state = prepare_split(16)
        assert state.amps[0, 6] == pytest.approx(1 / np.sqrt(32))
        assert abs(np.vdot(state.amps, state.amps).real - 1.0) < 1e-12

    def test_zero_modes_rejected(self):
        with pytest.raises(DimensionError):
            prepare_split(0)


class TestApplyPhases:
    def test_pi_flip_on_alice(self):
        state = apply_phases(prepare_split(1), "A", [np.pi])
        assert state.amps[0, 0].real == pytest.approx(-INV_SQRT2, abs=1e-12)
        assert abs(state.amps[0, 0].imag) < 1e-12
        assert state.amps[1, 0] == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_zero_phases_is_identity(self):
        state = prepare_split(3)
        same = apply_phases(state, "A", [0.0, 0.0, 0.0])
        assert np.array_equal(same.amps, state.amps)

    def test_flip_second_mode_of_bob(self):
        state = prepare_split(2)
        flipped = apply_phases(state, "B", [0.0, np.pi])
        assert flipped.amps[1, 1].real == pytest.approx(-0.5, abs=1e-12)
        for row, i in ((0, 0), (0, 1), (1, 0), (1, 1)):  # A1, A2, B1, B2
            assert abs(flipped.amps[row, i]) == pytest.approx(0.5, abs=1e-12)

    def test_wrong_stage_rejected(self):
        port = recombine(prepare_split(2))
        with pytest.raises(StageMismatchError):
            apply_phases(port, "A", [0.0, 0.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            apply_phases(prepare_split(2), "A", [0.0])

    def test_unknown_side_rejected(self):
        with pytest.raises(StageMismatchError):
            apply_phases(prepare_split(1), "E", [0.0])

    def test_sides_commute_exactly(self):
        rng = np.random.default_rng(1)
        state = random_branch_state(rng, 4)
        pa = rng.uniform(-np.pi, np.pi, 4)
        pb = rng.uniform(-np.pi, np.pi, 4)
        ab = apply_phases(apply_phases(state, "A", pa), "B", pb)
        ba = apply_phases(apply_phases(state, "B", pb), "A", pa)
        assert np.array_equal(ab.amps, ba.amps)

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_norm_preserved(self, m, seed):
        rng = np.random.default_rng(seed)
        state = random_branch_state(rng, m)
        phased = apply_phases(state, "A", rng.uniform(-10, 10, m))
        assert abs(np.vdot(phased.amps, phased.amps).real - 1.0) < 1e-12


class TestRecombine:
    def test_equal_amplitudes_exit_equal_port(self):
        state = ModeState(Stage.BRANCH, [[INV_SQRT2], [INV_SQRT2]])
        out = recombine(state)
        assert out.stage is Stage.PORT
        assert out.amps[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out.amps[1, 0] == 0.0  # exact cancellation

    def test_opposite_amplitudes_exit_not_equal_port(self):
        state = ModeState(Stage.BRANCH, [[INV_SQRT2], [-INV_SQRT2]])
        out = recombine(state)
        assert out.amps[0, 0] == 0.0
        assert out.amps[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_against_explicit_matrix(self):
        # independent 4x4 beam-splitter matrix on basis (A1, A2, B1, B2)
        bs = np.array([
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [1, 0, -1, 0],
            [0, 1, 0, -1],
        ]) / np.sqrt(2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = random_branch_state(rng, 2)
            expected = bs @ state.amps.ravel()
            out = recombine(state)
            assert np.allclose(out.amps.ravel(), expected, atol=1e-12)
            assert abs(np.vdot(out.amps, out.amps).real - 1.0) < 1e-12

    def test_stage_checked_both_ways(self):
        port = recombine(prepare_split(2))
        with pytest.raises(StageMismatchError):
            recombine(port)


class TestPortProbabilities:
    def test_certain_equal_port(self):
        state = ModeState(Stage.PORT, [[1.0], [0.0]])
        stats = port_probabilities(state)
        assert stats.p_equal == 1.0
        assert stats.p_not_equal == 0.0

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        state = recombine(random_branch_state(rng, 5))
        stats = port_probabilities(state)
        assert stats.p_equal + stats.p_not_equal == pytest.approx(1.0,
                                                                  abs=1e-12)
        assert stats.per_mode.shape == (2, 5)

    def test_per_mode_is_read_only_amps_layout(self):
        rng = np.random.default_rng(11)
        for m in (1, 2, 7):
            state = recombine(random_branch_state(rng, m))
            stats = port_probabilities(state)
            assert stats.per_mode.shape == (2, m)
            assert stats.per_mode.dtype == np.float64
            assert np.array_equal(stats.per_mode, np.abs(state.amps) ** 2)
            # the totals are the row sums, bit for bit
            assert stats.p_equal == float(stats.per_mode[0].sum())
            assert stats.p_not_equal == float(stats.per_mode[1].sum())
            with pytest.raises(ValueError):
                stats.per_mode[0, 0] = 0.0

    def test_quarter_sum_identity(self):
        # pN = (1/4) sum |a_i - b_i|^2 for branch-normalized a, b
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = rng.normal(size=3) + 1j * rng.normal(size=3)
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            state = ModeState(Stage.BRANCH,
                              np.stack([a, b]) / np.sqrt(2.0))
            stats = port_probabilities(recombine(state))
            expected = 0.25 * np.sum(np.abs(a - b) ** 2)
            assert stats.p_not_equal == pytest.approx(expected, abs=1e-12)

    def test_branch_stage_rejected(self):
        with pytest.raises(StageMismatchError):
            port_probabilities(prepare_split(2))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8))
    def test_recombine_preserves_norm(self, seed, m):
        rng = np.random.default_rng(seed)
        out = recombine(random_branch_state(rng, m))
        assert abs(np.vdot(out.amps, out.amps).real - 1.0) < 1e-12


class TestPiPhasePorts:
    def test_equal_bits_never_reach_n(self):
        # classes 0 and 3 (both branches alike) cancel exactly on N; the
        # others send the whole mode there
        for m in (1, 5, 1 << 20):
            table = pi_phase_ports([m, 0, 0, 0])
            assert table[1, 0] == 0.0 and table[1, 3] == 0.0
            assert table[0, 0] == pytest.approx(1 / m, rel=1e-12)
            assert table[1, 1] == pytest.approx(1 / m, rel=1e-12)
            assert table[1, 2] == pytest.approx(1 / m, rel=1e-12)
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    def test_no_modes_rejected(self):
        with pytest.raises(DimensionError):
            pi_phase_ports([0, 0, 0, 0])


class TestModeState:
    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            ModeState(Stage.BRANCH, [[1.0], [1.0]])

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionError):
            ModeState(Stage.BRANCH, [1.0, 0.0])

    def test_immutability(self):
        state = prepare_split(2)
        with pytest.raises(ValueError):
            state.amps[0, 0] = 0.0

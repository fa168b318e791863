"""The interferometer, stage by stage: even split, branch phases,
recombining beam splitter, port statistics.  Every stage is observed
through :func:`qfp.modes.interferometer`, one mode per column."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfp import DimensionError, NormalizationError
from qfp.modes import interferometer

# branch phases (A, B) of the four 0/pi bit-pair classes
CLASS_PHASES = np.pi * np.array([[0, 0, 1, 1], [0, 1, 0, 1]])


def random_phases(rng, columns):
    return rng.uniform(-10, 10, (2, columns))


class TestPrepareSplit:
    """Every branch amplitude starts at 1/sqrt(2m), so one mode carries
    1/m of the photon."""

    def test_single_mode(self):
        table = interferometer([[0.0], [0.0]], 1)
        assert table[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert table[1, 0] == 0.0

    def test_two_modes_quarter_amplitudes(self):
        # amplitudes 1/2 per branch: a mode holds half the photon
        table = interferometer(CLASS_PHASES, 2)
        assert table[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert table[1, 1] == pytest.approx(0.5, abs=1e-12)

    def test_sixteen_modes_normalized(self):
        table = interferometer(CLASS_PHASES, 16)
        assert table[0, 3] == pytest.approx(1 / 16, rel=1e-12)
        assert np.all(np.abs(16 * table.sum(axis=0) - 1.0) < 1e-12)

    def test_zero_modes_rejected(self):
        with pytest.raises(DimensionError):
            interferometer(CLASS_PHASES, 0)


class TestApplyPhases:
    def test_pi_flip_on_alice(self):
        # pi on branch A alone sends the whole mode to N
        table = interferometer([[np.pi], [0.0]], 1)
        assert table[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert table[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_phases_is_identity(self):
        # unmodulated branches stay equal: nothing reaches N
        table = interferometer(np.zeros((2, 3)), 3)
        assert np.all(table[1] == 0.0)
        assert table[0] == pytest.approx([1 / 3] * 3, rel=1e-12)

    def test_flip_second_mode_of_bob(self):
        # only the flipped mode reaches N; the other stays on E
        table = interferometer([[0.0, 0.0], [0.0, np.pi]], 2)
        assert table[1, 0] == 0.0
        assert table[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert table[1, 1] == pytest.approx(0.5, abs=1e-12)

    def test_sides_commute_exactly(self):
        # which party imprints which phase does not change the statistics
        phases = random_phases(np.random.default_rng(1), 16)
        assert np.array_equal(interferometer(phases, 4),
                              interferometer(phases[::-1], 4))

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_norm_preserved(self, m, seed):
        table = interferometer(random_phases(np.random.default_rng(seed), 8),
                               m)
        assert np.all(np.abs(m * table.sum(axis=0) - 1.0) < 1e-12)


class TestRecombine:
    def test_equal_amplitudes_exit_equal_port(self):
        # equal branch phases cancel exactly on N, whatever the phase
        phases = np.linspace(-10.0, 10.0, 41)
        table = interferometer(np.stack([phases, phases]), 1)
        assert np.all(table[1] == 0.0)
        assert table[0] == pytest.approx(np.ones(41), abs=1e-12)

    def test_opposite_amplitudes_exit_not_equal_port(self):
        table = interferometer([[0.0], [np.pi]], 1)
        assert table[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert table[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_against_explicit_matrix(self):
        # independent 2x2 beam-splitter matrix on the branch amplitudes
        bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        m = 4
        phases = random_phases(np.random.default_rng(7), 20)
        expected = np.abs(bs @ (np.exp(1j * phases) / np.sqrt(2.0 * m))) ** 2
        assert np.allclose(interferometer(phases, m), expected, atol=1e-15)


class TestPortProbabilities:
    def test_certain_equal_port(self):
        table = interferometer([[1.5], [1.5]], 1)
        assert table[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert table[1, 0] == 0.0

    def test_probabilities_sum_to_one(self):
        table = interferometer(random_phases(np.random.default_rng(5), 5), 1)
        assert table.sum(axis=0) == pytest.approx(np.ones(5), abs=1e-12)

    def test_per_mode_is_read_only_amps_layout(self):
        # row 0 the E port, row 1 the N port, one column per input column
        for columns in (1, 2, 7):
            table = interferometer(np.zeros((2, columns)), 2)
            assert table.shape == (2, columns)
            assert table.dtype == np.float64
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    def test_quarter_sum_identity(self):
        # pN = |e^(i alpha) - e^(i beta)|^2 / 4m = sin^2((alpha - beta)/2)/m
        m = 3
        phases = random_phases(np.random.default_rng(9), 25)
        expected = np.sin((phases[0] - phases[1]) / 2) ** 2 / m
        assert np.allclose(interferometer(phases, m)[1], expected,
                           atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 1 << 20))
    def test_recombine_preserves_norm(self, seed, m):
        table = interferometer(random_phases(np.random.default_rng(seed), 8),
                               m)
        assert np.all(np.abs(m * table.sum(axis=0) - 1.0) < 1e-12)

    def test_unnormalized_column_rejected(self):
        # a non-finite phase leaves one column without norm 1
        phases = np.zeros((2, 5))
        phases[1, 3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NormalizationError):
            interferometer(phases, 2)


class TestPiPhasePorts:
    """The four 0/pi bit-pair classes the code protocols evaluate."""

    def test_equal_bits_never_reach_n(self):
        # classes 0 and 3 (both branches alike) cancel exactly on N; the
        # others send the whole mode there
        for m in (1, 5, 1 << 20):
            table = interferometer(CLASS_PHASES, m)
            assert table[1, 0] == 0.0 and table[1, 3] == 0.0
            assert table[0, 0] == pytest.approx(1 / m, rel=1e-12)
            assert table[1, 1] == pytest.approx(1 / m, rel=1e-12)
            assert table[1, 2] == pytest.approx(1 / m, rel=1e-12)

    def test_no_modes_rejected(self):
        with pytest.raises(DimensionError):
            interferometer(CLASS_PHASES, -1)

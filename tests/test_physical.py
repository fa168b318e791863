"""Feasibility arithmetic, photon statistics, and the noisy Monte Carlo."""

import math
from dataclasses import replace

import pytest

from qfp import (DomainError, ImperfectionModel, conditional_error_with_noise,
                 feasible_d, kernels, photon_number_distribution)
from qfp.errors import LIMITS, ResourceLimitError
from qfp.physical import dark_count_sweep


def poisson_tail_oracle(mean, terms=60):
    """Independent series evaluation of P(X >= 2)."""
    total = 0.0
    for j in range(2, terms):
        total += mean**j * math.exp(-mean) / math.factorial(j)
    return total


class TestPhotonStatistics:
    def test_dark_source(self):
        assert photon_number_distribution(0.0) == (1.0, 0.0, 0.0)

    def test_weak_coherent_values(self):
        dist = photon_number_distribution(0.1)
        assert dist.p_zero == pytest.approx(math.exp(-0.1), abs=1e-15)
        assert dist.p_one == pytest.approx(0.1 * math.exp(-0.1), abs=1e-15)
        assert dist.p_one == pytest.approx(0.0905, abs=5e-5)
        assert dist.p_multi == pytest.approx(0.0047, abs=5e-5)

    @pytest.mark.parametrize("mean", [0.01, 0.1, 0.5, 1.0, 3.7])
    def test_normalization_and_tail_series(self, mean):
        dist = photon_number_distribution(mean)
        assert dist.p_zero + dist.p_one + dist.p_multi == pytest.approx(
            1.0, abs=1e-12)
        assert dist.p_multi == pytest.approx(poisson_tail_oracle(mean),
                                             abs=1e-12)

    def test_negative_mean_rejected(self):
        with pytest.raises(DomainError):
            photon_number_distribution(-0.1)


class TestFeasibleD:
    def test_ten_km_nanosecond_train(self):
        model = ImperfectionModel(separation=10_000.0, pulse_period=1e-9,
                                  refractive_index=1.0)
        slots = feasible_d(model)
        assert slots.d_vacuum == 33356
        assert slots.d_fiber == 33356
        assert slots.d_nominal_3us == 3000

    def test_fiber_index_extends_window(self):
        model = ImperfectionModel(separation=10_000.0, pulse_period=1e-9)
        slots = feasible_d(model)
        assert slots.d_fiber == 48967
        assert slots.d_vacuum == 33356

    def test_slow_train_has_no_slots(self):
        model = ImperfectionModel(separation=10_000.0, pulse_period=1.0)
        assert feasible_d(model) == (0, 0, 0)

    def test_window_factor(self):
        half = ImperfectionModel(separation=10_000.0, pulse_period=1e-9,
                                 refractive_index=1.0, window_factor=0.5)
        assert feasible_d(half).d_vacuum == 16678

    def test_monotonicity(self):
        base = ImperfectionModel(separation=5_000.0, pulse_period=2e-9,
                                 refractive_index=1.2)
        ref = feasible_d(base)
        slower = ImperfectionModel(separation=5_000.0, pulse_period=4e-9,
                                   refractive_index=1.2)
        farther = ImperfectionModel(separation=9_000.0, pulse_period=2e-9,
                                    refractive_index=1.2)
        denser = ImperfectionModel(separation=5_000.0, pulse_period=2e-9,
                                   refractive_index=1.5)
        assert feasible_d(slower).d_vacuum <= ref.d_vacuum
        assert feasible_d(farther).d_vacuum >= ref.d_vacuum
        assert feasible_d(denser).d_fiber >= ref.d_fiber

    def test_model_validation(self):
        bad = [
            dict(mean_photon_number=-1.0),
            dict(transmission=0.0),
            dict(transmission=1.5),
            dict(detector_efficiency=0.0),
            dict(dark_count_prob=1.0),
            dict(dark_count_prob=-0.1),
            dict(pulse_period=0.0),
            dict(separation=0.0),
            dict(refractive_index=0.5),
            dict(window_factor=0.0),
        ]
        for kwargs in bad:
            with pytest.raises(DomainError):
                ImperfectionModel(**kwargs)


class TestNoisyProtocol:
    def test_noiseless_deterministic_matches_clean_engine(self):
        model = ImperfectionModel(deterministic_source=True,
                                  transmission=1.0, detector_efficiency=1.0,
                                  dark_count_prob=0.0)
        trials = 40_000
        rates = conditional_error_with_noise(model, 0.5, 10, trials, seed=5)
        expected = 0.5**10  # the clean protocol's miss probability
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert rates.abort_rate == 0.0
        assert rates.false_notequal_rate == 0.0
        assert abs(rates.false_equal_rate - expected) < 3 * sigma

    def test_abort_rate_matches_source_and_loss(self):
        model = ImperfectionModel(mean_photon_number=0.1, transmission=0.8,
                                  detector_efficiency=0.9,
                                  dark_count_prob=0.0)
        k, trials = 3, 40_000
        rates = conditional_error_with_noise(model, 0.5, k, trials, seed=9)
        p1 = photon_number_distribution(0.1).p_one
        p_keep = p1 * 0.8 * 0.9
        expected = (1 - p_keep) ** k
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(rates.abort_rate - expected) < 3 * sigma

    def test_false_equal_with_loss_matches_closed_form(self):
        model = ImperfectionModel(mean_photon_number=0.2, transmission=0.7,
                                  detector_efficiency=1.0,
                                  dark_count_prob=0.0)
        k, trials, pn = 4, 40_000, 0.6
        rates = conditional_error_with_noise(model, pn, k, trials, seed=13)
        p_keep = photon_number_distribution(0.2).p_one * 0.7
        expected = (1 - p_keep * pn) ** k - (1 - p_keep) ** k
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(rates.false_equal_rate - expected) < 3 * sigma

    def test_dark_counts_break_one_sidedness(self):
        # equal inputs can now be flagged NotEqual, but no more often than
        # the chance of any dark count on the N detector's k*d slots
        model = ImperfectionModel(mean_photon_number=0.1, transmission=0.5,
                                  detector_efficiency=1.0,
                                  dark_count_prob=1e-3)
        k, slots, trials = 5, 100, 20_000
        rates = conditional_error_with_noise(model, 0.0, k, trials, seed=17,
                                             slots=slots)
        envelope = 1 - (1 - 1e-3) ** (slots * k)
        assert rates.truth_equal
        assert rates.false_notequal_rate > 0.0
        assert rates.false_notequal_rate <= envelope
        assert rates.false_equal_rate == 0.0  # structurally zero when x = y

    def test_rates_bounded_and_accounted(self):
        model = ImperfectionModel(mean_photon_number=0.3, transmission=0.6,
                                  detector_efficiency=0.8,
                                  dark_count_prob=1e-4)
        rates = conditional_error_with_noise(model, 0.25, 6, 5_000, seed=21,
                                             slots=500)
        assert rates.n_equal + rates.n_not_equal + rates.n_abort == 5_000
        for value in (rates.false_equal_rate, rates.false_notequal_rate,
                      rates.abort_rate):
            assert 0.0 <= value <= 1.0

    def test_slot_window_defaults_to_geometry(self):
        model = ImperfectionModel(separation=10_000.0, pulse_period=1e-9,
                                  refractive_index=1.0,
                                  deterministic_source=True,
                                  dark_count_prob=0.0)
        # equivalent runs: explicit slots equal to the geometric window
        a = conditional_error_with_noise(model, 0.5, 2, 500, seed=3)
        b = conditional_error_with_noise(model, 0.5, 2, 500, seed=3,
                                         slots=33356)
        assert a == b

    def test_reproducible_given_seed(self):
        model = ImperfectionModel(mean_photon_number=0.2,
                                  dark_count_prob=1e-4)
        a = conditional_error_with_noise(model, 0.3, 4, 2_000, seed=7,
                                         slots=200)
        b = conditional_error_with_noise(model, 0.3, 4, 2_000, seed=7,
                                         slots=200)
        assert a == b

    def test_domain_checks(self):
        model = ImperfectionModel()
        with pytest.raises(DomainError):
            conditional_error_with_noise(model, 1.5, 1, 10, seed=0)
        with pytest.raises(DomainError):
            conditional_error_with_noise(model, 0.5, 0, 10, seed=0)
        with pytest.raises(DomainError):
            conditional_error_with_noise(model, 0.5, 1, 0, seed=0)
        for slots in (-1, 10**400):  # past the float range of the cdf
            with pytest.raises(DomainError):
                conditional_error_with_noise(model, 0.5, 1, 10, seed=0,
                                             slots=slots)


class TestDarkCountSweep:
    MODEL = ImperfectionModel(mean_photon_number=0.8, transmission=0.9,
                              detector_efficiency=0.8)

    @pytest.mark.parametrize("trial_block, slots",
                             [(1 << 14, 1 << 16), (7, 1 << 16), (7, 40),
                              (64, 96)])
    @pytest.mark.parametrize("darks", [(0.0, 1e-4, 1e-3, 0.3),
                                       (0.0, 0.0, 0.0)], ids=["mixed", "zero"])
    @pytest.mark.parametrize("pn", [0.0, 0.25])
    def test_rows_equal_per_point_results(self, monkeypatch, trial_block,
                                          slots, darks, pn):
        # one pass of draws for every point, tallied a kernel block at a
        # time, for short and long dark-count windows; each point on its
        # own is the reference
        monkeypatch.setattr(kernels, "_TRIAL_BLOCK", trial_block)
        rows = dark_count_sweep(self.MODEL, list(darks), pn, 3, 300, 41,
                                slots=slots)
        assert rows == [conditional_error_with_noise(
            replace(self.MODEL, dark_count_prob=dark), pn, 3, 300, 41,
            slots=slots) for dark in darks]

    def test_every_value_checked_first(self):
        with pytest.raises(DomainError, match="dark_count_prob"):
            dark_count_sweep(self.MODEL, [0.0, 1.0], 0.25, 1, 10, 0)

    def test_points_charged_before_any_draw(self):
        points = LIMITS["sweep points"]
        assert len(dark_count_sweep(self.MODEL, [0.0] * points, 0.25, 1, 10,
                                    0)) == points
        with pytest.raises(ResourceLimitError, match="sweep points: "):
            dark_count_sweep(self.MODEL, [0.0] * (points + 1), 0.25, 1, 10, 0)
        # k x one block of trials fills the run budget at one point
        k = LIMITS["runs"] // kernels._TRIAL_BLOCK
        with pytest.raises(ResourceLimitError, match="runs: "):
            dark_count_sweep(self.MODEL, [0.0, 0.0], 0.25, k, 1, 0)

"""Feasibility arithmetic and imperfection modeling for a pulse-train
realization.

The photon is a weak coherent pulse train from a mode-locked laser: the
attainable internal dimension d is set by how many pulse slots fit in the
light-travel window between the parties, and the error rates degrade with
source statistics (Poisson photon number), end-to-end loss and detector
dark counts.  Everything here is desk arithmetic plus seeded Monte Carlo;
no hardware is driven.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DomainError, check

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value
DEFAULT_FIBER_INDEX = 1.468
NOMINAL_WINDOW_S = 3e-6  # widely quoted 3 microsecond figure for a
                         # 10 km fiber link; reported alongside the
                         # travel-time values so the mismatch is visible


@dataclass(frozen=True)
class ImperfectionModel:
    """Source, loss, detector and geometry parameters of the apparatus."""

    mean_photon_number: float = 0.1     # per pulse train
    transmission: float = 1.0           # end-to-end
    detector_efficiency: float = 1.0
    dark_count_prob: float = 0.0        # per detector per time slot
    pulse_period: float = 1e-9          # seconds
    separation: float = 10_000.0        # Alice-Bob distance L, meters
    refractive_index: float = DEFAULT_FIBER_INDEX
    deterministic_source: bool = False  # exactly one photon per train
    window_factor: float = 1.0          # usable window as multiple of L/c

    def __post_init__(self):
        checks = (
            (0.0 <= self.mean_photon_number < math.inf,
             "mean_photon_number finite and >= 0"),
            (0.0 < self.transmission <= 1.0, "transmission in (0, 1]"),
            (0.0 < self.detector_efficiency <= 1.0,
             "detector_efficiency in (0, 1]"),
            (0.0 <= self.dark_count_prob < 1.0, "dark_count_prob in [0, 1)"),
            (self.pulse_period > 0.0, "pulse_period > 0"),
            (self.separation > 0.0, "separation > 0"),
            (self.refractive_index >= 1.0, "refractive_index >= 1"),
            (self.window_factor > 0.0, "window_factor > 0"),
        )
        for ok, what in checks:
            if not ok:
                raise DomainError(f"imperfection model requires {what}")


class PhotonSplit(NamedTuple):
    """Poisson photon-number statistics of the attenuated train."""

    p_zero: float
    p_one: float
    p_multi: float


def photon_number_distribution(mean_photon_number: float) -> PhotonSplit:
    """Probabilities of 0, 1 and >= 2 photons for a coherent pulse train."""
    if not 0.0 <= mean_photon_number < math.inf:
        raise DomainError(f"mean photon number must be finite and >= 0, "
                          f"got {mean_photon_number!r}")
    p0 = math.exp(-mean_photon_number)
    p1 = mean_photon_number * p0
    return PhotonSplit(p0, p1, 1.0 - p0 - p1)


class FeasibleD(NamedTuple):
    """Attainable mode counts for the pulse-train geometry.

    ``d_vacuum`` and ``d_fiber`` count pulse slots in the light-travel
    window L/c (times the configured window factor) in vacuum and in
    fiber.  ``d_nominal_3us`` counts slots in the nominal 3 microsecond
    window often quoted for this geometry; at 10 km it disagrees with the
    travel time (about 33 microseconds in vacuum), so all three are
    reported and the discrepancy is left visible as data.
    """

    d_vacuum: int
    d_fiber: int
    d_nominal_3us: int


def feasible_d(model: ImperfectionModel) -> FeasibleD:
    """Slot counts for the model's separation, period and index."""
    window = model.window_factor * model.separation / SPEED_OF_LIGHT
    counts = (window / model.pulse_period,
              window * model.refractive_index / model.pulse_period,
              NOMINAL_WINDOW_S / model.pulse_period)
    if not all(map(math.isfinite, counts)):
        raise DomainError(f"slot counts {counts} are not finite: the window "
                          f"is too long for the pulse period")
    return FeasibleD(*map(int, counts))


class NoiseRates(NamedTuple):
    """Monte Carlo error rates of the noisy protocol, with binomial
    standard errors.

    A trial aborts when none of its k runs yields a clean single
    detection.  ``false_equal_rate`` is populated when the inputs truly
    differ (pN > 0), ``false_notequal_rate`` when they are equal; the
    other is structurally zero.
    """

    trials: int
    truth_equal: bool
    n_equal: int
    n_not_equal: int
    n_abort: int
    false_equal_rate: float
    false_equal_stderr: float
    false_notequal_rate: float
    false_notequal_stderr: float
    abort_rate: float
    abort_stderr: float


def _rate(count: int, trials: int) -> tuple[float, float]:
    r = count / trials
    return r, math.sqrt(r * (1.0 - r) / trials)


def conditional_error_with_noise(model: ImperfectionModel, p_not_equal: float,
                                 k: int, trials: int, seed: int,
                                 slots: int | None = None) -> NoiseRates:
    """Error rates of the noisy k-run protocol at N-click probability
    ``p_not_equal``.

    Each run: the source emits 0/1/multi photons (Poisson, or exactly one
    with ``deterministic_source``); a photon reaches a detector with
    probability transmission * detector_efficiency and lands on N with
    probability ``p_not_equal``; each detector dark-fires per slot with
    ``dark_count_prob`` across the slot window.  Runs keep only clean
    single detections (multi-photon pulses are dropped, not interfered).
    ``slots`` overrides the dark-count window, which otherwise is the
    fiber slot count implied by the model geometry.  More runs than
    ``errors.LIMITS["runs"]`` raise ``ResourceLimitError`` first.
    """
    [rates] = dark_count_sweep(model, [model.dark_count_prob], p_not_equal,
                               k, trials, seed, slots)
    return rates


def dark_count_sweep(model: ImperfectionModel, dark_probs, p_not_equal: float,
                     k: int, trials: int, seed: int,
                     slots: int | None = None) -> list[NoiseRates]:
    """:func:`conditional_error_with_noise` of ``model`` at each dark count
    probability in ``dark_probs``, all from one pass of draws.

    Every value is checked, and the sweep points and the runs times the
    points are charged to the work budget, before any run is drawn.  Each
    block of the kernel's verdicts is tallied as it arrives.
    """
    for dark in dark_probs:  # checked as the model checks it
        replace(model, dark_count_prob=dark)
    if not 0.0 <= p_not_equal <= 1.0:
        raise DomainError(f"p_not_equal must lie in [0, 1], got {p_not_equal!r}")
    if k < 1 or trials < 1:
        raise DomainError("k and trials must be >= 1")
    check("sweep points", len(dark_probs))
    kernels.check_runs(k, trials, len(dark_probs))
    if model.deterministic_source:
        p0, p1 = 0.0, 1.0
    else:
        p0, p1, _ = photon_number_distribution(model.mean_photon_number)
    if slots is None:
        slots = feasible_d(model).d_fiber
    elif not 0 <= slots <= sys.float_info.max:
        raise DomainError(f"slots must lie in 0..float max, got {slots}")
    tally = np.zeros((len(dark_probs), 3), dtype=np.int64)
    for verdicts in kernels.noise_verdicts(
            p0, p1, model.transmission * model.detector_efficiency,
            p_not_equal, dark_probs, slots, k, trials, seed):
        for counts, row in zip(tally, verdicts):
            counts += np.bincount(row, minlength=3)
    truth_equal = p_not_equal == 0.0
    return [_rates(trials, truth_equal, *map(int, counts))
            for counts in tally]


def _rates(trials: int, truth_equal: bool, n_equal: int, n_not_equal: int,
           n_abort: int) -> NoiseRates:
    fe, fe_se = (0.0, 0.0) if truth_equal else _rate(n_equal, trials)
    fn, fn_se = _rate(n_not_equal, trials) if truth_equal else (0.0, 0.0)
    ab, ab_se = _rate(n_abort, trials)
    return NoiseRates(
        trials=trials, truth_equal=truth_equal,
        n_equal=n_equal, n_not_equal=n_not_equal, n_abort=n_abort,
        false_equal_rate=fe, false_equal_stderr=fe_se,
        false_notequal_rate=fn, false_notequal_stderr=fn_se,
        abort_rate=ab, abort_stderr=ab_se,
    )

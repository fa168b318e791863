"""Single-photon state vectors over labeled interferometer modes.

A state lives in one of two pictures.  In the *branch* picture the photon
is split over Alice's and Bob's paths, one amplitude per internal mode and
side (labels ``A1..Am`` and ``B1..Bm``).  After the recombining beam
splitter it is in the *port* picture, with one amplitude per output port
and mode (``E1..Em`` for the symmetric "equal" port, ``N1..Nm`` for the
antisymmetric "not equal" port).

Amplitudes are stored densely as a read-only ``(2, m)`` complex array.
States are immutable values; every operation returns a new state, so they
are safe to share across parallel Monte Carlo workers.  The picture is an
explicit tag and every operation checks it, so misuse fails loudly rather
than silently producing the wrong statistics.

Only the small-alphabet phase protocols build a :class:`ModeState`.  The
code protocols imprint phase 0 or pi on every mode, so a mode's port
statistics depend only on its two phase bits; :func:`pi_phase_ports`
evaluates the same interferometer once per bit pair instead of once per
mode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, NormalizationError, StageMismatchError

NORM_TOL = 1e-12
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class Stage(enum.Enum):
    """Which picture a state lives in."""

    BRANCH = "branch"
    PORT = "port"


SIDES = {Stage.BRANCH: ("A", "B"), Stage.PORT: ("E", "N")}


class ModeLabel(NamedTuple):
    """One basis mode: picture, side within it, and 1-based mode index."""

    stage: Stage
    side: str
    index: int


class PortProbabilities(NamedTuple):
    """Measurement statistics in the port basis.

    ``per_mode`` is a read-only ``(2, m)`` float64 array laid out like
    ``ModeState.amps``: row 0 is the E port, row 1 the N port, and column
    ``i`` is mode index ``i + 1``.  ``p_equal`` and ``p_not_equal`` are its
    row sums.
    """

    p_equal: float
    p_not_equal: float
    per_mode: np.ndarray


@dataclass(frozen=True, eq=False)
class ModeState:
    """Normalized single-particle amplitude vector over 2m labeled modes.

    ``amps[0]`` holds the first side of the stage (A or E), ``amps[1]``
    the second (B or N); column ``i`` is mode index ``i + 1``.  Compare
    states through their ``amps`` arrays; identity equality is deliberate
    (element-wise comparison of ndarray fields has no single truth value).
    """

    stage: Stage
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[0] != 2 or amps.shape[1] < 1:
            raise DimensionError(
                f"amplitudes must have shape (2, m) with m >= 1, "
                f"got {amps.shape}"
            )
        # vdot is one BLAS call, several times cheaper than sum(abs**2)
        # on the tiny states the phase protocols build per symbol pair
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise NormalizationError(
                f"state norm^2 = {norm2!r} is not 1 within {NORM_TOL}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def m(self) -> int:
        """Number of internal modes per side."""
        return self.amps.shape[1]


def _side_row(stage: Stage, side: str) -> int:
    sides = SIDES[stage]
    if side not in sides:
        raise StageMismatchError(
            f"side {side!r} does not exist at stage {stage.value!r}; "
            f"expected one of {sides}"
        )
    return sides.index(side)


def _require_stage(state: ModeState, stage: Stage, op: str) -> None:
    if state.stage is not stage:
        raise StageMismatchError(
            f"{op} requires a {stage.value}-stage state, "
            f"got {state.stage.value}"
        )


def prepare_split(m: int) -> ModeState:
    """Photon split evenly over both branches and all m internal modes.

    Every branch amplitude is 1/sqrt(2m): the half/half beam split times a
    uniform superposition over the m modes of the pulse train.
    """
    if m < 1:
        raise DimensionError(f"mode count must be >= 1, got {m}")
    amps = np.full((2, m), 1.0 / np.sqrt(2.0 * m), dtype=np.complex128)
    return ModeState(Stage.BRANCH, amps)


def apply_phases(state: ModeState, side: str,
                 phases: Sequence[float]) -> ModeState:
    """Phase-modulate one branch: amplitude of mode i gains e^(i*phases[i]).

    The other branch is untouched and the norm is preserved exactly, so
    Alice's and Bob's encodings commute.
    """
    _require_stage(state, Stage.BRANCH, "apply_phases")
    row = _side_row(Stage.BRANCH, side)
    phases = np.asarray(phases, dtype=np.float64)
    if phases.shape != (state.m,):
        raise DimensionError(
            f"need exactly {state.m} phases, got shape {phases.shape}"
        )
    amps = state.amps.copy()
    amps[row] = amps[row] * np.exp(1j * phases)
    return ModeState(Stage.BRANCH, amps)


def recombine(state: ModeState) -> ModeState:
    """50/50 beam splitter taking the branch picture to the port picture.

    Mode by mode: E_i = (A_i + B_i)/sqrt(2), N_i = (A_i - B_i)/sqrt(2).
    The map is unitary, so the norm is preserved; equal branch amplitudes
    cancel exactly on the N side (bitwise-equal complex values subtract to
    exactly zero), which is what makes the equal-input case error-free.
    """
    _require_stage(state, Stage.BRANCH, "recombine")
    return ModeState(Stage.PORT, _beam_split(state.amps))


def _beam_split(amps: np.ndarray) -> np.ndarray:
    a, b = amps[0], amps[1]
    out = np.empty_like(amps)
    out[0] = (a + b) * _INV_SQRT2
    out[1] = (a - b) * _INV_SQRT2
    return out


def port_probabilities(state: ModeState) -> PortProbabilities:
    """Detection statistics in the port basis.

    Returns total probabilities for the E and N ports plus the per-mode
    breakdown as a ``(2, m)`` array in storage order.
    """
    _require_stage(state, Stage.PORT, "port_probabilities")
    probs = np.abs(state.amps) ** 2
    probs.setflags(write=False)
    return PortProbabilities(float(probs[0].sum()), float(probs[1].sum()),
                             probs)


# phase bits (branch A, branch B) of the four mode classes; class
# c = 2 * bit_A + bit_B
_CLASS_BITS = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=np.uint8)


def pi_phase_ports(counts: np.ndarray) -> np.ndarray:
    """Port statistics of the four classes of a split photon whose modes
    carry phase 0 or pi on each branch.

    ``counts[c]`` of the m modes carry phase ``pi * (c >> 1)`` on branch A
    and ``pi * (c & 1)`` on branch B.  Returns a read-only ``(2, 4)``
    float64 array: row 0 the E port, row 1 the N port, column ``c`` the
    probabilities of one mode of class ``c``.  Each column is computed with
    the float operations of :func:`prepare_split`, :func:`apply_phases`,
    :func:`recombine` and :func:`port_probabilities`, in their order, so it
    equals those of the pipeline's ``per_mode`` columns bit for bit.  The
    total probability, each column weighted by its count, must be 1.
    """
    m = int(np.sum(counts))
    if m < 1:
        raise DimensionError(f"mode count must be >= 1, got {m}")
    amps = np.full((2, 4), 1.0 / np.sqrt(2.0 * m), dtype=np.complex128)
    amps = amps * np.exp(1j * (np.pi * _CLASS_BITS))
    probs = np.abs(_beam_split(amps)) ** 2
    norm2 = float(probs.sum(axis=0) @ counts)
    if abs(norm2 - 1.0) > NORM_TOL:
        raise NormalizationError(
            f"state norm^2 = {norm2!r} is not 1 within {NORM_TOL}"
        )
    probs.setflags(write=False)
    return probs

"""The split-photon interferometer, evaluated per column of branch phases.

The photon is split evenly over Alice's branch (A) and Bob's branch (B)
and over the m internal modes of the pulse train, so every branch
amplitude starts at 1/sqrt(2m).  Each party imprints a phase on each of
its modes; the recombining 50/50 beam splitter then sends mode i to the
symmetric "equal" port E and the antisymmetric "not equal" port N:
E_i = (A_i + B_i)/sqrt(2), N_i = (A_i - B_i)/sqrt(2).

A mode's port statistics depend only on its two branch phases, so
:func:`interferometer` evaluates one mode per column of phase pairs and
never builds a whole m-mode state.  The code protocols pass the four
classes of 0/pi phase bits; the single-symbol phase protocol is the
one-mode case, with one column per pair of symbols.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NormalizationError

NORM_TOL = 1e-12
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def interferometer(phases: np.ndarray, m: int) -> np.ndarray:
    """Port statistics of one mode per column of branch phases.

    ``phases`` is a ``(2, c)`` float array: row 0 the phases on branch A,
    row 1 those on branch B, column ``j`` one mode of an m-mode split.
    Returns a read-only ``(2, c)`` float64 array: row 0 the E-port
    probability, row 1 the N-port probability of each column's mode.
    Equal branch phases cancel exactly on N (bitwise-equal amplitudes
    subtract to zero), which is what makes the equal-input case
    error-free.  The beam splitter is unitary, so a state whose m modes
    all carried one column's phases has norm 1; that must hold within
    ``NORM_TOL`` for every column.
    """
    if m < 1:
        raise DimensionError(f"mode count must be >= 1, got {m}")
    amps = np.full(np.shape(phases), 1.0 / np.sqrt(2.0 * m),
                   dtype=np.complex128)
    amps = amps * np.exp(1j * np.asarray(phases, dtype=np.float64))
    a, b = amps
    probs = np.abs(np.stack([(a + b) * _INV_SQRT2,
                             (a - b) * _INV_SQRT2])) ** 2
    norm2 = m * probs.sum(axis=0)
    worst = float(np.max(np.abs(norm2 - 1.0)))
    if not worst <= NORM_TOL:
        raise NormalizationError(
            f"state norm^2 is off 1 by {worst!r}, more than {NORM_TOL}"
        )
    probs.setflags(write=False)
    return probs

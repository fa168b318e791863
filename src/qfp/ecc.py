"""Binary linear codes with declared, brute-force-verifiable distance.

The fingerprinting protocol only ever encodes, so this module carries no
decoders.  Code families are desk-scale stand-ins chosen so their minimum
distance is either analytic (identity, repetition, Hadamard) or cheap to
certify exhaustively (random linear, n <= 20).  The asymptotic rate /
distance trade-off of Justesen-style constructions enters only through
:func:`justesen_nu`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (CodeFormatError, DimensionError, DomainError,
                     ResourceLimitError)

ORACLE_MAX_N = 20
# no analytic generator holds more entries than the largest Hadamard one
GENERATOR_MAX_ENTRIES = ORACLE_MAX_N << ORACLE_MAX_N


class CodeKind(enum.Enum):
    IDENTITY = "Identity"
    REPETITION = "Repetition"
    HADAMARD = "Hadamard"
    RANDOM_LINEAR = "RandomLinear"


@dataclass(frozen=True, eq=False)
class Code:
    """A length-m binary encoding of n-bit messages with min distance t.

    All kinds are linear: ``encode(x) = x . G`` over GF(2) with the stored
    ``(n, m)`` generator, so the minimum distance equals the minimum weight
    of a nonzero codeword.
    """

    n: int
    m: int
    t: int
    kind: CodeKind
    generator: np.ndarray

    def __post_init__(self):
        # a uint8 generator is taken without a copy and made read-only
        gen = np.asarray(self.generator, dtype=np.uint8)
        if gen.shape != (self.n, self.m):
            raise DimensionError(
                f"generator shape {gen.shape} != ({self.n}, {self.m})"
            )
        if gen.size and gen.max() > 1:
            raise DomainError("generator entries must be bits")
        if not 0 <= self.t <= self.m:
            raise DomainError(f"declared distance {self.t} outside 0..{self.m}")
        gen.setflags(write=False)
        object.__setattr__(self, "generator", gen)

    @property
    def relative_distance(self) -> float:
        return self.t / self.m

    @property
    def degenerate(self) -> bool:
        """True when distinct messages can collide (distance zero)."""
        return self.t == 0


def as_bits(bits) -> np.ndarray:
    """Coerce a bit string ("0101"), list or array to a uint8 bit vector."""
    if isinstance(bits, str):
        if not bits or bits.strip("01"):
            raise DomainError(f"not a bit string: {bits!r}")
        return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError("bit vector must be non-empty and 1-d")
    if np.any(arr > 1):
        raise DomainError("bit vector entries must be 0 or 1")
    return arr


def bits_to_string(bits: np.ndarray) -> str:
    """The 0/1 string of a bit vector, the inverse of :func:`as_bits`."""
    digits = np.asarray(bits, dtype=np.uint8) + ord("0")
    return digits.tobytes().decode("ascii")


def bits_to_hex(bits) -> str:
    """Hex of the bit string read most-significant-first (used in reports)."""
    return format(int(bits_to_string(as_bits(bits)), 2), "x")


def encode(code: Code, x) -> np.ndarray:
    """Codeword of message ``x`` (XOR of the generator rows selected by x)."""
    xv = as_bits(x)
    if xv.shape[0] != code.n:
        raise DimensionError(
            f"message length {xv.shape[0]} != code.n = {code.n}"
        )
    word = np.zeros(code.m, dtype=np.uint8)
    for i in np.flatnonzero(xv):  # one m-byte word; no copy of the rows
        word ^= code.generator[i]
    return word


def hamming_distance(a, b) -> int:
    av, bv = as_bits(a), as_bits(b)
    if av.shape != bv.shape:
        raise DimensionError("length mismatch in Hamming distance")
    return int(np.count_nonzero(av != bv))


def _check_generator_size(kind: str, n: int, m: int) -> None:
    # checked before the (n, m) generator is allocated
    if n * m > GENERATOR_MAX_ENTRIES:
        raise ResourceLimitError(
            f"{kind} generator of {n} x {m} entries exceeds the desk-scale "
            f"cap ({GENERATOR_MAX_ENTRIES} entries)"
        )


def identity_code(n: int) -> Code:
    """Messages sent verbatim; distance 1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    _check_generator_size("identity_code", n, n)
    return Code(n, n, 1, CodeKind.IDENTITY, np.eye(n, dtype=np.uint8))


def repetition_code(n: int, r: int) -> Code:
    """Each message bit repeated r times, blockwise: bit i occupies
    columns i*r .. i*r + r - 1.  Distance r (met by weight-1 messages)."""
    if n < 1 or r < 1:
        raise DomainError("n and r must be >= 1")
    _check_generator_size("repetition_code", n, n * r)
    gen = np.zeros((n, n * r), dtype=np.uint8)
    for i in range(n):
        gen[i, i * r:(i + 1) * r] = 1
    return Code(n, n * r, r, CodeKind.REPETITION, gen)


def hadamard_code(n: int) -> Code:
    """All-parities code: one column per z in {0,1}^n, bit = <x, z> mod 2.

    Codeword length 2^n, distance 2^(n-1) (every nonzero message disagrees
    with zero on exactly half the parities).  Column order is z = 0, 1,
    ..., 2^n - 1 with message bit j paired against bit j of z.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > ORACLE_MAX_N:
        raise ResourceLimitError(
            f"hadamard_code length 2^{n} exceeds the desk-scale cap "
            f"(n <= {ORACLE_MAX_N})"
        )
    gen = np.zeros((n, 1 << n), dtype=np.uint8)
    for j in range(n):  # bit j of z is 1 on every second run of 2^j
        gen[j].reshape(-1, 2, 1 << j)[:, 1] = 1
    return Code(n, 1 << n, 1 << (n - 1), CodeKind.HADAMARD, gen)


def random_linear_code(n: int, m: int, seed: int) -> Code:
    """Uniformly random generator from a seeded splitmix64 stream.

    Reproducible across platforms: the stream seeded with ``seed`` is read
    as one 64-bit word per 64 generator entries, row-major, least
    significant bit first.  The declared distance is certified by
    :func:`min_distance_bruteforce`, so construction is gated on n <= 20.
    """
    if n < 1 or m < 1:
        raise DomainError("n and m must be >= 1")
    if n > ORACLE_MAX_N:
        raise ResourceLimitError(
            f"random_linear_code requires the distance oracle, "
            f"capped at n <= {ORACLE_MAX_N}"
        )
    words_per_row = (m + 63) // 64
    words = kernels.splitmix64_stream(seed, n * words_per_row)
    raw = np.unpackbits(words.astype("<u8").view(np.uint8),
                        bitorder="little")
    gen = raw.reshape(n, words_per_row * 64)[:, :m]
    return Code(n, m, kernels.min_nonzero_weight(gen),
                CodeKind.RANDOM_LINEAR, gen)


def min_distance_bruteforce(code: Code) -> int:
    """Exhaustive minimum distance: the smallest nonzero-codeword weight.

    Independent of the declared ``code.t``; use it to certify declarations.
    """
    if code.n > ORACLE_MAX_N:
        raise ResourceLimitError(
            f"distance oracle enumerates 2^{code.n} messages; "
            f"capped at n <= {ORACLE_MAX_N}"
        )
    return kernels.min_nonzero_weight(code.generator)


def justesen_nu(mu: float) -> float:
    """Relative distance guaranteed at rate 1/mu by the Justesen family.

    nu = 1/10 - 1/(15 mu); defined here for mu >= 2, the regime the
    feasibility arithmetic uses (nu(2) = 1/15, supremum 1/10).
    """
    if not mu >= 2:
        raise DomainError(f"mu must be >= 2, got {mu!r}")
    return 0.1 - 1.0 / (15.0 * mu)


# --- plain-text code files -------------------------------------------------
#
# Header line "n m t kind", then n generator rows as 0/1 strings.

def save_code(code: Code, dest) -> None:
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        fh.write(f"{code.n} {code.m} {code.t} {code.kind.value}\n")
        for row in code.generator:
            fh.write(bits_to_string(row) + "\n")
    finally:
        if own:
            fh.close()


def load_code(src) -> Code:
    own = isinstance(src, (str, bytes)) or hasattr(src, "__fspath__")
    fh = open(src, "r", encoding="utf-8") if own else src
    try:
        n, m, t, kind, gen = _read_generator(fh)
    finally:
        if own:
            fh.close()
    if kind is CodeKind.RANDOM_LINEAR:
        return Code(n, m, t, kind, gen)
    canonical = _canonical_code(kind, n, m)
    # compared row by row: a whole-matrix comparison would allocate a
    # third generator-sized array
    if (canonical is None or canonical.t != t
            or not all(map(np.array_equal, canonical.generator, gen))):
        raise CodeFormatError(
            f"not the {kind.value} code with n={n}, m={m}: the generator "
            f"or the distance t={t} differs from the construction"
        )
    return canonical


def _read_generator(fh) -> tuple[int, int, int, CodeKind, np.ndarray]:
    # header and (n, m) bit matrix of a code file; each row is checked as
    # it is read and only its bytes are kept, so the text is never held
    # next to the generator, which is no larger than the file whatever the
    # header declares
    lines = (ln.rstrip("\n") for ln in fh)
    header = next((ln for ln in lines if ln.strip()), None)
    if header is None:
        raise CodeFormatError("empty code file")
    parts = header.split()
    if len(parts) != 4:
        raise CodeFormatError(f"bad header {header!r}; expected 'n m t kind'")
    try:
        n, m, t = int(parts[0]), int(parts[1]), int(parts[2])
        kind = CodeKind(parts[3])
    except ValueError as exc:
        raise CodeFormatError(f"bad header {header!r}: {exc}") from exc
    if n < 1 or m < 1:
        raise CodeFormatError(f"bad header {header!r}: n and m must be >= 1")
    buf = bytearray()
    rows, bad_row = 0, None
    for row in lines:
        if not row.strip():
            continue
        rows += 1
        if bad_row is not None or rows > n:
            continue  # past a bad row or the last one, only counted
        if len(row) != m or row.strip("01"):
            bad_row = rows
        else:
            buf += row.encode("ascii")
    # the row count is reported before a malformed row
    if rows != n:
        raise CodeFormatError(f"expected {n} generator rows, got {rows}")
    if bad_row is not None:
        raise CodeFormatError(f"generator row {bad_row} is not {m} bits")
    gen = np.frombuffer(buf, dtype=np.uint8)
    gen -= ord("0")
    return n, m, t, kind, gen.reshape(n, m)


def _canonical_code(kind: CodeKind, n: int, m: int) -> Code | None:
    """The constructed code of an analytic kind with shape (n, m), if any."""
    if kind is CodeKind.IDENTITY and m == n:
        return identity_code(n)
    if kind is CodeKind.REPETITION and m % n == 0:
        return repetition_code(n, m // n)
    if kind is CodeKind.HADAMARD and m == 1 << n:
        return hadamard_code(n)
    return None

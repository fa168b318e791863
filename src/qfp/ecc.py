"""Binary linear codes with declared, brute-force-verifiable distance.

The fingerprinting protocol only ever encodes, so this module carries no
decoders.  Code families are desk-scale stand-ins chosen so their minimum
distance is either analytic (identity, repetition, Hadamard) or cheap to
certify exhaustively (random linear, 2^n x ceil(m / 64) <= 2^30).  The
asymptotic rate / distance trade-off of Justesen-style constructions
enters only through :func:`justesen_nu`.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass

import numpy as np

from . import kernels, reports
from .errors import (LIMITS, CodeFormatError, DimensionError, DomainError,
                     check)


class CodeKind(enum.Enum):
    IDENTITY = "Identity"
    REPETITION = "Repetition"
    HADAMARD = "Hadamard"
    RANDOM_LINEAR = "RandomLinear"


@dataclass(frozen=True, eq=False, init=False)
class Code:
    """A length-m binary encoding of n-bit messages with min distance t.

    All kinds are linear: ``encode(x) = x . G`` over GF(2) with an
    ``(n, m)`` generator G, so the minimum distance equals the minimum
    weight of a nonzero codeword.  A code made without a generator is an
    identity, repetition or Hadamard code of a shape its kind's formula
    has: each row of G is computed from the formula when it is needed, and
    :attr:`generator` builds the whole matrix only when it is read.
    """

    n: int
    m: int
    t: int
    kind: CodeKind

    def __init__(self, n: int, m: int, t: int, kind: CodeKind,
                 generator: np.ndarray | None = None):
        for name, value in zip(("n", "m", "t", "kind"), (n, m, t, kind)):
            object.__setattr__(self, name, value)
        if generator is not None:
            # a uint8 generator is taken without a copy and made read-only
            generator = np.asarray(generator, dtype=np.uint8)
            if generator.shape != (n, m):
                raise DimensionError(
                    f"generator shape {generator.shape} != ({n}, {m})"
                )
            if generator.size and generator.max() > 1:
                raise DomainError("generator entries must be bits")
            generator.setflags(write=False)
        elif not _has_formula(kind, n, m):
            raise DimensionError(
                f"no {kind.value} generator formula of shape ({n}, {m})"
            )
        if not 0 <= t <= m:
            raise DomainError(f"declared distance {t} outside 0..{m}")
        object.__setattr__(self, "_generator", generator)

    @property
    def generator(self) -> np.ndarray:
        """The read-only ``(n, m)`` generator, built on first read."""
        if self._generator is None:
            gen = np.zeros((self.n, self.m), dtype=np.uint8)
            for i, row in enumerate(gen):
                self._xor_row(i, row)
            gen.setflags(write=False)
            object.__setattr__(self, "_generator", gen)
        return self._generator

    def row(self, i: int) -> np.ndarray:
        """Row ``i``: the stored generator's read-only row, else computed."""
        if self._generator is not None:
            return self._generator[i]
        word = np.zeros(self.m, dtype=np.uint8)
        self._xor_row(i, word)
        return word

    def _xor_row(self, i: int, word: np.ndarray) -> None:
        # word ^= row i of the generator, in place
        if self._generator is not None:
            word ^= self._generator[i]
        elif self.kind is CodeKind.HADAMARD:
            # bit i of z is 1 on every second run of 2^i
            word.reshape(-1, 2, 1 << i)[:, 1] ^= 1
        else:  # repetition; an identity code is its r = 1
            r = self.m // self.n
            word[i * r:(i + 1) * r] ^= 1

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
    """Codeword of message ``x`` (XOR of the generator rows selected by x).

    Each row is XORed into one m-byte word as it is computed, so a code
    without a stored generator encodes in O(m) memory.
    """
    xv = as_bits(x)
    if xv.shape[0] != code.n:
        raise DimensionError(
            f"message length {xv.shape[0]} != code.n = {code.n}"
        )
    word = np.zeros(code.m, dtype=np.uint8)
    for i in np.flatnonzero(xv):
        code._xor_row(i, word)
    return word


def hamming_distance(a, b) -> int:
    av, bv = as_bits(a), as_bits(b)
    if av.shape != bv.shape:
        raise DimensionError("length mismatch in Hamming distance")
    return int(np.count_nonzero(av != bv))


def identity_code(n: int) -> Code:
    """Messages sent verbatim; distance 1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    check("generator entries", n, n)
    return Code(n, n, 1, CodeKind.IDENTITY)


def repetition_code(n: int, r: int) -> Code:
    """Each message bit repeated r times, blockwise: bit i occupies
    columns i*r .. i*r + r - 1.  Distance r (met by weight-1 messages)."""
    if n < 1 or r < 1:
        raise DomainError("n and r must be >= 1")
    check("generator entries", n, n * r)
    return Code(n, n * r, r, CodeKind.REPETITION)


def hadamard_code(n: int) -> Code:
    """All-parities code: one column per z in {0,1}^n, bit = <x, z> mod 2.

    Codeword length 2^n, distance 2^(n-1) (every nonzero message disagrees
    with zero on exactly half the parities).  Column order is z = 0, 1,
    ..., 2^n - 1 with message bit j paired against bit j of z.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    check("generator entries", n, (2, n))
    return Code(n, 1 << n, 1 << (n - 1), CodeKind.HADAMARD)


def random_linear_code(n: int, m: int, seed: int) -> Code:
    """Uniformly random generator from a seeded splitmix64 stream.

    Reproducible across platforms: the stream seeded with ``seed`` is read
    as one 64-bit word per 64 generator entries, row-major, least
    significant bit first.  The declared distance is certified by
    :func:`min_distance_bruteforce`, so construction is refused past the
    oracle's budget entry, ``oracle word steps``.
    """
    if n < 1 or m < 1:
        raise DomainError("n and m must be >= 1")
    check("generator entries", n, m)
    kernels.check_oracle(n, m)  # before the stream is drawn and unpacked
    # the stream is a temporary, freed before the oracle packs the bits
    gen = np.unpackbits(kernels.splitmix64_stream(seed, n * ((m + 63) // 64))
                        .astype("<u8", copy=False).view(np.uint8)
                        .reshape(n, -1), axis=1, count=m, bitorder="little")
    return Code(n, m, kernels.min_nonzero_weight(gen),
                CodeKind.RANDOM_LINEAR, gen)


def min_distance_bruteforce(code: Code) -> int:
    """Exhaustive minimum distance: the smallest nonzero-codeword weight.

    Independent of the declared ``code.t``; use it to certify declarations.
    The oracle is charged to the budget before the generator is built.
    """
    kernels.check_oracle(code.n, code.m)
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
# Header line "n m t kind", then n generator rows as 0/1 strings, which
# are written, and dropped past their length, _PIECE characters at a time
_PIECE = 1 << 16

def _is_path(file) -> bool:
    return isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")


def save_code(code: Code, dest) -> None:
    """Write ``code`` to an open text file, or to a path through a temp
    file and a rename (:func:`reports.write`), so a failed write leaves
    the old file."""
    def pieces():  # one per chunk, none kept after its write
        yield [f"{code.n} {code.m} {code.t} {code.kind.value}\n"]
        for i in range(code.n):
            row = code.row(i)
            for start in range(0, code.m, _PIECE):
                yield [bits_to_string(row[start:start + _PIECE])]
            yield ["\n"]

    if _is_path(dest):
        reports.write([dest], pieces())
    else:  # a caller's file stays open
        dest.writelines(piece for [piece] in pieces())


def load_code(src) -> Code:
    with (open(src, encoding="utf-8") if _is_path(src)
          else contextlib.nullcontext(src)) as fh:
        try:
            return _read_code(fh)
        except UnicodeDecodeError as exc:
            raise CodeFormatError(f"code file is not UTF-8: {exc}") from exc


def _next_line(fh, size: int) -> str | None:
    """The next non-blank line without its newline, None at the end.

    At most ``size + 1`` characters of a line are kept; the rest of a
    longer line is read and dropped ``_PIECE`` at a time, so no line
    is held whole, and it is blank only if every piece is whitespace.
    """
    while line := fh.readline(size + 1):
        blank, piece = not line.strip(), line
        while piece and not piece.endswith("\n"):
            piece = fh.readline(_PIECE)
            blank = blank and not piece.strip()
        if not blank:
            return line.rstrip("\n")
    return None


def _read_code(fh) -> Code:
    # the header's code is made, and charged to the budget, before any
    # row is read; each row is checked as it is read: a RandomLinear file
    # keeps only its rows' bytes (no larger than the file), any other
    # kind compares each row with its code's formula and keeps none.  A
    # line is read only up to the most characters it may have and one
    # more, so an over-long row is cut there and fails its length check
    header = _next_line(fh, 4096)
    if header is None:
        raise CodeFormatError("empty code file")
    if len(header) > 4096:
        raise CodeFormatError("bad header: longer than 4096 characters")
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
    keep = kind is CodeKind.RANDOM_LINEAR
    if keep:
        check("generator entries", n, m)
    code = _canonical_code(kind, n, m)  # None for a shape with no formula
    # a RandomLinear m past the budget was refused above and no formula
    # has one, so no row that can be kept or matched is cut
    size = min(m, LIMITS["generator entries"])
    buf = bytearray()
    rows, bad_row, rows_match = 0, None, code is not None
    while (row := _next_line(fh, size)) is not None:
        rows += 1
        if bad_row is not None or rows > n:
            continue  # past a bad row or the last one, only counted
        if len(row) != m or row.strip("01"):
            bad_row = rows
        elif keep:
            buf += row.encode("ascii")
        elif rows_match:
            rows_match = bits_to_string(code.row(rows - 1)) == row
    # the row count is reported before a malformed row
    if rows != n:
        raise CodeFormatError(f"expected {n} generator rows, got {rows}")
    if bad_row is not None:
        raise CodeFormatError(f"generator row {bad_row} is not {m} bits")
    if keep:
        gen = np.frombuffer(buf, dtype=np.uint8).reshape(-1, m)
        gen -= ord("0")
        return Code(n, m, t, kind, gen)
    if not rows_match or code.t != t:
        raise CodeFormatError(
            f"not the {kind.value} code with n={n}, m={m}: the generator "
            f"or the distance t={t} differs from the construction"
        )
    return code


def _has_formula(kind: CodeKind, n: int, m: int) -> bool:
    """True when ``kind`` has a generator formula of shape (n, m)."""
    if n < 1 or m < 1:
        return False
    return {CodeKind.IDENTITY: m == n,
            CodeKind.REPETITION: m % n == 0,
            # m.bit_length() first: 1 << n is not formed for a huge n
            CodeKind.HADAMARD: m.bit_length() == n + 1 and m == 1 << n,
            }.get(kind, False)


def _canonical_code(kind: CodeKind, n: int, m: int) -> Code | None:
    """The constructed code of an analytic kind with shape (n, m), if any."""
    if not _has_formula(kind, n, m):
        return None
    if kind is CodeKind.IDENTITY:
        return identity_code(n)
    if kind is CodeKind.REPETITION:
        return repetition_code(n, m // n)
    return hadamard_code(n)

"""Exception types shared across the package, and the work budget."""


class QfpError(Exception):
    """Base class for all package errors."""


class DimensionError(QfpError, ValueError):
    """A vector, code word or message has the wrong length."""


class NormalizationError(QfpError, ValueError):
    """State amplitudes do not carry a single particle (norm != 1)."""


class DomainError(QfpError, ValueError):
    """A numeric parameter lies outside its documented domain."""


class ResourceLimitError(QfpError, RuntimeError):
    """A request exceeds its entry of the work budget, :data:`LIMITS`."""


# The work budget: the most of each counted resource one request may ask
# for, checked by :func:`check` before the work starts
LIMITS = {
    # k x trials rounded up to whole blocks (kernels.check_runs), times
    # the points of a dark-count sweep: a time bound, since a run's memory
    # does not grow with its trials; 2^30 noisy runs take ~30 s.  A sampled
    # run with a report draws its trials twice, once more for the rows
    "runs": 1 << 30,
    # dark probabilities of one sweep: each adds (points x block) arrays
    # to every kernel block; 2^8 points peak near 58 MB
    "sweep points": 1 << 8,
    # q = 300 with --all-pairs --out --json peaks near 31 MB in ~0.5 s
    "phase pairs": 300**2,
    # n x m, every code kind, charged when the code is made (a code
    # file's as soon as its header parses) even where its generator is
    # computed from a formula: the largest Hadamard code (n = 20)
    "generator entries": 20 << 20,
    # 2^n x ceil(m / 64) weight words the distance oracle tallies, its
    # only entry: n = 30, m = 64 takes ~1.5 s and n = 20, m = 65536 ~2 s;
    # the widest admitted generators export near 53 MB (n = 10,
    # m = 2,000,000) and 50 MB (n = 16, m = 2^20)
    "oracle word steps": 1 << 30,
    "SMP scored pairs": 10**8,  # strategies x q^2 input pairs
    # sampled trials written by --out or --json: 2^20 take ~0.8 s at a
    # flat ~30.5 MB peak and write ~300 MB of files (68 MB CSV, 247 MB JSON)
    "report rows": 1 << 20,
}


def check(name: str, *factors) -> None:
    """Refuse work ``name`` past its entry in :data:`LIMITS`.

    The work is the product of ``factors``, positive ints or ``(base,
    exponent)`` powers, multiplied up one base at a time and refused as
    soon as it passes the limit: no power such as 2^(10^20) is formed.
    """
    limit, amount = LIMITS[name], 1
    powers = [f if isinstance(f, tuple) else (f, 1) for f in factors]
    for base, exp in powers:
        for _ in range(exp if base > 1 else 0):
            amount *= int(base)
            if amount > limit:
                shown = " x ".join(str(b) if e == 1 else f"{b}^{e}"
                                   for b, e in powers)
                raise ResourceLimitError(
                    f"{name}: {shown} exceeds the limit of {limit}")


class CodeFormatError(QfpError, ValueError):
    """A code file could not be parsed."""


class ConfigError(QfpError, ValueError):
    """A CLI config file is malformed or contains unknown keys."""

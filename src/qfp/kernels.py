"""Seeded numeric kernels: the Monte Carlo samplers and brute-force scans.

Every kernel is one vectorized numpy implementation.  Every randomized
routine draws from splitmix64 streams so that results are reproducible bit
for bit across platforms.  Real-valued decision thresholds (cumulative
distributions, survival probabilities) are precomputed once in float64;
the per-draw work is comparisons and integer arithmetic.  The two
exhaustive scans (minimum codeword weight, SMP strategy search) return
exactly what a plain enumeration of their whole search space returns,
the SMP witness included.  ``perfbench/`` times each kernel in CLI runs
but :func:`noise_verdicts`, a generator whose call returns before its
first draw, and :func:`click_block`, a report's second draw of a batch.

Stream contract
---------------
Output ``i`` (1-based) of the stream seeded with ``s`` is
``finalize(s + i * GOLDEN)`` where ``finalize`` is the standard splitmix64
mix (xorshift 30, multiply, xorshift 27, multiply, xorshift 31) and
``GOLDEN = 0x9E3779B97F4A7C15``.  Uniform deviates take the top 53 bits:
``u = (output >> 11) * 2**-53``, so ``u`` lies in ``[0, 1)``.

The samplers never form ``u``.  For a float threshold ``c``, ``u >= c``
holds exactly when ``output >= cut(c)`` with ``cut(c) = ceil(c * 2**53)
<< 11``: every draw passes when ``c <= 0`` and none does when
``ceil(c * 2**53) >= 2**53`` (any ``c >= 1``, ``inf`` included).  So each
draw is one unsigned comparison of the raw output against a cut computed
once, and ``u < c`` is its negation.  A draw whose cuts are all constant
decides nothing and is not computed; since output ``j`` of a substream is
mixed from ``seed + j * GOLDEN``, skipping it leaves every later draw
unchanged.

Batch routines give trial ``i`` (0-based) a private substream whose seed is
output ``i + 1`` of a master stream.  A single trial is therefore
replayable from its recorded substream seed alone, and trials may run in
any order or in parallel without sharing state: :func:`replay_click_count`
runs the block code of :func:`click_counts` on a block of that one seed.

Block contract
--------------
The batch samplers work through their trials in blocks of at most
``_TRIAL_BLOCK``.  Block ``[a, b)`` derives its own substream seeds,
outputs ``a + 1 .. b`` of the master stream, and takes every draw of those
trials; :func:`click_counts` tallies the results and
:func:`noise_verdicts` yields them.  No block reads another block's state,
so the results are bit-identical for every block size, and memory is
O(block), whatever the trial count.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check

_MASK64 = (1 << 64) - 1
_GOLDEN_INT = 0x9E3779B97F4A7C15

_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)

# ---------------------------------------------------------------------------
# splitmix64 streams
# ---------------------------------------------------------------------------

_TRIAL_BLOCK = 1 << 14  # trials sampled per kernel block


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    # splitmix64 finalize of every state in ``z``, in place
    np.right_shift(z, _SH30, out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, _SH27, out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, _SH31, out=scratch)
    z ^= scratch
    return z


def splitmix64_stream(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs ``start + 1 .. start + count`` of the splitmix64 stream
    seeded with ``seed``."""
    s0 = np.uint64(int(seed) & _MASK64)
    steps = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = s0 + steps * _GOLDEN
    return _mix(z, steps)


def check_runs(k: int, trials: int, points: int = 1) -> None:
    """Charge ``trials`` protocols of ``k`` runs, evaluated at ``points``
    sweep points, to the work budget, a started block of trials as a full
    one (it costs as many numpy calls)."""
    check("runs", k, -(-trials // _TRIAL_BLOCK) * _TRIAL_BLOCK, points)


def _trial_blocks(master_seed: int, trials: int):
    # (offset, substream seeds) of each block of trials, in trial order
    for start in range(0, trials, _TRIAL_BLOCK):
        count = min(_TRIAL_BLOCK, trials - start)
        yield start, splitmix64_stream(master_seed, count, start)


_ALWAYS, _NEVER = 0, 1 << 64  # cuts every output passes / none reaches


def _u01_cut(c: float) -> int:
    """The output cut of threshold ``c``: ``(z >> 11) * 2**-53 >= c``
    exactly when ``z >= _u01_cut(c)``, for every 64-bit output ``z``.

    ``_ALWAYS`` (0) when every output passes, ``_NEVER`` (2^64, past every
    output) when none does.
    """
    if not c < 1.0:  # u < 1 <= c, inf included
        return _NEVER
    if c <= 0.0:
        return _ALWAYS
    # c * 2**53 is exact, and ceil of it is below 2**53 since c < 1
    return math.ceil(c * 2.0**53) << 11


class _Draws:
    """Output ``j`` of every substream of one block, compared with cuts.

    Output ``j`` is mixed from ``seed + j * GOLDEN`` into one reused
    buffer; a draw whose cuts are all constant is never mixed.
    """

    def __init__(self, seeds: np.ndarray):
        self.seeds = seeds
        self.z = np.empty_like(seeds)
        self.scratch = np.empty_like(seeds)

    def at_least(self, j: int, cuts: list[int]) -> list:
        # per cut: output j >= cut, a bool array, or a numpy bool scalar
        # when the cut is constant
        fixed = [c in (_ALWAYS, _NEVER) for c in cuts]
        if not all(fixed):
            # j * GOLDEN as a Python int: a uint64 product would overflow
            np.add(self.seeds, np.uint64(j * _GOLDEN_INT & _MASK64),
                   out=self.z)
            _mix(self.z, self.scratch)
        return [np.bool_(c == _ALWAYS) if const else self.z >= np.uint64(c)
                for c, const in zip(cuts, fixed)]


# ---------------------------------------------------------------------------
# port-outcome sampling
# ---------------------------------------------------------------------------

def _add_clicks(seeds: np.ndarray, cut: int, k: int, out: np.ndarray) -> None:
    # add the N clicks among the k draws of each substream into ``out``
    draws = _Draws(seeds)
    for j in range(1, int(k) + 1):
        out += draws.at_least(j, [cut])[0]


def click_counts(c: float, k: int, trials: int,
                 master_seed: int) -> np.ndarray:
    """Tally of ``trials`` protocols by N-click count: entry ``j`` of the
    ``k + 1`` counts the trials with ``j`` of their ``k`` draws clicking N.

    A draw clicks N iff its uniform ``u >= c``: ``c`` is 1 - pN of one
    run, so this is one comparison per draw of the raw output with the cut
    of ``c``.  With ``c >= 1`` no draw clicks N, which keeps one-sided
    error exact for a pair with no N-port mass (pN = 0, so c = 1).  Each
    block's counts go into one reused buffer and are tallied there.
    """
    cut = _u01_cut(c)
    tally = np.zeros(k + 1, dtype=np.int64)
    counts = np.empty(min(trials, _TRIAL_BLOCK), dtype=np.min_scalar_type(k))
    for _, seeds in _trial_blocks(master_seed, trials):
        block = counts[:seeds.shape[0]]
        block.fill(0)
        _add_clicks(seeds, cut, k, block)
        tally += np.bincount(block, minlength=k + 1)
    return tally


def click_block(c: float, k: int, trials: int, master_seed: int,
                start: int) -> tuple[np.ndarray, np.ndarray]:
    """N-click counts and substream seeds of the kernel block of a batch's
    trials from ``start``, as :func:`click_counts` draws them."""
    seeds = splitmix64_stream(
        master_seed, min(trials, start + _TRIAL_BLOCK) - start, start)
    counts = np.zeros(seeds.shape, dtype=np.min_scalar_type(k))
    _add_clicks(seeds, _u01_cut(c), k, counts)
    return counts, seeds


def replay_click_count(c: float, k: int, seed: int) -> int:
    """N-click count, at threshold ``c``, of the trial seeded ``seed``.

    The block code of :func:`click_counts` on a block of one seed, so equal
    to trial ``i`` of a batch when ``seed`` is that trial's substream seed.
    """
    count = np.zeros(1, dtype=np.int64)
    _add_clicks(np.array([int(seed) & _MASK64], dtype=np.uint64),
                _u01_cut(c), k, count)
    return int(count[0])


# ---------------------------------------------------------------------------
# noisy-apparatus Monte Carlo
# ---------------------------------------------------------------------------

def _dark_count_cdf(n: int, p: float) -> np.ndarray:
    # P(X = 0) and P(X <= 1) of Binomial(n, p) (just P(X = 0) when n = 0),
    # with the float operations of the full-table dark-count oracle in
    # tests/test_kernels.py, so equal to its first entries bit for bit
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    q = 1.0 - p
    p0 = q**n
    if n == 0:
        return np.array([p0])
    return np.array([p0, p0 + p0 * n * (p / q)])


def noise_verdicts(p_zero: float, p_one: float, p_survive: float,
                   p_click_n: float, dark_probs, dark_slots: int,
                   k: int, trials: int, master_seed: int):
    """Simulate ``trials`` noisy k-run protocols; yield verdict codes.

    Per run: the source emits 0 / 1 / >=2 photons with probabilities
    (p_zero, p_one, rest); a single photon reaches a detector with
    probability ``p_survive`` and lands on the N detector with probability
    ``p_click_n``; each detector additionally fires on dark counts,
    Binomial(dark_slots, dark_prob).  A run with exactly one detection is
    kept and labeled by its detector; anything else (no detection,
    several detections, or a multi-photon pulse) is dropped.  Verdict per
    trial: 0 = Equal (kept runs, none N), 1 = NotEqual (some kept run N),
    2 = abort (no run kept).

    Every dark probability in the sequence ``dark_probs`` is evaluated
    from one pass of draws, each output compared with every probability's
    cuts.  For each block of trials, in trial order, this yields a uint8
    array whose row ``i`` holds the verdicts of ``dark_probs[i]``.
    """
    photon = [_u01_cut(p_zero), _u01_cut(p_zero + p_one)]
    survive = [_u01_cut(float(p_survive))]
    port = [_u01_cut(float(p_click_n))]
    # a verdict only tells 0, 1 and >= 2 dark counts apart, so counts are
    # capped at 2: the count is the number of the table's first
    # min(slots, 2) entries that the draw reaches; ``dark`` holds those
    # cuts of every probability in turn, ``w`` per probability
    dark_slots = int(dark_slots)
    w = min(dark_slots, 2)
    points = len(dark_probs)
    dark = [_u01_cut(c) for p in dark_probs
            for c in _dark_count_cdf(dark_slots, float(p))[:w]]
    for _, seeds in _trial_blocks(master_seed, trials):
        draws = _Draws(seeds)
        kept = np.zeros((points, seeds.shape[0]), dtype=np.bool_)
        any_n = np.zeros_like(kept)
        for run in range(int(k)):
            # five draws per run in this order; reordering changes every
            # verdict
            j = 5 * run
            emitted, multi = draws.at_least(j + 1, photon)
            [lost] = draws.at_least(j + 2, survive)
            [port_e] = draws.at_least(j + 3, port)
            signal = emitted & ~multi & ~lost
            signal_e = (signal & port_e).astype(np.uint8)
            signal_n = (signal & ~port_e).astype(np.uint8)
            single = ~multi
            dark_e = draws.at_least(j + 4, dark)
            dark_n = draws.at_least(j + 5, dark)
            for i in range(points):
                tot_e = sum(dark_e[i * w:(i + 1) * w], signal_e)
                tot_n = sum(dark_n[i * w:(i + 1) * w], signal_n)
                valid = single & (tot_e + tot_n == 1)
                kept[i] |= valid
                any_n[i] |= valid & (tot_n == 1)
        yield np.where(kept, any_n, np.uint8(2))


# ---------------------------------------------------------------------------
# GF(2) minimum nonzero codeword weight
# ---------------------------------------------------------------------------

# the most 64-bit words in the oracle's held span of low-message
# codewords (128 KiB); a step's bit counts take an eighth of that
_WEIGHT_BLOCK = 1 << 14


def check_oracle(n: int, m: int) -> None:
    """Charge the distance oracle of an n x m generator to the budget."""
    check("oracle word steps", (2, n), (m + 63) // 64)


def min_nonzero_weight(generator: np.ndarray) -> int:
    """Minimum Hamming weight over all 2^n - 1 nonzero messages.

    Each row is packed into W = ceil(m / 64) 64-bit words.  The codewords
    of the 2^b low messages, b the most rows whose span fits in
    ``_WEIGHT_BLOCK`` words, are built once into one held span, entry c
    the XOR of the rows selected by the bits of c.  The 2^(n - b) high
    messages are then walked in Gray order: step s XORs row ``b + ctz(s)``
    into every entry, so the span holds the messages whose high part is
    the Gray code of s, and tallies their weights in the smallest unsigned
    type that holds m + 1.  Memory is flat in n, and only the zero message
    (step 0, entry 0) is skipped.
    """
    g = np.asarray(generator, dtype=np.uint8)
    if g.ndim != 2:
        raise ValueError("generator must be a 2-d bit matrix")
    n, m = g.shape
    check_oracle(n, m)
    w = (m + 63) // 64
    packed = np.zeros((n, 8 * w), dtype=np.uint8)
    packed[:, :(m + 7) // 8] = np.packbits(g, axis=1, bitorder="little")
    rows = packed.view("<u8")
    b = min(n, max(0, (_WEIGHT_BLOCK // max(w, 1)).bit_length() - 1))
    span = np.zeros((1 << b, w), dtype=np.uint64)
    for i in range(b):
        span[1 << i:2 << i] = span[:1 << i] ^ rows[i]
    tally = np.min_scalar_type(m + 1)
    best = m + 1
    for s in range(1 << (n - b)):
        if s:
            span ^= rows[b + (s & -s).bit_length() - 1]
        weights = np.bitwise_count(span).sum(axis=1, dtype=tally)
        # entry 0 of step 0 is the zero message
        best = int(weights[not s:].min(initial=best))
    return best


# ---------------------------------------------------------------------------
# exhaustive simultaneous-message-passing strategy search
# ---------------------------------------------------------------------------
#
# Strategy encoding (decoded by decode_strategy):
#   alice map index ai: digit x in base a  -> message alice sends on input x
#   bob map index bi:   digit y in base b  -> message bob sends on input y
#   referee mask:       bit (i*b + j) set  -> referee answers Equal when
#                       alice sent message i and bob sent message j

# (alice map, bob map) pairs per step: a block's widest temporaries, one
# int64 per pair and referee cell or input digit, take 72 KiB each at
# q = 4 with 3 x 3 messages, and at most 128 KiB (q = 16, 2 x 1) over the
# shapes the "SMP scored pairs" budget admits.  Under glibc's 128 KiB mmap
# threshold the search's peak RSS does not depend on heap layout; at
# 144 KiB it moved by 0.17 MB with the compiled text of other modules
_PAIR_BLOCK = 1 << 10


def _digits(index: np.ndarray, base: int, q: int) -> np.ndarray:
    # row r: the q base-``base`` digits of index[r], least significant first
    return index[:, None] // base ** np.arange(q, dtype=np.int64) % base


def decode_strategy(q: int, alice_msgs: int, bob_msgs: int, alice_index: int,
                    bob_index: int, referee_mask: int) -> tuple:
    """The strategy encoded as above: Alice's and Bob's message maps, as
    tuples of q messages, and the referee's (alice_msgs x bob_msgs) table,
    True where it answers Equal."""
    a, b = alice_msgs, bob_msgs
    return (tuple(alice_index // a**x % a for x in range(q)),
            tuple(bob_index // b**y % b for y in range(q)),
            [[referee_mask >> (i * b + j) & 1 == 1 for j in range(b)]
             for i in range(a)])


def smp_exhaustive_search(q: int, alice_msgs: int,
                          bob_msgs: int) -> tuple[int, int, int, int]:
    """Minimum over every deterministic (alice, bob, referee) strategy triple.

    Returns ``(min_misclassified_pairs, alice_index, bob_index,
    referee_mask)`` under the encoding documented above.

    Once Alice's and Bob's maps are fixed, each referee cell (i, j) is
    decided on its own: answering Equal there errs on its ``n_neq`` unequal
    input pairs, answering NotEqual errs on its ``n_eq`` equal ones.  So the
    best referee costs ``sum(min(n_eq, n_neq))`` over the cells, and the
    optimal masks are exactly those with bit (i, j) set where
    ``n_neq < n_eq``, clear where ``n_neq > n_eq``, and free on ties.  With
    every tie clear this is the numerically smallest optimal mask: the
    first optimum an ascending scan over all ``2^(a*b)`` masks would meet.
    Map pairs are visited in (ai, bi) order, ai-major, in blocks, and only
    a strictly smaller error replaces the incumbent, so the witness is the
    first optimal strategy of the full ai -> bi -> mask scan.
    """
    a, b = alice_msgs, bob_msgs
    cells = a * b
    if cells > 62:
        raise ValueError("referee table exceeds the 64-bit mask encoding")
    bit = np.left_shift(1, np.arange(cells, dtype=np.int64))
    n_bob = b**q
    n_pairs = a**q * n_bob
    best = (q * q + 1, -1, -1, -1)
    for start in range(0, n_pairs, _PAIR_BLOCK):
        pair = np.arange(start, min(start + _PAIR_BLOCK, n_pairs),
                         dtype=np.int64)
        alice, bob = _digits(pair // n_bob, a, q), _digits(pair % n_bob, b, q)
        row = np.arange(pair.size)[:, None]
        n_a = np.bincount((row * a + alice).ravel(), minlength=pair.size * a)
        n_b = np.bincount((row * b + bob).ravel(), minlength=pair.size * b)
        n_eq = np.bincount((row * cells + alice * b + bob).ravel(),
                           minlength=pair.size * cells).reshape(-1, cells)
        n_neq = (n_a.reshape(-1, a, 1) * n_b.reshape(-1, 1, b)).reshape(
            -1, cells) - n_eq
        err = np.minimum(n_eq, n_neq).sum(axis=1)
        j = int(err.argmin())
        if err[j] < best[0]:
            mask = int(bit[n_neq[j] < n_eq[j]].sum())
            best = (int(err[j]), int(pair[j] // n_bob),
                    int(pair[j] % n_bob), mask)
    return best

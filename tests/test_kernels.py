"""Kernel-level tests: stream reproducibility, golden vectors, oracles,
statistics."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfp import (ProtocolParams, ResourceLimitError, encode, hadamard_code,
                 identity_code, kernels, run_batch, run_exact)
from qfp.ecc import random_linear_code
from qfp.errors import LIMITS
from qfp.modes import interferometer
from qfp.protocol import Verdict


# The first outputs of splitmix64 from seed 0 are fixed by the algorithm
# (independently recomputed with the masked-integer reference below).
SM64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def _reference_splitmix(seed, count):
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def _uniforms(seed, count):
    """``count`` uniforms in [0, 1) from the stream at ``seed``: the float
    form of the draws that the samplers compare as raw outputs."""
    return (kernels.splitmix64_stream(seed, count) >> np.uint64(11)) * 2.0**-53


class TestStreams:
    def test_known_vector_seed0(self):
        got = [int(v) for v in kernels.splitmix64_stream(0, 3)]
        assert got == list(SM64_SEED0)

    def test_scalar_matches_vectorized(self):
        for seed in (0, 1, 42, 2**64 - 1, 1234567):
            vec = [int(v) for v in kernels.splitmix64_stream(seed, 8)]
            assert vec == _reference_splitmix(seed, 8)

    def test_derived_seeds_are_master_stream_outputs(self):
        # trial i of a batch gets output i + 1 of the master stream
        master = 987654321
        seeds = np.concatenate(list(kernels._trial_blocks(master, 10)))
        assert [int(s) for s in seeds] == _reference_splitmix(master, 10)

    @pytest.mark.parametrize("start,count", [(0, 10), (1, 9), (7, 3),
                                             (9, 1), (4, 0)])
    def test_offset_seeds_slice_the_stream(self, start, count):
        master = 2**64 - 5
        full = kernels.splitmix64_stream(master, 10)
        got = kernels.splitmix64_stream(master, count, start)
        assert got.dtype == np.uint64
        assert np.array_equal(got, full[start:start + count])

    def test_uniforms_in_unit_interval(self):
        u = _uniforms(7, 10_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0
        # top-53-bit construction: mean near 1/2
        assert abs(u.mean() - 0.5) < 0.02


def _multiples_of_ulp53(draw):
    # i * 2^-53, or one float step either side of it
    c = draw(st.integers(0, 2**53)) * 2.0**-53
    step = draw(st.sampled_from([None, -math.inf, math.inf]))
    return c if step is None else math.nextafter(c, step)


THRESHOLDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.0**-1074 * 3, 2.0**-1022,
                     1.0 - 2.0**-53, 1.0, math.nextafter(1.0, 2.0), 2.0,
                     1e300, math.inf, -1.0, -math.inf]),
    st.floats(0.0, 2.0**-1022),  # subnormals
    st.composite(_multiples_of_ulp53)(),
    st.floats(-1.0, 3.0),
)


class TestCuts:
    @settings(max_examples=500, deadline=None)
    @given(c=THRESHOLDS)
    @example(c=0.25)
    def test_cut_equals_float_comparison(self, c):
        cut = kernels._u01_cut(c)
        assert 0 <= cut <= 2**64
        for z in (cut - 1, cut, cut + 2**11 - 1, 0, 2**64 - 1):
            if 0 <= z < 2**64:
                assert (z >= cut) == (((z >> 11) * 2.0**-53) >= c), z

    def test_constant_cuts(self):
        assert kernels._u01_cut(0.0) == kernels._ALWAYS == 0
        assert kernels._u01_cut(-2.0) == kernels._ALWAYS
        for c in (1.0, 2.0, math.inf):
            assert kernels._u01_cut(c) == kernels._NEVER == 2**64
        assert kernels._u01_cut(1.0 - 2.0**-53) == (2**53 - 1) << 11


class TestRunBudget:
    def test_budget_edge(self):
        budget = LIMITS["runs"]
        full = budget // kernels._TRIAL_BLOCK
        kernels.check_runs(1, budget)
        kernels.check_runs(full, kernels._TRIAL_BLOCK)
        with pytest.raises(ResourceLimitError, match="runs: "):
            kernels.check_runs(1, budget + 1)
        with pytest.raises(ResourceLimitError, match="runs: "):
            kernels.check_runs(full + 1, kernels._TRIAL_BLOCK)

    def test_started_block_counts_as_full(self):
        # one trial costs a block's numpy calls per draw, so a huge k is
        # refused long before k x trials reaches the budget
        full = LIMITS["runs"] // kernels._TRIAL_BLOCK
        kernels.check_runs(full, 1)
        with pytest.raises(ResourceLimitError):
            kernels.check_runs(full + 1, 1)

    def test_sweep_points_multiply_the_runs(self):
        # every point compares every output with its own cuts
        full = LIMITS["runs"] // kernels._TRIAL_BLOCK
        kernels.check_runs(full // 4, 1, 4)
        with pytest.raises(ResourceLimitError, match="runs: "):
            kernels.check_runs(full // 4, 1, 5)

    def test_largest_suite_run_admitted(self):
        kernels.check_runs(10, 10_000_000)


def _sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def _port_probs(code, x, y):
    """The 2m per-mode probabilities of a code protocol, E port then N."""
    phases = np.pi * np.stack([encode(code, x), encode(code, y)])
    return interferometer(phases, code.m).ravel()


def _hadamard_port_probs(x, y):
    return _port_probs(hadamard_code(4), x, y)


def _threshold(probs):
    """The samplers' threshold of a per-mode vector, E half then N half:
    the E half summed left to right, or 1.0 with no N-port mass."""
    probs = np.asarray(probs, dtype=np.float64)
    m = probs.shape[0] // 2
    if not np.any(probs[m:] > 0.0):
        return 1.0
    return float(np.cumsum(probs[:m])[-1])


def _reference_click_count(probs, k, seed):
    """Bisect the cumulative table per draw of the stream at ``seed``,
    clamp past the table to the last positive outcome, test the port."""
    cum = np.cumsum(probs)
    last_pos = int(np.flatnonzero(probs > 0.0)[-1])
    idx = np.searchsorted(cum, _uniforms(seed, k), side="right")
    idx = np.where(idx >= cum.shape[0], last_pos, idx)
    return int((idx >= probs.shape[0] // 2).sum())


def _reference_click_counts(probs, k, trials, master_seed):
    """The reference count of each trial, from its substream seed."""
    return np.array([_reference_click_count(probs, k, int(seed)) for seed
                     in kernels.splitmix64_stream(master_seed, trials)],
                    dtype=np.int64)


def _trial_counts(c, k, trials, master_seed):
    """Per-trial N-click counts of a batch, in one block of the kernel."""
    [(counts, seeds)] = kernels.click_blocks(c, k, trials, master_seed)
    assert np.array_equal(seeds,
                          kernels.splitmix64_stream(master_seed, trials))
    return counts


def _tally(counts, k):
    return np.bincount(counts, minlength=k + 1)


class TestClickCounts:
    def test_golden_bytes(self):
        c = _threshold([0.1, 0.4, 0.3, 0.2])
        counts = _trial_counts(c, 9, 1000, 77).astype(np.int64)
        assert _sha256(counts) == ("f9b0d252b83aec3f7a3a4602abc7d242"
                                   "8c8b15c68914f2b5a5d6e63605264e78")
        tally = kernels.click_counts(c, 9, 1000, 77)
        assert tally.dtype == np.int64
        assert np.array_equal(tally, _tally(counts, 9))

    def test_single_trial_replay(self):
        # each trial replayed from its substream seed alone, against the
        # bisecting reference on the stream of that seed; a seed is read
        # modulo 2^64
        seeds = [*kernels.splitmix64_stream(77, 50).tolist(), 0, 2**64 - 1,
                 -1, 2**64 + 5]
        for probs in ([0.1, 0.4, 0.3, 0.2], [0.5, 0.5, 0.0, 0.0],
                      [0.0, 0.0, 0.5, 0.5]):
            probs = np.asarray(probs)
            for seed in seeds:
                assert kernels.replay_click_count(_threshold(probs), 9,
                                                  seed) == (
                    _reference_click_count(probs, 9, seed % 2**64))

    def test_zero_mass_outcomes_unreachable(self):
        probs = np.array([0.5, 0.5, 0.0, 0.0])
        tally = kernels.click_counts(_threshold(probs), 20, 2_000, 5)
        assert tally.tolist() == [2_000] + [0] * 20

    def test_distribution_sanity(self):
        # single draw per trial, pN = 0.25: frequency within 5 sigma
        probs = np.array([0.375, 0.375, 0.125, 0.125])
        tally = kernels.click_counts(_threshold(probs), 1, 40_000, 99)
        freq = tally[1] / 40_000
        sigma = math.sqrt(0.25 * 0.75 / 40_000)
        assert abs(freq - 0.25) < 5 * sigma

    @pytest.mark.parametrize("probs", [
        # port distributions of three input pairs
        _hadamard_port_probs("0000", "0110"),
        _hadamard_port_probs("0000", "1111"),
        _hadamard_port_probs("0101", "0101"),
        # N tail short of the top, zero, cut off at the last E mode, last only
        [0.25, 0.25, 0.3, 0.1],
        [0.5, 0.5, 0.0, 0.0],
        [0.2, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1e-300],
    ])
    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    def test_matches_bisecting_reference(self, probs, seed):
        probs = np.asarray(probs, dtype=np.float64)
        want = _reference_click_counts(probs, 7, 3_000, seed)
        assert np.array_equal(
            _trial_counts(_threshold(probs), 7, 3_000, seed), want)
        assert np.array_equal(
            kernels.click_counts(_threshold(probs), 7, 3_000, seed),
            _tally(want, 7))


def binomial_cdf(n: int, p: float) -> np.ndarray:
    """CDF table P(X <= j) for j = 0..n, Binomial(n, p), built in float64.

    The full table, in O(n): the dark-count oracle.  ``noise_verdicts``
    uses only its first two entries (see ``kernels._dark_count_cdf``).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    pmf = np.empty(n + 1, dtype=np.float64)
    q = 1.0 - p
    pmf[0] = q**n
    for j in range(n):
        pmf[j + 1] = pmf[j] * ((n - j) / (j + 1.0)) * (p / q)
    return np.cumsum(pmf)


class TestBinomialCdf:
    def test_matches_exact_pmf(self):
        # stdlib comb gives the exact rational pmf
        for n, p in ((0, 0.3), (5, 0.2), (12, 0.5), (30, 0.01)):
            cdf = binomial_cdf(n, p)
            acc = 0.0
            for j in range(n + 1):
                acc += math.comb(n, j) * p**j * (1 - p) ** (n - j)
                assert cdf[j] == pytest.approx(acc, abs=1e-12)

    def test_zero_probability(self):
        cdf = binomial_cdf(10, 0.0)
        assert cdf[0] == 1.0
        assert cdf[-1] == 1.0


DARK_SLOTS = (0, 1, 2, 3, 1000, 48964)
DARK_PROBS = (0.0, 1e-6, 1e-5, 1e-4, 0.3, 0.9)


class TestDarkCountTable:
    @pytest.mark.parametrize("slots", DARK_SLOTS)
    @pytest.mark.parametrize("p", DARK_PROBS)
    def test_first_entries_of_reference_table(self, slots, p):
        got = kernels._dark_count_cdf(slots, p)
        assert np.array_equal(got, binomial_cdf(slots, p)[:2])

    def test_domain(self):
        with pytest.raises(ValueError):
            kernels._dark_count_cdf(-1, 0.1)
        with pytest.raises(ValueError):
            kernels._dark_count_cdf(5, 1.0)


def _advance_u01(states):
    """One stream step for every state, returning uniforms: the float
    form of the draws that the samplers compare as raw outputs."""
    states = states + kernels._GOLDEN
    z = (states ^ (states >> kernels._SH30)) * kernels._MIX1
    z = (z ^ (z >> kernels._SH27)) * kernels._MIX2
    z = z ^ (z >> kernels._SH31)
    return states, (z >> np.uint64(11)) * 2.0**-53


def _reference_noise_verdicts(p_zero, p_one, p_survive, p_click_n,
                              dark_prob, dark_slots, k, trials, seed):
    """noise_verdicts drawing dark counts from the full binomial table."""
    states = kernels.splitmix64_stream(seed, trials)
    cdf = binomial_cdf(dark_slots, dark_prob)
    survived = np.zeros(trials, dtype=np.int64)
    any_n = np.zeros(trials, dtype=bool)
    for _ in range(k):
        states, u_photon = _advance_u01(states)
        states, u_survive = _advance_u01(states)
        states, u_port = _advance_u01(states)
        states, u_dark_e = _advance_u01(states)
        states, u_dark_n = _advance_u01(states)
        multi = u_photon >= p_zero + p_one
        n_e = np.minimum(np.searchsorted(cdf, u_dark_e, side="right"),
                         dark_slots)
        n_n = np.minimum(np.searchsorted(cdf, u_dark_n, side="right"),
                         dark_slots)
        signal = (u_photon >= p_zero) & (u_survive < p_survive) & ~multi
        signal_n = signal & (u_port < p_click_n)
        tot_e = n_e + (signal & ~signal_n)
        tot_n = n_n + signal_n
        valid = ~multi & (tot_e + tot_n == 1)
        survived += valid
        any_n |= valid & (tot_n == 1)
    return np.where(survived == 0, 2, np.where(any_n, 1, 0)).astype(np.uint8)


def _verdicts(p_zero, p_one, p_survive, p_click_n, dark_prob, *rest):
    """The kernel's verdicts of one dark probability, its blocks joined."""
    [row] = np.concatenate(list(kernels.noise_verdicts(
        p_zero, p_one, p_survive, p_click_n, [dark_prob], *rest)), axis=1)
    return row


class TestNoiseVerdicts:
    @pytest.mark.parametrize("slots", DARK_SLOTS)
    @pytest.mark.parametrize("p", DARK_PROBS)
    def test_matches_full_table_reference(self, slots, p):
        args = (0.1, 0.8, 0.9, 0.25, p, slots, 3, 400, slots + 7)
        assert np.array_equal(_verdicts(*args),
                              _reference_noise_verdicts(*args))

    def test_golden_bytes(self):
        verdicts = _verdicts(0.2, 0.7, 0.9, 0.4, 1e-3, 200, 6, 800, 2024)
        assert verdicts.dtype == np.uint8
        assert _sha256(verdicts) == ("458f31734591c3e720e6bb90d65a6020"
                                     "4474138fde781abf1548c7c87091501c")

    def test_clean_limit_never_aborts(self):
        # perfect source and detectors, no dark counts
        verdicts = _verdicts(0.0, 1.0, 1.0, 0.5, 0.0, 100, 4, 3_000, 11)
        assert not np.any(verdicts == 2)

    def test_all_vacuum_always_aborts(self):
        verdicts = _verdicts(1.0, 0.0, 1.0, 0.5, 0.0, 100, 3, 500, 12)
        assert np.all(verdicts == 2)

    def test_clean_equal_inputs_never_flag(self):
        # pN = 0 and no dark counts: NotEqual is impossible
        verdicts = _verdicts(0.0, 1.0, 1.0, 0.0, 0.0, 100, 5, 5_000, 13)
        assert not np.any(verdicts == 1)


BLOCK_TRIALS = 40


@pytest.fixture(params=[1, 7, BLOCK_TRIALS - 1, BLOCK_TRIALS])
def trial_block(request, monkeypatch):
    """Kernel block size: one trial, ragged blocks, a one-trial tail, and
    all trials in one block."""
    monkeypatch.setattr(kernels, "_TRIAL_BLOCK", request.param)
    return request.param


class TestBlockedTrials:
    # every block derives its own seeds, so results match the unblocked
    # references bit for bit whatever the block size

    @pytest.mark.parametrize("probs", [[0.1, 0.4, 0.3, 0.2],
                                       [0.5, 0.5, 0.0, 0.0]])
    def test_click_counts(self, trial_block, probs):
        probs = np.asarray(probs)
        want = _reference_click_counts(probs, 6, BLOCK_TRIALS, 31)
        assert np.array_equal(
            kernels.click_counts(_threshold(probs), 6, BLOCK_TRIALS, 31),
            _tally(want, 6))
        # every kernel block in trial order, none past the last
        blocks = list(kernels.click_blocks(_threshold(probs), 6,
                                           BLOCK_TRIALS, 31))
        assert [len(seeds) for _, seeds in blocks] == [
            min(trial_block, BLOCK_TRIALS - start)
            for start in range(0, BLOCK_TRIALS, trial_block)]
        assert np.array_equal(np.concatenate([c for c, _ in blocks]), want)
        assert np.array_equal(np.concatenate([s for _, s in blocks]),
                              kernels.splitmix64_stream(31, BLOCK_TRIALS))

    @pytest.mark.parametrize("slots,p", [(0, 0.0), (3, 0.3), (1000, 1e-4)])
    def test_noise_verdicts(self, trial_block, slots, p):
        args = (0.1, 0.8, 0.9, 0.25, p, slots, 4, BLOCK_TRIALS, 17)
        got = _verdicts(*args)
        assert got.dtype == np.uint8
        assert np.array_equal(got, _reference_noise_verdicts(*args))

    @pytest.mark.parametrize("slots", [0, 1, 3, 1000])
    def test_noise_verdicts_sweep_rows(self, trial_block, slots):
        # one pass of draws gives every dark probability's verdicts, one
        # uint8 row per probability in each block of trials
        darks = (0.0, 1e-3, 0.3, 0.0)
        args = (0.1, 0.8, 0.9, 0.25, darks, slots, 4, BLOCK_TRIALS, 17)
        blocks = list(kernels.noise_verdicts(*args))
        assert [b.shape for b in blocks] == [
            (4, min(trial_block, BLOCK_TRIALS - start))
            for start in range(0, BLOCK_TRIALS, trial_block)]
        got = np.concatenate(blocks, axis=1)
        assert got.dtype == np.uint8
        for row, dark in zip(got, darks):
            want = _reference_noise_verdicts(*args[:4], dark, *args[5:])
            assert np.array_equal(row, want)

    # every constant cut: no vacuum or no signal photon, certain loss or
    # survival, a certain port, no dark counts or no dark window
    @pytest.mark.parametrize("p_zero,p_one", [(0.0, 1.0), (1.0, 0.0),
                                              (0.3, 0.7), (0.0, 0.6),
                                              (0.2, 0.5)])
    def test_noise_verdicts_constant_cuts(self, trial_block, p_zero, p_one):
        for p_survive in (0.0, 1.0, 0.7):
            for p_click_n in (0.0, 1.0, 0.4):
                for dark_prob in (0.0, 0.3):
                    for slots in (0, 1, 2, 5):
                        args = (p_zero, p_one, p_survive, p_click_n,
                                dark_prob, slots, 3, BLOCK_TRIALS, 23)
                        assert np.array_equal(
                            _verdicts(*args),
                            _reference_noise_verdicts(*args)), args

    @pytest.mark.parametrize("probs", [[0.0, 0.0, 0.5, 0.5],
                                       [0.0, 0.0, 1.0, 0.0]])
    def test_click_counts_every_draw_clicks(self, trial_block, probs):
        probs = np.asarray(probs)
        got = kernels.click_counts(_threshold(probs), 6, BLOCK_TRIALS, 31)
        assert got.tolist() == [0] * 6 + [BLOCK_TRIALS]
        assert np.array_equal(got, _tally(
            _reference_click_counts(probs, 6, BLOCK_TRIALS, 31), 6))

    @pytest.mark.parametrize("k", [3, 255, 256])
    @pytest.mark.parametrize("code,x,y", [
        (hadamard_code(3), "000", "011"),  # pN = 1/2
        (identity_code(1), "0", "1"),  # pN = 1: every trial counts k
    ])
    def test_run_batch_counts(self, trial_block, k, code, x, y):
        # the kernel's k + 1 tally and what draws the trials again; no
        # per-trial count or seed is stored
        batch = run_batch(ProtocolParams(code.n, code, k, 0.01), x, y,
                          master_seed=5, trials=BLOCK_TRIALS)
        c = 1.0 - run_exact(code, x, y)
        assert batch.tally.shape == (k + 1,)
        assert np.array_equal(
            batch.tally, kernels.click_counts(c, k, BLOCK_TRIALS, 5))
        assert (batch.c, batch.k, batch.master_seed) == (c, k, 5)


def _reference_min_weight(gen):
    """Direct enumeration: weight of ``msg @ gen`` for every nonzero msg."""
    n = gen.shape[0]
    msgs = np.arange(1, 1 << n, dtype=np.int64)
    bits = (msgs[:, None] >> np.arange(n)) & 1
    return int(((bits @ gen.astype(np.int64)) & 1).sum(axis=1).min())


class TestMinWeight:
    def test_identity_generator(self):
        assert kernels.min_nonzero_weight(np.eye(6, dtype=np.uint8)) == 1

    # n = 1, odd n, m > 64 and m not a multiple of 64, several words
    @pytest.mark.parametrize("n,m", [(1, 7), (2, 3), (5, 9), (3, 130),
                                     (7, 64), (11, 200), (16, 40)])
    def test_matches_direct_enumeration(self, n, m, monkeypatch):
        rng = np.random.default_rng(n * 1000 + m)
        gen = rng.integers(0, 2, size=(n, m), dtype=np.uint8)
        weight = _reference_min_weight(gen)
        wide = np.ones((n, m + 67), dtype=np.uint8)
        wide[:, :m] = gen
        # a block of 1 word walks every row (b = 0), 16 splits the rows,
        # and the default holds every shape here but (16, 40) in one span
        # (b = n)
        for block in (1, 16, kernels._WEIGHT_BLOCK):
            monkeypatch.setattr(kernels, "_WEIGHT_BLOCK", block)
            assert kernels.min_nonzero_weight(gen) == weight
            # a strided view whose hidden columns are all ones, and bools:
            # the oracle packs what it is given, with no contiguous copy
            assert kernels.min_nonzero_weight(wide[:, :m]) == weight
            assert kernels.min_nonzero_weight(gen.astype(bool)) == weight

    def test_blocked_scan(self, monkeypatch):
        # a span of 8 low messages; the minimum is the last row on its
        # own, a high message, which only counts if the zero-message skip
        # stays at step 0
        monkeypatch.setattr(kernels, "_WEIGHT_BLOCK", 16)
        rng = np.random.default_rng(9)
        gen = rng.integers(0, 2, size=(9, 70), dtype=np.uint8)
        gen[-1] = 0
        gen[-1, 66] = 1
        assert kernels.min_nonzero_weight(gen) == _reference_min_weight(gen)
        assert _reference_min_weight(gen) == 1

    def test_wide_generator_multiword(self):
        # the minimum sits on one word boundary: rows span 0..69 and 60..129
        gen = np.zeros((3, 130), dtype=np.uint8)
        gen[0, :70] = 1
        gen[1, 60:130] = 1
        gen[2, 0] = 1
        assert kernels.min_nonzero_weight(gen) == 1

    def test_planted_codeword_past_enumeration(self):
        # 2^24 messages, too many to enumerate directly: row 23 is rows 0,
        # 3 and 20 XOR a weight-3 word, so that message has weight 3
        rng = np.random.default_rng(24)
        gen = rng.integers(0, 2, size=(24, 64), dtype=np.uint8)
        planted = np.zeros(64, dtype=np.uint8)
        planted[[5, 33, 63]] = 1
        gen[23] = gen[0] ^ gen[3] ^ gen[20] ^ planted
        assert kernels.min_nonzero_weight(gen) == 3

    def test_golden_random_codes(self):
        assert random_linear_code(16, 40, seed=1).t == 7
        assert random_linear_code(20, 64, seed=7).t == 11

    def test_one_dimensional_generator_rejected(self):
        with pytest.raises(ValueError, match="2-d bit matrix"):
            kernels.min_nonzero_weight(np.zeros(4, dtype=np.uint8))

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError, match="oracle word steps"):
            kernels.min_nonzero_weight(np.zeros((31, 4), dtype=np.uint8))


def _reference_smp_search(q, a, b):
    """Full scan: every alice map, bob map and referee mask, in that order.

    Returns the first strategy reaching the minimum number of misclassified
    input pairs, as ``(errors, alice_index, bob_index, referee_mask)``.
    """
    cells = a * b
    n_masks = 1 << cells
    shifts = np.arange(cells, dtype=np.int64)
    best = (q * q + 1, -1, -1, -1)
    for ai in range(a**q):
        alice_map = (ai // a ** np.arange(q, dtype=np.int64)) % a
        for bi in range(b**q):
            bob_map = (bi // b ** np.arange(q, dtype=np.int64)) % b
            cell = alice_map[:, None] * b + bob_map[None, :]
            n_eq = np.bincount(np.diagonal(cell), minlength=cells)
            n_neq = np.bincount(cell.ravel(), minlength=cells) - n_eq
            masks = np.arange(n_masks, dtype=np.int64)
            bits = (masks[:, None] >> shifts) & 1
            err = bits @ n_neq + (1 - bits) @ n_eq
            if int(err.min()) < best[0]:
                best = (int(err.min()), ai, bi, int(err.argmin()))
    return best


def _decode_map(index, base, q):
    out = []
    v = index
    for _ in range(q):
        out.append(v % base)
        v //= base
    return tuple(out)


def _decode_referee(mask, alice_msgs, bob_msgs):
    table = []
    for i in range(alice_msgs):
        row = []
        for j in range(bob_msgs):
            bit = (mask >> (i * bob_msgs + j)) & 1
            row.append(Verdict.EQUAL if bit else Verdict.NOT_EQUAL)
        table.append(tuple(row))
    return tuple(table)


def _assert_decodes(q, a, b, ai, bi, mask):
    alice, bob, says_equal = kernels.decode_strategy(q, a, b, ai, bi, mask)
    assert alice == _decode_map(ai, a, q)
    assert bob == _decode_map(bi, b, q)
    assert says_equal == [[v is Verdict.EQUAL for v in row]
                          for row in _decode_referee(mask, a, b)]
    assert all(type(m) is int for m in alice + bob)


SMP_SHAPES = [(3, 3, 2), (4, 3, 3), (2, 2, 2), (3, 3, 3), (2, 1, 1),
              (3, 2, 2), (4, 2, 2), (3, 2, 3), (4, 4, 2)]


class TestSmpSearch:
    def test_golden_witnesses(self):
        assert kernels.smp_exhaustive_search(3, 3, 2) == (2, 1, 1, 8)
        assert kernels.smp_exhaustive_search(4, 3, 3) == (2, 5, 5, 272)

    @pytest.mark.parametrize("q,a,b", SMP_SHAPES)
    def test_matches_full_scan_including_witness(self, q, a, b):
        assert kernels.smp_exhaustive_search(q, a, b) == \
            _reference_smp_search(q, a, b)

    @pytest.mark.parametrize("q,a,b", [(3, 3, 2), (3, 3, 3)])
    def test_blocked_scan_keeps_first_witness(self, monkeypatch, q, a, b):
        # ties across block boundaries must keep the earlier pair
        monkeypatch.setattr(kernels, "_PAIR_BLOCK", 7)
        assert kernels.smp_exhaustive_search(q, a, b) == \
            _reference_smp_search(q, a, b)

    def test_trit_bit_floor(self):
        best, _, _, _ = kernels.smp_exhaustive_search(3, 3, 2)
        assert best == 2  # 2 of 9 pairs

    def test_full_information_is_perfect(self):
        assert kernels.smp_exhaustive_search(2, 2, 2)[0] == 0
        assert kernels.smp_exhaustive_search(3, 3, 3)[0] == 0

    @pytest.mark.parametrize("q,a,b", [(2, 2, 2), (3, 2, 1), (2, 1, 3),
                                       (3, 2, 2)])
    def test_decode_matches_digit_and_mask_loops(self, q, a, b):
        for ai in range(a**q):
            for bi in range(b**q):
                for mask in range(1 << (a * b)):
                    _assert_decodes(q, a, b, ai, bi, mask)

    @pytest.mark.parametrize("q,a,b", [(3, 3, 2), (4, 3, 3)])
    def test_decode_golden_witnesses(self, q, a, b):
        _assert_decodes(q, a, b, *kernels.smp_exhaustive_search(q, a, b)[1:])

    def test_mask_encoding_guard(self):
        with pytest.raises(ValueError):
            kernels.smp_exhaustive_search(2, 8, 8)

"""Code constructors, the exhaustive distance oracle, and the file format."""

import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfp import (Code, CodeFormatError, CodeKind, DimensionError, DomainError,
                 ResourceLimitError, as_bits, bits_to_hex, bits_to_string,
                 encode, hadamard_code, hamming_distance, identity_code,
                 justesen_nu, load_code, min_distance_bruteforce,
                 random_linear_code, repetition_code, save_code)
from qfp import kernels
from qfp.errors import LIMITS

MAX_ENTRIES = LIMITS["generator entries"]


def _load_text(tmp_path, text):
    """Load ``text`` as a code file written under ``tmp_path``."""
    path = tmp_path / "loaded.code"
    path.write_text(text, encoding="utf-8")
    return load_code(path)


def pairwise_min_distance(code):
    """Independent oracle: smallest distance over all codeword pairs."""
    words = [encode(code, [(msg >> j) & 1 for j in range(code.n)])
             for msg in range(1 << code.n)]
    return min(int(np.count_nonzero(a != b))
               for a, b in itertools.combinations(words, 2))


class TestBitHelpers:
    def test_string_round_trip(self):
        assert bits_to_string(as_bits("10110")) == "10110"

    def test_hex_is_msb_first(self):
        assert bits_to_hex("0000") == "0"
        assert bits_to_hex("1011") == "b"
        assert bits_to_hex("00010000") == "10"

    def test_bad_bits_rejected(self):
        with pytest.raises(DomainError):
            as_bits("012")
        with pytest.raises(DomainError):
            as_bits("1\u0661")  # a non-ASCII digit
        with pytest.raises(DomainError):
            as_bits([0, 2])
        with pytest.raises(DimensionError):
            as_bits([])


class TestEncode:
    def test_identity_passthrough(self):
        code = identity_code(4)
        assert bits_to_string(encode(code, "1011")) == "1011"

    def test_repetition_is_blockwise(self):
        code = repetition_code(2, 3)
        assert bits_to_string(encode(code, "10")) == "111000"
        assert bits_to_string(encode(code, "01")) == "000111"

    def test_hadamard_all_parities(self):
        # columns are z = 00, 01, 10, 11; bits are <x, z> mod 2
        code = hadamard_code(2)
        assert bits_to_string(encode(code, "11")) == "0110"

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            encode(identity_code(4), "101")

    def test_hamming_distance_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_distance("01", "011")

    def test_zero_message_maps_to_zero_word(self):
        code = hadamard_code(3)
        assert not encode(code, "000").any()


class TestConstructors:
    def test_hadamard_small(self):
        code = hadamard_code(1)
        assert (code.m, code.t) == (2, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_hadamard_distance_certified(self, n):
        code = hadamard_code(n)
        assert code.t == 2 ** (n - 1)
        assert min_distance_bruteforce(code) == code.t

    def test_hadamard_relative_distance_half(self):
        assert hadamard_code(4).relative_distance == 0.5

    def test_repetition_identity_limit(self):
        assert repetition_code(2, 1).t == 1

    def test_repetition_distance_certified(self):
        code = repetition_code(3, 5)
        assert (code.m, code.t) == (15, 5)
        assert min_distance_bruteforce(code) == 5

    def test_single_bit_repetition(self):
        code = repetition_code(1, 7)
        assert (code.m, code.t) == (7, 7)
        assert min_distance_bruteforce(code) == 7

    def test_identity_distance(self):
        code = identity_code(5)
        assert code.t == min_distance_bruteforce(code) == 1

    def test_size_guards(self):
        with pytest.raises(ResourceLimitError):
            hadamard_code(21)
        # 2^31 messages x 1 word
        with pytest.raises(ResourceLimitError, match="oracle word steps"):
            random_linear_code(31, 8, 0)
        # 2^20 messages x 1025 words, and x 16384 words (over 30 s of work)
        for m in (65537, 1 << 20):
            with pytest.raises(ResourceLimitError,
                               match="oracle word steps"):
                random_linear_code(20, m, 0)
        with pytest.raises(ResourceLimitError, match="oracle word steps"):
            min_distance_bruteforce(hadamard_code(20))
        with pytest.raises(DomainError):
            repetition_code(0, 3)

    @pytest.mark.parametrize("n", [4580, 10**20])
    def test_identity_size_guard(self, n):
        # refused before the n x n generator is allocated
        assert n * n > MAX_ENTRIES
        with pytest.raises(ResourceLimitError):
            identity_code(n)

    def test_repetition_size_guard(self):
        code = repetition_code(1, MAX_ENTRIES)
        assert code.generator.size == MAX_ENTRIES
        for n, r in ((1, MAX_ENTRIES + 1), (2, 10**20),
                     (10**10, 10**10)):
            with pytest.raises(ResourceLimitError):
                repetition_code(n, r)


class TestRandomLinear:
    @pytest.mark.parametrize("n,m", [(4, 10**20),
                                     (1, MAX_ENTRIES + 1),
                                     (20, MAX_ENTRIES // 20 + 1)])
    def test_size_guard(self, n, m):
        # refused before the stream words of the n x m generator are drawn
        assert n * m > MAX_ENTRIES
        with pytest.raises(ResourceLimitError,
                           match="generator entries"):
            random_linear_code(n, m, 0)

    def test_deterministic_given_seed(self):
        a = random_linear_code(4, 16, seed=11)
        b = random_linear_code(4, 16, seed=11)
        assert a.t == b.t
        assert np.array_equal(a.generator, b.generator)
        c = random_linear_code(4, 16, seed=12)
        assert not np.array_equal(a.generator, c.generator)

    def test_seed_sweep_distances_certified(self):
        # every declared t comes from the oracle; the best over 100 seeds
        # stays below half the length plus slack
        ts = []
        for seed in range(100):
            code = random_linear_code(8, 32, seed=seed)
            ts.append(code.t)
            assert 0 <= code.t <= 32
        assert max(ts) <= 18
        assert max(ts) >= 1

    def test_degenerate_generator_flagged(self):
        # seed 0 gives a singular 2x2 generator: two messages collide
        code = random_linear_code(2, 2, seed=0)
        assert code.t == 0
        assert code.degenerate
        assert not random_linear_code(8, 32, seed=0).degenerate

    def test_oracle_agrees_with_pairwise_enumeration(self):
        for seed in range(6):
            code = random_linear_code(5, 10, seed=seed)
            assert min_distance_bruteforce(code) == pairwise_min_distance(code)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_linearity_and_declared_distance(self, seed):
        code = random_linear_code(6, 14, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            x = rng.integers(0, 2, 6, dtype=np.uint8)
            y = rng.integers(0, 2, 6, dtype=np.uint8)
            dist = hamming_distance(encode(code, x), encode(code, y))
            assert dist == int(encode(code, x ^ y).sum())
            if not np.array_equal(x, y):
                assert dist >= code.t

    def test_encode_injective_when_distance_positive(self):
        code = random_linear_code(4, 12, seed=11)
        assert code.t >= 1
        words = {bits_to_string(encode(code, [(m >> j) & 1 for j in range(4)]))
                 for m in range(16)}
        assert len(words) == 16


class TestJustesenNu:
    def test_rate_half_value(self):
        assert justesen_nu(2) == pytest.approx(1 / 15, abs=1e-15)

    def test_supremum_one_tenth(self):
        assert justesen_nu(1e6) == pytest.approx(0.1, abs=1e-7)

    def test_mu_three(self):
        assert justesen_nu(3) == pytest.approx(7 / 90, abs=1e-15)

    def test_domain_edge(self):
        justesen_nu(2.0)  # closed endpoint allowed
        with pytest.raises(DomainError):
            justesen_nu(1.999)


class TestCodeFiles:
    @pytest.mark.parametrize("code", [
        identity_code(3),
        repetition_code(2, 4),
        hadamard_code(3),
        random_linear_code(4, 10, seed=5),
    ], ids=lambda c: c.kind.value)
    def test_round_trip_bit_exact(self, code, tmp_path):
        path = tmp_path / "code.txt"
        save_code(code, path)
        back = load_code(path)
        assert (back.n, back.m, back.t, back.kind) == (code.n, code.m,
                                                       code.t, code.kind)
        assert np.array_equal(back.generator, code.generator)
        # a second save is byte-identical
        first = path.read_text()
        save_code(back, path)
        assert path.read_text() == first

    @pytest.mark.parametrize("code", [
        hadamard_code(3),
        random_linear_code(4, 10, seed=5),
    ], ids=lambda c: c.kind.value)
    def test_crlf_file_loads_as_lf(self, code, tmp_path):
        # a file with CRLF line ends loads as the same code
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        save_code(code, lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in crlf.read_bytes()
        back = load_code(crlf)
        assert (back.n, back.m, back.t, back.kind) == (code.n, code.m,
                                                       code.t, code.kind)
        assert np.array_equal(back.generator, load_code(lf).generator)

    def test_bytes_path_saved_in_place(self, tmp_path):
        # a bytes path names the same file, its temp file renamed onto it
        save_code(repetition_code(2, 2), os.fsencode(tmp_path / "code.txt"))
        assert os.listdir(tmp_path) == ["code.txt"]
        assert (tmp_path / "code.txt").read_text() == (
            "2 4 2 Repetition\n1100\n0011\n")

    def test_header_format(self, tmp_path):
        save_code(repetition_code(2, 2), tmp_path / "code.txt")
        lines = (tmp_path / "code.txt").read_text().splitlines()
        assert lines[0] == "2 4 2 Repetition"
        assert lines[1:] == ["1100", "0011"]

    def test_malformed_files_rejected(self, tmp_path):
        for text in ("", "1 2\n", "1 2 1 Nonsense\n10\n",
                     "2 3 1 Identity\n101\n", "1 3 1 Identity\n10\n",
                     "1 3 1 Identity\n102\n", "1 2 1 Identity\n1\u0661\n"):
            with pytest.raises(CodeFormatError):
                _load_text(tmp_path, text)

    @pytest.mark.parametrize("text, message", [
        ("-1 4 2 Identity\n", "must be >= 1"),
        ("0 4 2 Identity\n", "must be >= 1"),
        ("1 0 0 Identity\n1\n", "must be >= 1"),
        ("1 -3 1 Identity\n1\n", "must be >= 1"),
        ("1 1000000000000 1 Identity\n1\n", "row 1 is not"),
        ("2 1000000000000 1 Identity\n10\n01\n", "row 1 is not"),
    ], ids=["n_negative", "n_zero", "m_zero", "m_negative", "m_huge",
            "m_huge_two_rows"])
    def test_header_bounds_rejected(self, text, message, tmp_path):
        # a header m beyond the file fails on the rows, before allocating
        with pytest.raises(CodeFormatError, match=message):
            _load_text(tmp_path, text)

    def test_header_over_budget_refused_before_rows(self, tmp_path):
        # the header's Hadamard code (21 x 2^21 entries) is made, and
        # refused, before the missing rows are counted
        with pytest.raises(ResourceLimitError, match="generator entries"):
            _load_text(tmp_path, "21 2097152 1048576 Hadamard\n")

    @pytest.mark.parametrize("text, message", [
        ("2 3 1 Identity\n102\n", "expected 2 generator rows, got 1"),
        ("1 2 1 Identity\n10\n\n0x\n", "expected 1 generator rows, got 2"),
        ("3 2 1 Identity\n10\n1x\n\n01\n", "row 2 is not 2 bits"),
        ("2 2 1 Identity\n10\n011\n", "row 2 is not 2 bits"),
    ])
    def test_row_count_reported_before_bad_row(self, text, message,
                                               tmp_path):
        # rows are checked as they are read, but a wrong row count is
        # still the error reported, whatever the rows hold
        with pytest.raises(CodeFormatError, match=message):
            _load_text(tmp_path, text)

    @pytest.mark.parametrize("text", [
        "2 4 2 Hadamard\n1111\n0000\n",
        "2 4 1 Hadamard\n0101\n0011\n",
        "2 3 1 Hadamard\n010\n001\n",
        "3 3 2 Identity\n100\n010\n001\n",
        "2 2 1 Identity\n01\n10\n",
        "2 3 1 Identity\n100\n010\n",
        "2 4 2 Repetition\n1010\n0101\n",
        "2 5 2 Repetition\n11000\n00111\n",
    ], ids=["hadamard_generator", "hadamard_t", "hadamard_m",
            "identity_t", "identity_generator", "identity_m",
            "repetition_generator", "repetition_m"])
    def test_header_kind_checked(self, text, tmp_path):
        with pytest.raises(CodeFormatError):
            _load_text(tmp_path, text)

    @pytest.mark.parametrize("code", [
        identity_code(1), identity_code(6),
        repetition_code(1, 1), repetition_code(3, 1), repetition_code(4, 3),
        hadamard_code(1), hadamard_code(5),
    ], ids=lambda c: f"{c.kind.value}-{c.n}x{c.m}")
    def test_canonical_exports_load(self, code, tmp_path):
        save_code(code, tmp_path / "code.txt")
        back = load_code(tmp_path / "code.txt")
        assert (back.n, back.m, back.t, back.kind) == (code.n, code.m,
                                                       code.t, code.kind)
        assert np.array_equal(back.generator, code.generator)

    def test_declared_distance_mismatch_detectable(self, tmp_path):
        # load trusts a random code's header; the oracle exposes a tampered t
        save_code(random_linear_code(4, 10, seed=5), tmp_path / "code.txt")
        tampered = (tmp_path / "code.txt").read_text().replace("4 10 1",
                                                               "4 10 2")
        code = _load_text(tmp_path, tampered)
        assert code.t == 2
        assert min_distance_bruteforce(code) == 1


class TestCodeType:
    def test_generator_shape_checked(self):
        with pytest.raises(DimensionError):
            Code(2, 3, 1, CodeKind.IDENTITY, np.eye(2, dtype=np.uint8))

    def test_generator_entries_must_be_bits(self):
        gen = np.array([[0, 2], [1, 0]], dtype=np.uint8)
        with pytest.raises(DomainError, match="must be bits"):
            Code(2, 2, 1, CodeKind.RANDOM_LINEAR, gen)

    def test_generator_read_only(self):
        code = identity_code(2)
        with pytest.raises(ValueError):
            code.generator[0, 0] = 0

    def test_distance_range_checked(self):
        with pytest.raises(DomainError):
            Code(2, 2, 3, CodeKind.IDENTITY, np.eye(2, dtype=np.uint8))


def constructed_generator(kind, n, r=None, m=None, seed=None):
    """The generator of each kind as it was built and stored before the
    formula codes: the independent reference for ``code.generator``."""
    if kind is CodeKind.IDENTITY:
        return np.eye(n, dtype=np.uint8)
    if kind is CodeKind.REPETITION:
        return np.repeat(np.eye(n, dtype=np.uint8), r, axis=1)
    if kind is CodeKind.HADAMARD:  # message bit j against bit j of z
        z = np.arange(1 << n)
        return ((z[None, :] >> np.arange(n)[:, None]) & 1).astype(np.uint8)
    words = kernels.splitmix64_stream(seed, n * ((m + 63) // 64))
    bits = np.unpackbits(words.astype("<u8").view(np.uint8),
                         bitorder="little")
    return bits.reshape(n, -1)[:, :m]


FORMULA_CASES = [
    (identity_code(1), (CodeKind.IDENTITY, 1)),
    (identity_code(6), (CodeKind.IDENTITY, 6)),
    (repetition_code(1, 7), (CodeKind.REPETITION, 1, 7)),
    (repetition_code(3, 5), (CodeKind.REPETITION, 3, 5)),
    *((hadamard_code(n), (CodeKind.HADAMARD, n)) for n in range(1, 9)),
]
FORMULA_IDS = [f"{code.kind.value}-{code.n}x{code.m}"
               for code, _ in FORMULA_CASES]


def _messages(n):
    return np.array([[(msg >> j) & 1 for j in range(n)]
                     for msg in range(1 << n)], dtype=np.uint8)


class TestFormulaCodes:
    @pytest.mark.parametrize("code, ref", [
        *FORMULA_CASES,
        (random_linear_code(5, 70, seed=3),
         (CodeKind.RANDOM_LINEAR, 5, None, 70, 3)),
    ], ids=[*FORMULA_IDS, "RandomLinear-5x70"])
    def test_generator_equals_construction(self, code, ref):
        gen = code.generator
        assert gen.dtype == np.uint8 and not gen.flags.writeable
        assert np.array_equal(gen, constructed_generator(*ref))
        assert code.generator is gen  # built once, then kept

    @pytest.mark.parametrize("code, ref", FORMULA_CASES, ids=FORMULA_IDS)
    def test_encode_every_message_equals_generator_xor(self, code, ref):
        # the code encodes from its row formulas: its generator is read
        # only after every message has been encoded
        msgs = _messages(code.n)
        words = np.array([encode(code, x) for x in msgs])
        gen = code.generator
        assert np.array_equal(words, (msgs.astype(np.int64) @ gen) & 1)
        for x, word in zip(msgs, words):
            assert np.array_equal(encode(code, x), word)  # stored rows

    def test_hadamard_20_sampled_messages(self):
        code = hadamard_code(20)
        rng = np.random.default_rng(20)
        msgs = [rng.integers(0, 2, 20, dtype=np.uint8) for _ in range(4)]
        msgs += [np.ones(20, dtype=np.uint8), np.eye(20, dtype=np.uint8)[19]]
        words = [encode(code, x) for x in msgs]
        gen = hadamard_code(20).generator
        for x, word in zip(msgs, words):
            want = np.zeros(code.m, dtype=np.uint8)
            for i in np.flatnonzero(x):
                want ^= gen[i]
            assert np.array_equal(word, want)

    def test_hadamard_20_encodes_without_its_generator(self):
        # one 1 MiB word, where the 20 x 2^20 generator takes 20 MiB
        tracemalloc.start()
        try:
            encode(hadamard_code(20), "1" * 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20

    def test_formula_rows(self):
        code = repetition_code(3, 2)
        assert [bits_to_string(code.row(i)) for i in range(3)] == [
            "110000", "001100", "000011"]

    def test_stored_generator_is_used(self):
        # an explicit generator wins over the kind's formula
        gen = np.array([[0, 1, 1], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
        code = Code(3, 3, 1, CodeKind.IDENTITY, gen)
        assert code.generator is gen
        assert bits_to_string(encode(code, "110")) == "101"

    @pytest.mark.parametrize("n, m, kind", [
        (2, 3, CodeKind.IDENTITY), (2, 5, CodeKind.REPETITION),
        (3, 9, CodeKind.HADAMARD), (10**20, 4, CodeKind.HADAMARD),
        (2, 4, CodeKind.RANDOM_LINEAR),
        # an empty shape has no formula: without the n, m >= 1 guard,
        # (0, 0) would pass m == n and (0, 3) would divide by n = 0
        (0, 0, CodeKind.IDENTITY), (0, 3, CodeKind.REPETITION),
    ])
    def test_no_formula_without_generator(self, n, m, kind):
        with pytest.raises(DimensionError):
            Code(n, m, 1, kind)

"""Protocol engine: exact statistics, seeded sampling, repetition math,
and the small-alphabet phase protocols."""

import csv
import io
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfp import (DimensionError, DomainError, ProtocolParams, Verdict,
                 amplified_error_bound, batch_rows, bits_to_hex, encode, exact_report_row, hadamard_code,
                 hamming_distance, identity_code, phase_protocol_average_error,
                 phase_protocol_pn, random_linear_code, repetition_code,
                 repetitions_needed, run_batch, run_exact, run_sampled)
from qfp import kernels, protocol, reports
from qfp.errors import LIMITS, ResourceLimitError
from qfp.protocol import (PHASE_CSV_FIELDS, RUN_CSV_FIELDS, BatchResult,
                          phase_protocol_table, phase_rows)


def random_message(rng, n):
    return rng.integers(0, 2, n, dtype=np.uint8)


CODES = [
    identity_code(5),
    repetition_code(3, 4),
    hadamard_code(4),
    random_linear_code(6, 12, seed=3),
]


class TestRunExact:
    def test_equal_inputs_never_click_n(self):
        for code in CODES:
            rng = np.random.default_rng(17)
            for _ in range(10):
                x = random_message(rng, code.n)
                assert run_exact(code, x, x) == 0.0

    def test_hadamard_neighbor_pair(self):
        assert run_exact(hadamard_code(4), "0000", "0001") == pytest.approx(
            0.5, abs=1e-12)

    def test_identity_single_differing_bit(self):
        assert run_exact(identity_code(3), "101", "100") == pytest.approx(
            1 / 3, abs=1e-12)

    @pytest.mark.parametrize("code", CODES, ids=lambda c: c.kind.value)
    def test_matches_hamming_fraction(self, code):
        rng = np.random.default_rng(23)
        for _ in range(200):
            x = random_message(rng, code.n)
            y = random_message(rng, code.n)
            expected = hamming_distance(encode(code, x),
                                        encode(code, y)) / code.m
            assert run_exact(code, x, y) == pytest.approx(expected,
                                                          abs=1e-12)

    def test_symmetric_exactly(self):
        code = hadamard_code(4)
        rng = np.random.default_rng(29)
        for _ in range(50):
            x = random_message(rng, 4)
            y = random_message(rng, 4)
            assert run_exact(code, x, y) == run_exact(code, y, x)

    def test_depends_only_on_xor_for_linear_codes(self):
        code = random_linear_code(6, 12, seed=4)
        rng = np.random.default_rng(31)
        zero = np.zeros(6, dtype=np.uint8)
        for _ in range(50):
            x = random_message(rng, 6)
            y = random_message(rng, 6)
            assert run_exact(code, x, y) == run_exact(code, x ^ y, zero)

    def test_distance_floor_for_unequal_inputs(self):
        for code in CODES:
            rng = np.random.default_rng(37)
            floor = code.t / code.m
            for _ in range(50):
                x = random_message(rng, code.n)
                y = random_message(rng, code.n)
                if not np.array_equal(x, y):
                    assert run_exact(code, x, y) + 1e-12 >= floor

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            run_exact(identity_code(3), "10", "110")


def pipeline_ports(phases_a, phases_b):
    """Full-state oracle: the float operations of a (2, m) state pipeline.

    The photon is split over both branches and all m modes, each branch
    is phase-modulated in turn, the beam splitter recombines them mode by
    mode, and the port probabilities are the squared moduli: row 0 the E
    port, row 1 the N port, column i mode i + 1.
    """
    m = len(phases_a)
    amps = np.full((2, m), 1.0 / np.sqrt(2.0 * m), dtype=np.complex128)
    for row, phases in enumerate((phases_a, phases_b)):
        amps[row] = amps[row] * np.exp(
            1j * np.asarray(phases, dtype=np.float64))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    ports = np.empty_like(amps)
    ports[0] = (amps[0] + amps[1]) * inv_sqrt2
    ports[1] = (amps[0] - amps[1]) * inv_sqrt2
    return np.abs(ports) ** 2


def pipeline_port_statistics(code, x, y):
    """Both codewords imprinted as pi-phase flips on their branches."""
    return pipeline_ports(np.pi * encode(code, x), np.pi * encode(code, y))


def all_messages(n):
    return [np.array([(v >> (n - 1 - j)) & 1 for j in range(n)],
                     dtype=np.uint8) for v in range(1 << n)]


SMALL_CODES = [family(n) for n in range(1, 5) for family in (
    identity_code, lambda n: repetition_code(n, 3), hadamard_code,
    lambda n: random_linear_code(n, 2 * n + 5, seed=n))]


class TestClassEvaluation:
    """pN and the sampling threshold, evaluated per bit-pair class, equal
    those of the full (2, m) state pipeline bit for bit: pN the N-port
    sum, the threshold the E-port cumsum (1.0 with no N-port mass)."""

    @staticmethod
    def assert_matches_pipeline(code, x, y):
        per_mode = pipeline_port_statistics(code, x, y)
        p_not_equal = float(per_mode[1].sum())
        threshold = (float(np.cumsum(per_mode[0])[-1])
                     if np.any(per_mode[1] > 0.0) else 1.0)
        pn, c = protocol._sampling_inputs(code, x, y)
        assert pn.hex() == p_not_equal.hex()
        assert c.hex() == threshold.hex()
        assert run_exact(code, x, y).hex() == p_not_equal.hex()

    @pytest.mark.parametrize("code", SMALL_CODES,
                             ids=lambda c: f"{c.kind.value}-{c.n}-{c.m}")
    def test_every_pair_of_small_codes(self, code):
        messages = all_messages(code.n)
        for x in messages:
            for y in messages:
                self.assert_matches_pipeline(code, x, y)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_random_pairs_of_hadamard(self, n):
        rng = np.random.default_rng(n)
        code = hadamard_code(n)
        for _ in range(2 if n < 18 else 1):
            self.assert_matches_pipeline(code, random_message(rng, n),
                                         random_message(rng, n))

    @pytest.mark.parametrize("block", [128, 129, 1000, 1001])
    def test_threshold_blocks(self, monkeypatch, block):
        # the threshold's total is carried from block to block, so every
        # block size numpy's pairwise order admits (>= 128) sums the E port
        # as one left-to-right pass, and pN is unchanged
        monkeypatch.setattr(protocol, "_PN_LEAF", block)
        rng = np.random.default_rng(block)
        code = random_linear_code(8, 1001, seed=1001)
        for _ in range(4):
            self.assert_matches_pipeline(code, random_message(rng, 8),
                                         random_message(rng, 8))

    @pytest.mark.parametrize("n,m", [(5, 333), (8, 1001), (12, 4097)])
    def test_random_pairs_of_random_codes_odd_m(self, n, m):
        rng = np.random.default_rng(m)
        code = random_linear_code(n, m, seed=m)
        for _ in range(8):
            self.assert_matches_pipeline(code, random_message(rng, n),
                                         random_message(rng, n))


PAIRWISE_LENGTHS = [1, 7, 8, 127, 128, 129, 8191, 8192, 8193,
                    (1 << 16) - 1, (1 << 16) + 1, (1 << 17) + 1,
                    (1 << 20) + 3, 3 * (1 << 18) + 5]


class TestPairwiseSum:
    """pN is summed leaf by leaf in numpy's pairwise order, never gathered
    whole.  That order is numpy's internal; these tests pin it to the
    installed numpy, so a numpy that sums in another order fails here
    before it fails a golden."""

    @pytest.mark.parametrize("leaf", [128, 1 << 16])
    @pytest.mark.parametrize("length", PAIRWISE_LENGTHS)
    def test_equals_numpy_sum(self, monkeypatch, leaf, length):
        monkeypatch.setattr(protocol, "_PN_LEAF", leaf)
        rng = np.random.default_rng(length)
        for _ in range(3):
            # per-class values of spread magnitudes: a sum in any other
            # order rounds differently at some of these lengths
            values = rng.random(4) * 2.0 ** rng.integers(-30, 1, 4)
            pair = rng.integers(0, 4, length, dtype=np.uint8)
            expected = float(np.sum(values[pair]))
            streamed = protocol._pairwise_sum(values, pair)
            assert streamed.hex() == expected.hex(), (
                f"numpy {np.__version__} sums {length} float64 values in "
                f"another order: {streamed!r} != {expected!r}")

    @pytest.mark.parametrize("code", [
        *CODES, identity_code(4096), repetition_code(3, 50001),
        hadamard_code(18), random_linear_code(8, (1 << 16) + 5, seed=5),
    ], ids=lambda c: f"{c.kind.value}-{c.m}")
    def test_pn_is_the_gathered_sum(self, code):
        rng = np.random.default_rng(code.m)
        for _ in range(2):
            x, y = random_message(rng, code.n), random_message(rng, code.n)
            table, pair = protocol._port_table(code, x, y)
            gathered = float(table[1][pair].sum())
            assert run_exact(code, x, y).hex() == gathered.hex()
            assert protocol._sampling_inputs(code, x, y)[0].hex() == \
                gathered.hex()


class TestProtocolParams:
    def test_validation(self):
        code = hadamard_code(3)
        with pytest.raises(DomainError):
            ProtocolParams(3, code, 0, 0.01)
        with pytest.raises(DomainError):
            ProtocolParams(3, code, 1, 0.5)
        with pytest.raises(DimensionError):
            ProtocolParams(4, code, 1, 0.01)

    def test_for_error_target(self):
        code = hadamard_code(3)  # relative distance 1/2
        params = ProtocolParams.for_error_target(code, 0.01)
        assert params.k == 7  # smallest k with 2^-k <= 0.01

    def test_justesen_rate_target(self):
        # relative distance 1/15 needs 67 runs for a 1% miss bound
        code = repetition_code(1, 15)
        weak = ProtocolParams(1, code, 1, 0.01)
        assert weak.code.relative_distance == 1.0
        assert repetitions_needed(1 / 15, 0.01) == 67


class TestRunSampled:
    def test_equal_inputs_one_sided(self):
        code = hadamard_code(4)
        params = ProtocolParams(4, code, 10, 0.01)
        for seed in (0, 1, 99, 2**63):
            result = run_sampled(params, "1010", "1010", seed)
            assert result.verdict is Verdict.EQUAL
            assert result.n_clicks_not_equal == 0
            assert result.pn_exact == 0.0

    def test_certain_difference_always_flagged(self):
        # one mode, differing bits: pN = 1
        code = identity_code(1)
        params = ProtocolParams(1, code, 3, 0.01)
        for seed in range(20):
            result = run_sampled(params, "1", "0", seed)
            assert result.pn_exact == pytest.approx(1.0, abs=1e-12)
            assert result.verdict is Verdict.NOT_EQUAL
            assert result.n_clicks_not_equal == 3

    def test_reproducible_and_recorded(self):
        code = hadamard_code(4)
        params = ProtocolParams(4, code, 8, 0.01)
        a = run_sampled(params, "0000", "0001", 1234)
        b = run_sampled(params, "0000", "0001", 1234)
        assert (a.verdict, a.n_clicks_not_equal, a.pn_exact, a.seed) == (
            b.verdict, b.n_clicks_not_equal, b.pn_exact, b.seed)
        assert a.seed == 1234
        assert a.pn_exact == pytest.approx(0.5)
        # the N clicks among the k = 8 runs
        assert 0 <= a.n_clicks_not_equal <= 8

    def test_verdict_rule_matches_clicks(self):
        code = hadamard_code(4)
        params = ProtocolParams(4, code, 5, 0.01)
        for seed in range(30):
            result = run_sampled(params, "0000", "1001", seed)
            expected = (Verdict.NOT_EQUAL if result.n_clicks_not_equal
                        else Verdict.EQUAL)
            assert result.verdict is expected


class TestRunBatch:
    def test_trials_replay_from_recorded_seeds(self):
        code = hadamard_code(4)
        params = ProtocolParams(4, code, 6, 0.01)
        batch = run_batch(params, "0000", "0111", master_seed=5, trials=25)
        seeds = kernels.splitmix64_stream(5, 25)
        for i in range(25):
            single = run_sampled(params, "0000", "0111", int(seeds[i]))
            assert single.n_clicks_not_equal == int(batch.n_clicks[i])

    def test_not_equal_frequency_within_3_sigma(self):
        code = hadamard_code(4)
        params = ProtocolParams(4, code, 10, 0.01)
        trials = 20_000
        batch = run_batch(params, "0000", "0001", master_seed=11,
                          trials=trials)
        p = 1.0 - 0.5**10
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(batch.not_equal_fraction - p) < 3 * sigma

    def test_one_sided_error_in_bulk(self):
        code = hadamard_code(4)
        params = ProtocolParams(4, code, 10, 0.01)
        batch = run_batch(params, "0110", "0110", master_seed=3,
                          trials=50_000)
        assert batch.n_not_equal == 0


class TestRepetitionMath:
    def test_justesen_rate_case(self):
        assert repetitions_needed(1 / 15, 0.01) == 67

    def test_half_half(self):
        assert repetitions_needed(0.5, 0.5) == 1

    def test_third_case_by_direct_powering(self):
        # independent oracle: scan k upward using plain powering
        k = 1
        while (2 / 3) ** k > 0.01:
            k += 1
        assert k == 12
        assert repetitions_needed(1 / 3, 0.01) == k

    @settings(max_examples=200, deadline=None)
    @given(nu=st.floats(1e-6, 1 - 1e-6), eps=st.floats(1e-9, 1 - 1e-9))
    # the log ratio gives 30 and the downward correction 29
    @example(nu=0.5, eps=2**-29)
    # the log ratio gives 70 and the upward correction 71: eps is the
    # float just below (1 - 4/401)^70
    @example(nu=4 / 401, eps=0.4957119517680512)
    def test_defining_inequality(self, nu, eps):
        k = repetitions_needed(nu, eps)
        assert (1 - nu) ** k <= eps
        if k > 1:
            assert (1 - nu) ** (k - 1) > eps

    def test_domain_errors(self):
        for nu, eps in ((0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(DomainError):
                repetitions_needed(nu, eps)

    def test_bound_values(self):
        bound = amplified_error_bound(1 / 15, 67)
        assert bound <= 0.01
        assert 0.009 < bound
        assert amplified_error_bound(0.3, 1) == pytest.approx(0.7)
        assert amplified_error_bound(0.5, 10) == 2.0**-10

    def test_bound_domain(self):
        with pytest.raises(DomainError):
            amplified_error_bound(0.5, 0)
        with pytest.raises(DomainError):
            amplified_error_bound(1.0, 3)


class TestPhaseProtocol:
    def test_bit_protocol_error_free(self):
        assert phase_protocol_pn(2, 0, 1) == pytest.approx(1.0, abs=1e-12)
        assert phase_protocol_pn(2, 1, 0) == pytest.approx(1.0, abs=1e-12)
        assert phase_protocol_pn(2, 0, 0) == 0.0
        assert phase_protocol_pn(2, 1, 1) == 0.0

    def test_trit_protocol_three_quarters(self):
        for x in range(3):
            for y in range(3):
                if x != y:
                    assert phase_protocol_pn(3, x, y) == pytest.approx(
                        0.75, abs=1e-12)

    def test_equal_symbols_exactly_zero(self):
        for q in (2, 3, 5, 8):
            for x in range(q):
                assert phase_protocol_pn(q, x, x) == 0.0

    def test_pipeline_matches_closed_form(self):
        for q in (2, 3, 4, 5, 7):
            for x in range(q):
                for y in range(q):
                    assert phase_protocol_pn(q, x, y) == pytest.approx(
                        math.sin(math.pi * (x - y) / q) ** 2, abs=1e-12)

    def test_average_error_trit(self):
        assert phase_protocol_average_error(3) == pytest.approx(1 / 6,
                                                                abs=1e-12)

    def test_average_error_bit(self):
        assert phase_protocol_average_error(2) == pytest.approx(0.0,
                                                                abs=1e-12)

    def test_average_error_q4_against_enumeration(self):
        # independent oracle: brute-force sum of the closed form over all
        # 16 ordered pairs (12 unequal), evaluating to 1/4
        total = sum(1 - math.sin(math.pi * (x - y) / 4) ** 2
                    for x in range(4) for y in range(4) if x != y)
        assert total / 16 == pytest.approx(0.25, abs=1e-12)
        assert phase_protocol_average_error(4) == pytest.approx(0.25,
                                                                abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phase_protocol_pn(1, 0, 0)
        with pytest.raises(DomainError):
            phase_protocol_table(1)
        with pytest.raises(DomainError):
            phase_protocol_pn(3, 3, 0)
        with pytest.raises(DomainError):
            phase_protocol_pn(3, 0, -1)


def pipeline_pn(q, x, y):
    """N-port probability of one symbol pair through the state pipeline."""
    return float(pipeline_ports([2.0 * np.pi * x / q],
                                [2.0 * np.pi * y / q])[1].sum())


class TestPhaseTable:
    """The one-call table over all q^2 symbol pairs equals the per-pair
    state pipeline bit for bit, and its average is the left-to-right sum
    of 1 - pN over the unequal pairs in x-major order."""

    @pytest.mark.parametrize("q", range(2, 65))
    def test_every_pair_and_average(self, q):
        table, avg = phase_protocol_table(q)
        assert table.shape == (q, q)
        total = 0.0
        for x in range(q):
            for y in range(q):
                pn = pipeline_pn(q, x, y)
                assert float(table[x, y]).hex() == pn.hex()
                assert phase_protocol_pn(q, x, y).hex() == pn.hex()
                if x != y:
                    total += 1.0 - pn
        assert avg.hex() == (total / (q * q)).hex()
        assert phase_protocol_average_error(q).hex() == avg.hex()

    def test_random_pairs_at_q_300(self):
        table, _ = phase_protocol_table(300)
        rng = np.random.default_rng(300)
        for x, y in rng.integers(0, 300, (500, 2)).tolist():
            pn = pipeline_pn(300, x, y)
            assert float(table[x, y]).hex() == pn.hex()
            assert phase_protocol_pn(300, x, y).hex() == pn.hex()

    def test_pair_budget(self):
        q = math.isqrt(LIMITS["phase pairs"])
        assert phase_protocol_table(q)[0].shape == (q, q)
        for big in (q + 1, 10**20):
            with pytest.raises(ResourceLimitError):
                phase_protocol_table(big)


class TestReportRows:
    def test_exact_row_shape(self):
        row = exact_report_row(hadamard_code(4), "0000", "0001")
        assert tuple(row) == RUN_CSV_FIELDS
        assert row["pN_exact"] == pytest.approx(0.5, abs=1e-12)
        assert row["verdict"] == "NotEqual"
        assert row["x_hex"] == "0" and row["y_hex"] == "1"
        assert row["k"] is None and row["seed"] is None

    def test_exact_row_equal_inputs(self):
        row = exact_report_row(hadamard_code(4), "0101", "0101")
        assert row["verdict"] == "Equal"
        assert row["pN_exact"] == 0.0

    def test_batch_rows_replayable(self):
        code = hadamard_code(4)
        params = ProtocolParams(4, code, 4, 0.01)
        batch = run_batch(params, "0011", "0001", master_seed=21, trials=5)
        text = "".join(chunk for [chunk] in reports.chunks(
            {"rows": batch_rows(params, "0011", "0001", batch)}, True,
            False))
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        rows = [dict(zip(header, cells)) for cells in reader]
        assert len(rows) == 5
        for row in rows:
            assert tuple(row) == RUN_CSV_FIELDS
            replay = run_sampled(params, "0011", "0001", int(row["seed"]))
            assert replay.n_clicks_not_equal == int(row["n_clicks_N"])
            assert replay.verdict.value == row["verdict"]


def _dict_rows(params, x, y, batch):
    """One report row per trial, built directly from the batch arrays."""
    return [{
        "n": params.code.n, "m": params.code.m, "t": params.code.t,
        "k": params.k, "x_hex": bits_to_hex(x), "y_hex": bits_to_hex(y),
        "pN_exact": batch.pn_exact,
        "verdict": "NotEqual" if clicks else "Equal",
        "n_clicks_N": int(clicks), "seed": int(seed),
    } for clicks, seed in zip(batch.n_clicks, kernels.splitmix64_stream(
        batch.master_seed, batch.trials))]


def _phase_dict_rows(q, pairs):
    """One phase-protocol report row per (x, y) in ``pairs``, each pN
    evaluated on its own."""
    avg = phase_protocol_average_error(q)
    rows = []
    for x, y in pairs:
        pn = phase_protocol_pn(q, x, y)
        rows.append({"q": q, "x": x, "y": y, "pN_exact": pn,
                     "referee_error": pn if x == y else 1.0 - pn,
                     "avg_error": avg})
    return rows


def _rendered(payload, rows):
    """CSV and JSON text of a streamed table, ``rows`` under "rows",
    rendered in one pass."""
    chunks = reports.chunks({**payload, "rows": rows}, True, True)
    return tuple(map("".join, zip(*chunks)))


class TestStreamedReports:
    @pytest.mark.parametrize("block", [1, 2, 3, 5, 1 << 14])
    @pytest.mark.parametrize("code, x, y, trials", [
        (hadamard_code(4), "0000", "0110", 1),
        (hadamard_code(4), "0110", "0110", 6),
        (random_linear_code(10, 30, seed=4), "1011001110", "0110010101", 10),
    ])
    def test_bytes_equal_dict_row_rendering(self, monkeypatch, block, code,
                                            x, y, trials):
        monkeypatch.setattr(reports, "_ROW_BLOCK", block)
        params = ProtocolParams(code.n, code, 3, 0.01)
        batch = run_batch(params, x, y, master_seed=trials, trials=trials)
        rows = _dict_rows(params, x, y, batch)
        payload = {"command": "run", "mode": "sampled", "trials": trials}
        assert _rendered(payload, batch_rows(params, x, y, batch)) == (
            reports.csv_text(RUN_CSV_FIELDS, rows),
            reports.json_text({**payload, "rows": rows}))

    @pytest.mark.parametrize("block", [2, 1 << 12])
    def test_huge_k_renders_only_counts_that_occur(self, monkeypatch, block):
        # counts up to k = 2^40 in a batch built directly: the per-count
        # row prefixes cover the counts present, never 0..k
        monkeypatch.setattr(reports, "_ROW_BLOCK", block)
        k = 2**40
        code = hadamard_code(4)
        params = ProtocolParams(code.n, code, k, 0.01)
        clicks = np.array([0, k, k - 1, 5, 0, k, 1, k], dtype=np.uint64)
        batch = BatchResult(0.5, k, 2**64 - 3, clicks)
        rows = _dict_rows(params, "0000", "0110", batch)
        payload = {"command": "run", "mode": "sampled", "k": k}
        start = time.perf_counter()
        csv_text, json_text = _rendered(
            payload, batch_rows(params, "0000", "0110", batch))
        assert time.perf_counter() - start < 1.0
        assert csv_text == reports.csv_text(RUN_CSV_FIELDS, rows)
        assert json_text == reports.json_text({**payload, "rows": rows})

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 1 << 10])
    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_phase_tables_equal_dict_row_rendering(self, monkeypatch, block,
                                                   q):
        monkeypatch.setattr(reports, "_ROW_BLOCK", block)
        table, avg = phase_protocol_table(q)
        payload = {"command": "run", "mode": "phase_protocol", "q": q,
                   "avg_error": avg}
        every = [(x, y) for x in range(q) for y in range(q)]
        for indices, pairs in [(range(q * q), every),
                               ([q + q - 1], [(1, q - 1)]),
                               ([q + 1], [(1, 1)])]:
            rows = _phase_dict_rows(q, pairs)
            assert _rendered(payload,
                             phase_rows(q, table, avg, indices)) == (
                reports.csv_text(PHASE_CSV_FIELDS, rows),
                reports.json_text({**payload, "rows": rows}))

    def test_each_key_rendered_once_per_table(self, monkeypatch):
        # a count's cells are rendered the first time the count occurs, so
        # ten blocks render no more cells than one
        code = hadamard_code(4)
        params = ProtocolParams(code.n, code, 2, 0.01)
        batch = run_batch(params, "0000", "0110", master_seed=3, trials=40)
        calls = []
        render_value = reports.render_value

        def counted(value):
            calls.append(value)
            return render_value(value)

        monkeypatch.setattr(reports, "render_value", counted)
        totals = []
        for block in (40, 4):
            monkeypatch.setattr(reports, "_ROW_BLOCK", block)
            calls.clear()
            _rendered({}, batch_rows(params, "0000", "0110", batch))
            totals.append(len(calls))
        assert totals[0] == totals[1]

    def test_chunks_stay_under_the_mmap_threshold(self):
        # the widest sampled row an admitted code renders (Hadamard n = 20,
        # k = 65536, every seed 2^64 - 1) and the largest phase table: no
        # chunk of either file reaches glibc's default 128 KiB mmap
        # threshold, so a block's memory does not depend on heap layout
        code, k, seed = hadamard_code(20), 65536, 2**64 - 1
        params = ProtocolParams(code.n, code, k, 0.01)
        clicks = np.full(3 * reports._ROW_BLOCK, k, dtype=np.uint32)
        sampled = batch_rows(params, "1" * 20, "0" * 19 + "1",
                             BatchResult(2.2250738585072014e-308, k, seed,
                                         clicks))
        widest = sampled._replace(block=lambda start, stop: (
            sampled.block(start, stop)[0], [[seed] * (stop - start)]))
        q = math.isqrt(LIMITS["phase pairs"])
        table, avg = phase_protocol_table(q)
        for rows in [widest, phase_rows(q, table, avg, range(q * q))]:
            sizes = [len(text) for chunk in reports.chunks(
                {"rows": rows}, True, True) for text in chunk]
            assert max(sizes) < 128 * 1024

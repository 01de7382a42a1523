import numpy as np
import pytest

from craft.bitops import u32_from_bits
from craft.codecs import (ALL_CONFIGS, REMAP_CONFIGS, REMAP_INVERT_CONFIGS, Precision,
                          decode_words, encode_words)
from craft.memory import FaultMap, apply_stuck, generate_fault_map, stuck_words
from craft.objective import (NONFINITE_SENTINEL, WeightView, deviation_words,
                             search_best_encoding, store_words)

U8_UNIT = WeightView(Precision.U8, scale=1.0, zero_point=0)
FP32 = WeightView(Precision.FP32)
U8 = Precision.U8


def u8_block(codes):
    """(16,) words of a block whose first u8 codes are `codes`."""
    buf = np.zeros(64, dtype=np.uint8)
    buf[: len(codes)] = codes
    return buf.view("<u4")


def fp32_block(values):
    buf = np.zeros(16, dtype=np.float32)
    buf[: len(values)] = values
    return buf.view("<u4")


def random_words(rng, n=1):
    return rng.integers(0, 2**32, (n, 16), dtype=np.uint64).astype(np.uint32)


def make_map(entries, size=512):
    idx = np.array([i for i, _ in entries], dtype=np.int64)
    val = np.array([v for _, v in entries], dtype=np.uint8)
    return FaultMap(size, idx, val, 0.0, 0.5, 0)


class TestWeightView:
    def test_u8_requires_quant_params(self):
        with pytest.raises(ValueError):
            WeightView(Precision.U8)
        with pytest.raises(ValueError):
            WeightView(Precision.U8, scale=0.0, zero_point=0)
        with pytest.raises(ValueError):
            WeightView(Precision.U8, scale=1.0, zero_point=300)

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf"), float("-inf")],
                             ids=str)
    def test_u8_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            WeightView(Precision.U8, scale=scale, zero_point=0)

    def test_fp32_forbids_quant_params(self):
        with pytest.raises(ValueError):
            WeightView(Precision.FP32, scale=1.0, zero_point=0)


class TestDeviation:
    def test_identical_blocks_zero(self, rng):
        x = random_words(rng)
        assert deviation_words(x, x, U8, 1.0).tolist() == [0.0]
        assert deviation_words(x, x, Precision.FP32).tolist() == [0.0]

    def test_msb_side_flip_costs_32(self):
        # one significant-bit error: weight 117 with bit 5 stuck low reads
        # back as 85, a deviation of 32
        original = u8_block([117])
        readout = u8_block([117 ^ (1 << 5)])
        assert deviation_words(original, readout, U8, 1.0) == 32.0

    def test_three_lsb_flips_with_carry_cost_1(self):
        # three insignificant-bit errors on one weight: 0111 0011 becomes
        # 0111 0100, a net deviation of 1
        original = u8_block([0b01110011])
        readout = u8_block([0b01110100])
        assert deviation_words(original, readout, U8, 1.0) == 1.0

    def test_three_separate_lsb_flips_cost_3(self):
        original = u8_block([10, 20, 30])
        readout = u8_block([11, 21, 31])
        assert deviation_words(original, readout, U8, 1.0) == 3.0

    def test_u8_uses_dequantized_domain(self):
        # scale 0.25: four codes apart is one unit of weight, whatever the
        # zero point
        original = u8_block([100])
        readout = u8_block([104])
        assert deviation_words(original, readout, U8, 0.25) == pytest.approx(1.0)

    def test_scale_equivariance(self, rng):
        x, y = random_words(rng, 2)
        assert deviation_words(x, y, U8, 1.0) == 2.0 * deviation_words(x, y, U8, 0.5)

    def test_fp32_simple_difference(self):
        original = fp32_block([1.0, -2.0])
        readout = fp32_block([1.5, -4.0])
        assert deviation_words(original, readout, Precision.FP32) == pytest.approx(2.5)

    def test_nonfinite_original_stays_total(self, rng):
        # a block whose fp32 interpretation is NaN must still search cleanly
        x = np.ones(512, dtype=np.uint8)  # every word NaN
        fmap = generate_fault_map(512, 0.02, 0.5, 3)
        report = search_best_encoding(x, fmap, 0, FP32)
        assert np.isfinite(report.best_delta)
        words = np.full(16, 0xFFFFFFFF, dtype=np.uint32)
        assert deviation_words(words, words, Precision.FP32) == 16 * NONFINITE_SENTINEL

    def test_fp32_nonfinite_readout_uses_sentinel(self):
        original = fp32_block([1.0, 2.0])
        nan_word = original.copy()
        nan_word[0] |= 0xFF800000  # exponent all ones, mantissa nonzero -> NaN
        nan_word[0] |= 1 << 5
        assert deviation_words(original, nan_word, Precision.FP32) >= NONFINITE_SENTINEL
        inf = fp32_block([np.inf, 2.0])
        assert deviation_words(original, inf, Precision.FP32) == NONFINITE_SENTINEL

    def test_batched_matches_scalar(self, rng):
        x = random_words(rng)[0]
        rows = random_words(rng, 8)
        for precision, scale in ((U8, 1.0), (Precision.FP32, None)):
            batched = deviation_words(x, rows, precision, scale)
            scalar = np.array([deviation_words(x, rows[i], precision, scale)
                               for i in range(8)])
            assert np.array_equal(batched, scalar)


class TestToyRemapAnalog:
    """Four 4-bit weights remapped with a 2-bit XOR key.

    Frozen instance found by brute-force search: five stuck cells (three
    SA1, two SA0) give net deviation 13 with no remapping and a minimum net
    deviation of 2 at key 0b11.
    """

    WEIGHTS = [1, 8, 1, 13]
    FAULTS = {2: 1, 4: 1, 7: 0, 9: 1, 10: 0}
    EXPECTED = {0: 13, 1: 6, 2: 14, 3: 2}

    @staticmethod
    def toy_deviation(weights, faults, key):
        total = 0
        for i, w in enumerate(weights):
            slot = i ^ key
            readback = w
            for b in range(4):
                pos = 4 * slot + b
                if pos in faults:
                    readback = (readback & ~(1 << b)) | (faults[pos] << b)
            total += abs(readback - w)
        return total

    def test_fault_mix(self):
        values = list(self.FAULTS.values())
        assert values.count(1) == 3 and values.count(0) == 2

    def test_identity_deviation_is_13(self):
        assert self.toy_deviation(self.WEIGHTS, self.FAULTS, 0) == 13

    def test_key_0b11_achieves_minimum_2(self):
        devs = {k: self.toy_deviation(self.WEIGHTS, self.FAULTS, k) for k in range(4)}
        assert devs == self.EXPECTED
        assert min(devs, key=lambda k: (devs[k], k)) == 0b11
        assert devs[0b11] == 2


class TestSearch:
    def test_empty_map_picks_identity(self, rng):
        x = rng.integers(0, 2, 512).astype(np.uint8)
        fmap = make_map([])
        report = search_best_encoding(x, fmap, 0, U8_UNIT)
        assert report.best_config.aux_code == 0
        assert report.best_delta == 0.0
        assert np.all(report.deltas == 0.0)

    def test_covers_config_space_once(self, rng):
        x = rng.integers(0, 2, 512).astype(np.uint8)
        report = search_best_encoding(x, make_map([]), 0, U8_UNIT)
        assert sorted(c.aux_code for c in report.configs) == list(range(64))
        assert len(report.deltas) == 64

    def test_single_stuck_cell_always_recoverable(self, rng):
        # sampled here; the acceptance suite runs the exhaustive version
        x = rng.integers(0, 2, 512).astype(np.uint8)
        for pos in range(0, 512, 37):
            for stuck in (0, 1):
                fmap = make_map([(pos, stuck)])
                for view in (U8_UNIT, FP32):
                    report = search_best_encoding(x, fmap, 0, view)
                    assert report.best_delta == 0.0

    def test_matches_per_config_recompute(self, rng):
        # independent recompute through the public codec ops, one config at
        # a time, must agree exactly with the vectorized search
        x = rng.integers(0, 2, 512).astype(np.uint8)
        fmap = generate_fault_map(512, 0.02, 0.5, 99)
        for view in (U8_UNIT, FP32,
                     WeightView(Precision.U8, scale=0.013, zero_point=77)):
            report = search_best_encoding(x, fmap, 0, view)
            words = u32_from_bits(x)[None]
            mask, stuck = stuck_words(fmap, 0)
            for cfg, delta in zip(report.configs, report.deltas):
                code = [cfg.aux_code]
                stored = apply_stuck(encode_words(words, code, view.precision), mask, stuck)
                readback = decode_words(stored, code, view.precision)
                assert deviation_words(words, readback, view.precision, view.scale) == delta

    def test_config_space_nesting(self, rng):
        for seed in range(20):
            gen = np.random.default_rng(seed)
            x = gen.integers(0, 2, 512).astype(np.uint8)
            fmap = generate_fault_map(512, 1e-2, 0.5, seed)
            d64 = search_best_encoding(x, fmap, 0, U8_UNIT).best_delta
            d32 = search_best_encoding(x, fmap, 0, U8_UNIT, REMAP_INVERT_CONFIGS).best_delta
            d16 = search_best_encoding(x, fmap, 0, U8_UNIT, REMAP_CONFIGS).best_delta
            d1 = search_best_encoding(x, fmap, 0, U8_UNIT, ALL_CONFIGS[:1]).best_delta
            assert d64 <= d32 <= d16 <= d1

    def test_scale_equivariant_argmin(self, rng):
        x = rng.integers(0, 2, 512).astype(np.uint8)
        fmap = generate_fault_map(512, 0.03, 0.5, 5)
        small = WeightView(Precision.U8, scale=0.5, zero_point=10)
        large = WeightView(Precision.U8, scale=1.0, zero_point=10)
        a = search_best_encoding(x, fmap, 0, small)
        b = search_best_encoding(x, fmap, 0, large)
        assert b.best_index == a.best_index
        assert np.array_equal(b.deltas, 2.0 * a.deltas)

    def test_deterministic(self, rng):
        x = rng.integers(0, 2, 512).astype(np.uint8)
        fmap = generate_fault_map(512, 0.05, 0.5, 17)
        a = search_best_encoding(x, fmap, 0, FP32)
        b = search_best_encoding(x, fmap, 0, FP32)
        assert a.best_index == b.best_index
        assert np.array_equal(a.deltas, b.deltas)

    def test_tie_break_prefers_smallest_aux_code(self):
        # all-zero data with one cell stuck at 1: every plain mapping keeps
        # the mismatch, while every inverting config stores all ones and
        # reads back exactly; the tie among them must resolve to code 16.
        x = np.zeros(512, dtype=np.uint8)
        fmap = make_map([(3, 1)])
        report = search_best_encoding(x, fmap, 0, U8_UNIT)
        zero_codes = [c.aux_code for c, d in zip(report.configs, report.deltas) if d == 0.0]
        assert min(zero_codes) == 16
        assert report.best_config.aux_code == 16
        assert report.best_delta == 0.0

    def test_offset_blocks(self, rng):
        x = rng.integers(0, 2, 512).astype(np.uint8)
        fmap = generate_fault_map(2048, 0.02, 0.5, 31)
        report = search_best_encoding(x, fmap, 1024, U8_UNIT)
        code = [report.best_config.aux_code]
        words = u32_from_bits(x)[None]
        stored = apply_stuck(encode_words(words, code, U8), *stuck_words(fmap, 1024))
        assert deviation_words(words, decode_words(stored, code, U8), U8, 1.0) == report.best_delta

    def test_csv_export(self, rng):
        x = rng.integers(0, 2, 512).astype(np.uint8)
        report = search_best_encoding(x, make_map([]), 0, U8_UNIT)
        lines = report.to_csv().splitlines()
        assert lines[0] == "config_hex,delta"
        assert len(lines) == 65
        assert lines[1] == "00,0.0"


class TestWriteWithCraft:
    """Storing blocks under their best encodings with :func:`store_words`."""

    def test_zero_faults_stores_plain(self, rng):
        x = random_words(rng)
        mask, stuck = stuck_words(make_map([]))
        chosen, stored, delta = store_words(x, mask, stuck, U8, np.ones(1))
        assert np.array_equal(stored, x)
        assert chosen.tolist() == [0]
        assert delta.tolist() == [0.0]

    def test_delta_matches_independent_recompute(self, rng):
        x = random_words(rng)
        mask, stuck = stuck_words(generate_fault_map(512, 0.05, 0.5, 8))
        chosen, stored, delta = store_words(x, mask, stuck, U8, np.ones(1))
        assert deviation_words(x, decode_words(stored, chosen, U8), U8, 1.0) == delta
        # stored words already reflect the stuck cells
        assert np.array_equal(stored, apply_stuck(stored, mask, stuck))

    def test_never_worse_than_identity(self, rng):
        for seed in range(10):
            x = random_words(np.random.default_rng(seed))
            mask, stuck = stuck_words(generate_fault_map(512, 0.03, 0.5, 100 + seed))
            _, _, delta = store_words(x, mask, stuck, U8, np.ones(1))
            identity_delta = deviation_words(x, apply_stuck(x, mask, stuck), U8, 1.0)
            assert delta <= identity_delta

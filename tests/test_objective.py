import numpy as np
import pytest

from craft.codecs import (N_CONFIGS, N_REMAP_INVERT, Precision, decode_words,
                          encode_words)
from craft.memory import FaultMap, apply_stuck, generate_fault_map, stuck_words
from craft.objective import (NONFINITE_SENTINEL, best_encodings, deviation_words,
                             search_words, store_words)

U8, FP32 = Precision.U8, Precision.FP32
ONE = np.ones(1)  # the u8 scale of one block at unit scale


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
        words = np.full((1, 16), 0xFFFFFFFF, dtype=np.uint32)  # every word NaN
        mask, stuck = stuck_words(generate_fault_map(512, 0.02, 0.5, 3))
        _, _, delta = best_encodings(words, mask, stuck, FP32, None, [N_CONFIGS])[0]
        assert np.isfinite(delta[0])
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


def search(words, fmap, precision, scale=None, n_configs=N_CONFIGS, block=0):
    """(n_configs,) deltas of one (1, 16) block over block number `block` of
    `fmap`; `scale` is the u8 scale, None for fp32."""
    mask, stuck = (w[block:block + 1] for w in stuck_words(fmap, block + 1))
    scales = None if scale is None else np.array([scale])
    return search_words(words, mask, stuck, precision, scales, n_configs)[0]


class TestSearch:
    def test_empty_map_picks_identity(self, rng):
        x = random_words(rng)
        mask, stuck = stuck_words(make_map([]))
        chosen, _, delta = best_encodings(x, mask, stuck, U8, ONE, [N_CONFIGS])[0]
        assert chosen.tolist() == [0]
        assert delta.tolist() == [0.0]
        assert np.all(search(x, make_map([]), U8, 1.0) == 0.0)

    def test_covers_config_space_once(self, rng):
        deltas = search(random_words(rng), make_map([]), U8, 1.0)
        assert N_CONFIGS == 64
        assert deltas.shape == (64,)

    def test_single_stuck_cell_always_recoverable(self, rng):
        # sampled here; the acceptance suite runs the exhaustive version
        x = random_words(rng)
        for pos in range(0, 512, 37):
            for stuck in (0, 1):
                fmap = make_map([(pos, stuck)])
                for precision, scale in ((U8, 1.0), (FP32, None)):
                    assert search(x, fmap, precision, scale).min() == 0.0

    def test_matches_per_config_recompute(self, rng):
        # independent recompute through the public codec ops, one config at
        # a time, must agree exactly with the vectorized search
        words = random_words(rng)
        fmap = generate_fault_map(512, 0.02, 0.5, 99)
        mask, stuck = stuck_words(fmap)
        for precision, scale in ((U8, 1.0), (FP32, None), (U8, 0.013)):
            deltas = search(words, fmap, precision, scale)
            for code, delta in enumerate(deltas):
                stored = apply_stuck(encode_words(words, [code], precision), mask, stuck)
                readback = decode_words(stored, [code], precision)
                assert deviation_words(words, readback, precision, scale) == delta

    def test_config_space_nesting(self, rng):
        for seed in range(20):
            x = random_words(np.random.default_rng(seed))
            fmap = generate_fault_map(512, 1e-2, 0.5, seed)
            d64, d32, d16, d1 = (search(x, fmap, U8, 1.0, size).min()
                                 for size in (N_CONFIGS, N_REMAP_INVERT, 16, 1))
            assert d64 <= d32 <= d16 <= d1

    def test_scale_equivariant_argmin(self, rng):
        x = random_words(rng)
        fmap = generate_fault_map(512, 0.03, 0.5, 5)
        a = search(x, fmap, U8, 0.5)
        b = search(x, fmap, U8, 1.0)
        assert np.argmin(b) == np.argmin(a)
        assert np.array_equal(b, 2.0 * a)

    def test_deterministic(self, rng):
        x = random_words(rng)
        fmap = generate_fault_map(512, 0.05, 0.5, 17)
        a = search(x, fmap, FP32)
        b = search(x, fmap, FP32)
        assert np.argmin(a) == np.argmin(b)
        assert np.array_equal(a, b)

    def test_tie_break_prefers_smallest_aux_code(self):
        # all-zero data with one cell stuck at 1: every plain mapping keeps
        # the mismatch, while every inverting config stores all ones and
        # reads back exactly; the tie among them must resolve to code 16.
        x = np.zeros((1, 16), dtype=np.uint32)
        fmap = make_map([(3, 1)])
        deltas = search(x, fmap, U8, 1.0)
        assert np.flatnonzero(deltas == 0.0).min() == 16
        chosen, _, delta = best_encodings(x, *stuck_words(fmap), U8, ONE, [N_CONFIGS])[0]
        assert chosen.tolist() == [16]
        assert delta.tolist() == [0.0]

    def test_offset_blocks(self, rng):
        x = random_words(rng)
        fmap = generate_fault_map(2048, 0.02, 0.5, 31)
        mask, stuck = (w[2:3] for w in stuck_words(fmap, 3))  # block 2, at bit 1024
        chosen, _, delta = best_encodings(x, mask, stuck, U8, ONE, [N_CONFIGS])[0]
        assert delta[0] == search(x, fmap, U8, 1.0, block=2).min()
        stored = apply_stuck(encode_words(x, chosen, U8), mask, stuck)
        assert deviation_words(x, decode_words(stored, chosen, U8), U8, 1.0) == delta


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

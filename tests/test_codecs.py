import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craft.codecs import (ALL_CONFIGS, IDENTITY_CONFIG, EncodingConfig, Precision,
                          craft_overhead, decode_words, ecp_overhead, ecp_words,
                          encode_words)
from craft.memory import FaultMap, apply_stuck, stuck_words
from craft.objective import deviation_words

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from codec_oracle import decode_ref, ecp_ref, encode_ref, words_from_hex

DATA = pathlib.Path(__file__).parent / "data"

blocks = st.binary(min_size=64, max_size=64).map(lambda raw: np.frombuffer(raw, dtype="<u4"))
aux_codes = st.integers(min_value=0, max_value=63)

FP32, U8 = Precision.FP32, Precision.U8
INVERT, SWITCH = 0x10, 0x20  # aux codes of invert alone and switch alone


def make_map(entries, size=512):
    idx = np.array([i for i, _ in entries], dtype=np.int64)
    val = np.array([v for _, v in entries], dtype=np.uint8)
    return FaultMap(size, idx, val, 0.0, 0.5, 0)


def random_words(rng, n=1):
    """(n, 16) random uint32 words: n blocks."""
    return rng.integers(0, 2**32, (n, 16), dtype=np.uint64).astype(np.uint32)


def bit(words, pos):
    """Bit `pos` of a block of (1, 16) or (16,) words."""
    return (int(words.reshape(16)[pos // 32]) >> (pos % 32)) & 1


def popcount(words):
    return int(np.unpackbits(np.ascontiguousarray(words, dtype="<u4").view(np.uint8)).sum())


class TestEncodingConfig:
    def test_aux_layout_key_then_invert_then_switch(self):
        cfg = EncodingConfig(xor_key=0b1010, invert=True, switch=False)
        assert [(cfg.aux_code >> i) & 1 for i in range(6)] == [0, 1, 0, 1, 1, 0]
        assert cfg.aux_code == 0b011010

    def test_code_roundtrip(self):
        for code in range(64):
            cfg = EncodingConfig.from_aux_code(code)
            assert cfg.aux_code == code
            assert EncodingConfig(cfg.xor_key, cfg.invert, cfg.switch) == cfg

    def test_all_configs_cover_space_once(self):
        assert len(ALL_CONFIGS) == 64
        assert sorted(c.aux_code for c in ALL_CONFIGS) == list(range(64))

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            EncodingConfig(xor_key=16)
        with pytest.raises(ValueError):
            EncodingConfig.from_aux_code(64)


class TestRemap:
    """Aux codes 0-15: remap alone, with the code as the XOR key."""

    def test_key_zero_is_identity(self, rng):
        x = random_words(rng)
        assert np.array_equal(encode_words(x, [0], FP32), x)

    def test_key_one_swaps_adjacent_slots(self, rng):
        x = random_words(rng)
        y = encode_words(x, [1], FP32)
        for j in range(0, 16, 2):
            assert y[0, j] == x[0, j + 1]
            assert y[0, j + 1] == x[0, j]

    def test_output_slot_i_xor_key_holds_input_slot_i(self, rng):
        x = random_words(rng)
        for key in (3, 7, 12):
            out = encode_words(x, [key], FP32)
            for i in range(16):
                assert out[0, i ^ key] == x[0, i]

    def test_involution_for_all_keys(self, rng):
        x = random_words(rng, 16)
        keys = np.arange(16)
        assert np.array_equal(encode_words(encode_words(x, keys, FP32), keys, FP32), x)


class TestInvert:
    def test_zeros_to_ones(self):
        assert encode_words(np.zeros((1, 16), dtype=np.uint32), [INVERT], FP32).min() == 0xFFFFFFFF

    def test_involution(self, rng):
        x = random_words(rng)
        assert np.array_equal(encode_words(encode_words(x, [INVERT], FP32), [INVERT], FP32), x)

    def test_single_mismatching_stuck_cell_becomes_benign(self, rng):
        # A stored inverted block agrees with the one stuck cell that the
        # plain block disagreed with, so decode is exact: zero error and
        # zero deviation.
        x = random_words(rng)
        pos = 137
        mask, stuck = stuck_words(make_map([(pos, 1 - bit(x, pos))]))
        readout = apply_stuck(encode_words(x, [INVERT], U8), mask, stuck)
        recovered = decode_words(readout, [INVERT], U8)
        assert np.array_equal(recovered, x)
        assert deviation_words(x, recovered, U8, 1.0).tolist() == [0.0]


class TestSwitchBits:
    def test_u8_msb_nibble_swaps_with_lsb_nibble(self):
        # 0111 0101 -> 0101 0111
        x = np.zeros((1, 16), dtype=np.uint32)
        x[0, 0] = 0x75
        out = encode_words(x, [SWITCH], U8)
        assert out[0, 0] & 0xFF == 0x57
        assert x[0, 0] & 0xFF == 0x75

    def test_u8_rotation_is_self_inverse(self, rng):
        x = random_words(rng)
        once = encode_words(x, [SWITCH], U8)
        assert np.array_equal(decode_words(once, [SWITCH], U8), x)
        # rotating by 4 twice returns the original byte
        assert np.array_equal(encode_words(once, [SWITCH], U8), x)

    def test_fp32_bit31_moves_to_bit9(self):
        x = np.zeros((1, 16), dtype=np.uint32)
        x[0, 0] = 1 << 31
        out = encode_words(x, [SWITCH], FP32)
        assert out[0].tolist() == [1 << 9] + [0] * 15

    def test_zero_word_unchanged(self):
        zeros = np.zeros((1, 16), dtype=np.uint32)
        for prec in Precision:
            assert np.array_equal(encode_words(zeros, [SWITCH], prec), zeros)

    def test_decode_inverts_encode(self, rng):
        x = random_words(rng)
        for prec in Precision:
            enc = encode_words(x, [SWITCH], prec)
            assert np.array_equal(decode_words(enc, [SWITCH], prec), x)


class TestEncodeDecode:
    def test_identity_config(self, rng):
        x = random_words(rng)
        code = [IDENTITY_CONFIG.aux_code]
        for prec in Precision:
            assert np.array_equal(encode_words(x, code, prec), x)
            assert np.array_equal(decode_words(x, code, prec), x)

    @settings(max_examples=60, deadline=None)
    @given(words=blocks, code=aux_codes, prec=st.sampled_from(list(Precision)))
    def test_roundtrip_property(self, words, code, prec):
        x = words[None]
        assert np.array_equal(decode_words(encode_words(x, [code], prec), [code], prec), x)

    def test_golden_vectors(self):
        for prec in Precision:
            lines = (DATA / f"codec_golden_{prec.value}.txt").read_text().splitlines()
            assert len(lines) == 64
            codes, inputs, outputs = zip(*(line.split() for line in lines))
            codes = np.array([int(code, 16) for code in codes])
            x = np.array([np.frombuffer(bytes.fromhex(h), dtype="<u4") for h in inputs])
            y = np.array([np.frombuffer(bytes.fromhex(h), dtype="<u4") for h in outputs])
            enc = encode_words(x, codes, prec).astype("<u4")
            dec = decode_words(y, codes, prec).astype("<u4")
            assert [row.tobytes().hex() for row in enc] == list(outputs)
            assert [row.tobytes().hex() for row in dec] == list(inputs)

    def test_matches_reference_on_random_payloads(self, rng):
        codes = np.array([0, 1, 17, 33, 42, 63])
        for prec in Precision:
            for _ in range(10):
                payload_hex = rng.bytes(64).hex()
                x = np.frombuffer(bytes.fromhex(payload_hex), dtype="<u4")
                words = words_from_hex(payload_hex)
                batch = np.repeat(x[None], len(codes), axis=0)
                enc = encode_words(batch, codes, prec)
                dec = decode_words(batch, codes, prec)
                for i, code in enumerate(codes.tolist()):
                    assert enc[i].tolist() == encode_ref(words, code, prec.value)
                    assert dec[i].tolist() == decode_ref(words, code, prec.value)


class TestEcp:
    def test_no_mismatch_returns_desired(self, rng):
        x = random_words(rng)
        matching = make_map([(10, bit(x, 10)), (99, bit(x, 99))])
        assert np.array_equal(ecp_words(x, *stuck_words(matching), 1), x)

    def test_single_mismatch_corrected(self, rng):
        x = random_words(rng)
        fmap = make_map([(200, 1 - bit(x, 200))])
        assert np.array_equal(ecp_words(x, *stuck_words(fmap), 1), x)

    def test_three_mismatches_one_pointer(self, rng):
        x = random_words(rng)
        positions = [40, 221, 373]
        fmap = make_map([(p, 1 - bit(x, p)) for p in positions])
        out = ecp_words(x, *stuck_words(fmap), 1)
        wrong = [p for p in range(512) if bit(out, p) != bit(x, p)]
        # the lowest-index mismatch is repaired, the two highest remain
        assert wrong == positions[1:]

    def test_hamming_distance_is_mismatches_minus_pointers(self, rng):
        for seed in range(4):
            gen = np.random.default_rng(seed)
            x = random_words(gen)
            entries = [(int(p), int(gen.integers(0, 2)))
                       for p in gen.choice(512, size=20, replace=False)]
            fmap = make_map(sorted(entries))
            mask, stuck = stuck_words(fmap)
            mismatches = popcount(mask & (x ^ stuck))
            for n in (0, 1, 3, 25):
                out = ecp_words(x, mask, stuck, n)
                assert popcount(out ^ x) == max(0, mismatches - n)

    def test_enough_pointers_recovers_exactly(self, rng):
        x = random_words(rng)
        fmap = make_map([(i * 37, 1 - bit(x, i * 37)) for i in range(8)])
        assert np.array_equal(ecp_words(x, *stuck_words(fmap), 8), x)

    def test_position_wise_oracle(self, rng):
        x = random_words(rng)
        gen = np.random.default_rng(77)
        entries = sorted((int(p), int(gen.integers(0, 2)))
                         for p in gen.choice(512, size=30, replace=False))
        fmap = make_map(entries)
        n = 5
        expected = ecp_ref(x[0].tolist(), dict(entries), n)
        assert ecp_words(x, *stuck_words(fmap), n)[0].tolist() == expected


class TestOverheads:
    def test_ecp1_512(self):
        assert ecp_overhead(1, 512) == 11 / 512

    def test_ecp0_512(self):
        assert ecp_overhead(0, 512) == 1 / 512

    def test_ecp2_512(self):
        assert ecp_overhead(2, 512) == 21 / 512

    def test_ecp_domain_errors(self):
        with pytest.raises(ValueError):
            ecp_overhead(1, 0)
        with pytest.raises(ValueError):
            ecp_overhead(1, 500)
        with pytest.raises(ValueError):
            ecp_overhead(-1, 512)

    def test_craft_overhead(self):
        assert craft_overhead(6, 512) == 6 / 512
        assert craft_overhead(6, 512) == pytest.approx(0.01171875)
        assert craft_overhead(0, 512) == 0.0
        assert craft_overhead(6, 256) == pytest.approx(0.0234375)
        with pytest.raises(ValueError):
            craft_overhead(6, 0)

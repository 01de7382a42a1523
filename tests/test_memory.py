import numpy as np
import pytest

from craft.memory import (FaultMap, apply_stuck, generate_fault_map, load_fault_map,
                          save_fault_map, stuck_words)


def make_map(size, entries):
    idx = np.array([i for i, _ in entries], dtype=np.int64)
    val = np.array([v for _, v in entries], dtype=np.uint8)
    return FaultMap(size, idx, val, 0.0, 0.5, 0)


def random_words(rng, n=1):
    return rng.integers(0, 2**32, (n, 16), dtype=np.uint64).astype(np.uint32)


def bits_of(words):
    """Bit i of a block at index i, LSB of word 0 first."""
    return np.unpackbits(np.ascontiguousarray(words, dtype="<u4").view(np.uint8),
                         axis=-1, bitorder="little")


class TestGenerate:
    def test_zero_rate_gives_empty_map(self):
        assert len(generate_fault_map(512, 0.0, 0.5, 3)) == 0

    def test_certain_rate_all_stuck_at_one(self):
        fmap = generate_fault_map(512, 1.0, 1.0, 3)
        assert len(fmap) == 512
        assert fmap.stuck_values.min() == 1

    def test_entry_count_within_binomial_interval(self):
        # 1e6 cells at ber 1e-3: mean 1000, sigma ~31.6; [800, 1200] is the
        # 99.99% interval with lots of slack.
        fmap = generate_fault_map(10**6, 1e-3, 0.5, 42)
        assert 800 <= len(fmap) <= 1200

    def test_reproducible(self):
        a = generate_fault_map(4096, 0.01, 0.3, 777)
        b = generate_fault_map(4096, 0.01, 0.3, 777)
        assert a == b
        assert generate_fault_map(4096, 0.01, 0.3, 778) != a

    def test_sa1_fraction_converges(self):
        fmap = generate_fault_map(10**6, 1e-2, 0.5, 5)
        k = len(fmap)
        sa1 = int(fmap.stuck_values.sum())
        sigma = np.sqrt(0.25 * k)
        assert abs(sa1 - 0.5 * k) <= 3 * sigma

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            generate_fault_map(0, 0.1, 0.5, 1)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            generate_fault_map(8, 1.5, 0.5, 1)
        with pytest.raises(ValueError):
            generate_fault_map(8, 0.5, -0.1, 1)


class TestApplyFaults:
    def test_described_stuck_cell_behaviour(self):
        # Written data 101101 with two agreeing stuck cells (positions 0 and
        # 4) and two disagreeing ones (positions 1 and 3): the agreeing cells
        # introduce no error, the disagreeing ones flip their bits.
        desired = np.array([[0b101101] + [0] * 15], dtype=np.uint32)
        mask, stuck = stuck_words(make_map(512, [(0, 1), (1, 1), (3, 0), (4, 0)]))
        readout = apply_stuck(desired, mask, stuck)
        assert readout[0].tolist() == [0b100111] + [0] * 15
        assert int(bits_of(mask & (desired ^ stuck)).sum()) == 2
        flipped = np.flatnonzero(bits_of(readout ^ desired))
        assert flipped.tolist() == [1, 3]

    def test_empty_map_is_identity(self, rng):
        desired = random_words(rng)
        mask, stuck = stuck_words(make_map(512, []))
        assert np.array_equal(apply_stuck(desired, mask, stuck), desired)

    def test_all_zero_data_counts_sa1_cells(self):
        fmap = make_map(512, [(3, 1), (100, 1), (200, 0), (301, 1), (400, 0)])
        readout = apply_stuck(np.zeros((1, 16), dtype=np.uint32), *stuck_words(fmap))
        assert int(bits_of(readout).sum()) == 3

    def test_idempotent(self, rng):
        desired = random_words(rng)
        mask, stuck = stuck_words(generate_fault_map(512, 0.05, 0.5, 9))
        once = apply_stuck(desired, mask, stuck)
        assert np.array_equal(apply_stuck(once, mask, stuck), once)

    def test_differs_in_exactly_count_mismatches_positions(self, rng):
        for seed in range(5):
            desired = random_words(rng)
            fmap = generate_fault_map(2048, 0.02, 0.4, seed)
            mask, stuck = stuck_words(fmap, 512)
            readout = apply_stuck(desired, mask, stuck)
            diff = int(bits_of(readout ^ desired).sum())
            assert diff == int(bits_of(mask & (desired ^ stuck)).sum())

    def test_offset_out_of_range(self):
        fmap = make_map(1024, [])
        with pytest.raises(IndexError):
            stuck_words(fmap, 600)
        with pytest.raises(IndexError):
            stuck_words(fmap, 0, 3)
        with pytest.raises(IndexError):
            stuck_words(fmap, -1)

    def test_batched_rows_share_positions(self, rng):
        rows = random_words(rng, 4)
        mask, stuck = stuck_words(generate_fault_map(512, 0.05, 0.5, 11))
        out = apply_stuck(rows, mask, stuck)
        for i in range(4):
            assert np.array_equal(out[i], apply_stuck(rows[i], mask[0], stuck[0]))


class TestCountMismatches:
    """Mismatching stuck cells, counted on the words of :func:`stuck_words`."""

    def test_matches_brute_force(self, rng):
        desired = random_words(rng)
        fmap = generate_fault_map(512, 0.03, 0.5, 13)
        bits = bits_of(desired)[0]
        expected = sum(
            1 for i, v in fmap.entries if bits[i] != v
        )
        mask, stuck = stuck_words(fmap)
        assert int(bits_of(mask & (desired ^ stuck)).sum()) == expected

    def test_data_equal_to_stuck_pattern(self):
        mask, stuck = stuck_words(make_map(512, [(7, 1), (8, 0), (200, 1)]))
        data = np.zeros((1, 16), dtype=np.uint32)
        data[0, 0] = 1 << 7
        data[0, 200 // 32] = 1 << (200 % 32)
        assert not (mask & (data ^ stuck)).any()


class TestFaultMapType:
    def test_entry_order_is_canonicalized(self):
        a = FaultMap(64, np.array([5, 2, 9]), np.array([1, 0, 1], dtype=np.uint8), 0.0, 0.5, 0)
        b = FaultMap(64, np.array([2, 5, 9]), np.array([0, 1, 1], dtype=np.uint8), 0.0, 0.5, 0)
        assert a == b
        assert a.bit_indices.tolist() == [2, 5, 9]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            make_map(64, [(3, 1), (3, 0)])

    def test_out_of_region_rejected(self):
        with pytest.raises(ValueError):
            make_map(64, [(64, 1)])

    def test_immutable(self):
        fmap = make_map(64, [(1, 1)])
        with pytest.raises(ValueError):
            fmap.bit_indices[0] = 2


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        fmap = generate_fault_map(4096, 1e-2, 0.25, 321)
        path = tmp_path / "faults.txt"
        save_fault_map(fmap, path)
        assert load_fault_map(path) == fmap
        loaded = load_fault_map(path)
        assert (loaded.ber, loaded.sa1_fraction, loaded.seed) == (1e-2, 0.25, 321)

    def test_format_is_flat_text(self, tmp_path):
        fmap = make_map(16, [(2, 1), (5, 0)])
        path = tmp_path / "faults.txt"
        save_fault_map(fmap, path)
        lines = path.read_text().splitlines()
        assert lines[0].split() == ["16", "0.0", "0.5", "0"]
        assert lines[1:] == ["2 1", "5 0"]

    @pytest.mark.parametrize("entry", ["17", "3 1 0", "5 2", "16 1", "-1 0", "x 1"])
    def test_malformed_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "faults.txt"
        path.write_text(f"16 0.0 0.5 0\n2 1\n{entry}\n")
        with pytest.raises(ValueError):
            load_fault_map(path)

import numpy as np
import pytest

from craft.memory import (DataBlock, FaultMap, apply_faults, count_mismatches,
                          generate_fault_map, load_fault_map, save_fault_map)


def make_map(size, entries):
    idx = np.array([i for i, _ in entries], dtype=np.int64)
    val = np.array([v for _, v in entries], dtype=np.uint8)
    return FaultMap(size, idx, val, 0.0, 0.5, 0)


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
        desired = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
        fmap = make_map(6, [(0, 1), (1, 1), (3, 0), (4, 0)])
        readout = apply_faults(desired, fmap, 0)
        assert readout.tolist() == [1, 1, 1, 0, 0, 1]
        assert count_mismatches(desired, fmap, 0) == 2
        flipped = np.flatnonzero(readout != desired)
        assert flipped.tolist() == [1, 3]

    def test_empty_map_is_identity(self, rng):
        desired = rng.integers(0, 2, 512).astype(np.uint8)
        fmap = make_map(512, [])
        assert np.array_equal(apply_faults(desired, fmap), desired)

    def test_all_zero_data_counts_sa1_cells(self):
        fmap = make_map(512, [(3, 1), (100, 1), (200, 0), (301, 1), (400, 0)])
        readout = apply_faults(np.zeros(512, dtype=np.uint8), fmap)
        assert int(readout.sum()) == 3

    def test_idempotent(self, rng):
        desired = rng.integers(0, 2, 512).astype(np.uint8)
        fmap = generate_fault_map(512, 0.05, 0.5, 9)
        once = apply_faults(desired, fmap)
        assert np.array_equal(apply_faults(once, fmap), once)

    def test_differs_in_exactly_count_mismatches_positions(self, rng):
        for seed in range(5):
            desired = rng.integers(0, 2, 512).astype(np.uint8)
            fmap = generate_fault_map(2048, 0.02, 0.4, seed)
            offset = 512
            readout = apply_faults(desired, fmap, offset)
            diff = int((readout != desired).sum())
            assert diff == count_mismatches(desired, fmap, offset)

    def test_offset_out_of_range(self):
        fmap = make_map(512, [])
        with pytest.raises(IndexError):
            apply_faults(np.zeros(128, dtype=np.uint8), fmap, 400)
        with pytest.raises(IndexError):
            count_mismatches(np.zeros(128, dtype=np.uint8), fmap, -1)

    def test_batched_rows_share_positions(self, rng):
        rows = rng.integers(0, 2, (4, 512)).astype(np.uint8)
        fmap = generate_fault_map(512, 0.05, 0.5, 11)
        out = apply_faults(rows, fmap)
        for i in range(4):
            assert np.array_equal(out[i], apply_faults(rows[i], fmap))


class TestCountMismatches:
    def test_matches_brute_force(self, rng):
        desired = rng.integers(0, 2, 512).astype(np.uint8)
        fmap = generate_fault_map(512, 0.03, 0.5, 13)
        expected = sum(
            1 for i, v in fmap.entries if desired[i] != v
        )
        assert count_mismatches(desired, fmap, 0) == expected

    def test_data_equal_to_stuck_pattern(self):
        fmap = make_map(512, [(7, 1), (8, 0), (200, 1)])
        data = np.zeros(512, dtype=np.uint8)
        data[7] = 1
        data[200] = 1
        assert count_mismatches(data, fmap) == 0


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


class TestDataBlock:
    def test_lengths_enforced(self):
        with pytest.raises(ValueError):
            DataBlock(payload=np.zeros(511, dtype=np.uint8))
        with pytest.raises(ValueError):
            DataBlock(payload=np.zeros(512, dtype=np.uint8), aux=np.zeros(5, dtype=np.uint8))

    def test_defaults_and_immutability(self):
        block = DataBlock(payload=np.zeros(512, dtype=np.uint8))
        assert block.aux.tolist() == [0] * 6
        with pytest.raises(ValueError):
            block.payload[0] = 1

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craft.memory import (PAYLOAD_BITS, FaultMap, apply_stuck, generate_fault_map,
                          load_fault_map, save_fault_map, stuck_words)
from fault_map_oracle import canonical_entries_ref, load_fault_map_ref


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


#: ASCII characters a damaged entry line may gain. `_` is left out: `int()`
#: reads `1_0` as 10 and the loader rejects it on purpose.
ENTRY_CHARS = "0123456789+- \t\r\x0b\x0c.ex#"


def damage_entries(draw, lines, size):
    """Apply up to five ASCII edits to a fault map's entry lines, in place."""
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["blank", "pad", "tab", "sign", "extra", "missing", "value",
                                     "index", "duplicate", "swap", "insert", "delete"]))
        if kind == "blank" or not lines:
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(["", " ", "\t", " \t  "])))
            continue
        at = draw(st.integers(0, len(lines) - 1))
        line, fields = lines[at], lines[at].split()
        if kind == "pad":
            pad = draw(st.sampled_from([" ", "\t", "  \t"]))
            line = pad + line if draw(st.booleans()) else line + pad
        elif kind == "tab":
            line = line.replace(" ", draw(st.sampled_from(["\t", "   ", " \t "])))
        elif kind == "sign" and fields:
            k = draw(st.integers(0, len(fields) - 1))
            fields[k] = draw(st.sampled_from("+-")) + fields[k]
            line = " ".join(fields)
        elif kind == "extra":
            line += " " + draw(st.sampled_from(["0", "1", "7"]))
        elif kind == "missing" and fields:
            del fields[draw(st.integers(0, len(fields) - 1))]
            line = " ".join(fields)
        elif kind == "value" and len(fields) == 2:
            line = f"{fields[0]} {draw(st.sampled_from(['2', '-1', '256']))}"
        elif kind == "index" and len(fields) == 2:
            line = f"{draw(st.sampled_from([size, -1]))} {fields[1]}"
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), line)
            continue
        elif kind == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], line
            continue
        elif kind == "insert":
            pos = draw(st.integers(0, len(line)))
            line = line[:pos] + draw(st.sampled_from(ENTRY_CHARS)) + line[pos:]
        elif kind == "delete" and line:
            pos = draw(st.integers(0, len(line) - 1))
            line = line[:pos] + line[pos + 1:]
        lines[at] = line


def outcome(load, path):
    """The map `load` reads from path, or None when it raises ValueError."""
    try:
        return load(path)
    except ValueError:
        return None


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
            mask, stuck = (words[1:2] for words in stuck_words(fmap, 2))  # the second block
            readout = apply_stuck(desired, mask, stuck)
            diff = int(bits_of(readout ^ desired).sum())
            assert diff == int(bits_of(mask & (desired ^ stuck)).sum())

    def test_blocks_past_region_rejected(self):
        with pytest.raises(IndexError):
            stuck_words(make_map(1024, []), 3)

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

    @pytest.mark.parametrize("index", [np.array([2**64 - 1], dtype=np.uint64),
                                       np.array([float("inf")]), np.array([1e30])], ids=str)
    def test_integral_index_past_int64_is_out_of_region(self, index):
        with pytest.raises(ValueError, match="^bit index out of region$"):
            FaultMap(64, index, np.array([1], dtype=np.uint8), 0.0, 0.5, 0)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError, match="fault map region must be non-empty"):
            FaultMap(0, np.array([], dtype=np.int64), np.array([], dtype=np.uint8), 0.0, 0.5, 0)

    @pytest.mark.parametrize("idx, val", [([1, 2], [1]), ([[1, 2]], [[1, 0]]), (1, 1)],
                             ids=["lengths", "2-d", "0-d"])
    def test_entries_that_are_not_parallel_1d_arrays_rejected(self, idx, val):
        with pytest.raises(ValueError, match="must be parallel 1-D arrays"):
            FaultMap(64, np.array(idx), np.array(val), 0.0, 0.5, 0)

    @pytest.mark.parametrize("index", [3.9, 0.5, float("nan")], ids=str)
    def test_non_integral_index_rejected(self, index):
        # checked as given: an int64 cast would read 3.9 as 3
        with pytest.raises(ValueError, match="^bit indices must be integers$"):
            FaultMap(512, np.array([index]), np.array([1], dtype=np.uint8), 0.0, 0.5, 0)

    def test_integral_float_entries_accepted(self):
        fmap = FaultMap(512, np.array([3.0, 1.0]), np.array([1.0, 0.0]), 0.0, 0.5, 0)
        assert fmap.entries == [(1, 0), (3, 1)]
        assert fmap.bit_indices.dtype == np.int64 and fmap.stuck_values.dtype == np.uint8

    def test_equality_is_between_fault_maps(self):
        assert make_map(64, [(1, 1)]) != [(1, 1)]

    @pytest.mark.parametrize("ber, sa1_fraction", [
        (float("nan"), 0.5), (-5.0, 0.5), (1.5, 0.5),
        (0.0, float("inf")), (0.0, float("nan")), (0.0, -0.1),
    ], ids=str)
    def test_probabilities_outside_unit_interval_rejected(self, ber, sa1_fraction):
        with pytest.raises(ValueError, match="must be in \\[0, 1\\]"):
            FaultMap(64, np.array([1]), np.array([1], dtype=np.uint8), ber, sa1_fraction, 0)

    def test_immutable(self):
        fmap = make_map(64, [(1, 1)])
        with pytest.raises(ValueError):
            fmap.bit_indices[0] = 2

    def test_keeps_its_own_copy_of_ascending_entries(self):
        idx, val = np.array([1, 4, 9]), np.array([1, 0, 1], dtype=np.uint8)
        fmap = FaultMap(64, idx, val, 0.0, 0.5, 0)
        idx[0], val[0] = 2, 0
        assert fmap.entries == [(1, 1), (4, 0), (9, 1)]

    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(1, 40), data=st.data())
    def test_canonical_entries_match_one_stable_sort(self, size, data):
        """Ascending input skips the sort; shuffled, reversed and duplicated
        input must still come out, or fail, as one stable sort of it does."""
        indices = sorted(data.draw(st.sets(st.integers(-2, size + 1), max_size=12)))
        entries = [(i, data.draw(st.sampled_from([0, 1, 1, 0, 2]))) for i in indices]
        layout = data.draw(st.sampled_from(["ascending", "shuffled", "reversed", "duplicated"]))
        if layout == "shuffled":
            entries = data.draw(st.permutations(entries))
        elif layout == "reversed":
            entries.reverse()
        elif layout == "duplicated" and entries:
            i, _ = data.draw(st.sampled_from(entries))
            entries.insert(data.draw(st.integers(0, len(entries))), (i, data.draw(st.integers(0, 1))))
        idx = np.array([i for i, _ in entries], dtype=np.int64)
        val = np.array([v for _, v in entries], dtype=np.uint8)
        try:
            want = [a.tolist() for a in canonical_entries_ref(size, idx, val)]
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                FaultMap(size, idx, val, 0.0, 0.5, 0)
            return
        fmap = FaultMap(size, idx, val, 0.0, 0.5, 0)
        assert [fmap.bit_indices.tolist(), fmap.stuck_values.tolist()] == want
        assert fmap.bit_indices.dtype == np.int64 and fmap.stuck_values.dtype == np.uint8


@pytest.fixture(scope="module")
def edited_path(tmp_path_factory):
    return tmp_path_factory.mktemp("edited") / "faults.txt"


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

    @pytest.mark.parametrize("ber", [0.0, 1e-5, 1.0])
    def test_generated_maps_roundtrip(self, tmp_path, ber):
        fmap = generate_fault_map(2048, ber, 0.5, 7)
        path = tmp_path / "faults.txt"
        save_fault_map(fmap, path)
        loaded = load_fault_map(path)
        assert loaded == fmap
        assert (loaded.ber, loaded.sa1_fraction, loaded.seed) == (ber, 0.5, 7)

    @pytest.mark.parametrize("header", [
        "1_6 nan inf 0", "\u0663\u0662 -5 7 0", "16 nan 0.5 0", "16 -5 0.5 0", "16 1.5 0.5 0",
        "16 0.0 inf 0", "16 0.0 -0.5 0", "16 0.0 nan 0", "1_6 0.0 0.5 0", "16 0.0 0.5 1_0",
        "16 0_0.1 0.5 0", "16 0.0 0.5 \u0661", "16\u00a00.0 0.5 0", "16 0.0 0.5",
    ])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "faults.txt"
        path.write_text(f"{header}\n2 1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_fault_map(path)

    @pytest.mark.parametrize("body", [
        *(pytest.param(f"2 1\n{entry}\n", id=entry)
          for entry in ["17", "3 1 0", "5 2", "16 1", "-1 0", "x 1", "3 256", "1_0 1",
                        "\u0663 1", "99999999999999999999 1", "5.0 1", "1e1 1", "3 0.5",
                        "nan 1"]),
        pytest.param("2\n5\n", id="one column"),
        pytest.param("2 1 0\n5 0 1\n", id="three columns"),
        pytest.param("\xa0\n", id="no-break space only"),
        pytest.param("\u3000\n", id="ideographic space only"),
    ])
    def test_malformed_entry_rejected(self, tmp_path, body):
        path = tmp_path / "faults.txt"
        path.write_text(f"16 0.0 0.5 0\n{body}")
        with pytest.raises(ValueError):
            load_fault_map(path)

    @pytest.mark.parametrize("body, message", [
        ("2 1\n\n16 1\n", "entry 2: bad entry '16 1'"),
        ("2 1\n3 256\n", "entry 2: bad entry '3 256'"),
        ("2 1\n\n1_0 1\n", "line 4: unexpected '_' in '1_0 1'"),
        ("2 1\n5 \xa00\n", "line 3: unexpected '\\xa0' in '5 \\xa00'"),
        ("2 1 0\n5 0 1\n", "entry 1: expected `bit_index value`, got '2 1 0'"),
    ], ids=["index is size", "value past uint8", "digit separator", "no-break space",
            "three columns"])
    def test_error_names_the_entry(self, tmp_path, body, message):
        path = tmp_path / "faults.txt"
        path.write_text(f"16 0.0 0.5 0\n{body}")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_fault_map(path)

    @pytest.mark.parametrize("body, entries", [
        ("", []),
        ("\n  \n\t\n", []),
        ("2 1\r\n\r\n\n5 0\r\n", [(2, 1), (5, 0)]),
        ("9 1\n2 0\n5 1", [(2, 0), (5, 1), (9, 1)]),
    ], ids=["header only", "whitespace only", "blank lines and CRLF", "unsorted"])
    def test_accepted_bodies(self, tmp_path, body, entries):
        path = tmp_path / "faults.txt"
        path.write_text(f"16 0.0 0.5 0\n{body}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fmap = load_fault_map(path)
        assert fmap.entries == entries

    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(8, 200), ber=st.sampled_from([0.0, 0.05, 0.1, 0.3]),
           seed=st.integers(0, 2**16), data=st.data())
    def test_agrees_with_line_by_line_reader(self, edited_path, size, ber, seed, data):
        save_fault_map(generate_fault_map(size, ber, 0.5, seed), edited_path)
        header, *lines = edited_path.read_text().splitlines()
        damage_entries(data.draw, lines, size)
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = newline.join([header, *lines]) + data.draw(st.sampled_from([newline, ""]))
        edited_path.write_bytes(text.encode("ascii"))
        new = outcome(load_fault_map, edited_path)
        ref = outcome(load_fault_map_ref, edited_path)
        assert (new is None) == (ref is None), text
        if new is not None:
            assert new == ref
            assert (new.ber, new.sa1_fraction, new.seed) == (ref.ber, ref.sa1_fraction, ref.seed)
            assert new.bit_indices.dtype == ref.bit_indices.dtype
            assert new.stuck_values.dtype == ref.stuck_values.dtype

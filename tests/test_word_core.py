"""Differential tests of the word-level codec core.

The search, fault application, ECP and deviation are re-derived on plain
Python integers in ``codec_oracle``; the search's frame readbacks are
compared with encode -> stuck cells -> decode, one shared search with a
search of each prefix of aux-code order alone, and the harness's batched scheme
application with a per-block loop over the integer references.
The chunked search is checked against one-block searches, searches in
fresh threads and concurrent threads, and its traced memory against one
chunk's.
Per-config deltas must agree bit for bit.
"""

import pathlib
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from craft.codecs import PAYLOAD_BITS, Precision, decode_words, encode_words, frame_stuck
from craft.harness import Scheme, _apply_schemes
from craft.memory import (FaultMap, apply_stuck, generate_fault_map, generate_fault_maps,
                          stuck_words)
from craft.objective import (NONFINITE_SENTINEL, SEARCH_CHUNK_BLOCKS, best_encodings,
                             deviation_words, search_best_encoding, search_words,
                             store_words)
from craft.weightfile import flatten_model

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from codec_oracle import (decode_ref, deviation_ref, ecp_ref, encode_ref, search_ref,
                          stuck_ref)
from readbacks import scheme_readbacks

MASK32 = 0xFFFFFFFF
SPECIAL_WORDS = [0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000,
                 0x7F800001, 0x7F7FFFFF, 0x00000001, MASK32, 0x3F800000]

words32 = st.one_of(
    st.integers(0, MASK32),
    st.floats(-4.0, 4.0, width=32).map(lambda f: struct.unpack("<I", struct.pack("<f", f))[0]),
    st.sampled_from(SPECIAL_WORDS),
)
blocks = st.lists(words32, min_size=16, max_size=16)


@st.composite
def stuck_cells(draw):
    """{local bit position: stuck value} for one block: sparse, dense,
    or every cell stuck at 0 or at 1."""
    kind = draw(st.sampled_from(["sparse", "dense", "all_sa0", "all_sa1"]))
    if kind == "all_sa0":
        return {p: 0 for p in range(PAYLOAD_BITS)}
    if kind == "all_sa1":
        return {p: 1 for p in range(PAYLOAD_BITS)}
    size = 8 if kind == "sparse" else PAYLOAD_BITS
    positions = draw(st.sets(st.integers(0, PAYLOAD_BITS - 1), max_size=size))
    return {p: draw(st.integers(0, 1)) for p in sorted(positions)}


#: How many configs a search covers: a prefix of aux-code order.
prefix_sizes = st.integers(1, 64)


OFFSET = PAYLOAD_BITS  # the block sits second in a two-block region, row 1 of its words


def fault_map_of(cells):
    idx = np.array([OFFSET + p for p in cells], dtype=np.int64)
    val = np.array(list(cells.values()), dtype=np.uint8)
    return FaultMap(2 * PAYLOAD_BITS, idx, val, 0.0, 0.5, 0)


@settings(max_examples=150, deadline=None)
@given(words=blocks, cells=stuck_cells(), size=st.one_of(st.none(), prefix_sizes),
       precision=st.sampled_from(["fp32", "u8"]),
       scale=st.floats(1e-3, 10.0, allow_nan=False))
# all-SA1 cells read every weight of a non-inverting fp32 config back as NaN
@example(words=[0x3F800000] * 16, cells={p: 1 for p in range(PAYLOAD_BITS)},
         size=None, precision="fp32", scale=1.0)
def test_search_matches_integer_reference(words, cells, size, precision, scale):
    prec = Precision(precision)
    u8_scale = None if precision == "fp32" else scale
    scales = None if u8_scale is None else np.array([u8_scale])
    fmap = fault_map_of(cells)
    codes = list(range(64 if size is None else size))
    mask, stuck = (w[1:] for w in stuck_words(fmap, 2))
    block = np.array([words], dtype=np.uint32)
    sized = () if size is None else (size,)
    deltas = search_words(block, mask, stuck, prec, scales, *sized)[0]

    every = search_ref(words, cells, precision, u8_scale, range(64))
    expected = every[:len(codes)]
    assert deltas.tolist() == expected
    best = min(codes, key=lambda c: (expected[c], c))
    assert np.argmin(deltas) == best

    chosen, _, delta = best_encodings(block, mask, stuck, prec, scales, [len(codes)])[0]
    assert chosen[0] == best
    assert delta[0] == expected[best]
    best = min(range(64), key=lambda c: (every[c], c))
    chosen, stored, delta = store_words(block, mask, stuck, prec, scales)
    assert chosen[0] == best
    assert delta[0] == every[best]
    assert stored[0].tolist() == stuck_ref(encode_ref(words, best, precision), cells)


def test_search_best_encoding_is_search_words_of_one_block():
    for precision in Precision:
        words, mask, stuck, _, scale = random_stuck_blocks(8, 3, precision, 0.1)
        for b in range(3):
            one = slice(b, b + 1)
            expected = search_words(words[one], mask[one], stuck[one], precision,
                                    None if scale is None else scale[one])[0]
            got = search_best_encoding(words[b], mask[b], stuck[b], precision,
                                       None if scale is None else scale[b])
            assert got.shape == (64,)
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_configs", [0, 65, -1])
def test_search_sizes_outside_1_to_64_rejected(n_configs):
    words, mask, stuck, precision, scale = random_stuck_blocks(2, 3, Precision.U8)
    for n in (3, 0):
        inputs = words[:n], mask[:n], stuck[:n], precision, scale[:n]
        with pytest.raises(ValueError, match="1 to 64"):
            search_words(*inputs, n_configs)
        for sizes in ([n_configs], [64, n_configs]):
            with pytest.raises(ValueError, match="1 to 64"):
                best_encodings(*inputs, sizes)


def test_all_sa1_fp32_block_loses_to_nan_unless_inverted():
    # 1.0 everywhere; all-ones reads back as NaN, or as 0.0 after inversion
    fmap = fault_map_of({p: 1 for p in range(PAYLOAD_BITS)})
    mask, stuck = (w[1:] for w in stuck_words(fmap, 2))
    block = np.full((1, 16), 0x3F800000, dtype=np.uint32)
    deltas = search_words(block, mask, stuck, Precision.FP32, None)[0]
    for code, delta in enumerate(deltas.tolist()):
        assert delta == (16.0 if code & 0x10 else 16 * NONFINITE_SENTINEL)
    assert np.argmin(deltas) == 16


@settings(max_examples=100, deadline=None)
@given(words=blocks, readout=blocks, precision=st.sampled_from(["fp32", "u8"]))
def test_deviation_matches_integer_reference(words, readout, precision):
    scale = None if precision == "fp32" else 0.25
    got = deviation_words(np.array(words, dtype=np.uint32), np.array(readout, dtype=np.uint32),
                          Precision(precision), scale)
    assert got == deviation_ref(words, readout, precision, scale)


def cells_by_block(fault_map):
    """{block: {local bit position: stuck value}} of a fault map's cells."""
    cells = {}
    for pos, value in fault_map.entries:
        block, local = divmod(pos, PAYLOAD_BITS)
        cells.setdefault(block, {})[local] = value
    return cells


def reference_apply_scheme(blocks, layout, scheme, fault_map):
    """A scheme applied block by block on plain ints, through the oracle."""
    read = blocks.copy()
    total = 0.0
    precision = layout.precision.value
    scales = layout.block_scales()
    for b, cells in sorted(cells_by_block(fault_map).items()):
        words = blocks[b].tolist()
        scale = None if scales is None else scales[b]
        if scheme.kind in ("baseline", "ecp"):
            out = (stuck_ref(words, cells) if scheme.kind == "baseline"
                   else ecp_ref(words, cells, scheme.ecp_n))
            delta = deviation_ref(words, out, precision, scale)
        else:
            deltas = search_ref(words, cells, precision, scale, range(scheme.n_configs))
            best = min(range(scheme.n_configs), key=lambda c: (deltas[c], c))
            stored = stuck_ref(encode_ref(words, best, precision), cells)
            out = decode_ref(stored, best, precision)
            delta = deltas[best]
        read[b] = out
        total += delta
    return read, total


@settings(max_examples=40, deadline=None)
@given(precision=st.sampled_from(["fp32", "u8"]),
       scheme=st.sampled_from(["baseline", "ecp1", "ecp3", "remap_invert", "craft"]),
       ber=st.sampled_from([0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0]),
       sa1=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**16))
def test_apply_scheme_matches_per_block_loop(fp32_model, u8_model, precision, scheme,
                                             ber, sa1, seed):
    blocks, layout = flatten_model(fp32_model if precision == "fp32" else u8_model)
    fmap = generate_fault_map(layout.n_blocks * PAYLOAD_BITS, ber, sa1, seed)
    read, total = scheme_readbacks(blocks, layout, [Scheme.parse(scheme)], fmap)[0]
    ref_read, ref_total = reference_apply_scheme(blocks, layout, Scheme.parse(scheme), fmap)
    assert np.array_equal(read, ref_read)
    assert total == ref_total


@st.composite
def stuck_block(draw):
    """(mask, stuck) words of one block: the cells of a fault map, or stuck
    words drawn apart from the mask, with bits outside it."""
    if draw(st.booleans()):
        mask, stuck = [0] * 16, [0] * 16
        for pos, value in draw(stuck_cells()).items():
            w, k = divmod(pos, 32)
            mask[w] |= 1 << k
            stuck[w] |= value << k
        return mask, stuck
    words = st.lists(st.integers(0, MASK32), min_size=16, max_size=16)
    return draw(words), draw(words)


stuck_blocks = st.lists(st.tuples(blocks, stuck_block()), min_size=1, max_size=4)
precisions = st.sampled_from(list(Precision))
ALL_SA0 = ([0] * 16, [0] * 16)
ALL_SA1 = ([MASK32] * 16, [MASK32] * 16)
NONFINITE = [0x7F800000, 0xFF800000, 0x7FC00000, 0x7F800001] * 4


def as_arrays(data):
    words = np.array([w for w, _ in data], dtype=np.uint32)
    mask = np.array([m for _, (m, _) in data], dtype=np.uint32)
    stuck = np.array([s for _, (_, s) in data], dtype=np.uint32)
    return words, mask, stuck


def chain_readback(words, mask, stuck, codes, precision):
    """Readback through the memory's frame: encode, stuck cells, decode."""
    stored = apply_stuck(encode_words(words, codes, precision), mask, stuck)
    return decode_words(stored, codes, precision)


@settings(max_examples=150, deadline=None)
@given(data=stuck_blocks, precision=precisions)
@example(data=[(NONFINITE, ALL_SA0), (NONFINITE, ALL_SA1)], precision=Precision.FP32)
@example(data=[(NONFINITE, ALL_SA1), ([0] * 16, ALL_SA0)], precision=Precision.U8)
@example(data=[([0x3F800000] * 16, ([0] * 16, [MASK32] * 16))], precision=Precision.FP32)
def test_frame_readback_matches_encode_stuck_decode(data, precision):
    words, mask, stuck = as_arrays(data)
    frame_mask, frame_stuck_ = frame_stuck(mask, stuck, precision)
    assert frame_mask.shape == frame_stuck_.shape == (len(data), 64)
    for code in range(64):
        columns = code ^ np.arange(16)
        got = (words & ~frame_mask[:, columns]) | frame_stuck_[:, columns]
        expected = chain_readback(words, mask, stuck, np.full(len(data), code), precision)
        assert np.array_equal(got, expected), code


def smallest_minimal_codes(scored):
    """Per row of (n, k) deltas, the smallest aux code whose delta is minimal."""
    return np.array([np.flatnonzero(row == row.min())[0] for row in scored])


@settings(max_examples=100, deadline=None)
@given(data=stuck_blocks, precision=precisions,
       sizes=st.lists(prefix_sizes, min_size=1, max_size=4),
       scale=st.floats(1e-3, 10.0, allow_nan=False))
@example(data=[(NONFINITE, ALL_SA1), (NONFINITE, ALL_SA0)], precision=Precision.FP32,
         sizes=[64, 32, 64], scale=1.0)
def test_shared_search_matches_each_code_set_alone(data, precision, sizes, scale):
    words, mask, stuck = as_arrays(data)
    scales = None if precision is Precision.FP32 else np.full(len(data), scale)
    rows = np.arange(len(data))
    every = search_words(words, mask, stuck, precision, scales)
    found = best_encodings(words, mask, stuck, precision, scales, sizes)
    assert len(found) == len(sizes)
    for size, (chosen, readback, deltas) in zip(sizes, found):
        scored = search_words(words, mask, stuck, precision, scales, size)
        assert scored.tolist() == every[:, :size].tolist()
        best = smallest_minimal_codes(scored)
        assert chosen.tolist() == best.tolist()
        assert deltas.tolist() == scored[rows, best].tolist()
        assert np.array_equal(readback, chain_readback(words, mask, stuck, chosen, precision))
        assert deltas.tolist() == deviation_words(words, readback, precision, scales).tolist()
        alone, alone_readback, alone_deltas = best_encodings(words, mask, stuck, precision,
                                                             scales, [size])[0]
        assert alone.tolist() == chosen.tolist()
        assert alone_deltas.tolist() == deltas.tolist()
        assert np.array_equal(alone_readback, readback)
    chosen, stored, deltas = store_words(words, mask, stuck, precision, scales)
    assert chosen.tolist() == smallest_minimal_codes(every).tolist()
    assert deltas.tolist() == every[rows, chosen].tolist()
    assert np.array_equal(stored, apply_stuck(encode_words(words, chosen, precision),
                                              mask, stuck))


SCHEME_NAMES = ["baseline", "ecp1", "ecp3", "remap_invert", "craft"]


@settings(max_examples=30, deadline=None)
@given(precision=st.sampled_from(["fp32", "u8"]),
       names=st.lists(st.sampled_from(SCHEME_NAMES), max_size=6),
       bers=st.lists(st.sampled_from([0.0, 1e-3, 1e-2, 0.1, 1.0]), min_size=1, max_size=3),
       sa1=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**16))
@example(precision="fp32", names=["craft", "remap_invert", "craft", "baseline"],
         bers=[0.1, 1e-3, 0.1], sa1=0.5, seed=3)
@example(precision="u8", names=["ecp3", "ecp1"], bers=[1e-2], sa1=0.5, seed=4)
@example(precision="fp32", names=SCHEME_NAMES, bers=[0.0, 1e-2], sa1=0.5, seed=5)
@example(precision="u8", names=[], bers=[1e-2, 0.0], sa1=0.5, seed=6)
def test_apply_schemes_matches_each_scheme_alone(fp32_model, u8_model, precision, names,
                                                 bers, sa1, seed):
    """Any list of schemes (any order, duplicates, ECP only, an empty fault
    map) gives each scheme what it gets alone and from the per-block loop,
    and a grid of maps in one call gives each map what it gets alone."""
    blocks, layout = flatten_model(fp32_model if precision == "fp32" else u8_model)
    maps = generate_fault_maps(layout.n_blocks * PAYLOAD_BITS, bers, sa1, seed)
    schemes = [Scheme.parse(name) for name in names]
    at, grid, ends = _apply_schemes(blocks, layout, schemes, maps)
    assert len(ends) == len(maps)
    reference = {}
    for fmap, start, end in zip(maps, [0, *ends[:-1].tolist()], ends.tolist()):
        touched, outs = at[start:end], grid[:, start:end]
        touched_alone, outs_alone, _ = _apply_schemes(blocks, layout, schemes, [fmap])
        assert np.array_equal(touched, touched_alone)
        assert np.array_equal(outs, outs_alone)
        results = scheme_readbacks(blocks, layout, schemes, fmap)
        assert len(results) == len(schemes)
        for i, (scheme, (read, total), out) in enumerate(zip(schemes, results, outs,
                                                             strict=True)):
            alone_read, alone_total = scheme_readbacks(blocks, layout, [scheme], fmap)[0]
            assert np.array_equal(read, alone_read)
            assert total == alone_total
            key = scheme, fmap.ber
            if key not in reference:
                reference[key] = reference_apply_scheme(blocks, layout, scheme, fmap)
            ref_read, ref_total = reference[key]
            assert np.array_equal(read, ref_read)
            assert total == ref_total
            assert not np.shares_memory(out, blocks)
            assert not any(np.shares_memory(out, other) for other in outs[:i])


def random_stuck_blocks(seed, n, precision, density=0.02):
    """Search inputs: (n, 16) words, their stuck cells, the precision and
    the u8 scales.  fp32 words are small weights with NaN, infinity and
    float32-max words mixed in; u8 words are random codes."""
    rng = np.random.default_rng(seed)
    if precision is Precision.FP32:
        words = (rng.standard_normal((n, 16)) * 0.1).astype("<f4").view("<u4")
        special = rng.random((n, 16)) < 0.05
        words[special] = rng.choice(SPECIAL_WORDS + NONFINITE, special.sum())
        scale = None
    else:
        words = rng.integers(0, 2**32, (n, 16), dtype=np.uint64).astype(np.uint32)
        scale = rng.uniform(1e-3, 1.0, n)
    cells = rng.random((n, 16, 32)) < density
    mask = np.packbits(cells, axis=-1, bitorder="little").view("<u4").reshape(n, 16)
    stuck = rng.integers(0, 2**32, (n, 16), dtype=np.uint64).astype(np.uint32) & mask
    return words, mask, stuck, precision, scale


def reference_deltas(words, mask, stuck, precision, scale, codes):
    """(n, len(codes)) deltas through encode -> stuck cells -> decode and
    deviation_words, without the search's work arrays."""
    return np.stack([deviation_words(words, chain_readback(words, mask, stuck,
                                                           np.full(len(words), code),
                                                           precision), precision, scale)
                     for code in codes], axis=-1)


def searches(words, mask, stuck, precision, scale, n_configs):
    """Every public search result for one input, as plain arrays."""
    found = best_encodings(words, mask, stuck, precision, scale,
                           [n_configs, (n_configs + 1) // 2])
    return ([search_words(words, mask, stuck, precision, scale, n_configs)]
            + [array for result in found for array in result]
            + list(store_words(words, mask, stuck, precision, scale)))


def assert_same(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def in_new_thread(fn, *args):
    """fn(*args) in a thread of its own, where no earlier search has run."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


CHUNKED = 2 * SEARCH_CHUNK_BLOCKS + 3


def test_chunked_search_matches_one_block_at_a_time():
    for precision in Precision:
        words, mask, stuck, _, scale = random_stuck_blocks(1, CHUNKED, precision, 0.05)
        for n_configs in (64, 8):
            chosen, deltas = [], []
            for b in range(CHUNKED):
                one = slice(b, b + 1)
                scored = search_words(words[one], mask[one], stuck[one], precision,
                                      None if scale is None else scale[one], n_configs)
                best = smallest_minimal_codes(scored)[0]
                chosen.append(best)
                deltas.append(scored[0, best])
            found_chosen, readback, found_deltas = best_encodings(
                words, mask, stuck, precision, scale, [n_configs])[0]
            assert found_chosen.tolist() == chosen
            assert found_deltas.tolist() == deltas
            assert np.array_equal(readback, chain_readback(words, mask, stuck, found_chosen,
                                                           precision))
            if n_configs == 64:
                stored_chosen, stored, stored_deltas = store_words(words, mask, stuck,
                                                                   precision, scale)
                assert stored_chosen.tolist() == chosen
                assert stored_deltas.tolist() == deltas
                assert np.array_equal(stored, apply_stuck(encode_words(words, stored_chosen,
                                                                       precision), mask, stuck))


def test_small_search_after_a_large_one_matches_a_fresh_thread():
    small = {p: random_stuck_blocks(3, 5, p, 0.2) for p in Precision}
    fresh = {p: in_new_thread(searches, *small[p], 8) for p in Precision}
    for p, inputs in small.items():
        assert np.array_equal(fresh[p][0], reference_deltas(*inputs, range(8)))
    for large in Precision:
        searches(*random_stuck_blocks(4, CHUNKED, large, 0.5), 64)
        for p in Precision:
            assert_same(searches(*small[p], 8), fresh[p])


def test_results_are_unchanged_by_a_later_search():
    for precision in Precision:
        first = searches(*random_stuck_blocks(5, 40, precision, 0.1), 64)
        kept = [a.copy() for a in first]
        searches(*random_stuck_blocks(6, 40, precision, 0.3), 64)
        assert_same(first, kept)


def search_work_bytes(n, precision):
    """Traced peak of a search of n blocks, less the bytes it returns."""
    inputs = random_stuck_blocks(7, n, precision)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        found = best_encodings(*inputs, [64, 8])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base - sum(a.nbytes for result in found for a in result)


def test_search_memory_stays_within_one_chunk():
    # Past the first chunk, the previous chunk's tables and scores are
    # still held while the next is scored: a few percent of one chunk's
    # work, where a search of all 40 chunks at once would take 40 times it.
    for precision in Precision:
        one = search_work_bytes(SEARCH_CHUNK_BLOCKS, precision)
        assert one > 0
        assert search_work_bytes(40 * SEARCH_CHUNK_BLOCKS, precision) <= 1.25 * one


def test_concurrent_searches_match_serial_ones():
    inputs = [random_stuck_blocks(10 + k, CHUNKED + 11 * k, precision, 0.05)
              for k in range(2) for precision in Precision]
    serial = [in_new_thread(searches, *args, 64) for args in inputs]
    barrier = threading.Barrier(len(inputs))
    mismatches = []

    def worker(k):
        barrier.wait(timeout=60)
        for _ in range(4):
            got = searches(*inputs[k], 64)
            if any(a.tobytes() != b.tobytes() for a, b in zip(got, serial[k])):
                mismatches.append(k)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_fp32_deltas_add_in_numpys_order():
    # Stuck cells set every word of a zero block to a float32 of widely
    # spread magnitude, so how the 16 terms are paired changes the rounded
    # sum; the search must pair them as numpy's sum does.
    rng = np.random.default_rng(12)
    n = 64
    values = (2.0 ** rng.uniform(-40, 60, (n, 16))).astype("<f4")
    words = np.zeros((n, 16), dtype=np.uint32)
    mask = np.full((n, 16), 0xFFFFFFFF, dtype=np.uint32)
    stuck = values.view("<u4")
    deltas = search_words(words, mask, stuck, Precision.FP32, None, 64)
    assert deltas.tolist() == reference_deltas(words, mask, stuck, Precision.FP32, None,
                                               range(64)).tolist()
    terms = values.astype(np.float64)
    assert deltas[:, 0].tolist() == terms.sum(axis=-1).tolist()
    halved = terms[:, :8] + terms[:, 8:]
    while halved.shape[1] > 1:
        halved = halved[:, : halved.shape[1] // 2] + halved[:, halved.shape[1] // 2:]
    assert (halved[:, 0] != deltas[:, 0]).any()  # the pairing is visible here

"""Net-deviation objective and the per-block encoding search.

The quality of a stored block is judged by net deviation: the sum over the
block's weights of |readout value - original value|.  For a given fault
map the best encoding is found by brute force over the first k configs in
aux-code order, simulating store -> faulty readout -> decode for each one
and keeping the argmin (ties go to the smallest aux code).  The aux code
is ``key | invert << 4 | switch << 5``, so the encoding spaces nest as
prefixes of that order: identity 1, remap 16, remap+invert 32, craft 64.

Everything here takes blocks in one form, (n, 16) uint32 words (see
:mod:`craft.codecs`), and names a config by its aux code.  The search runs
in the data's frame: it never encodes.  :func:`craft.codecs.frame_stuck`
gathers each block's stuck cells into the position where every logical
word sits under every config, so a config's readback is the original words
with those cells applied.  :func:`search_words` scores the first k configs
of a chunk of blocks in one word-major (16, k, blocks) pass, in arrays
made for that pass, so a search keeps no state between calls and its
temporaries stay within one chunk's.  :func:`best_encodings` scores the
longest of several prefixes once, a chunk at a time, and gives each prefix
its winners, their readbacks and their deltas from that one pass;
:func:`store_words` builds on it, searches all 64 configs and encodes the
winners' readbacks into the words the memory holds.
:func:`search_best_encoding` is :func:`search_words` of one block, kept
only for the benchmark's self-test.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .codecs import N_CONFIGS, Precision, encode_words, frame_stuck
from .memory import WORDS_PER_BLOCK, apply_stuck

#: Delta contributed by a non-finite float32 readout weight.  Just above
#: float32 max, so a config producing NaN/Inf loses to any finite one.
NONFINITE_SENTINEL = 2.0 ** 128

#: Blocks scored per pass of the search.  A pass works in a few
#: (16, configs, chunk) arrays of its own (a traced peak of about 1.0 MB
#: for all 64 configs, fp32 or u8), so memory stays flat in the model size.
SEARCH_CHUNK_BLOCKS = 64

_SLOTS = np.arange(WORDS_PER_BLOCK)

#: The order in which the search lays out a block's 16 words: halving it
#: repeatedly pairs them as numpy pairs 16 contiguous float64 in a sum.
_WORD_ORDER = np.array([0, 4, 2, 6, 1, 5, 3, 7, 8, 12, 10, 14, 9, 13, 11, 15])

#: _COLUMNS[p, c] = c ^ _WORD_ORDER[p]: the frame-table column of the
#: p-th laid-out word under aux code c.
_COLUMNS = _WORD_ORDER[:, None] ^ np.arange(N_CONFIGS)


def deviation_words(original: np.ndarray, readout: np.ndarray, precision: Precision,
                    scale=None) -> np.ndarray:
    """Net deviation between (..., 16) uint32 blocks and their readouts.

    `original` broadcasts against `readout`.  For u8, `scale` is the
    quantization scale, a float or an array broadcasting against the
    result; fp32 takes none.  A u8 delta is scale times the exact integer
    sum of absolute code differences (equal to the dequantized sum,
    rounded once).  fp32 differences are taken in float64 and summed along
    a contiguous last axis, and any non-finite weight, in the readout or
    the original, contributes :data:`NONFINITE_SENTINEL`, so comparisons
    stay total and deterministic.

    A delta sums every slot of a block, pad slots included: a pad holds
    zero in the original, so a stuck cell there adds to the delta (and,
    through the search, can steer the choice of encoding).  Models whose
    layers fill whole blocks have no pads.
    """
    if precision is Precision.U8:
        qo = np.ascontiguousarray(original).view(np.uint8).astype(np.int16)
        qr = np.ascontiguousarray(readout).view(np.uint8).astype(np.int16)
        return scale * np.abs(qr - qo).sum(axis=-1)
    # Blocks are arbitrary bit patterns; signaling NaNs and inf-inf are
    # expected here and resolved through the sentinel.
    with np.errstate(invalid="ignore"):
        diff = np.subtract(readout.view("<f4"), original.view("<f4"), dtype=np.float64)
    # The float64 difference of two finite float32 values is finite, and
    # one of a NaN or an infinity is not, so its finiteness is both inputs'.
    np.abs(diff, out=diff)
    diff[~np.isfinite(diff)] = NONFINITE_SENTINEL
    return diff.sum(axis=-1)


def _sum_halves(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, of power-of-two length: each step adds
    the second half to the first, so every add reads and writes whole
    contiguous slabs; `terms` is overwritten and the sum is a new array.
    On 16 words in :data:`_WORD_ORDER` this is numpy's sum of 16 contiguous
    float64: eight lanes r_k = a_k + a_(k+8), then
    ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))."""
    while len(terms) > 2:
        half = len(terms) // 2
        np.add(terms[:half], terms[half:], out=terms[:half])
        terms = terms[:half]
    return np.add(terms[0], terms[1])


def _score(words, mask_t, stuck_t, precision, scale, columns) -> np.ndarray:
    """Deltas of (m, 16) blocks under the configs whose frame-table
    columns (see :func:`craft.codecs.frame_stuck`) are `columns`, shape
    (16, configs) with words in :data:`_WORD_ORDER`, as a new (configs, m)
    array.

    Works word-major, (16, configs, m), so each table gather copies whole
    rows and the 16-word sum is four slab adds.  The fp32 adds follow
    numpy's own order (see :func:`_sum_halves`), so the deltas equal
    :func:`deviation_words` bit for bit; u8 code differences add exactly
    in 16-bit integers.
    """
    x = np.take(words.T, _WORD_ORDER, axis=0)
    keep = np.invert(mask_t.T, order="C")
    readback = np.take(keep, columns, axis=0)
    readback &= x[:, None, :]
    readback |= np.take(np.ascontiguousarray(stuck_t.T), columns, axis=0)
    if precision is Precision.U8:
        # |qr - qo| as max - min in uint8, widened to uint16 by the first add.
        qr = readback.view(np.uint8)
        qo = x.view(np.uint8)[:, None, :]
        low = np.minimum(qr, qo)
        np.subtract(np.maximum(qr, qo, out=qr), low, out=qr)
        lanes = np.add(qr[:8], qr[8:], dtype=np.uint16)
        # Each uint64 holds a block's four byte sums (at most 16 * 255 each);
        # the top 16 bits of its product with 0x0001000100010001 are their
        # sum, which stays below 2 ** 16, so no carry spills between fields.
        sums = _sum_halves(lanes).view(np.uint64)
        sums *= 0x0001000100010001
        sums >>= 48
        return sums * scale
    # Blocks are arbitrary bit patterns; signaling NaNs and inf-inf are
    # expected here and resolved through the sentinel.
    with np.errstate(invalid="ignore"):
        terms = np.subtract(readback.view("<f4"), x.view("<f4")[:, None, :],
                            dtype=np.float64)
    np.abs(terms, out=terms)
    # A NaN or an infinity among the terms makes their max non-finite, so
    # one max finds whether any term needs the sentinel.
    if not np.isfinite(terms.max()):
        np.copyto(terms, NONFINITE_SENTINEL, where=~np.isfinite(terms))
    return _sum_halves(terms)


def _check_size(n_configs: int) -> None:
    if not 1 <= n_configs <= N_CONFIGS:
        raise ValueError(f"a search covers 1 to {N_CONFIGS} configs, got {n_configs}")


def _scored_chunks(words, mask, stuck, precision, scale, n_configs):
    """Per chunk of at most :data:`SEARCH_CHUNK_BLOCKS` blocks: its slice,
    its frame tables and the (n_configs, m) deltas of aux codes 0 to
    n_configs - 1, each a new array."""
    columns = _COLUMNS[:, :n_configs]
    for lo in range(0, words.shape[0], SEARCH_CHUNK_BLOCKS):
        part = slice(lo, lo + SEARCH_CHUNK_BLOCKS)
        x = words[part]
        mask_t, stuck_t = frame_stuck(mask[part], stuck[part], precision)
        yield part, mask_t, stuck_t, _score(x, mask_t, stuck_t, precision,
                                            None if scale is None else scale[part], columns)


def search_words(words: np.ndarray, mask: np.ndarray, stuck: np.ndarray,
                 precision: Precision, scale, n_configs: int = N_CONFIGS) -> np.ndarray:
    """Deltas of aux codes 0 to n_configs - 1 for every one of (n, 16) blocks.

    Each config's store -> faulty readout -> decode is found in the data's
    frame (see :func:`craft.codecs.frame_stuck`), all configs of
    :data:`SEARCH_CHUNK_BLOCKS` blocks in one pass; `mask` and `stuck` are
    the blocks' stuck cells (see :func:`craft.memory.stuck_words`) and
    `scale` is None for fp32 or the per-block u8 scales, shape (n,).
    Returns (n, n_configs) deltas, column c holding aux code c.  Raises
    ValueError unless 1 <= n_configs <= 64.  Beyond the result, work
    memory is bounded by one chunk's, whatever n is.
    """
    _check_size(n_configs)
    deltas = np.empty((n_configs, words.shape[0]))
    for part, _, _, scores in _scored_chunks(words, mask, stuck, precision, scale, n_configs):
        deltas[:, part] = scores
    return deltas.T


def best_encodings(words: np.ndarray, mask: np.ndarray, stuck: np.ndarray,
                   precision: Precision, scale, sizes: Sequence[int]):
    """Each block's best config among the first `size` aux codes, for each
    of `sizes`.

    One search scores the first max(sizes) configs,
    :data:`SEARCH_CHUNK_BLOCKS` blocks at a time; a size's winner is the
    first minimum of its leading rows of the scores.  No delta is NaN
    (fp32 non-finite weights score the sentinel, and u8 scales are
    finite), so that is the smallest aux code among the minimal deltas.
    Returns, per size in order, the chosen aux code of each block, its
    (n, 16) readback words (decoded, stuck cells applied) and its net
    deviation.  Each result equals a search of that size alone.  Raises
    ValueError unless every size is in [1, 64].
    """
    for size in sizes:
        _check_size(size)
    n = words.shape[0]
    found = [(np.empty(n, dtype=np.intp), np.empty_like(words), np.empty(n)) for _ in sizes]
    if not sizes:
        return found
    for part, mask_t, stuck_t, scored in _scored_chunks(words, mask, stuck, precision,
                                                        scale, max(sizes)):
        x = words[part]
        rows = np.arange(x.shape[0])
        for size, (chosen, readback, deltas) in zip(sizes, found):
            best = np.argmin(scored[:size], axis=0)
            chosen[part] = best
            deltas[part] = scored[best, rows]
            won = rows[:, None], best[:, None] ^ _SLOTS
            readback[part] = apply_stuck(x, mask_t[won], stuck_t[won])
    return found


def store_words(words: np.ndarray, mask: np.ndarray, stuck: np.ndarray,
                precision: Precision, scale=None):
    """Store (n, 16) blocks, each with the best of all 64 encodings for its
    stuck cells.

    Returns the chosen aux code of each block (see :func:`best_encodings`),
    the stored words as the memory holds them (encoded, stuck cells
    overriding) and each block's achieved net deviation.
    """
    chosen, readback, deltas = best_encodings(words, mask, stuck, precision, scale,
                                              [N_CONFIGS])[0]
    # Encoding inverts decoding, so this is the encoded block with the
    # stuck cells applied.
    stored = encode_words(readback, chosen, precision)
    return chosen, stored, deltas


def search_best_encoding(words: np.ndarray, mask: np.ndarray, stuck: np.ndarray,
                         precision: Precision, scale=None) -> np.ndarray:
    """The 64 deltas of one (16,) block, entry c holding aux code c: the
    row of :func:`search_words` for that block alone.  `mask` and `stuck`
    are its (16,) stuck words and `scale` its u8 scale, None for fp32.

    It stays only because the benchmark's self-test, ``bench/test_bench.py``,
    wraps it by name; ROADMAP item 5 retargets the benchmark and deletes it.
    """
    scale = None if scale is None else np.array([scale])
    return search_words(words[None], mask[None], stuck[None], precision, scale)[0]

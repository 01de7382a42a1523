"""Memory regions with stuck-at faults.

A stuck cell keeps its frozen value regardless of what is written; reads
return the stuck value silently.  Faults are i.i.d. per bit: each cell is
stuck with probability `ber`, and a stuck cell holds 1 with probability
`sa1_fraction` (SA1), otherwise 0 (SA0).

:func:`generate_fault_maps` draws one region's maps at a list of BERs
from one seed in one pass: every BER reads the same uniforms, so the
maps nest, each holding the stuck cells of every lower BER.  The uniforms
are drawn :data:`DRAW_CHUNK_BITS` at a time, so a draw holds one chunk of
them, not the whole region's; :func:`generate_fault_map` is its one-BER
case.

A fault map lists its stuck cells by bit index.  Their one word form is
``stuck_words(fault_map, n_blocks)``, the (mask, stuck) uint32 words of the
first `n_blocks` blocks, which fault application, the encodings, ECP and the
harness's BER sweep read.
:func:`craft.harness.bit_criticality` does not: it draws over words, one
cell per weight, through the same private draw (:func:`_draw`) but builds
no map, and scatters bit position 0's words from the drawn cells.
Generated maps skip the constructor's entry checks, which the draw makes
hold by construction; every other map, :func:`load_fault_map`'s included,
is fully checked.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .prng import make_rng

PAYLOAD_BITS = 512
WORDS_PER_BLOCK = PAYLOAD_BITS // 32
#: Share of stuck cells that hold 1 unless a caller says otherwise.
DEFAULT_SA1_FRACTION = 0.5
#: Cells whose uniforms :func:`generate_fault_maps` draws per pass, at 8
#: bytes each: 512 KiB of work memory however large the region.
DRAW_CHUNK_BITS = 1 << 16


def check_ber(ber: float) -> float:
    """`ber` if it is a bit error rate, in [0, 1] (so not NaN); else ValueError."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber}")
    return ber


def _check_sa1_fraction(sa1_fraction: float) -> None:
    if not 0.0 <= sa1_fraction <= 1.0:
        raise ValueError(f"sa1_fraction must be in [0, 1], got {sa1_fraction}")


def _cast(given: np.ndarray, dtype, message: str) -> np.ndarray:
    """`given` cast to `dtype`, or ValueError(`message`) for a Python int
    that overflows it."""
    try:
        return given.astype(dtype)
    except OverflowError:
        raise ValueError(message) from None


@dataclass(frozen=True, eq=False)
class FaultMap:
    """Immutable, validated set of stuck cells over a bit-addressed region.

    It keeps no derived state: :func:`stuck_words` gives its word form.
    """

    region_size_bits: int
    bit_indices: np.ndarray  # int64, strictly ascending
    stuck_values: np.ndarray  # uint8, parallel to bit_indices
    ber: float
    sa1_fraction: float
    seed: int

    def __post_init__(self):
        given_idx, given_val = np.asarray(self.bit_indices), np.asarray(self.stuck_values)
        # Entries the casts cannot hold are refused below; Python ints past
        # int64 overflow the casts themselves, and text has no floor.
        with np.errstate(invalid="ignore"):
            idx = _cast(given_idx, np.int64, "bit index out of region")
            val = _cast(given_val, np.uint8, "stuck values must be 0 or 1")
        try:
            integral = np.floor(given_idx) == given_idx
        except TypeError:
            raise ValueError("bit indices must be integers") from None
        if self.region_size_bits <= 0:
            raise ValueError("fault map region must be non-empty")
        check_ber(self.ber)
        _check_sa1_fraction(self.sa1_fraction)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("bit_indices and stuck_values must be parallel 1-D arrays")
        if not integral.all():
            raise ValueError("bit indices must be integers")
        if idx.size:
            # Canonicalize to ascending order so downstream results never
            # depend on how the entries were listed.  Generated and parsed
            # maps are already strictly ascending and skip the sort.
            step = np.diff(idx)
            if not (step > 0).all():
                order = np.argsort(idx, kind="stable")
                idx, val = idx[order], val[order]
                step = np.diff(idx)
            if idx[0] < 0 or idx[-1] >= self.region_size_bits:
                raise ValueError("bit index out of region")
            if not step.all():
                raise ValueError("duplicate bit index in fault map")
            if not ((given_val == 0) | (given_val == 1)).all():
                raise ValueError("stuck values must be 0 or 1")
        idx.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "bit_indices", idx)
        object.__setattr__(self, "stuck_values", val)

    @classmethod
    def _drawn(cls, region_size_bits: int, bit_indices: np.ndarray, stuck_values: np.ndarray,
               ber: float, sa1_fraction: float, seed: int) -> "FaultMap":
        """The map of entries that :func:`_draw` made canonical: int64 and
        uint8 arrays, strictly ascending, in the region and 0 or 1.  Only
        their read-only flags are set; the constructor would check the rest."""
        fault_map = object.__new__(cls)
        for name, value in (("region_size_bits", region_size_bits), ("bit_indices", bit_indices),
                            ("stuck_values", stuck_values), ("ber", ber),
                            ("sa1_fraction", sa1_fraction), ("seed", seed)):
            object.__setattr__(fault_map, name, value)
        bit_indices.setflags(write=False)
        stuck_values.setflags(write=False)
        return fault_map

    def __len__(self) -> int:
        return int(self.bit_indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultMap):
            return NotImplemented
        return (
            self.region_size_bits == other.region_size_bits
            and np.array_equal(self.bit_indices, other.bit_indices)
            and np.array_equal(self.stuck_values, other.stuck_values)
        )

    @property
    def entries(self) -> list[tuple[int, int]]:
        return list(zip(self.bit_indices.tolist(), self.stuck_values.tolist()))


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """`arrays` end to end; one array is returned as it is, so that a draw
    over one chunk, as every criticality draw is, costs no more copies
    than a one-shot draw."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def generate_fault_maps(region_size_bits: int, bers: Sequence[float],
                        sa1_fraction: float = DEFAULT_SA1_FRACTION,
                        seed: int = 0) -> list[FaultMap]:
    """Draw i.i.d. stuck-at fault maps of one region at each of `bers`, in
    order; deterministic for fixed arguments.

    The map at a BER equals one draw of its own: a uniform u per cell in
    index order, the cells with u < ber stuck, then one uniform per stuck
    cell, in index order, that makes it SA1 when below `sa1_fraction`.
    Every BER reads the same uniforms, so nothing is drawn twice: the
    cells below max(bers) are kept with their u, DRAW_CHUNK_BITS uniforms
    at a time, and their SA1 uniforms are drawn once; the map at a BER
    takes the kept cells with u < ber and the first as many SA1 uniforms
    (numpy draws a shorter run of uniforms as a prefix of a longer one).
    Beyond the maps, work memory is one chunk's uniforms plus 16 bytes per
    kept cell.  Every BER must be in [0, 1], checked before the draw.
    The drawn entries are ascending, unique, in the region and 0 or 1 by
    construction, so the maps skip the constructor's entry checks.
    """
    sa1_fraction, seed = float(sa1_fraction), int(seed)
    return [FaultMap._drawn(region_size_bits, cells, values, float(ber), sa1_fraction, seed)
            for ber, (cells, values) in zip(bers, _draw(region_size_bits, bers, sa1_fraction,
                                                        seed))]


def _draw(region_size_bits: int, bers: Sequence[float], sa1_fraction: float,
          seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The stuck cells and their values of one region at each of `bers`, in
    order: per BER, the ascending int64 cell indices and their uint8 values,
    the entries of :func:`generate_fault_maps`' map at that BER.  Checks the
    region, every BER and `sa1_fraction` before the draw."""
    if region_size_bits <= 0:
        raise ValueError("fault map region must be non-empty")
    bers = [float(check_ber(ber)) for ber in bers]
    _check_sa1_fraction(sa1_fraction)
    if not bers:
        return []
    top = max(bers)
    rng = make_rng(seed)
    cells, draws = [], []
    for lo in range(0, region_size_bits, DRAW_CHUNK_BITS):
        u = rng.random(min(DRAW_CHUNK_BITS, region_size_bits - lo))
        hit = np.flatnonzero(u < top)
        draws.append(u[hit])
        cells.append(hit + lo if lo else hit)
    cells, draws = _joined(cells).astype(np.int64, copy=False), _joined(draws)
    values = (rng.random(cells.size) < sa1_fraction).astype(np.uint8)
    drawn = []
    for ber in bers:
        stuck = cells if ber == top else cells[draws < ber]
        drawn.append((stuck, values[:stuck.size]))
    return drawn


def generate_fault_map(region_size_bits: int, ber: float,
                       sa1_fraction: float = DEFAULT_SA1_FRACTION, seed: int = 0) -> FaultMap:
    """Draw an i.i.d. stuck-at fault map; deterministic for fixed arguments.
    The one-BER case of :func:`generate_fault_maps`."""
    return generate_fault_maps(region_size_bits, [ber], sa1_fraction, seed)[0]


#: 2**k as float64, the weight of bit k of a word.
_BIT_WEIGHTS = 2.0 ** np.arange(32)


def stuck_words(fault_map: FaultMap, n_blocks: int = 1):
    """Word-level form of the stuck cells in the region's first `n_blocks` blocks.

    Returns (mask, stuck), two (n_blocks, 16) little-endian uint32 arrays:
    bit k of word w of a block is set in `mask` when cell w*32+k of the
    block is stuck, and the same bit of `stuck` holds its stuck value.
    Cells past the blocks are ignored; blocks past the region raise IndexError.
    Rows with no stuck cell are zero: ``mask.any(axis=1)`` finds those with one.
    """
    end = n_blocks * PAYLOAD_BITS
    if end > fault_map.region_size_bits:
        raise IndexError(f"region ({fault_map.region_size_bits} bits) smaller than "
                         f"{n_blocks} blocks ({end} bits)")
    hi = np.searchsorted(fault_map.bit_indices, end)
    positions = fault_map.bit_indices[:hi]
    words = positions // 32  # row * WORDS_PER_BLOCK + word within the row
    cells = _BIT_WEIGHTS[positions % 32]
    # The cells of a word are distinct bits, so their sum is their OR, and
    # it stays below 2**32, where float64 is exact.
    size = n_blocks * WORDS_PER_BLOCK
    mask = np.bincount(words, weights=cells, minlength=size)
    stuck = np.bincount(words, weights=cells * fault_map.stuck_values[:hi], minlength=size)
    return (mask.astype(np.uint32).reshape(n_blocks, WORDS_PER_BLOCK),
            stuck.astype(np.uint32).reshape(n_blocks, WORDS_PER_BLOCK))


def apply_stuck(words: np.ndarray, mask: np.ndarray, stuck: np.ndarray) -> np.ndarray:
    """Readout of words written over stuck cells, ``(words & ~mask) | stuck``:
    with `mask` and `stuck` from :func:`stuck_words`, each stuck cell reads
    back its stuck value and every other bit its written value."""
    return (words & ~mask) | stuck


def save_fault_map(fault_map: FaultMap, path) -> None:
    """Write the flat text form: header `size ber sa1_fraction seed`, then
    one `bit_index value` pair per line."""
    lines = [f"{fault_map.region_size_bits} {fault_map.ber!r} {fault_map.sa1_fraction!r} {fault_map.seed}"]
    lines.extend(f"{i} {v}" for i, v in fault_map.entries)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_fault_map(path) -> FaultMap:
    """Read the text form that :func:`save_fault_map` writes.

    The header is `size ber sa1_fraction seed`: four ASCII fields without
    `_` separators, with `ber` and `sa1_fraction` in [0, 1].  After it,
    each entry is `bit_index value`: two ASCII decimal integers, each with
    an optional sign, separated by whitespace.  Blank lines are ignored and
    entries may come in any order; the map holds them ascending.  Raises
    ValueError for any other header, for any character after the header
    other than ASCII digits, `+`, `-`, spaces, tabs, vertical tabs,
    form feeds and line breaks (so `_` separators, decimal points,
    exponents and non-ASCII digits or whitespace), an entry that is not
    exactly two integers, an index outside `[0, size)`, a value other
    than 0 or 1, or an index listed twice.
    """
    with open(path) as fh:
        first = fh.readline()
        header = first.split()
        # int() and float() also take `_` separators and non-ASCII digits.
        if len(header) != 4 or not first.isascii() or "_" in first:
            raise ValueError(f"malformed fault map header in {path}")
        size, ber, frac, seed = int(header[0]), float(header[1]), float(header[2]), int(header[3])
        body = fh.read()
    # Checked before numpy sees the body: older numpy releases read `5.9`
    # or `1e1` as an integer with only a DeprecationWarning, and some
    # non-ASCII input crashes numpy's reader.
    raw = body.encode("ascii", "replace")  # one '?' per non-ASCII character
    stray = raw.translate(None, b"0123456789+- \t\n\x0b\x0c")
    if stray:
        at = raw.index(stray[:1])
        lineno = raw.count(b"\n", 0, at)
        line = body.split("\n")[lineno]
        raise ValueError(f"fault map line {lineno + 2}: unexpected {body[at]!r} in {line!r}")
    if not raw.strip():  # loadtxt would warn "input contained no data"
        entries = np.empty((0, 2), dtype=np.int64)
    else:
        entries = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2, comments=None)
    if entries.shape[1] != 2:  # every entry has as many fields as the first
        raise ValueError(f"fault map entry 1: expected `bit_index value`, got "
                         f"'{' '.join(map(str, entries[0].tolist()))}'")
    index, value = entries[:, 0], entries[:, 1]
    bad = (index < 0) | (index >= size) | (value < 0) | (value > 1)
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(f"fault map entry {row + 1}: bad entry '{index[row]} {value[row]}'")
    return FaultMap(size, index, value.astype(np.uint8), ber, frac, seed)

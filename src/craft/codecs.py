"""Block encodings that trade stuck-at errors for harmless ones.

Three reversible transforms operate on a 512-bit block holding 16 32-bit
words (16 float32 weights, or 64 uint8 weights grouped 4 per word):

* remap      — permute the 16 word slots by XOR-ing slot indices with a
               4-bit key, so data lands on cells whose stuck state agrees.
* invert     — complement the whole block; turns a single mismatching
               stuck cell into a matching one.
* switch     — rotate each weight word so its most significant bits sit on
               cells that would otherwise corrupt them (rotate by 4 for
               8-bit weights, by 10 for 32-bit weights).

A block's chosen combination is recorded in 6 fault-free auxiliary bits:
key (4) then invert flag then switch flag, giving the 64-point search
space enumerated by `ALL_CONFIGS`.  An error-correcting-pointers baseline
(`ecp_words`) and the storage-overhead formulas live here too.

Every function here takes blocks in one form: (n, 16) arrays of
little-endian uint32 words, bit w*32+k of a block being bit k of word w
(`encode_words`, `decode_words`, `ecp_words`).  Remap is a slot gather,
inversion an XOR with 0xFFFFFFFF, switching a rotate-left by 10 (fp32) or
a nibble swap in every byte (u8).

Every transform is a bit permutation or a complement, so the stuck cells a
config's decode hands back can be moved into the data's frame instead of
moving the data into the memory's: `frame_stuck` tabulates them for all 64
configs at once, which is what the encoding search reads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .memory import PAYLOAD_BITS, apply_stuck

REMAP_SLOTS = 16
SLOT_BITS = 32
KEY_BITS = 4
N_CONFIGS = 64


class Precision(enum.Enum):
    """Weight storage width; fixes word size and the switch rotation."""

    FP32 = "fp32"
    U8 = "u8"

    @property
    def word_bits(self) -> int:
        return 32 if self is Precision.FP32 else 8

    @property
    def weights_per_block(self) -> int:
        return PAYLOAD_BITS // self.word_bits

    @property
    def rotation(self) -> int:
        # 8-bit weights swap their 4 MSBs with their 4 LSBs; 32-bit weights
        # rotate the 10 MSBs down (any rotation > 5 clears the exponent).
        return 10 if self is Precision.FP32 else 4


@dataclass(frozen=True, order=True)
class EncodingConfig:
    """One point of the encoding search space: (xor_key, invert, switch)."""

    xor_key: int
    invert: bool = False
    switch: bool = False

    def __post_init__(self):
        if not 0 <= self.xor_key < (1 << KEY_BITS):
            raise ValueError(f"xor_key must be a 4-bit value, got {self.xor_key}")

    @property
    def aux_code(self) -> int:
        """6-bit integer form: key in bits 0-3, invert bit 4, switch bit 5."""
        return self.xor_key | (int(self.invert) << 4) | (int(self.switch) << 5)

    @classmethod
    def from_aux_code(cls, code: int) -> "EncodingConfig":
        if not 0 <= code < N_CONFIGS:
            raise ValueError(f"aux code must be in [0, 64), got {code}")
        return cls(xor_key=code & 0xF, invert=bool(code & 0x10), switch=bool(code & 0x20))


#: All 64 configurations in ascending aux-code order.  The nested scheme
#: spaces are prefixes of this ordering: identity, remap-only (16),
#: remap+invert (32), full (64).
ALL_CONFIGS: tuple[EncodingConfig, ...] = tuple(EncodingConfig.from_aux_code(c) for c in range(N_CONFIGS))
REMAP_CONFIGS = ALL_CONFIGS[:16]
REMAP_INVERT_CONFIGS = ALL_CONFIGS[:32]
IDENTITY_CONFIG = ALL_CONFIGS[0]


#: Row k is the slot gather of remap key k: output slot j takes slot j ^ k.
SLOT_PERMS = np.arange(REMAP_SLOTS) ^ np.arange(REMAP_SLOTS)[:, None]
SLOT_PERMS.setflags(write=False)

_ALL_ONES = np.uint32(0xFFFFFFFF)
_NIBBLE_LO = np.uint32(0x0F0F0F0F)
_NIBBLE_HI = np.uint32(0xF0F0F0F0)


def _remap_words(words: np.ndarray, keys: np.ndarray) -> np.ndarray:
    rows = SLOT_PERMS[keys] + REMAP_SLOTS * np.arange(keys.size)[:, None]
    return np.take(words.reshape(words.shape[:-2] + (-1,)), rows, axis=-1)


def _invert_words(words: np.ndarray, flags: np.ndarray) -> np.ndarray:
    return words ^ np.where(flags[:, None] != 0, _ALL_ONES, np.uint32(0))


def _switched(words: np.ndarray, precision: Precision, encoding: bool) -> np.ndarray:
    """Every word of `words` switched (encoding) or switched back."""
    if precision is Precision.FP32:
        r = np.uint32(precision.rotation if encoding else SLOT_BITS - precision.rotation)
        return (words << r) | (words >> np.uint32(SLOT_BITS - r))
    # rotating a byte by 4 swaps its nibbles, which is its own inverse
    return ((words << np.uint32(4)) & _NIBBLE_HI) | ((words >> np.uint32(4)) & _NIBBLE_LO)


def _switch_words(words: np.ndarray, flags: np.ndarray, precision: Precision,
                  encoding: bool) -> np.ndarray:
    return np.where(flags[:, None] != 0, _switched(words, precision, encoding), words)


def encode_words(words: np.ndarray, codes: np.ndarray, precision: Precision) -> np.ndarray:
    """Remap, then optional inversion, then optional bit switching.

    A block is 16 little-endian uint32 words: bit w*32+k of the block is
    bit k of word w.  `words` has shape (..., C, 16), C blocks for the C
    aux codes in `codes`; the result has the same shape.
    """
    codes = np.asarray(codes)
    out = _remap_words(words, codes & 0xF)
    out = _invert_words(out, codes & 0x10)
    return _switch_words(out, codes & 0x20, precision, encoding=True)


def decode_words(words: np.ndarray, codes: np.ndarray, precision: Precision) -> np.ndarray:
    """Exact inverse of :func:`encode_words`: (..., C, 16) words, C codes."""
    codes = np.asarray(codes)
    out = _switch_words(words, codes & 0x20, precision, encoding=False)
    out = _invert_words(out, codes & 0x10)
    return _remap_words(out, codes & 0xF)


def frame_stuck(mask: np.ndarray, stuck: np.ndarray,
                precision: Precision) -> tuple[np.ndarray, np.ndarray]:
    """The stuck cells of (n, 16) blocks as every config's decode sees them.

    `mask` and `stuck` come from :func:`craft.memory.stuck_words`.  Returns
    two (n, 64) uint32 tables, (mask, stuck) in the data's frame: under aux
    code c, logical word i of a block reads back as
    ``(x & ~mask[:, c ^ i]) | stuck[:, c ^ i]``, bit for bit the word of
    ``decode_words(apply_stuck(encode_words(x, c), mask, stuck), c)``.

    Column c ^ i is v*16 + (i ^ key) with v = 2*switch + invert: remap puts
    logical word i on slot i ^ key; decoding undoes the switch with a bit
    rotation U, which moves the stuck cells to (U(mask), U(stuck)), and the
    inversion with a complement, which turns (x & ~M) | S into
    (x & ~(M | S)) | (M & ~S).  Stuck bits outside `mask` take part as
    they do in :func:`craft.memory.apply_stuck`.
    """
    unmask = _switched(mask, precision, encoding=False)
    unstuck = _switched(stuck, precision, encoding=False)
    return (np.concatenate([mask, mask | stuck, unmask, unmask | unstuck], axis=-1),
            np.concatenate([stuck, mask & ~stuck, unstuck, unmask & ~unstuck], axis=-1))


def ecp_words(words: np.ndarray, mask: np.ndarray, stuck: np.ndarray, n: int) -> np.ndarray:
    """Readout of (blocks, 16) words under n-pointer error correction.

    `mask` and `stuck` come from :func:`craft.memory.stuck_words`.  Each
    pointer repairs one stuck cell whose value disagrees with the written
    bit: the pointers of a block go to its first n mismatching stuck cells
    in ascending bit order.  Pointer storage itself is modeled as
    fault-free.
    """
    readout = apply_stuck(words, mask, stuck)
    wrong = mask & (words ^ stuck)
    rows = np.arange(words.shape[0])
    for _ in range(n):
        if not wrong.any():
            break
        first = np.argmax(wrong != 0, axis=-1)
        word = wrong[rows, first]
        lowest = word & (~word + np.uint32(1))  # lowest set bit; 0 where none
        readout[rows, first] ^= lowest
        wrong[rows, first] ^= lowest
    return readout


def ecp_overhead(n: int, d: int) -> float:
    """Storage overhead of n error-correcting pointers over a d-bit block:
    (1 + n + n*ceil(log2 d)) / d."""
    if d <= 0:
        raise ValueError("block size must be positive")
    if d < 2 or d & (d - 1):
        raise ValueError(f"block size must be a power of two >= 2, got {d}")
    if n < 0:
        raise ValueError("pointer count must be non-negative")
    return (1 + n + n * math.ceil(math.log2(d))) / d


def craft_overhead(aux_bits: int, data_bits: int) -> float:
    """Auxiliary-bit storage overhead: aux_bits / data_bits."""
    if data_bits <= 0:
        raise ValueError("data_bits must be positive")
    if aux_bits < 0:
        raise ValueError("aux_bits must be non-negative")
    return aux_bits / data_bits

"""Bit-sequence helpers for the one entry point that takes a block as bits.

The package computes on (n, 16) uint32 words; only
:func:`craft.objective.search_best_encoding` accepts a 512-bit block, and
converts it here.  A bit sequence is a numpy uint8 array of 0/1 values
along the last axis.
Bit index i lives in byte i // 8 at in-byte position i % 8 (LSB first), and
bytes are externalized in ascending address order.  For a W-bit word stored
little-endian this makes bit index w * W + k the k-th significance bit of
word w, so word values can be recovered with plain byte views.
"""

from __future__ import annotations

import numpy as np


def bytes_from_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 bit array into bytes along the last axis."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[-1] % 8 != 0:
        raise ValueError(f"bit count {bits.shape[-1]} is not a whole number of bytes")
    return np.packbits(bits, axis=-1, bitorder="little")


def u32_from_bits(bits: np.ndarray) -> np.ndarray:
    """Little-endian 32-bit words of a bit array (last axis shrinks 32x)."""
    raw = np.ascontiguousarray(bytes_from_bits(bits))
    return raw.view("<u4").reshape(raw.shape[:-1] + (raw.shape[-1] // 4,))


def as_bit_array(bits, length: int | None = None) -> np.ndarray:
    """Validate and canonicalize a 0/1 sequence to a uint8 array."""
    arr = np.asarray(bits, dtype=np.uint8)
    if length is not None and arr.shape[-1] != length:
        raise ValueError(f"expected {length} bits, got {arr.shape[-1]}")
    if arr.size and arr.max() > 1:
        raise ValueError("bit array may only contain 0 and 1")
    return arr

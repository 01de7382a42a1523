import numpy as np
import pytest

from craft import bitops


def test_byte_roundtrip():
    data = bytes(range(64))
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    assert bits.shape == (512,)
    assert bitops.bytes_from_bits(bits).tobytes() == data


def test_bit_order_is_lsb_first_within_bytes():
    bits = np.zeros(16, dtype=np.uint8)
    bits[0] = bits[15] = 1
    assert bitops.bytes_from_bits(bits).tobytes() == b"\x01\x80"


def test_u32_bit_significance():
    bits = np.zeros(32, dtype=np.uint8)
    bits[31] = 1
    assert bitops.u32_from_bits(bits).tolist() == [1 << 31]
    bits = np.zeros((2, 64), dtype=np.uint8)
    bits[1, 32] = 1  # bit 0 of word 1 of the second row
    assert bitops.u32_from_bits(bits).tolist() == [[0, 0], [0, 1]]


def test_partial_byte_rejected():
    with pytest.raises(ValueError):
        bitops.bytes_from_bits(np.ones(7, dtype=np.uint8))


def test_non_binary_rejected():
    with pytest.raises(ValueError):
        bitops.as_bit_array(np.array([0, 2, 1]))

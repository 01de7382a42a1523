"""The bit order of a block, as the words of :func:`craft.memory.stuck_words`
and the bytes of block files hold it: bit i of a 512-bit block is bit
i % 32 of its little-endian uint32 word i // 32, so bit i is bit i % 8 of
byte i // 8.  Fault-map cell indices follow it too."""

import numpy as np
import pytest

from craft.codecs import Precision
from craft.memory import PAYLOAD_BITS, FaultMap, stuck_words
from craft.weightfile import BlockLayout, load_blocks, save_blocks


def cells(indices, values=None, size=PAYLOAD_BITS):
    """A fault map of the given stuck cells, stuck at 1 unless `values` says."""
    idx = np.asarray(indices, dtype=np.int64)
    val = np.ones(idx.size, dtype=np.uint8) if values is None else np.asarray(values)
    return FaultMap(size, idx, val, 0.0, 0.5, 0)


def test_byte_roundtrip(tmp_path):
    data = bytes(range(64))
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    assert bits.shape == (512,)
    # every cell stuck at bit i of the data reads back the data's words
    mask, stuck = stuck_words(cells(np.arange(512), bits))
    assert mask.tolist() == [[0xFFFFFFFF] * 16]
    assert stuck.astype("<u4").tobytes() == data
    # and a block file holds those words as the same 64 bytes
    layout = BlockLayout(Precision.FP32, ((16, 1),), (np.zeros(1, dtype=np.float32),), None)
    path = tmp_path / "b.blk"
    save_blocks(stuck, layout, path)
    assert path.read_bytes()[-64:] == data
    assert load_blocks(path)[0].tobytes() == data


def test_bit_order_is_lsb_first_within_bytes():
    mask, _ = stuck_words(cells([0, 15]))
    assert mask.astype("<u4").tobytes()[:2] == b"\x01\x80"


def test_u32_bit_significance():
    mask, _ = stuck_words(cells([31]))
    assert mask[0].tolist() == [1 << 31] + [0] * 15
    mask, _ = stuck_words(cells([512 + 32], size=2 * PAYLOAD_BITS), n_blocks=2)
    assert mask.tolist() == [[0] * 16, [0, 1] + [0] * 14]  # bit 0 of word 1 of block 1


def test_partial_byte_rejected():
    # a region of 7 bits ends inside a byte, so it holds no whole block of words
    with pytest.raises(IndexError):
        stuck_words(cells([0, 6], size=7))


@pytest.mark.parametrize("values", [[0, 2, 1], [256], [257], [-255], [1.7], [float("nan")]],
                         ids=["2", "256", "257", "-255", "1.7", "nan"])
def test_non_binary_rejected(values):
    # checked as given: a uint8 cast would read 256 as 0 and 257, -255 and
    # 1.7 as 1
    with pytest.raises(ValueError, match="^stuck values must be 0 or 1$"):
        cells(range(len(values)), np.array(values))

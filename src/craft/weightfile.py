"""Weight storage: block streams and the on-disk formats.

Weights are serialized layer-major, row-major into 512-bit blocks (16
float32 or 64 uint8 codes per block).  Each layer starts on a block
boundary and its last partial block is zero-padded, so a single block is
always covered by one layer's quantization view (:func:`layer_views` is the
one statement of this layout).  Biases and quantization parameters travel
beside the blocks in fault-free storage.

A block stream is an ``(n_blocks, 16)`` array of little-endian uint32
words, the form the codecs compute on: bit ``w*32+k`` of a block is bit
``k`` of word ``w``.

Two file containers:

* weight file, magic ``CRFTW1`` — a trained model (weights as values).
* block file, magic ``CRFTB1`` — the stored words plus the layout; used
  for encoded streams where remapping may scatter weight bits into
  padding slots, which a value-level file could not preserve.

Both are little-endian throughout, and loading checks every size the
header declares against the bytes the file holds.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .codecs import N_CONFIGS, PAYLOAD_BITS, Precision
from .memory import WORDS_PER_BLOCK
from .nn import MlpModel, QuantizedLayer, QuantizedModel

WEIGHT_MAGIC = b"CRFTW1"
BLOCK_MAGIC = b"CRFTB1"
_PRECISION_TAG = {Precision.FP32: 0, Precision.U8: 1}
_TAG_PRECISION = {v: k for k, v in _PRECISION_TAG.items()}
_WEIGHT_DTYPE = {Precision.FP32: np.dtype("<f4"), Precision.U8: np.dtype(np.uint8)}
_BLOCK_BYTES = PAYLOAD_BITS // 8
_AUX_FORMAT = "{:02x}"
#: Each aux code as the sidecar and ``encode-file``'s block table write it.
AUX_HEX = tuple(map(_AUX_FORMAT.format, range(N_CONFIGS)))
_BAD_CODE = f"sidecar aux code {{}} of block {{}} is not in [{AUX_HEX[0]}, {AUX_HEX[-1]}]"
_SIDECAR_BYTES = b"0123456789abcdefABCDEF \t\n\r\v\f"
#: Each byte's value as a hex digit, -1 for any other (whitespace, in a sidecar).
_DIGIT = np.full(256, -1, dtype=np.int8)
_DIGIT[list(b"0123456789abcdef")] = range(16)
_DIGIT[list(b"ABCDEF")] = range(10, 16)
#: Trailing digits of a sidecar field that are read as its value:
#: 16 ** _PLACES fits in int64.
_PLACES = 15


@dataclass(frozen=True)
class BlockLayout:
    """Shape and fault-free metadata needed to rebuild a model from blocks."""

    precision: Precision
    shapes: tuple[tuple[int, int], ...]
    biases: tuple[np.ndarray, ...]
    quant: tuple[tuple[float, int], ...] | None  # (scale, zero_point) per layer

    def __post_init__(self):
        if self.precision is Precision.U8 and (
            self.quant is None or len(self.quant) != len(self.shapes)
        ):
            raise ValueError("u8 layouts need quantization parameters per layer")
        if self.precision is Precision.FP32 and self.quant is not None:
            raise ValueError("fp32 layouts carry no quantization parameters")
        if len(self.biases) != len(self.shapes):
            raise ValueError("biases must pair with layer shapes")

    @property
    def layer_blocks(self) -> tuple[int, ...]:
        wpb = self.precision.weights_per_block
        return tuple(-(-r * c // wpb) for r, c in self.shapes)

    @property
    def n_blocks(self) -> int:
        return sum(self.layer_blocks)

    @property
    def block_layer(self) -> np.ndarray:
        """The index of the layer that holds each block."""
        return np.repeat(np.arange(len(self.shapes)), self.layer_blocks)

    def block_scales(self) -> np.ndarray | None:
        """Quantization scale of every block (u8), or None (fp32)."""
        if self.quant is None:
            return None
        return np.array([scale for scale, _ in self.quant], dtype=np.float64)[self.block_layer]


def _layout_and_weights(model: MlpModel | QuantizedModel) -> tuple[BlockLayout, list[np.ndarray]]:
    """A model's layout and its weight matrices in their storage dtype."""
    if isinstance(model, QuantizedModel):
        weights = [l.codes for l in model.layers]
        layout = BlockLayout(Precision.U8, tuple(w.shape for w in weights),
                             tuple(l.biases for l in model.layers),
                             tuple((l.scale, l.zero_point) for l in model.layers))
    else:
        weights = model.weights
        layout = BlockLayout(Precision.FP32, tuple(w.shape for w in weights), model.biases, None)
    dtype = _WEIGHT_DTYPE[layout.precision]
    return layout, [np.ascontiguousarray(w, dtype=dtype) for w in weights]


def _model_from(layout: BlockLayout, weights) -> MlpModel | QuantizedModel:
    if layout.precision is Precision.FP32:
        return MlpModel(weights=tuple(weights), biases=layout.biases)
    return QuantizedModel(layers=tuple(
        QuantizedLayer(codes=w, scale=s, zero_point=zp, biases=b)
        for w, (s, zp), b in zip(weights, layout.quant, layout.biases)
    ))


def layer_views(slots: np.ndarray, layout: BlockLayout) -> list[np.ndarray]:
    """Each layer's (rows, cols) matrix, row-major from its first block's first
    slot, as a view of contiguous (n_blocks, weights_per_block) `slots`."""
    layers = np.split(slots, np.cumsum(layout.layer_blocks)[:-1])
    return [w.reshape(-1)[:r * c].reshape(r, c) for w, (r, c) in zip(layers, layout.shapes)]


def flatten_model(model: MlpModel | QuantizedModel) -> tuple[np.ndarray, BlockLayout]:
    """Serialize a model's weights into (n_blocks, 16) little-endian uint32
    words: each layer's weights in its :func:`layer_views` view, pads zero."""
    layout, weights = _layout_and_weights(model)
    slots = np.zeros((layout.n_blocks, layout.precision.weights_per_block), weights[0].dtype)
    for view, w in zip(layer_views(slots, layout), weights):
        view[...] = w
    return slots.view("<u4"), layout


def _stream_words(blocks: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """`blocks` as contiguous little-endian uint32 words, if they are
    (n_blocks, 16) for `layout`; else ValueError."""
    words = np.asarray(blocks)
    if words.shape != (layout.n_blocks, WORDS_PER_BLOCK):
        raise ValueError(f"block stream of shape {words.shape} does not match layout "
                         f"({layout.n_blocks} x {WORDS_PER_BLOCK} words)")
    return np.ascontiguousarray(words, dtype="<u4")


def unflatten_model(blocks: np.ndarray, layout: BlockLayout) -> MlpModel | QuantizedModel:
    """Rebuild a model from (n_blocks, 16) words; inverse of :func:`flatten_model`.
    The weights are copies, never views of `blocks`."""
    raw = _stream_words(blocks, layout).view(_WEIGHT_DTYPE[layout.precision])
    return _model_from(layout, [w.copy() for w in layer_views(raw, layout)])


def _write_header(fh, magic: bytes, layout: BlockLayout) -> None:
    fh.write(magic)
    fh.write(struct.pack("<BI", _PRECISION_TAG[layout.precision], len(layout.shapes)))
    for i, (rows, cols) in enumerate(layout.shapes):
        fh.write(struct.pack("<II", rows, cols))
        if layout.precision is Precision.U8:
            fh.write(struct.pack("<di", *layout.quant[i]))
        fh.write(np.ascontiguousarray(layout.biases[i], dtype="<f4").tobytes())


def _read_exact(fh, n: int) -> bytes:
    # n comes from the header: check it against the bytes left before
    # fh.read(n), which would allocate n bytes however few remain.
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError("truncated file")
    return fh.read(n)


def _read_header(fh, magic: bytes) -> BlockLayout:
    if _read_exact(fh, len(magic)) != magic:
        raise ValueError(f"bad magic; expected {magic.decode()}")
    tag, n_layers = struct.unpack("<BI", _read_exact(fh, 5))
    if tag not in _TAG_PRECISION:
        raise ValueError(f"unknown precision tag {tag}")
    if not n_layers:
        raise ValueError("a model needs at least one layer")
    precision = _TAG_PRECISION[tag]
    shapes, biases, quant = [], [], []
    for i in range(n_layers):
        rows, cols = struct.unpack("<II", _read_exact(fh, 8))
        if not rows or not cols:
            raise ValueError(f"layer {i} is {rows} x {cols}; dims must be positive")
        if precision is Precision.U8:
            quant.append(struct.unpack("<di", _read_exact(fh, 12)))
        biases.append(np.frombuffer(_read_exact(fh, 4 * cols), dtype="<f4").copy())
        shapes.append((rows, cols))
    return BlockLayout(precision, tuple(shapes), tuple(biases),
                       tuple(quant) if precision is Precision.U8 else None)


def save_model(model: MlpModel | QuantizedModel, path) -> None:
    """Write a weight file: the header, then each layer's raw weights."""
    layout, weights = _layout_and_weights(model)
    with open(path, "wb") as fh:
        _write_header(fh, WEIGHT_MAGIC, layout)
        for w in weights:
            fh.write(w.tobytes())


def load_model(path) -> MlpModel | QuantizedModel:
    with open(path, "rb") as fh:
        layout = _read_header(fh, WEIGHT_MAGIC)
        dtype = _WEIGHT_DTYPE[layout.precision]
        weights = [np.frombuffer(_read_exact(fh, dtype.itemsize * r * c), dtype).reshape(r, c)
                   for r, c in layout.shapes]
        if fh.read(1):
            raise ValueError("trailing data after weight payload")
    return _model_from(layout, weights)


def save_blocks(blocks: np.ndarray, layout: BlockLayout, path) -> None:
    """Write a block file: the header, then the stored words, pad slots included."""
    words = _stream_words(blocks, layout)
    with open(path, "wb") as fh:
        _write_header(fh, BLOCK_MAGIC, layout)
        fh.write(words.tobytes())


def load_blocks(path) -> tuple[np.ndarray, BlockLayout]:
    """Read a block file back as read-only (n_blocks, 16) words and its layout."""
    with open(path, "rb") as fh:
        layout = _read_header(fh, BLOCK_MAGIC)
        raw = _read_exact(fh, layout.n_blocks * _BLOCK_BYTES)
        if fh.read(1):
            raise ValueError("trailing data after block payload")
    return np.frombuffer(raw, dtype="<u4").reshape(layout.n_blocks, WORDS_PER_BLOCK), layout


def save_sidecar(aux_codes, path) -> None:
    """Aux sidecar: one `block_index aux_hex` line per block, in one write.
    A code outside [0, 64) raises ValueError before the file is opened."""
    codes = np.asarray(aux_codes, dtype=np.int64)
    bad = np.flatnonzero((codes < 0) | (codes >= N_CONFIGS))
    if bad.size:
        raise ValueError(_BAD_CODE.format(_AUX_FORMAT.format(codes[bad[0]]), bad[0]))
    with open(path, "w") as fh:
        fh.write("".join([f"{i} {AUX_HEX[code]}\n" for i, code in enumerate(codes.tolist())]))


def load_sidecar(path, n_blocks: int) -> np.ndarray:
    """Aux codes by block index, as an int64 array.  Every block needs
    exactly one line of two fields, a decimal block index and a hex aux
    code, and every code must name one of the 64 configs; a non-blank line
    of any other shape raises ValueError naming its line number.  The file
    may hold only ASCII hex digits and ASCII whitespace, so that no sign,
    ``0x`` prefix, ``_`` digit separator or non-ASCII digit is read.

    The whole file is parsed at once.  Where it breaks several rules, the
    error is the first a line-by-line reader meets: the first faulty line,
    checked for shape, index range, a repeated index, then code range; an
    index of more than 15 significant digits counts as out of range.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data.translate(None, _SIDECAR_BYTES):
        raise ValueError("sidecar may hold only ASCII hex digits and whitespace")
    # One b"\n" per line break, as bytes.splitlines() counts them.
    text = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    raw = np.frombuffer(text, dtype=np.uint8)
    digit = _DIGIT[raw]
    solid = np.concatenate(([False], digit >= 0, [False]))
    starts = np.flatnonzero(solid[1:] & ~solid[:-1])  # fields are text[starts:ends]
    ends = np.flatnonzero(solid[:-1] & ~solid[1:])
    if not starts.size:
        if n_blocks:
            raise ValueError("sidecar is missing block entries")
        return np.empty(0, dtype=np.int64)
    line = np.searchsorted(np.flatnonzero(raw == 10), starts)  # of each field, from 0
    rank = np.arange(starts.size) - np.searchsorted(line, line)  # within its line
    paired = np.bincount(line)[line] == 2
    key = np.flatnonzero(paired & (rank == 0))  # index fields; codes follow them

    # Each field's value from its last _PLACES digits, in base 10 for an
    # index and 16 for a code; `big` marks a nonzero digit before those.
    width = ends - starts
    offsets = np.cumsum(width) - width
    digits = digit[digit >= 0]
    place = np.repeat(offsets + width - 1, width) - np.arange(digits.size)
    base = np.where(rank == 0, np.int64(10), np.int64(16))
    weight = np.repeat(base, width) ** np.minimum(place, _PLACES - 1)
    weight[place >= _PLACES] = 0
    value = np.add.reduceat(digits * weight, offsets)
    big = np.logical_or.reduceat((digits > 0) & (place >= _PLACES), offsets)

    index, code = value[key], value[key + 1]
    lettered = np.maximum.reduceat(digits, offsets)[key] >= 10  # int() refuses the index
    in_range = ~big[key] & (index < n_blocks)
    # Flags every entry after the first with its value.  Where a flagged
    # entry's first is out of range or misshapen, that earlier line is
    # the error, so only in-range repeats are ever reported.
    repeat = np.ones(key.size, dtype=bool)
    repeat[np.unique(index, return_index=True)[1]] = False
    faulty = lettered | ~in_range | repeat | big[key + 1] | (code >= N_CONFIGS)
    bad = np.concatenate((line[~paired], line[key[faulty]]))
    if bad.size:
        first, entry = bad.min(), line[key]
        k = np.searchsorted(entry, first)
        if k == key.size or entry[k] != first or lettered[k]:
            got = text.split(b"\n")[first].decode()
            raise ValueError(f"sidecar line {first + 1}: expected 'block_index aux_hex', "
                             f"got {got!r}")
        idx = int(text[starts[key[k]]:ends[key[k]]])
        if not in_range[k]:
            raise ValueError(f"sidecar block index {idx} out of range")
        if repeat[k]:
            raise ValueError(f"sidecar lists block {idx} twice")
        code_text = text[starts[key[k] + 1]:ends[key[k] + 1]].decode()
        raise ValueError(_BAD_CODE.format(code_text, idx))
    if key.size < n_blocks:
        raise ValueError("sidecar is missing block entries")
    codes = np.empty(n_blocks, dtype=np.int64)
    codes[index] = code
    return codes

"""Weight storage: block streams and the on-disk formats.

Weights are serialized layer-major, row-major into 512-bit blocks (16
float32 or 64 uint8 codes per block).  Each layer starts on a block
boundary and its last partial block is zero-padded, so a single block is
always covered by one layer's quantization view.  Biases and quantization
parameters travel beside the blocks in fault-free storage.

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

    def block_scales(self) -> np.ndarray | None:
        """Quantization scale of every block (u8), or None (fp32)."""
        if self.quant is None:
            return None
        return np.repeat([scale for scale, _ in self.quant], self.layer_blocks)


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


def flatten_model(model: MlpModel | QuantizedModel) -> tuple[np.ndarray, BlockLayout]:
    """Serialize a model's weights into (n_blocks, 16) little-endian uint32
    words: each layer's weight bytes, zero-padded to whole 64-byte blocks."""
    layout, weights = _layout_and_weights(model)
    raw = [np.pad(w.reshape(-1).view(np.uint8), (0, -w.nbytes % _BLOCK_BYTES)) for w in weights]
    return np.concatenate(raw).view("<u4").reshape(-1, WORDS_PER_BLOCK), layout


def unflatten_model(blocks: np.ndarray, layout: BlockLayout) -> MlpModel | QuantizedModel:
    """Rebuild a model from (n_blocks, 16) words; inverse of :func:`flatten_model`.
    The weights are copies, never views of `blocks`."""
    words = np.asarray(blocks)
    if words.shape != (layout.n_blocks, WORDS_PER_BLOCK):
        raise ValueError(f"block stream of shape {words.shape} does not match layout "
                         f"({layout.n_blocks} x {WORDS_PER_BLOCK} words)")
    raw = np.ascontiguousarray(words, dtype="<u4").view(_WEIGHT_DTYPE[layout.precision])
    layers = np.split(raw, np.cumsum(layout.layer_blocks)[:-1])
    return _model_from(layout, [w.reshape(-1)[:r * c].reshape(r, c).copy()
                                for w, (r, c) in zip(layers, layout.shapes)])


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
    precision = _TAG_PRECISION[tag]
    shapes, biases, quant = [], [], []
    for _ in range(n_layers):
        rows, cols = struct.unpack("<II", _read_exact(fh, 8))
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
    words = np.asarray(blocks)
    if words.shape != (layout.n_blocks, WORDS_PER_BLOCK):
        raise ValueError("blocks do not match layout")
    with open(path, "wb") as fh:
        _write_header(fh, BLOCK_MAGIC, layout)
        fh.write(words.astype("<u4", copy=False).tobytes())


def load_blocks(path) -> tuple[np.ndarray, BlockLayout]:
    """Read a block file back as read-only (n_blocks, 16) words and its layout."""
    with open(path, "rb") as fh:
        layout = _read_header(fh, BLOCK_MAGIC)
        raw = _read_exact(fh, layout.n_blocks * _BLOCK_BYTES)
        if fh.read(1):
            raise ValueError("trailing data after block payload")
    return np.frombuffer(raw, dtype="<u4").reshape(layout.n_blocks, WORDS_PER_BLOCK), layout


def save_sidecar(aux_codes, path) -> None:
    """Aux sidecar: one `block_index aux_hex` line per block."""
    with open(path, "w") as fh:
        for i, code in enumerate(aux_codes):
            fh.write(f"{i} {int(code):02x}\n")


def load_sidecar(path, n_blocks: int) -> list[int]:
    """Aux codes by block index.  Every block needs exactly one line, and
    every code must name one of the 64 configs.  The text must be ASCII
    without ``_``, so that ``int`` reads no digit separators and no
    non-ASCII digits."""
    codes = [None] * n_blocks
    with open(path) as fh:
        text = fh.read()
    if not text.isascii() or "_" in text:
        raise ValueError("sidecar text must be ASCII, without '_' digit separators")
    for line in text.split("\n"):
        if not line.strip():
            continue
        idx_text, code_text = line.split()
        idx = int(idx_text)
        code = int(code_text, 16)
        if not 0 <= idx < n_blocks:
            raise ValueError(f"sidecar block index {idx} out of range")
        if codes[idx] is not None:
            raise ValueError(f"sidecar lists block {idx} twice")
        if not 0 <= code < N_CONFIGS:
            raise ValueError(f"sidecar aux code {code_text} of block {idx} is not in [00, 3f]")
        codes[idx] = code
    if any(c is None for c in codes):
        raise ValueError("sidecar is missing block entries")
    return codes

"""Weight storage: block streams and the on-disk formats.

Weights are serialized layer-major, row-major into 512-bit blocks (16
float32 or 64 uint8 codes per block).  Each layer starts on a block
boundary and its last partial block is zero-padded, so a single block is
always covered by one layer's quantization view.  Biases and quantization
parameters travel beside the blocks in fault-free storage.

Two file containers:

* weight file, magic ``CRFTW1`` — a trained model (weights as values).
* block file, magic ``CRFTB1`` — raw 512-bit stored payloads plus the
  layout; used for encoded streams where remapping may scatter weight
  bits into padding slots, which a value-level file could not preserve.

Both are little-endian throughout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .bitops import bits_from_bytes, bits_from_f32, bytes_from_bits, f32_from_bits
from .codecs import N_CONFIGS, PAYLOAD_BITS, Precision
from .nn import MlpModel, QuantizedLayer, QuantizedModel
from .objective import WeightView

WEIGHT_MAGIC = b"CRFTW1"
BLOCK_MAGIC = b"CRFTB1"
_PRECISION_TAG = {Precision.FP32: 0, Precision.U8: 1}
_TAG_PRECISION = {v: k for k, v in _PRECISION_TAG.items()}


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
    def weights_per_block(self) -> int:
        return self.precision.weights_per_block

    @property
    def layer_blocks(self) -> tuple[int, ...]:
        wpb = self.weights_per_block
        return tuple(-(-r * c // wpb) for r, c in self.shapes)

    @property
    def n_blocks(self) -> int:
        return sum(self.layer_blocks)

    def layer_of_block(self, index: int) -> int:
        if not 0 <= index < self.n_blocks:
            raise IndexError(f"block {index} outside layout of {self.n_blocks} blocks")
        for layer, count in enumerate(self.layer_blocks):
            if index < count:
                return layer
            index -= count
        raise AssertionError("unreachable")

    def block_scales(self) -> np.ndarray | None:
        """Quantization scale of every block (u8), or None (fp32)."""
        if self.quant is None:
            return None
        return np.repeat([scale for scale, _ in self.quant], self.layer_blocks)

    def view_for_block(self, index: int) -> WeightView:
        layer = self.layer_of_block(index)
        if self.precision is Precision.FP32:
            return WeightView(Precision.FP32)
        scale, zero_point = self.quant[layer]
        return WeightView(Precision.U8, scale=scale, zero_point=zero_point)


def _layer_bits(values: np.ndarray, precision: Precision) -> np.ndarray:
    flat = values.reshape(-1)
    bits = bits_from_f32(flat) if precision is Precision.FP32 else bits_from_bytes(flat)
    pad = -bits.size % PAYLOAD_BITS
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    return bits.reshape(-1, PAYLOAD_BITS)


def flatten_model(model: MlpModel | QuantizedModel) -> tuple[np.ndarray, BlockLayout]:
    """Serialize a model's weights into a (n_blocks, 512) bit array."""
    if isinstance(model, QuantizedModel):
        layout = BlockLayout(
            precision=Precision.U8,
            shapes=tuple(l.codes.shape for l in model.layers),
            biases=tuple(l.biases for l in model.layers),
            quant=tuple((l.scale, l.zero_point) for l in model.layers),
        )
        chunks = [_layer_bits(l.codes, Precision.U8) for l in model.layers]
    else:
        layout = BlockLayout(
            precision=Precision.FP32,
            shapes=tuple(w.shape for w in model.weights),
            biases=model.biases,
            quant=None,
        )
        chunks = [_layer_bits(w, Precision.FP32) for w in model.weights]
    return np.concatenate(chunks), layout


def unflatten_model(blocks: np.ndarray, layout: BlockLayout) -> MlpModel | QuantizedModel:
    """Rebuild a model from a block stream; inverse of :func:`flatten_model`."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2 or blocks.shape[1] != PAYLOAD_BITS or blocks.shape[0] != layout.n_blocks:
        raise ValueError(
            f"block stream of shape {blocks.shape} does not match layout "
            f"({layout.n_blocks} x {PAYLOAD_BITS})"
        )
    start = 0
    weights = []
    for (rows, cols), count in zip(layout.shapes, layout.layer_blocks):
        bits = blocks[start:start + count].reshape(-1)
        start += count
        if layout.precision is Precision.FP32:
            values = f32_from_bits(bits)[: rows * cols]
        else:
            values = bytes_from_bits(bits)[: rows * cols]
        weights.append(values.reshape(rows, cols))
    if layout.precision is Precision.FP32:
        return MlpModel(weights=tuple(weights), biases=layout.biases)
    return QuantizedModel(layers=tuple(
        QuantizedLayer(codes=w, scale=s, zero_point=zp, biases=b)
        for w, (s, zp), b in zip(weights, layout.quant, layout.biases)
    ))


def _write_header(fh, magic: bytes, layout: BlockLayout) -> None:
    fh.write(magic)
    fh.write(struct.pack("<BI", _PRECISION_TAG[layout.precision], len(layout.shapes)))
    for i, (rows, cols) in enumerate(layout.shapes):
        fh.write(struct.pack("<II", rows, cols))
        if layout.precision is Precision.U8:
            scale, zero_point = layout.quant[i]
            fh.write(struct.pack("<di", scale, zero_point))
        fh.write(np.ascontiguousarray(layout.biases[i], dtype="<f4").tobytes())


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("truncated file")
    return data


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
    return BlockLayout(
        precision=precision,
        shapes=tuple(shapes),
        biases=tuple(biases),
        quant=tuple(quant) if precision is Precision.U8 else None,
    )


def save_model(model: MlpModel | QuantizedModel, path) -> None:
    blocks, layout = flatten_model(model)
    with open(path, "wb") as fh:
        _write_header(fh, WEIGHT_MAGIC, layout)
        if isinstance(model, QuantizedModel):
            for layer in model.layers:
                fh.write(np.ascontiguousarray(layer.codes).tobytes())
        else:
            for w in model.weights:
                fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())


def load_model(path) -> MlpModel | QuantizedModel:
    with open(path, "rb") as fh:
        layout = _read_header(fh, WEIGHT_MAGIC)
        weights = []
        for rows, cols in layout.shapes:
            if layout.precision is Precision.FP32:
                raw = np.frombuffer(_read_exact(fh, 4 * rows * cols), dtype="<f4")
            else:
                raw = np.frombuffer(_read_exact(fh, rows * cols), dtype=np.uint8)
            weights.append(raw.reshape(rows, cols).copy())
        if fh.read(1):
            raise ValueError("trailing data after weight payload")
    if layout.precision is Precision.FP32:
        return MlpModel(weights=tuple(weights), biases=layout.biases)
    return QuantizedModel(layers=tuple(
        QuantizedLayer(codes=w, scale=s, zero_point=zp, biases=b)
        for w, (s, zp), b in zip(weights, layout.quant, layout.biases)
    ))


def save_blocks(blocks: np.ndarray, layout: BlockLayout, path) -> None:
    """Write raw stored payloads (full blocks, padding bits included)."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    if blocks.shape != (layout.n_blocks, PAYLOAD_BITS):
        raise ValueError("blocks do not match layout")
    with open(path, "wb") as fh:
        _write_header(fh, BLOCK_MAGIC, layout)
        fh.write(bytes_from_bits(blocks).tobytes())


def load_blocks(path) -> tuple[np.ndarray, BlockLayout]:
    with open(path, "rb") as fh:
        layout = _read_header(fh, BLOCK_MAGIC)
        raw = _read_exact(fh, layout.n_blocks * PAYLOAD_BITS // 8)
        if fh.read(1):
            raise ValueError("trailing data after block payload")
    blocks = bits_from_bytes(raw).reshape(layout.n_blocks, PAYLOAD_BITS)
    return blocks, layout


def save_sidecar(aux_codes, path) -> None:
    """Aux sidecar: one `block_index aux_hex` line per block."""
    with open(path, "w") as fh:
        for i, code in enumerate(aux_codes):
            fh.write(f"{i} {int(code):02x}\n")


def load_sidecar(path, n_blocks: int) -> list[int]:
    """Aux codes by block index.  Every block needs exactly one line, and
    every code must name one of the 64 configs."""
    codes = [None] * n_blocks
    with open(path) as fh:
        for line in fh:
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

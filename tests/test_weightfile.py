import struct

import numpy as np
import pytest

from craft import nn
from craft.codecs import Precision
from craft.weightfile import (BlockLayout, flatten_model, load_blocks, load_model,
                              load_sidecar, save_blocks, save_model, save_sidecar,
                              unflatten_model)


def random_fp32_model(gen, dims=(5, 7, 3)):
    weights = tuple(gen.normal(size=(a, b)).astype(np.float32)
                    for a, b in zip(dims[:-1], dims[1:]))
    biases = tuple(gen.normal(size=b).astype(np.float32) for b in dims[1:])
    return nn.MlpModel(weights=weights, biases=biases)


def models_equal(a, b):
    if isinstance(a, nn.QuantizedModel):
        return all(
            np.array_equal(x.codes, y.codes) and x.scale == y.scale
            and x.zero_point == y.zero_point and np.array_equal(x.biases, y.biases)
            for x, y in zip(a.layers, b.layers)
        )
    return all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and all(
        np.array_equal(x, y) for x, y in zip(a.biases, b.biases)
    )


class TestFlatten:
    def test_16_fp32_weights_fill_one_block(self):
        model = nn.MlpModel(
            weights=(np.arange(16, dtype=np.float32).reshape(4, 4) + 1,),
            biases=(np.zeros(4, dtype=np.float32),),
        )
        blocks, layout = flatten_model(model)
        assert blocks.shape == (1, 16) and blocks.dtype == np.dtype("<u4")
        assert layout.layer_blocks == (1,)

    def test_65_u8_weights_need_two_blocks_with_63_pads(self):
        layer = nn.QuantizedLayer(
            codes=(np.arange(65) % 256).astype(np.uint8).reshape(13, 5),
            scale=0.1, zero_point=3, biases=np.zeros(5, dtype=np.float32),
        )
        model = nn.QuantizedModel(layers=(layer,))
        blocks, layout = flatten_model(model)
        assert blocks.shape == (2, 16)
        codes = blocks.view(np.uint8).reshape(-1)
        assert codes.size - 65 == 63
        assert codes[:65].tolist() == list(range(65))
        assert not codes[65:].any()

    def test_roundtrip_random_models(self):
        gen = np.random.default_rng(4)
        for dims in ((5, 7, 3), (16, 32, 32, 4), (3, 2)):
            model = random_fp32_model(gen, dims)
            blocks, layout = flatten_model(model)
            assert models_equal(unflatten_model(blocks, layout), model)
            q = nn.quantize(model)
            qblocks, qlayout = flatten_model(q)
            assert models_equal(unflatten_model(qblocks, qlayout), q)

    def test_blocks_carry_arbitrary_bits(self):
        # non-finite patterns survive flatten/unflatten byte-for-byte
        gen = np.random.default_rng(9)
        model = random_fp32_model(gen)
        blocks, layout = flatten_model(model)
        scrambled = blocks.copy()
        scrambled[0] = 0xFFFFFFFF  # first block all ones -> NaN weights
        rebuilt = unflatten_model(scrambled, layout)
        assert np.isnan(rebuilt.weights[0].reshape(-1)[0])
        blocks2, _ = flatten_model(rebuilt)
        # padding slots of a value-level roundtrip are re-zeroed; data slots match
        n_data_words = min(16, layout.shapes[0][0] * layout.shapes[0][1])
        assert np.array_equal(blocks2[0, :n_data_words], scrambled[0, :n_data_words])

    def test_layout_mismatch_rejected(self):
        gen = np.random.default_rng(4)
        model = random_fp32_model(gen)
        blocks, layout = flatten_model(model)
        with pytest.raises(ValueError):
            unflatten_model(blocks[:-1], layout)

    def test_unflatten_copies_words_and_rejects_bit_arrays(self):
        model = random_fp32_model(np.random.default_rng(5))
        for m in (model, nn.quantize(model)):
            blocks, layout = flatten_model(m)
            rebuilt = unflatten_model(blocks, layout)
            arrays = rebuilt.weights if m is model else [l.codes for l in rebuilt.layers]
            assert not any(np.shares_memory(w, blocks) for w in arrays)
            bits = np.unpackbits(blocks.view(np.uint8), axis=-1, bitorder="little")
            with pytest.raises(ValueError):
                unflatten_model(bits, layout)

    def test_view_per_layer(self):
        layers = (
            nn.QuantizedLayer(codes=np.zeros((8, 8), dtype=np.uint8), scale=0.5,
                              zero_point=1, biases=np.zeros(8, dtype=np.float32)),
            nn.QuantizedLayer(codes=np.zeros((8, 8), dtype=np.uint8), scale=0.25,
                              zero_point=2, biases=np.zeros(8, dtype=np.float32)),
        )
        model = nn.QuantizedModel(layers=layers)
        _, layout = flatten_model(model)
        assert layout.layer_blocks == (1, 1)
        assert layout.block_scales().tolist() == [0.5, 0.25]


class TestWeightFile:
    def test_fp32_roundtrip(self, tmp_path, fp32_model):
        path = tmp_path / "m.w"
        save_model(fp32_model, path)
        assert models_equal(load_model(path), fp32_model)

    def test_u8_roundtrip(self, tmp_path, u8_model):
        path = tmp_path / "m.w"
        save_model(u8_model, path)
        assert models_equal(load_model(path), u8_model)

    def test_magic_and_precision_tag(self, tmp_path, fp32_model, u8_model):
        p1, p2 = tmp_path / "a.w", tmp_path / "b.w"
        save_model(fp32_model, p1)
        save_model(u8_model, p2)
        assert p1.read_bytes()[:6] == b"CRFTW1"
        assert p1.read_bytes()[6] == 0
        assert p2.read_bytes()[6] == 1

    def test_corrupt_magic_rejected(self, tmp_path, fp32_model):
        path = tmp_path / "m.w"
        save_model(fp32_model, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_model(path)

    def test_truncated_rejected(self, tmp_path, fp32_model):
        path = tmp_path / "m.w"
        save_model(fp32_model, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError):
            load_model(path)


class TestBlockFile:
    def test_roundtrip(self, tmp_path, u8_model):
        blocks, layout = flatten_model(u8_model)
        path = tmp_path / "m.blk"
        save_blocks(blocks, layout, path)
        loaded, loaded_layout = load_blocks(path)
        assert np.array_equal(loaded, blocks)
        assert loaded_layout.shapes == layout.shapes
        assert loaded_layout.quant == layout.quant
        assert path.read_bytes()[:6] == b"CRFTB1"

    def test_preserves_pad_slot_contents(self, tmp_path):
        gen = np.random.default_rng(2)
        model = random_fp32_model(gen, (3, 3))  # 9 weights -> 1 block, 7 pads
        blocks, layout = flatten_model(model)
        blocks = blocks.copy()
        blocks[0][9:] = 0xFFFFFFFF  # nonzero pad content must survive
        path = tmp_path / "m.blk"
        save_blocks(blocks, layout, path)
        loaded, _ = load_blocks(path)
        assert np.array_equal(loaded, blocks)


def expected_header(magic, model):
    """The container header written field by field from the format spec."""
    if isinstance(model, nn.QuantizedModel):
        layers = [(l.codes.shape, l.biases, struct.pack("<di", l.scale, l.zero_point))
                  for l in model.layers]
        tag = 1
    else:
        layers = [(w.shape, b, b"") for w, b in zip(model.weights, model.biases)]
        tag = 0
    out = magic + struct.pack("<BI", tag, len(layers))
    for (rows, cols), biases, quant in layers:
        out += struct.pack("<II", rows, cols) + quant + np.asarray(biases, "<f4").tobytes()
    return out


def layer_bytes(model):
    """Each layer's weights as little-endian bytes, row-major."""
    if isinstance(model, nn.QuantizedModel):
        return [np.asarray(l.codes, np.uint8).tobytes() for l in model.layers]
    return [np.asarray(w, "<f4").tobytes() for w in model.weights]


class TestFormatPin:
    """Byte-exact CRFTW1/CRFTB1 contents, built without the package's codec.

    Round-trip tests pass under any self-consistent byte order; these pin the
    order itself.
    """

    @pytest.fixture(params=["fp32", "u8"])
    def model(self, request):
        fp32 = random_fp32_model(np.random.default_rng(21), (5, 7, 3))  # 35 and 21 weights
        return fp32 if request.param == "fp32" else nn.quantize(fp32)

    def test_weight_file_payload_is_unpadded_raw_weights(self, tmp_path, model):
        path = tmp_path / "m.w"
        save_model(model, path)
        assert path.read_bytes() == expected_header(b"CRFTW1", model) + b"".join(layer_bytes(model))

    def test_block_file_payload_is_zero_padded_weight_bytes(self, tmp_path, model):
        path = tmp_path / "m.blk"
        save_blocks(*flatten_model(model), path)
        padded = [raw + bytes(-len(raw) % 64) for raw in layer_bytes(model)]
        assert all(len(raw) % 64 for raw in layer_bytes(model))  # padding is exercised
        assert path.read_bytes() == expected_header(b"CRFTB1", model) + b"".join(padded)


class TestSidecar:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.aux"
        save_sidecar([0, 17, 63, 5], path)
        assert load_sidecar(path, 4) == [0, 17, 63, 5]
        text = path.read_text().splitlines()
        assert text[1] == "1 11"

    def test_missing_entries_rejected(self, tmp_path):
        path = tmp_path / "m.aux"
        path.write_text("0 00\n2 01\n")
        with pytest.raises(ValueError):
            load_sidecar(path, 3)

    @pytest.mark.parametrize("text", ["0 00\n1 40\n", "0 00\n1 -1\n", "0 00\n1 3f\n1 00\n"])
    def test_bad_code_or_duplicate_block_rejected(self, tmp_path, text):
        path = tmp_path / "m.aux"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_sidecar(path, 2)


    @pytest.mark.parametrize("text", ["0 0_0\n1 00\n", "0 00\n\u0661 3f\n",
                                      "0 00\n1 \u0663f\n", "0 00\n1 00\u00a0\n"])
    def test_separators_and_non_ascii_rejected(self, tmp_path, text):
        path = tmp_path / "m.aux"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="ASCII"):
            load_sidecar(path, 2)


class TestBlockLayoutType:
    def test_u8_requires_quant(self):
        with pytest.raises(ValueError):
            BlockLayout(precision=Precision.U8, shapes=((2, 2),),
                        biases=(np.zeros(2, dtype=np.float32),), quant=None)

    def test_fp32_forbids_quant(self):
        with pytest.raises(ValueError):
            BlockLayout(precision=Precision.FP32, shapes=((2, 2),),
                        biases=(np.zeros(2, dtype=np.float32),), quant=((0.5, 0),))

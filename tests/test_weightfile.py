import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craft import nn
from craft.codecs import Precision
from craft.harness import _Readbacks
from craft.weightfile import (BlockLayout, flatten_model, load_blocks, load_model,
                              load_sidecar, save_blocks, save_model, save_sidecar,
                              unflatten_model)
from sidecar_oracle import load_sidecar_ref


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

    def test_trailing_data_rejected(self, tmp_path, u8_model):
        path = tmp_path / "m.w"
        save_model(u8_model, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing data after weight payload"):
            load_model(path)

    def test_unknown_precision_tag_rejected(self, tmp_path, fp32_model):
        path = tmp_path / "m.w"
        save_model(fp32_model, path)
        raw = bytearray(path.read_bytes())
        raw[6] = 2  # the byte after the magic; 0 is fp32 and 1 u8
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unknown precision tag 2"):
            load_model(path)


class TestBlockFile:
    def test_misshapen_stream_rejected_before_writing(self, tmp_path, u8_model):
        # the writer and unflatten_model refuse it with one message
        blocks, layout = flatten_model(u8_model)
        path = tmp_path / "m.blk"
        message = (f"block stream of shape ({layout.n_blocks - 1}, 16) does not match layout "
                   f"({layout.n_blocks} x 16 words)")
        for call in (lambda b: save_blocks(b, layout, path), lambda b: unflatten_model(b, layout)):
            with pytest.raises(ValueError) as err:
                call(blocks[:-1])
            assert str(err.value) == message
        assert not path.exists()

    def test_roundtrip(self, tmp_path, u8_model):
        blocks, layout = flatten_model(u8_model)
        path = tmp_path / "m.blk"
        save_blocks(blocks, layout, path)
        loaded, loaded_layout = load_blocks(path)
        assert np.array_equal(loaded, blocks)
        assert loaded_layout.shapes == layout.shapes
        assert loaded_layout.quant == layout.quant
        assert path.read_bytes()[:6] == b"CRFTB1"

    def test_trailing_data_rejected(self, tmp_path, u8_model):
        blocks, layout = flatten_model(u8_model)
        path = tmp_path / "m.blk"
        save_blocks(blocks, layout, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing data after block payload"):
            load_blocks(path)

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

    @pytest.mark.parametrize("precision", ["fp32", "u8"])
    @pytest.mark.parametrize("dims", [
        (5, 7, 3),         # 35 and 21 weights: partial last blocks
        (1, 1, 1),         # 1x1 layers: one weight, then a block of pads
        (13, 5, 8, 8, 1),  # 65 weights leave weights_per_block - 1 pads; 8x8 fills its blocks
        (16, 32, 32, 4),   # the default model's shapes: no pads at all
    ])
    def test_block_file_payload_is_zero_padded_weight_bytes(self, tmp_path, precision, dims):
        model = random_fp32_model(np.random.default_rng(21), dims)
        if precision == "u8":
            model = nn.quantize(model)
        path = tmp_path / "m.blk"
        save_blocks(*flatten_model(model), path)
        padded = [raw + bytes(-len(raw) % 64) for raw in layer_bytes(model)]
        assert path.read_bytes() == expected_header(b"CRFTB1", model) + b"".join(padded)

    @pytest.mark.parametrize("precision", ["fp32", "u8"])
    def test_readbacks_keep_the_pinned_weights(self, default_dataset, precision):
        """The readback path's float64 weights, built from `layer_bytes`, its
        pad mask, False on the zero padding of the block file test, each
        slot's row and column in its layer (-1 on that padding), and each
        block's layer."""
        # 208 weights fill 13 fp32 blocks; 65 leave weights_per_block - 1 pads
        dims = (16, 13, 5, 4)
        model = random_fp32_model(np.random.default_rng(22), dims)
        if precision == "u8":
            model = nn.quantize(model)
        blocks, layout = flatten_model(model)
        rb = _Readbacks(blocks, layout, default_dataset)
        wpb = 16 if precision == "fp32" else 64
        real, rows, cols, block_layer = [], [], [], []
        for i, (raw, w) in enumerate(zip(layer_bytes(model), rb.weights)):
            if precision == "fp32":
                values = np.frombuffer(raw, "<f4")
            else:
                layer = model.layers[i]
                codes = np.frombuffer(raw, np.uint8).astype(np.float64)
                values = (layer.scale * (codes - layer.zero_point)).astype(np.float32)
            assert w.tobytes() == values.astype(np.float64).reshape(w.shape).tobytes()
            slot = np.arange(values.size + -values.size % wpb)
            real.append(slot < values.size)
            rows.append(np.where(real[-1], slot // dims[i + 1], -1))
            cols.append(np.where(real[-1], slot % dims[i + 1], -1))
            block_layer += [i] * (slot.size // wpb)
        assert np.array_equal(rb.real.reshape(-1), np.concatenate(real))
        assert np.array_equal(rb.row.reshape(-1), np.concatenate(rows))
        assert np.array_equal(rb.col.reshape(-1), np.concatenate(cols))
        assert layout.block_layer.tolist() == block_layer


class TestSidecar:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.aux"
        save_sidecar([0, 17, 63, 5], path)
        codes = load_sidecar(path, 4)
        assert codes.dtype == np.int64 and codes.tolist() == [0, 17, 63, 5]
        text = path.read_text().splitlines()
        assert text[1] == "1 11"

    @pytest.mark.parametrize("codes, text, block", [([0, 64], "40", 1),
                                                    ([300, 64, -1], "12c", 0),
                                                    ([7, 300], "12c", 1),
                                                    ([5, 63, -1], "-1", 2)])
    def test_writer_refuses_codes_outside_the_64_configs(self, tmp_path, codes, text, block):
        path = tmp_path / "m.aux"
        message = f"sidecar aux code {text} of block {block} is not in [00, 3f]"
        with pytest.raises(ValueError) as raised:
            save_sidecar(codes, path)
        assert str(raised.value) == message
        assert not path.exists()
        if min(codes) >= 0:  # the reader's message for the same file, which holds no sign
            path.write_text("".join(f"{i} {c:02x}\n" for i, c in enumerate(codes)))
            with pytest.raises(ValueError) as raised:
                load_sidecar(path, len(codes))
            assert str(raised.value) == message

    @pytest.mark.parametrize("text", ["", "\n \r\n"], ids=["empty", "blank-lines"])
    def test_no_entries_for_no_blocks(self, tmp_path, text):
        path = tmp_path / "m.aux"
        path.write_text(text)
        codes = load_sidecar(path, 0)
        assert codes.dtype == np.int64 and codes.shape == (0,)
        with pytest.raises(ValueError, match="sidecar is missing block entries"):
            load_sidecar(path, 1)

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

    @pytest.mark.parametrize("text, line", [("0 00\n1\n", 2), ("0 00 7\n1 00\n", 1),
                                            ("0 00\n\na 00\n", 3)])
    def test_wrong_shaped_line_named(self, tmp_path, text, line):
        path = tmp_path / "m.aux"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"sidecar line {line}: expected "
                                             f"'block_index aux_hex', got '"):
            load_sidecar(path, 2)


    @pytest.mark.parametrize("text", ["0 0_0\n1 00\n", "0 00\n\u0661 3f\n",
                                      "0 00\n1 \u0663f\n", "0 00\n1 00\u00a0\n",
                                      "+0 3f\n1 00\n", "0 0x3f\n1 00\n", "0 +3f\n1 00\n"])
    def test_separators_and_non_ascii_rejected(self, tmp_path, text):
        path = tmp_path / "m.aux"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="ASCII"):
            load_sidecar(path, 2)


#: What a sidecar with one of the faults that `sidecar_lines` makes raises.
SIDECAR_FAULTS = {"range": "out of range", "repeat": "twice", "code": "is not in [00, 3f]",
                  "missing": "missing block entries", "fields": "expected 'block_index aux_hex'",
                  "letter": "expected 'block_index aux_hex'"}


@st.composite
def sidecar_lines(draw, codes, faults):
    """The lines of a sidecar for `codes`, as field lists in a drawn order,
    with leading zeros, upper-case hex and the given faults."""
    lines = []
    for i, code in enumerate(codes):
        index = draw(st.sampled_from(["", "0", "000"])) + str(i)
        code = draw(st.sampled_from(["", "0"])) + f"{code:02x}"
        lines.append([index, code.upper() if draw(st.booleans()) else code])
    for fault in faults:
        whole = [k for k, fields in enumerate(lines) if len(fields) == 2]
        if not whole:
            break
        k = draw(st.sampled_from(whole))
        if fault == "range":
            lines[k][0] = str(len(codes) + draw(st.integers(0, 3)))
        elif fault == "repeat":
            lines.append([lines[k][0], draw(st.sampled_from(["00", "3f", "3F", "1"]))])
        elif fault == "code":
            lines[k][1] = draw(st.sampled_from(["40", "4A", "ff", "100", "0040",
                                                "fffffffffffffffff"]))
        elif fault == "missing":
            del lines[k]
        elif fault == "fields":
            lines[k] = draw(st.sampled_from([lines[k][:1], lines[k][1:], lines[k] + ["7"]]))
        elif fault == "letter":
            # a lone letter taken as a digit reads 10 to 15: in range of 16 blocks
            lines[k][0] = draw(st.sampled_from(["a", "F", "0b", lines[k][0] + "c",
                                                "e" + lines[k][0]]))
    return draw(st.permutations(lines))


def sidecar_bytes(draw, lines) -> bytes:
    """`lines` joined with drawn whitespace (tabs, \\v and \\f inside a line),
    blank lines and \\n, \\r\\n or \\r line breaks."""
    text = []
    for fields in lines:
        if draw(st.integers(0, 4)) == 0:
            text.append(draw(st.sampled_from(["", " ", "\t", "\v\f"])))
        gap = st.sampled_from([" ", "\t", "\v", "\f", " \t "])
        body = "".join(f + draw(gap) for f in fields[:-1]) + fields[-1]
        text.append(draw(st.sampled_from(["", " ", "\t"])) + body + draw(st.sampled_from(["", " "])))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in text]
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no break after the last line
    return "".join(map(str.__add__, text, ends)).encode("ascii")


def sidecar_outcome(load, path, n_blocks):
    try:
        return [int(code) for code in load(path, n_blocks)]
    except ValueError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def sidecar_path(tmp_path_factory):
    return tmp_path_factory.mktemp("sidecar") / "m.aux"


@settings(max_examples=300, deadline=None)
@given(codes=st.lists(st.integers(0, 63), min_size=1, max_size=24),
       faults=st.lists(st.sampled_from(list(SIDECAR_FAULTS)), max_size=3), data=st.data())
def test_sidecar_agrees_with_line_by_line_reader(sidecar_path, codes, faults, data):
    """Any layout of a sidecar loads to its codes, and a file with faults
    raises the message the line-by-line reader raises: for one fault, the
    message of that fault."""
    sidecar_path.write_bytes(sidecar_bytes(data.draw, data.draw(sidecar_lines(codes, faults))))
    got = sidecar_outcome(load_sidecar, sidecar_path, len(codes))
    assert got == sidecar_outcome(load_sidecar_ref, sidecar_path, len(codes))
    if not faults:
        assert got == codes
    elif len(faults) == 1:
        assert SIDECAR_FAULTS[faults[0]] in got


class TestBlockLayoutType:
    def test_u8_requires_quant(self):
        with pytest.raises(ValueError):
            BlockLayout(precision=Precision.U8, shapes=((2, 2),),
                        biases=(np.zeros(2, dtype=np.float32),), quant=None)

    def test_fp32_forbids_quant(self):
        with pytest.raises(ValueError):
            BlockLayout(precision=Precision.FP32, shapes=((2, 2),),
                        biases=(np.zeros(2, dtype=np.float32),), quant=((0.5, 0),))

    @pytest.mark.parametrize("n_biases", [0, 2])
    def test_one_bias_vector_per_layer(self, n_biases):
        with pytest.raises(ValueError, match="biases must pair with layer shapes"):
            BlockLayout(precision=Precision.FP32, shapes=((2, 2),),
                        biases=(np.zeros(2, dtype=np.float32),) * n_biases, quant=None)

"""Reference codec written independently of the package implementation.

Works on plain Python integers: a block is a list of sixteen 32-bit words,
word j taken little-endian from bytes 4j..4j+3 of the externalized block,
and a block's stuck cells are a dict {bit position: stuck value}, bit
w*32+k of the block being bit k of word w.  Besides the codec it holds
the stuck-cell readout, ECP, net deviation and the encoding search.  Used
to cross-check the numpy code and to (re)generate the golden vector files:

    python3 tests/codec_oracle.py
"""

import math
import pathlib
import struct

MASK32 = 0xFFFFFFFF

#: Delta of a non-finite fp32 weight: just above float32 max.
NONFINITE_SENTINEL = 2.0 ** 128

# Fixed fixture payload for the golden files (random.Random(20240810).randbytes(64)).
FIXTURE_HEX = (
    "c1c292abafd784a7325a0959c370ddd2a2197e85accdbd7ee4cf043b9ee719f5"
    "78fcc1c40571bf7082293d14c828083d8763ef0d9ad857573ee315605b1e5130"
)


def words_from_hex(text):
    raw = bytes.fromhex(text)
    assert len(raw) == 64
    return [int.from_bytes(raw[4 * j: 4 * j + 4], "little") for j in range(16)]


def hex_from_words(words):
    return b"".join(w.to_bytes(4, "little") for w in words).hex()


def remap_ref(words, key):
    return [words[j ^ key] for j in range(16)]


def invert_ref(words):
    return [w ^ MASK32 for w in words]


def _rol(value, amount, width):
    amount %= width
    mask = (1 << width) - 1
    return ((value << amount) | (value >> (width - amount))) & mask


def switch_ref(words, precision, encoding):
    out = []
    for w in words:
        if precision == "fp32":
            out.append(_rol(w, 10 if encoding else 32 - 10, 32))
        else:
            parts = [(w >> (8 * i)) & 0xFF for i in range(4)]
            parts = [_rol(p, 4, 8) for p in parts]  # rotate by 4 is its own inverse
            out.append(sum(p << (8 * i) for i, p in enumerate(parts)))
    return out


def encode_ref(words, code, precision):
    key, inv, sw = code & 0xF, bool(code & 0x10), bool(code & 0x20)
    out = remap_ref(words, key)
    if inv:
        out = invert_ref(out)
    if sw:
        out = switch_ref(out, precision, encoding=True)
    return out


def decode_ref(words, code, precision):
    key, inv, sw = code & 0xF, bool(code & 0x10), bool(code & 0x20)
    out = list(words)
    if sw:
        out = switch_ref(out, precision, encoding=False)
    if inv:
        out = invert_ref(out)
    return remap_ref(out, key)


def _cell_words(cells):
    mask, stuck = [0] * 16, [0] * 16
    for pos, value in cells.items():
        w, k = divmod(pos, 32)
        mask[w] |= 1 << k
        stuck[w] |= value << k
    return mask, stuck


def _readout(words, mask, stuck):
    return [(w & ~m & MASK32) | s for w, m, s in zip(words, mask, stuck)]


def stuck_ref(words, cells):
    """Readout of `words` written over the stuck cells `cells`."""
    return _readout(words, *_cell_words(cells))


def ecp_ref(words, cells, n):
    """Readout under n error-correcting pointers: they repair the block's
    first n mismatching stuck cells, in ascending bit order."""
    out = list(words)
    for pos in sorted(cells):
        w, k = divmod(pos, 32)
        if (words[w] >> k) & 1 != cells[pos]:
            if n > 0:
                n -= 1
                continue
            out[w] ^= 1 << k
    return out


def _f32(word):
    return struct.unpack("<f", struct.pack("<I", word))[0]


def pairwise16(terms):
    """numpy's sum of 16 float64 terms: eight lanes, then a fixed tree."""
    lanes = [terms[k] + terms[k + 8] for k in range(8)]
    return (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))


def deviation_ref(original, readout, precision, scale):
    """Net deviation: u8 is scale times the integer sum of code distances;
    fp32 sums |difference| in float64, a non-finite weight counting
    NONFINITE_SENTINEL."""
    if precision == "u8":
        total = 0
        for o, r in zip(original, readout):
            total += sum(abs(((r >> s) & 0xFF) - ((o >> s) & 0xFF)) for s in range(0, 32, 8))
        return scale * total
    terms = []
    for o, r in zip(original, readout):
        fo, fr = _f32(o), _f32(r)
        terms.append(abs(fr - fo) if math.isfinite(fo) and math.isfinite(fr)
                     else NONFINITE_SENTINEL)
    return pairwise16(terms)


def search_ref(words, cells, precision, scale, codes):
    """Delta of each aux code in `codes`: encode, stuck cells, decode."""
    mask, stuck = _cell_words(cells)
    deltas = []
    for code in codes:
        stored = _readout(encode_ref(words, code, precision), mask, stuck)
        deltas.append(deviation_ref(words, decode_ref(stored, code, precision), precision, scale))
    return deltas


def golden_lines(precision):
    words = words_from_hex(FIXTURE_HEX)
    lines = []
    for code in range(64):
        encoded = encode_ref(words, code, precision)
        assert decode_ref(encoded, code, precision) == words
        lines.append(f"{code:02x} {FIXTURE_HEX} {hex_from_words(encoded)}")
    return lines


def main():
    data_dir = pathlib.Path(__file__).parent / "data"
    data_dir.mkdir(exist_ok=True)
    for precision in ("fp32", "u8"):
        path = data_dir / f"codec_golden_{precision}.txt"
        path.write_text("\n".join(golden_lines(precision)) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

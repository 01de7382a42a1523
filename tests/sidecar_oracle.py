"""Reference sidecar reader, one line at a time in plain Python.

The package parses a sidecar with numpy in one pass; tests check it
against this loop, which splits each line and converts its fields with
`int()`.  Both accept the same files and raise the same messages.
"""

from craft.codecs import N_CONFIGS

_SIDECAR_BYTES = b"0123456789abcdefABCDEF \t\n\r\v\f"


def load_sidecar_ref(path, n_blocks: int) -> list[int]:
    codes = [None] * n_blocks
    with open(path, "rb") as fh:
        data = fh.read()
    if data.translate(None, _SIDECAR_BYTES):
        raise ValueError("sidecar may hold only ASCII hex digits and whitespace")
    for n, line in enumerate(data.splitlines(), 1):
        try:
            idx_text, code_text = line.split()
            idx = int(idx_text)
        except ValueError:
            if not line.strip():  # blank lines fail the unpack too
                continue
            raise ValueError(f"sidecar line {n}: expected 'block_index aux_hex', "
                             f"got {line.decode()!r}") from None
        code = int(code_text, 16)
        if not 0 <= idx < n_blocks:
            raise ValueError(f"sidecar block index {idx} out of range")
        if codes[idx] is not None:
            raise ValueError(f"sidecar lists block {idx} twice")
        if not 0 <= code < N_CONFIGS:
            raise ValueError(f"sidecar aux code {code_text.decode()} of block {idx} "
                             f"is not in [00, 3f]")
        codes[idx] = code
    if any(c is None for c in codes):
        raise ValueError("sidecar is missing block entries")
    return codes

"""Reference fault-map reader, one line at a time in plain Python.

The package parses a fault map's entries with numpy in one pass; tests
check it against this loop, which splits each line and converts its
fields with `int()`.  The two differ on purpose where `int()` is looser
than the documented format: `_` digit separators and non-ASCII digits or
whitespace, which this reader accepts and the package rejects.

`canonical_entries_ref` is the order `FaultMap` gives its entries, by one
stable sort of every input, whether or not it is already ascending.

`generate_fault_map_ref` is the one-shot draw that the package's chunked,
grid-wide draw must reproduce: one uniform per cell of the region, then
one per stuck cell.
"""

import numpy as np

from craft.memory import FaultMap
from craft.prng import make_rng


def generate_fault_map_ref(region_size_bits, ber, sa1_fraction, seed) -> FaultMap:
    rng = make_rng(seed)
    indices = np.flatnonzero(rng.random(region_size_bits) < ber)
    values = (rng.random(indices.size) < sa1_fraction).astype(np.uint8)
    return FaultMap(region_size_bits, indices, values, ber, sa1_fraction, seed)


def load_fault_map_ref(path) -> FaultMap:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(f"malformed fault map header in {path}")
        size, ber, frac, seed = int(header[0]), float(header[1]), float(header[2]), int(header[3])
        indices, values = [], []
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 2:
                raise ValueError(f"fault map line {lineno}: expected `bit_index value`, got {line.strip()!r}")
            index, value = int(fields[0]), int(fields[1])
            if not 0 <= index < size or value not in (0, 1):
                raise ValueError(f"fault map line {lineno}: bad entry {line.strip()!r}")
            indices.append(index)
            values.append(value)
    return FaultMap(size, np.array(indices, dtype=np.int64), np.array(values, dtype=np.uint8),
                    ber, frac, seed)


def canonical_entries_ref(region_size_bits, bit_indices, stuck_values):
    """(indices, values) sorted by index, or ValueError with `FaultMap`'s message."""
    idx = np.asarray(bit_indices, dtype=np.int64)
    val = np.asarray(stuck_values, dtype=np.uint8)
    order = np.argsort(idx, kind="stable")
    idx, val = idx[order], val[order]
    if idx.size:
        if idx[0] < 0 or idx[-1] >= region_size_bits:
            raise ValueError("bit index out of region")
        if np.any(np.diff(idx) == 0):
            raise ValueError("duplicate bit index in fault map")
        if val.max() > 1:
            raise ValueError("stuck values must be 0 or 1")
    return idx, val

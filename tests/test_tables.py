"""Every result table, line by line, against the objects it reports.

The raw, summary and criticality CSVs and the per-block tables that
``encode-file`` and ``decode-file --reference`` print all go through one row
writer.  Each data line must be its row's values joined by ``,``: floats as
their ``repr``, aux codes as two hex digits.
"""

import io

import numpy as np
import pytest

from craft.cli import main
from craft.codecs import PAYLOAD_BITS, decode_words
from craft.harness import (Scheme, _write_rows, ber_sweep, bit_criticality,
                           write_criticality_csv, write_raw_csv, write_summary_csv)
from craft.memory import generate_fault_map, save_fault_map, stuck_words
from craft.objective import deviation_words, store_words
from craft.weightfile import flatten_model, save_model

PRECISIONS = ["fp32_model", "u8_model"]


def line(*values):
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def data_lines(text, header):
    """The lines after `header` in `text`, which must end its last line."""
    lines = text.split("\n")
    assert lines[-1] == ""
    return lines[lines.index(header) + 1:-1]


@pytest.mark.parametrize("model", PRECISIONS)
def test_sweep_csvs(request, tmp_path, default_dataset, model):
    schemes = [Scheme.parse(s) for s in ("baseline", "ecp2", "craft")]
    results = ber_sweep(request.getfixturevalue(model), default_dataset, schemes,
                        [1e-3, 1e-2], 2, 5)
    raw, summary = tmp_path / "raw.csv", tmp_path / "summary.csv"
    write_raw_csv(results, raw)
    write_summary_csv(results, summary)
    header = "scheme,ber,trial,classification_error,total_delta"
    assert raw.read_text().startswith(header + "\n")
    assert data_lines(raw.read_text(), header) == [
        line(res.scheme, r.ber, r.trial, r.classification_error, r.total_delta)
        for res in results for r in res.records]
    header = "scheme,ber,mean_error,std_error,mean_delta"
    assert summary.read_text().startswith(header + "\n")
    assert data_lines(summary.read_text(), header) == [
        line(res.scheme, p.ber, p.mean_error, p.std_error, p.mean_delta)
        for res in results for p in res.ber_points]
    assert any(r.total_delta for res in results for r in res.records)


@pytest.mark.parametrize("model", PRECISIONS)
def test_criticality_csv(request, tmp_path, default_dataset, model):
    result = bit_criticality(request.getfixturevalue(model), default_dataset, ber=1e-2,
                             trials=2, base_seed=3)
    path = tmp_path / "crit.csv"
    write_criticality_csv(result, path)
    header = "position,mean_error,std_error,mean_delta"
    assert path.read_text().startswith(header + "\n")
    assert data_lines(path.read_text(), header) == [
        line(p.position, p.mean_error, p.std_error, p.mean_delta) for p in result.points]


@pytest.mark.parametrize("model", PRECISIONS)
def test_encode_and_decode_block_rows(request, capsys, tmp_path, model):
    blocks, layout = flatten_model(request.getfixturevalue(model))
    model_path, fmap_path, stored_path = tmp_path / "m.w", tmp_path / "f.txt", tmp_path / "m.blk"
    save_model(request.getfixturevalue(model), model_path)
    fmap = generate_fault_map(layout.n_blocks * PAYLOAD_BITS, 1e-2, 0.5, 3)
    save_fault_map(fmap, fmap_path)
    codes, stored, deltas = store_words(blocks, *stuck_words(fmap, layout.n_blocks),
                                        layout.precision, layout.block_scales())
    assert main(["encode-file", "--in", str(model_path), "--out", str(stored_path),
                 "--fault-map", str(fmap_path)]) == 0
    rows = data_lines(capsys.readouterr().out, "block,aux_hex,delta")[:layout.n_blocks + 1]
    assert rows[:-1] == [line(i, f"{code:02x}", delta)
                         for i, (code, delta) in enumerate(zip(codes.tolist(), deltas.tolist()))]
    assert rows[-1] == f"wrote {stored_path}"
    assert np.count_nonzero(codes) and np.count_nonzero(deltas)

    decoded = decode_words(stored, codes, layout.precision)
    deviations = deviation_words(blocks, decoded, layout.precision, layout.block_scales())
    assert main(["decode-file", "--in", str(stored_path), "--sidecar", f"{stored_path}.aux",
                 "--out", str(tmp_path / "r.w"), "--reference", str(model_path)]) == 0
    rows = data_lines(capsys.readouterr().out, "block,delta")
    assert rows == [line(i, delta) for i, delta in enumerate(deviations.tolist())] + \
        [f"wrote {tmp_path / 'r.w'}"]


def test_float_columns_are_written_as_repr():
    # A float column is formatted once per distinct bit pattern, so the
    # values that compare equal but print apart (0.0 and -0.0), the NaNs
    # of different payloads and repeated values must each keep their repr.
    other_nan = np.array(0x7FF8000000000001, dtype=np.uint64).view(np.float64)
    values = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e-5, 1e16,
              0.0, -0.0, 1e-5, 0.1 + 0.2, float(other_nan), 5e-324, 0.0]
    table = np.array([values, values[::-1]]).T  # columns that are not contiguous
    out = io.StringIO()
    _write_rows(out, "i,x,y,name", [range(len(values)), table[:, 0], table[:, 1],
                                    [f"s{i}" for i in range(len(values))]])
    rows = data_lines(out.getvalue(), "i,x,y,name")
    assert rows == [line(i, x, y, f"s{i}") for i, (x, y) in enumerate(zip(values, values[::-1]))]
    assert [rows[i].split(",")[1] for i in (0, 1, 8, 9, 14)] == ["0.0", "-0.0", "0.0", "-0.0", "0.0"]


def test_a_table_without_rows_is_its_header():
    out = io.StringIO()
    _write_rows(out, "block,delta", [range(0), np.empty(0)])
    assert out.getvalue() == "block,delta\n"

import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import craft
from craft import cli, harness, nn
from craft.cli import main
from craft.codecs import PAYLOAD_BITS
from craft.harness import MAX_TRIAL_RESULTS
from craft.memory import generate_fault_map, save_fault_map, FaultMap
from craft.weightfile import flatten_model, load_model, save_blocks, save_model, save_sidecar


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def printed_fault_free_error(out):
    """The value of the one `fault_free_error=` line, which must be a plain
    float literal (a numpy scalar's repr is not)."""
    [line] = [l for l in out.splitlines() if l.startswith("fault_free_error=")]
    value = float(line.split("=", 1)[1])
    assert 0.0 <= value <= 1.0
    return value


def train_default(capsys, tmp_path, name="model.w", *extra):
    path = tmp_path / name
    code, out, err = run(capsys, "train", "--out", str(path), "--epochs", "8", *extra)
    assert code == 0, err
    return path, out


class TestTrain:
    def test_deterministic_bytes_and_stdout(self, capsys, tmp_path):
        p1, out1 = train_default(capsys, tmp_path, "a.w")
        p2, out2 = train_default(capsys, tmp_path, "b.w")
        assert p1.read_bytes() == p2.read_bytes()
        assert out1.replace("a.w", "X") == out2.replace("b.w", "X")

    def test_quantize_writes_u8_tag(self, capsys, tmp_path):
        path, out = train_default(capsys, tmp_path, "q.w", "--quantize")
        assert path.read_bytes()[6] == 1
        assert isinstance(load_model(path), nn.QuantizedModel)
        assert "config precision=u8" in out

    def test_precision_flag_is_not_an_option(self, capsys, tmp_path):
        # --quantize alone picks u8; there is no second flag to disagree with it
        path = tmp_path / "q.w"
        code, _, err = run(capsys, "train", "--out", str(path), "--epochs", "1",
                           "--precision", "u8")
        assert code == 1
        assert "--precision" in err
        assert not path.exists()

    def test_reports_fault_free_accuracy(self, capsys, tmp_path):
        _, out = train_default(capsys, tmp_path)
        line = [l for l in out.splitlines() if l.startswith("fault_free_accuracy=")]
        assert line and float(line[0].split("=")[1]) >= 0.95

    def test_echoes_derived_seeds(self, capsys, tmp_path):
        _, out = train_default(capsys, tmp_path)
        assert "config dataset_seed=1234" in out
        assert "config train_seed=1235" in out

    def test_derived_seeds_wrap_as_the_rngs_receive_them(self, capsys, tmp_path):
        # --seed -1 and --seed 2**64 - 1 give the same rngs: dataset seed
        # 2**64 - 1, train seed 0, and the echo says so for both.
        outs = []
        for seed, name in (("-1", "a.w"), ("18446744073709551615", "b.w")):
            code, out, err = run(capsys, "train", "--out", str(tmp_path / name),
                                 "--epochs", "1", "--seed", seed)
            assert code == 0, err
            assert "config dataset_seed=18446744073709551615" in out
            assert "config train_seed=0" in out
            outs.append(out.replace(name, "X").replace(f"config seed={seed}\n", ""))
        assert outs[0] == outs[1]
        assert (tmp_path / "a.w").read_bytes() == (tmp_path / "b.w").read_bytes()

    def test_diverged_training_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--out", str(tmp_path / "x.w"),
                           "--lr", "1e9", "--epochs", "3")
        assert code == 3
        assert "numeric failure" in err

    @pytest.mark.parametrize("quantize", [[], ["--quantize"]], ids=["fp32", "u8"])
    def test_parameters_past_float32_exit_3(self, capsys, tmp_path, quantize):
        # every batch loss is finite; the last update overflows float32
        out = tmp_path / "t.w"
        code, _, err = run(capsys, "train", "--samples", "8", "--classes", "2",
                           "--epochs", "1", "--lr", "1e200", "--out", str(out), *quantize)
        assert code == 3
        [line] = err.splitlines()
        assert line == "craft: numeric failure: training ended with non-finite float32 parameters"
        assert not out.exists()

    @pytest.mark.parametrize("argv, rule", [
        (["--features", "0"], "bad dataset flags: n_features must be at least 1, got 0"),
        (["--samples", "3"], "bad dataset flags: n_samples must split evenly across the "
                             "4 classes, at least one sample each, got 3"),
        (["--classes", "1"], "bad dataset flags: n_classes must be at least 2, got 1"),
        (["--epochs", "-1"], "bad training flags: epochs must be non-negative, got -1"),
        (["--lr", "-1"], "bad training flags: lr must be finite and non-negative, got -1.0"),
        (["--lr", "nan"], "bad training flags: lr must be finite and non-negative, got nan"),
        (["--samples", "2", "--classes", "2"],
         "bad dataset flags: a 0.75 train split of 2 samples leaves an empty split"),
        (["--hidden", "32,0"],
         "bad training flags: layer dims [16, 32, 0, 4] must all be at least 1"),
        (["--hidden", "-3"], "bad training flags: layer dims [16, -3, 4] must all be at least 1"),
    ])
    def test_bad_dataset_or_training_flags_exit_1(self, capsys, tmp_path, argv, rule):
        out = tmp_path / "m.w"
        code, _, err = run(capsys, "train", "--out", str(out), *argv)
        assert code == 1
        assert rule in err, err
        assert "Traceback" not in err
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "train", "--out", str(tmp_path / "m.w"), "--bogus")
        assert code == 1

    def test_bad_scheme_exits_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--model", str(tmp_path / "m.w"),
                         "--schemes", "parity", "--out", str(tmp_path / "s"))
        assert code == 1

    def test_missing_subcommand_exits_1(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--trials", "0"],
        ["sweep", "--threads", "2"],
        ["criticality", "--trials", "0"],
        ["criticality", "--ber", "2"],
        ["criticality", "--ber", "-0.1"],
        ["sweep", "--ber-grid", "1e-3:inf:5"],
        ["sweep", "--ber-grid", "nan:1e-1:5"],
        ["sweep", "--ber-grid", "1e-2:10:1"],
        # oversized grids, rejected before any point is built
        ["sweep", "--ber-grid", "1e-300:1e-1:100000000"],
        ["sweep", "--ber-grid", "1e-300:1e-1:10000"],
    ])
    def test_out_of_range_numbers_exit_1(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, "--model", str(tmp_path / "m.w"),
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, reason", [
        (["sweep", "--ber-grid", "1e-2:10:1"], "0 < lo <= hi <= 1, got 0.01:10.0"),
        (["sweep", "--ber-grid", "1e-3:1e-1"], "grid must be lo:hi:per-decade"),
        (["criticality", "--ber", "2"], "ber must be in [0, 1], got 2.0"),
        (["sweep", "--ber", "1e-3,2"], "ber must be in [0, 1], got 2.0"),
        (["sweep", "--trials", "0"], "must be at least 1, got 0"),
        (["train", "--hidden", ","], "empty hidden dims list"),
        (["sweep", "--schemes", "baseline,parity"], "unknown scheme 'parity'"),
        (["sweep", "--schemes", "ecp\u0663"], "unknown scheme 'ecp\u0663'"),
    ])
    def test_rejected_flag_names_the_broken_rule(self, capsys, tmp_path, argv, reason):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
        assert code == 1
        flag = argv[1]
        assert f"argument {flag}: " in err and reason in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep", "criticality"])
    def test_no_trial_exits_1_before_echo_or_model_read(self, capsys, tmp_path, command):
        # the model file is missing, which a read would report with exit 2
        code, out, err = run(capsys, command, "--model", str(tmp_path / "missing.w"),
                             "--trials", "0", "--out", str(tmp_path / "o"))
        assert code == 1
        assert out == ""
        assert "argument --trials: trials must be at least 1, got 0" in err
        assert "Traceback" not in err


class TestSweep:
    def test_byte_identical_csvs(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        for prefix in ("s1", "s2"):
            code, _, err = run(capsys, "sweep", "--model", str(model),
                               "--schemes", "baseline,craft", "--ber", "1e-3,1e-2",
                               "--trials", "2", "--seed", "5",
                               "--out", str(tmp_path / prefix))
            assert code == 0, err
        assert (tmp_path / "s1_raw.csv").read_bytes() == (tmp_path / "s2_raw.csv").read_bytes()
        assert (tmp_path / "s1_summary.csv").read_bytes() == \
            (tmp_path / "s2_summary.csv").read_bytes()

    def test_two_schemes_double_rows(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        code, out, _ = run(capsys, "sweep", "--model", str(model),
                           "--schemes", "baseline,craft", "--ber", "1e-3,1e-2",
                           "--trials", "1", "--out", str(tmp_path / "s"))
        assert code == 0
        printed_fault_free_error(out)
        lines = (tmp_path / "s_summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_repeated_scheme_exits_1(self, capsys, tmp_path, u8_model):
        model = tmp_path / "m.w"
        save_model(u8_model, model)
        code, _, err = run(capsys, "sweep", "--model", str(model),
                           "--schemes", "craft,ecp,ecp1,craft", "--ber", "1e-3",
                           "--trials", "1", "--out", str(tmp_path / "s"))
        assert code == 1
        assert "bad sweep flags: repeated scheme in craft,ecp1,ecp1,craft" in err
        assert not list(tmp_path.glob("s_*.csv"))

    def test_missing_model_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--model", str(tmp_path / "nope.w"),
                           "--out", str(tmp_path / "s"), "--trials", "1",
                           "--ber", "1e-3")
        assert code == 2
        assert "cannot read model file" in err


class TestTrialSeeds:
    """`trial_seeds=` names the seeds the trials receive, wrapped mod 2**64."""

    @pytest.mark.parametrize("command, out", [("sweep", "s"), ("criticality", "c.csv")])
    def test_seeds_wrap_past_2_to_the_64(self, capsys, tmp_path, u8_model, command, out):
        model = tmp_path / "m.w"
        save_model(u8_model, model)
        tables = []
        for seed, name in (("-1", "a"), ("18446744073709551615", "b")):
            code, printed, err = run(capsys, command, "--model", str(model), "--ber", "1e-2",
                                     "--trials", "2", "--seed", seed,
                                     "--out", str(tmp_path / f"{name}{out}"))
            assert code == 0, err
            assert "config trial_seeds=18446744073709551615..0" in printed.splitlines()
            tables.append(sorted(p.read_bytes() for p in tmp_path.glob(f"{name}{out}*")))
        assert tables[0] == tables[1] and tables[0]


class TestCriticality:
    def test_u8_has_8_rows(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        out_csv = tmp_path / "crit.csv"
        code, out, _ = run(capsys, "criticality", "--model", str(model),
                           "--trials", "2", "--out", str(out_csv))
        assert code == 0
        assert len(out_csv.read_text().splitlines()) == 9
        printed_fault_free_error(out)

    def test_fp32_has_32_rows(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w")
        out_csv = tmp_path / "crit.csv"
        code, out, _ = run(capsys, "criticality", "--model", str(model),
                           "--trials", "2", "--out", str(out_csv))
        assert code == 0
        assert len(out_csv.read_text().splitlines()) == 33
        printed_fault_free_error(out)

    def test_msb_row_has_max_mean_delta(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        out_csv = tmp_path / "crit.csv"
        code, _, _ = run(capsys, "criticality", "--model", str(model),
                         "--trials", "10", "--out", str(out_csv))
        assert code == 0
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        deltas = {int(r[0]): float(r[3]) for r in rows}
        assert max(deltas, key=deltas.get) == 7


class TestEncodeDecode:
    def _fault_map_path(self, tmp_path, model_path, ber, seed=9):
        model = load_model(model_path)
        blocks, layout = flatten_model(model)
        fmap = generate_fault_map(layout.n_blocks * PAYLOAD_BITS, ber, 0.5, seed)
        path = tmp_path / "faults.txt"
        save_fault_map(fmap, path)
        return path, blocks, layout

    def test_empty_fault_map_is_identity(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        fmap_path, blocks, layout = self._fault_map_path(tmp_path, model, 0.0)
        encoded = tmp_path / "m.blk"
        code, out, _ = run(capsys, "encode-file", "--in", str(model),
                           "--out", str(encoded), "--fault-map", str(fmap_path))
        assert code == 0
        sidecar = tmp_path / "m.blk.aux"
        assert sidecar.exists()
        assert all(line.split()[1] == "00" for line in sidecar.read_text().splitlines())
        from craft.weightfile import load_blocks
        stored, _ = load_blocks(encoded)
        assert np.array_equal(stored, blocks)

    def test_roundtrip_restores_weight_file(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        fmap_path, _, _ = self._fault_map_path(tmp_path, model, 0.0)
        encoded = tmp_path / "m.blk"
        run(capsys, "encode-file", "--in", str(model), "--out", str(encoded),
            "--fault-map", str(fmap_path))
        decoded = tmp_path / "m2.w"
        code, _, _ = run(capsys, "decode-file", "--in", str(encoded),
                         "--sidecar", str(tmp_path / "m.blk.aux"),
                         "--out", str(decoded))
        assert code == 0
        assert decoded.read_bytes() == model.read_bytes()

    def test_single_fault_per_block_gives_zero_deltas(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        blocks, layout = flatten_model(load_model(model))
        local = [(37 * b) % PAYLOAD_BITS for b in range(layout.n_blocks)]
        idx = np.array([b * PAYLOAD_BITS + pos for b, pos in enumerate(local)])
        val = np.array([1 - (int(blocks[b, pos // 32]) >> (pos % 32) & 1)
                        for b, pos in enumerate(local)], dtype=np.uint8)
        fmap = FaultMap(layout.n_blocks * PAYLOAD_BITS, idx, val, 0.0, 0.5, 0)
        fmap_path = tmp_path / "faults.txt"
        save_fault_map(fmap, fmap_path)
        encoded = tmp_path / "m.blk"
        code, out, _ = run(capsys, "encode-file", "--in", str(model),
                           "--out", str(encoded), "--fault-map", str(fmap_path))
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()
                if l and l[0].isdigit() and len(l.split(",")) == 3]
        assert len(rows) == layout.n_blocks
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_decode_deltas_never_above_identity(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        fmap_path, blocks, layout = self._fault_map_path(tmp_path, model, 5e-3)
        encoded = tmp_path / "m.blk"
        run(capsys, "encode-file", "--in", str(model), "--out", str(encoded),
            "--fault-map", str(fmap_path))
        decoded = tmp_path / "m2.w"
        code, out, _ = run(capsys, "decode-file", "--in", str(encoded),
                           "--sidecar", str(tmp_path / "m.blk.aux"),
                           "--out", str(decoded), "--reference", str(model))
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()
                if l and l[0].isdigit() and len(l.split(",")) == 2]
        assert len(rows) == layout.n_blocks
        # identity deltas recomputed independently
        from craft.memory import apply_stuck, load_fault_map, stuck_words
        from craft.objective import deviation_words
        mask, stuck = stuck_words(load_fault_map(fmap_path), layout.n_blocks)
        identity = deviation_words(blocks, apply_stuck(blocks, mask, stuck),
                                   layout.precision, layout.block_scales())
        for (_, delta_text), bound in zip(rows, identity.tolist()):
            assert float(delta_text) <= bound

    @pytest.mark.parametrize("quantize", [[], ["--quantize"]], ids=["fp32", "u8"])
    @pytest.mark.parametrize("hidden", [["--hidden", "13,7"], []], ids=["16-13-7-4", "default"])
    def test_decode_deltas_equal_encode_deltas(self, capsys, tmp_path, hidden, quantize):
        """decode-file --reference prints, as text, the (block, delta) rows
        that encode-file printed.  The 16-13-7-4 model's partial last blocks
        hold pad slots; the default model's blocks hold none."""
        model = tmp_path / "m.w"
        code, _, err = run(capsys, "train", "--out", str(model), "--epochs", "1",
                           *hidden, *quantize)
        assert code == 0, err
        fmap_path, _, layout = self._fault_map_path(tmp_path, model, 1e-2, seed=3)
        encoded = tmp_path / "m.blk"
        code, encode_out, err = run(capsys, "encode-file", "--in", str(model),
                                    "--out", str(encoded), "--fault-map", str(fmap_path))
        assert code == 0, err
        code, decode_out, err = run(capsys, "decode-file", "--in", str(encoded),
                                    "--sidecar", str(tmp_path / "m.blk.aux"),
                                    "--out", str(tmp_path / "r.w"), "--reference", str(model))
        assert code == 0, err
        # encode-file prints "block,aux,delta" rows, decode-file "block,delta"
        encoded_rows = [f"{block},{delta}" for block, _, delta in
                        (l.split(",") for l in encode_out.splitlines() if l[:1].isdigit())]
        decoded_rows = [l for l in decode_out.splitlines() if l[:1].isdigit()]
        assert len(encoded_rows) == layout.n_blocks
        assert any(not row.endswith(",0.0") for row in encoded_rows)
        assert decoded_rows == encoded_rows

    @staticmethod
    def _model(dims, precision, scale=0.01):
        shapes = list(zip(dims, dims[1:]))
        if precision == "u8":
            return nn.QuantizedModel(layers=tuple(
                nn.QuantizedLayer(codes=np.full(shape, 128, dtype=np.uint8), scale=scale,
                                  zero_point=128, biases=np.zeros(shape[1], dtype=np.float32))
                for shape in shapes))
        rng = np.random.default_rng(5)
        return nn.MlpModel(
            weights=tuple(rng.standard_normal(shape).astype(np.float32) for shape in shapes),
            biases=tuple(np.zeros(shape[1], dtype=np.float32) for shape in shapes))

    @pytest.mark.parametrize("stored, reference", [
        # both 40 fp32 blocks, laid out differently
        (((16, 32, 4), "fp32"), ((32, 16, 8), "fp32")),
        # equal shapes, another quantization scale
        (((16, 32, 4), "u8", 0.01), ((16, 32, 4), "u8", 0.02)),
    ], ids=["shapes", "quantization"])
    def test_reference_with_another_layout_exits_2(self, capsys, tmp_path, stored, reference):
        model, ref = tmp_path / "m.w", tmp_path / "ref.w"
        save_model(self._model(*stored), model)
        save_model(self._model(*reference), ref)
        fmap_path, _, _ = self._fault_map_path(tmp_path, model, 1e-2)
        encoded = tmp_path / "m.blk"
        code, _, err = run(capsys, "encode-file", "--in", str(model), "--out", str(encoded),
                           "--fault-map", str(fmap_path))
        assert code == 0, err
        code, out, err = run(capsys, "decode-file", "--in", str(encoded),
                             "--sidecar", str(tmp_path / "m.blk.aux"),
                             "--out", str(tmp_path / "m2.w"), "--reference", str(ref))
        assert code == 2
        assert "reference model does not match the block file layout" in err
        assert "Traceback" not in err
        assert "block,delta" not in out
        assert not (tmp_path / "m2.w").exists()

    def test_missing_sidecar_exits_2(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        fmap_path, _, _ = self._fault_map_path(tmp_path, model, 0.0)
        encoded = tmp_path / "m.blk"
        run(capsys, "encode-file", "--in", str(model), "--out", str(encoded),
            "--fault-map", str(fmap_path))
        code, _, err = run(capsys, "decode-file", "--in", str(encoded),
                           "--sidecar", str(tmp_path / "gone.aux"),
                           "--out", str(tmp_path / "m2.w"))
        assert code == 2
        assert "sidecar" in err

    def _encoded(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        fmap_path, _, layout = self._fault_map_path(tmp_path, model, 1e-2)
        encoded = tmp_path / "m.blk"
        code, _, err = run(capsys, "encode-file", "--in", str(model), "--out", str(encoded),
                           "--fault-map", str(fmap_path))
        assert code == 0, err
        return encoded, tmp_path / "m.blk.aux", layout

    @pytest.mark.parametrize("edit", ["bad_code", "duplicate", "digit_separator",
                                      "non_ascii_digit", "signed_index", "hex_prefix",
                                      "signed_code", "one_field", "three_fields",
                                      "hex_index"])
    def test_malformed_sidecar_exits_2(self, capsys, tmp_path, edit):
        encoded, sidecar, layout = self._encoded(capsys, tmp_path)
        lines = sidecar.read_text().splitlines()
        if edit == "bad_code":
            lines[1] = "1 4a"  # a code past the 64 configs
        elif edit == "duplicate":
            lines.append("1 00")  # block 1 listed twice
        elif edit == "digit_separator":
            lines[0] = "0 0_0"  # int() would read code 0
        elif edit == "signed_index":
            lines[0] = "+0 3f"  # int() would read block 0
        elif edit == "hex_prefix":
            lines[0] = "0 0x3f"  # int(_, 16) would read code 63
        elif edit == "signed_code":
            lines[0] = "0 +3f"
        elif edit == "one_field":
            lines[1] = "1"
        elif edit == "three_fields":
            lines[0] = "0 00 7"
        elif edit == "hex_index":
            lines[0] = "a 00"  # passes the hex-digit whitelist
        else:
            lines[1] = "\u0661 3f"  # an Arabic-Indic one: int() would read block 1
        sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "decode-file", "--in", str(encoded), "--sidecar",
                           str(sidecar), "--out", str(tmp_path / "m2.w"))
        assert code == 2
        assert "sidecar" in err and "Traceback" not in err
        assert not (tmp_path / "m2.w").exists()

    def test_one_field_fault_map_line_exits_2(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        fmap_path, _, _ = self._fault_map_path(tmp_path, model, 1e-2)
        with open(fmap_path, "a") as fh:
            fh.write("17\n")
        code, _, err = run(capsys, "encode-file", "--in", str(model),
                           "--out", str(tmp_path / "m.blk"), "--fault-map", str(fmap_path))
        assert code == 2
        assert "fault map" in err and "Traceback" not in err

    def test_digit_separator_in_fault_map_exits_2(self, capsys, tmp_path):
        # `int()` would read `1_0` as 10, a free cell of this empty map
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        fmap_path, _, _ = self._fault_map_path(tmp_path, model, 0.0)
        with open(fmap_path, "a") as fh:
            fh.write("1_0 1\n")
        code, _, err = run(capsys, "encode-file", "--in", str(model),
                           "--out", str(tmp_path / "m.blk"), "--fault-map", str(fmap_path))
        assert code == 2
        assert "cannot read fault map" in err and "Traceback" not in err

    def test_stuck_cells_past_the_weights_are_ignored(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        blocks, layout = flatten_model(load_model(model))
        region = layout.n_blocks * PAYLOAD_BITS
        idx = np.arange(region, 2 * region, 7)
        fmap = FaultMap(2 * region, idx, np.ones(idx.size, dtype=np.uint8), 0.0, 0.5, 0)
        fmap_path = tmp_path / "faults.txt"
        save_fault_map(fmap, fmap_path)
        encoded = tmp_path / "m.blk"
        code, out, _ = run(capsys, "encode-file", "--in", str(model),
                           "--out", str(encoded), "--fault-map", str(fmap_path))
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()
                if l and l[0].isdigit() and len(l.split(",")) == 3]
        assert [(r[1], r[2]) for r in rows] == [("00", "0.0")] * layout.n_blocks
        from craft.weightfile import load_blocks
        assert np.array_equal(load_blocks(encoded)[0], blocks)

    def test_undersized_fault_map_exits_2(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        fmap = generate_fault_map(64, 0.0, 0.5, 1)
        fmap_path = tmp_path / "faults.txt"
        save_fault_map(fmap, fmap_path)
        code, _, err = run(capsys, "encode-file", "--in", str(model),
                           "--out", str(tmp_path / "m.blk"),
                           "--fault-map", str(fmap_path))
        assert code == 2
        assert "smaller than" in err


    @pytest.mark.parametrize("fields", [
        ("{size}", "nan", "0.5", "0"),
        ("{size}", "-5", "0.5", "0"),
        ("{size}", "0.0", "inf", "0"),
        ("1_{size}", "0.0", "0.5", "0"),
        ("{arabic}", "0.0", "0.5", "0"),
    ], ids=["nan ber", "negative ber", "infinite sa1", "digit separator", "non-ASCII digits"])
    def test_bad_fault_map_header_exits_2(self, capsys, tmp_path, fields):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        fmap_path, _, _ = self._fault_map_path(tmp_path, model, 1e-2)
        header, *lines = fmap_path.read_text().splitlines()
        size = header.split()[0]
        arabic = "".join(chr(0x660 + int(d)) for d in size)
        header = " ".join(f.format(size=size, arabic=arabic) for f in fields)
        fmap_path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "encode-file", "--in", str(model),
                           "--out", str(tmp_path / "m.blk"), "--fault-map", str(fmap_path))
        assert code == 2
        assert "cannot read fault map" in err and "Traceback" not in err
        assert not (tmp_path / "m.blk").exists()


class TestRunChecks:
    """sweep and criticality reject bad runs before any trial."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the run started")
        monkeypatch.setattr(cli, "ber_sweep", fail)
        monkeypatch.setattr(cli, "bit_criticality", fail)

    @pytest.mark.parametrize("command", ["sweep", "criticality"])
    @pytest.mark.parametrize("flags", [["--features", "8"], ["--classes", "3"],
                                       ["--samples", "10"], ["--samples", "10", "--classes", "3"]])
    def test_dataset_not_matching_model_exits_1(self, capsys, tmp_path, command, flags):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        code, _, err = run(capsys, command, "--model", str(model), "--trials", "1",
                           "--out", str(tmp_path / "o"), *flags)
        assert code == 1
        assert "craft: error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep", "criticality"])
    @pytest.mark.parametrize("out_dir", ["missing", "m.w"])  # absent; a file, not a directory
    def test_unusable_output_directory_exits_2(self, capsys, tmp_path, command, out_dir):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        code, _, err = run(capsys, command, "--model", str(model), "--trials", "1",
                           "--out", str(tmp_path / out_dir / "o"))
        assert code == 2
        assert "output directory" in err and "Traceback" not in err


class TestImpossibleTrials:
    """A --trials whose results no host could hold exits 1 with one error
    line, before any trial and before any CSV is written."""

    @pytest.mark.parametrize("command", ["sweep", "criticality"])
    @pytest.mark.parametrize("trials", ["1000000000000000", "1000000000000000000"])
    def test_exits_1(self, capsys, tmp_path, monkeypatch, command, trials):
        model, _ = train_default(capsys, tmp_path, "m.w")

        def started(*args, **kwargs):
            raise AssertionError("the run started")
        monkeypatch.setattr(harness, "_Readbacks", started)
        code, _, err = run(capsys, command, "--model", str(model), "--trials", trials,
                           "--out", str(tmp_path / "o"))
        assert code == 1
        [line] = err.splitlines()
        assert line.startswith(f"craft: error: bad {command} flags: ")
        assert line.endswith(f"trial results, more than {MAX_TRIAL_RESULTS}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.w"]


class TestImpossibleSizes:
    """A dataset or model that no host could hold exits 1 with one error
    line, before it is allocated and before any file is written."""

    @pytest.mark.parametrize("flags, rule", [
        (["--samples", "4000000000000000"],
         f"4000000000000000 samples x 16 features exceed {nn.MAX_DATASET_VALUES} values"),
        (["--features", "1000000000000000"],
         f"4000 samples x 1000000000000000 features exceed {nn.MAX_DATASET_VALUES} values"),
        (["--hidden", "1000000000000000"],
         f"21000000000000004 parameters, more than {nn.MAX_PARAMETERS}"),
    ], ids=["samples", "features", "hidden"])
    def test_train_exits_1(self, capsys, tmp_path, flags, rule):
        code, _, err = run(capsys, "train", "--out", str(tmp_path / "m.w"), *flags)
        assert code == 1
        [line] = err.splitlines()
        assert line.startswith("craft: error: bad ") and line.endswith(rule), line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "criticality"])
    def test_run_exits_1(self, capsys, tmp_path, command):
        model, _ = train_default(capsys, tmp_path, "m.w")
        code, _, err = run(capsys, command, "--model", str(model), "--trials", "1",
                           "--samples", "4000000000000000", "--out", str(tmp_path / "o"))
        assert code == 1
        [line] = err.splitlines()
        assert line == (f"craft: error: bad dataset flags: 4000000000000000 samples x 16 "
                        f"features exceed {nn.MAX_DATASET_VALUES} values")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.w"]


class TestOutputChecks:
    """Every command rejects an unusable --out (or sidecar) directory, and an
    output path that is itself a directory, before any work."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the work started")
        for name in ("train", "store_words", "load_blocks", "decode_words",
                     "ber_sweep", "bit_criticality"):
            monkeypatch.setattr(cli, name, fail)

    @pytest.fixture
    def inputs(self, tmp_path, u8_model):
        """A weight file, a fault map over it, and its block file with sidecar."""
        blocks, layout = flatten_model(u8_model)
        save_model(u8_model, tmp_path / "m.w")
        save_fault_map(generate_fault_map(layout.n_blocks * PAYLOAD_BITS, 1e-2, 0.5, 3),
                       tmp_path / "faults.txt")
        save_blocks(blocks, layout, tmp_path / "m.blk")
        save_sidecar(np.zeros(layout.n_blocks, dtype=np.int64), tmp_path / "m.aux")
        return tmp_path

    def check_exit(self, capsys, *argv, reason="output directory"):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert reason in err and "Traceback" not in err, err

    @pytest.mark.parametrize("out_dir", ["missing", "m.w"])  # absent; a file, not a directory
    def test_train(self, capsys, inputs, out_dir):
        self.check_exit(capsys, "train", "--out", str(inputs / out_dir / "o.w"))

    @pytest.mark.parametrize("out_dir", ["missing", "m.w"])
    def test_encode_file(self, capsys, inputs, out_dir):
        self.check_exit(capsys, "encode-file", "--in", str(inputs / "m.w"),
                        "--fault-map", str(inputs / "faults.txt"),
                        "--out", str(inputs / out_dir / "o.blk"))

    def test_encode_file_sidecar(self, capsys, inputs):
        self.check_exit(capsys, "encode-file", "--in", str(inputs / "m.w"),
                        "--fault-map", str(inputs / "faults.txt"),
                        "--out", str(inputs / "o.blk"),
                        "--sidecar", str(inputs / "missing" / "o.aux"))
        assert not (inputs / "o.blk").exists()

    @pytest.mark.parametrize("sidecar", ["o.blk", "./o.blk"])
    def test_encode_file_sidecar_is_the_output(self, capsys, inputs, monkeypatch, sidecar):
        monkeypatch.chdir(inputs)
        before = sorted(p.name for p in inputs.iterdir())
        code, _, err = run(capsys, "encode-file", "--in", "m.w", "--fault-map", "faults.txt",
                           "--out", "o.blk", "--sidecar", sidecar)
        assert code == 1
        assert "--out" in err and "--sidecar" in err and "Traceback" not in err, err
        assert sorted(p.name for p in inputs.iterdir()) == before

    @pytest.mark.parametrize("out_dir", ["missing", "m.w"])
    def test_decode_file(self, capsys, inputs, out_dir):
        self.check_exit(capsys, "decode-file", "--in", str(inputs / "m.blk"),
                        "--sidecar", str(inputs / "m.aux"),
                        "--out", str(inputs / out_dir / "o.w"))

    @pytest.mark.parametrize("command, outs", [
        (["train"], ["--out", "{d}"]),
        (["train"], ["--out", "{d}/"]),
        (["criticality", "--model", "{m}", "--trials", "1"], ["--out", "{d}"]),
        (["sweep", "--model", "{m}", "--trials", "1", "--ber", "1e-3"],
         ["--out", "{d}/s"]),   # {d}/s_raw.csv is a directory
        (["sweep", "--model", "{m}", "--trials", "1", "--ber", "1e-3"],
         ["--out", "{d}/t"]),   # {d}/t_summary.csv is a directory
        (["encode-file", "--in", "{m}", "--fault-map", "{f}"], ["--out", "{d}"]),
        (["encode-file", "--in", "{m}", "--fault-map", "{f}"],
         ["--out", "{d}/o.blk", "--sidecar", "{d}"]),
        (["encode-file", "--in", "{m}", "--fault-map", "{f}"],
         ["--out", "{d}/p.blk"]),   # the default sidecar {d}/p.blk.aux is a directory
        (["decode-file", "--in", "{b}", "--sidecar", "{a}"], ["--out", "{d}"]),
    ], ids=["train", "train_slash", "criticality", "sweep_raw", "sweep_summary",
            "encode_file", "encode_file_sidecar", "encode_file_default_sidecar",
            "decode_file"])
    def test_output_that_is_a_directory(self, capsys, inputs, command, outs):
        d = inputs / "d"
        for name in ("s_raw.csv", "t_summary.csv", "p.blk.aux"):
            (d / name).mkdir(parents=True)
        paths = {"d": d, "m": inputs / "m.w", "f": inputs / "faults.txt",
                 "b": inputs / "m.blk", "a": inputs / "m.aux"}
        argv = [arg.format(**paths) for arg in command + outs]
        self.check_exit(capsys, *argv, reason="is a directory, not a file")
        assert sorted(p.name for p in d.iterdir()) == ["p.blk.aux", "s_raw.csv",
                                                         "t_summary.csv"]


def u8_container(magic: bytes, scale: float) -> bytes:
    """A file holding one 16 x 4 u8 layer with quantization `scale`: the
    header, then 64 codes, which are also a block file's one block."""
    return (magic + struct.pack("<BI", 1, 1) + struct.pack("<II", 16, 4)
            + struct.pack("<di", scale, 128) + bytes(4 * 4) + bytes(64))


def model_reader_argv(tmp_path, command):
    """Arguments that make `command` read the weight file m.w in `tmp_path`,
    beside an empty fault map faults.txt over one block."""
    (tmp_path / "faults.txt").write_text("512 0.0 0.5 0\n")
    if command == "encode-file":
        return ["--in", str(tmp_path / "m.w"), "--fault-map", str(tmp_path / "faults.txt"),
                "--out", str(tmp_path / "o.blk")]
    return ["--model", str(tmp_path / "m.w"), "--trials", "1", "--out", str(tmp_path / "o")]


NONFINITE_SCALES = pytest.mark.parametrize("scale", [float("nan"), float("inf"),
                                                     float("-inf")], ids=str)


class TestNonFiniteScale:
    """A u8 layer's scale must be a positive finite number in every file."""

    @NONFINITE_SCALES
    @pytest.mark.parametrize("command", ["encode-file", "sweep", "criticality"])
    def test_weight_file_exits_2(self, capsys, tmp_path, scale, command):
        (tmp_path / "m.w").write_bytes(u8_container(b"CRFTW1", scale))
        code, out, err = run(capsys, command, *model_reader_argv(tmp_path, command))
        assert code == 2
        assert "cannot read model file" in err and "Traceback" not in err
        assert "nan" not in out
        assert sorted(f.name for f in tmp_path.iterdir()) == ["faults.txt", "m.w"]

    @NONFINITE_SCALES
    def test_block_file_exits_2(self, capsys, tmp_path, scale):
        (tmp_path / "m.blk").write_bytes(u8_container(b"CRFTB1", scale))
        (tmp_path / "m.aux").write_text("0 00\n")
        code, _, err = run(capsys, "decode-file", "--in", str(tmp_path / "m.blk"),
                           "--sidecar", str(tmp_path / "m.aux"), "--out", str(tmp_path / "o.w"))
        assert code == 2
        assert "does not describe a model" in err and "Traceback" not in err
        assert not (tmp_path / "o.w").exists()

    def test_finite_scale_is_read(self, capsys, tmp_path):
        (tmp_path / "m.w").write_bytes(u8_container(b"CRFTW1", 0.5))
        (tmp_path / "faults.txt").write_text("512 0.0 0.5 0\n")
        code, _, err = run(capsys, "encode-file", "--in", str(tmp_path / "m.w"),
                           "--fault-map", str(tmp_path / "faults.txt"),
                           "--out", str(tmp_path / "o.blk"))
        assert code == 0, err
        assert load_model(tmp_path / "m.w").layers[0].scale == 0.5


# Headers of models without weights: two fp32 layers, 16 x 0 and 0 x 4 (then
# the second layer's four biases), or no layers at all.
EMPTY_MODELS = pytest.mark.parametrize("header, reason", [
    (struct.pack("<BI", 0, 2) + struct.pack("<II", 16, 0) + struct.pack("<II", 0, 4)
     + bytes(4 * 4), "dims must be positive"),
    (struct.pack("<BI", 0, 0), "at least one layer"),
], ids=["zero_size_layer", "no_layers"])


class TestEmptyModel:
    """A model without weights is rejected when its header is read."""

    @EMPTY_MODELS
    @pytest.mark.parametrize("command", ["encode-file", "sweep", "criticality"])
    def test_weight_file_exits_2(self, capsys, tmp_path, command, header, reason):
        (tmp_path / "m.w").write_bytes(b"CRFTW1" + header)
        code, out, err = run(capsys, command, *model_reader_argv(tmp_path, command))
        assert code == 2
        assert "cannot read model file" in err and reason in err
        assert "Traceback" not in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["faults.txt", "m.w"]

    @EMPTY_MODELS
    def test_block_file_exits_2(self, capsys, tmp_path, header, reason):
        (tmp_path / "m.blk").write_bytes(b"CRFTB1" + header)
        (tmp_path / "m.aux").write_text("")
        code, _, err = run(capsys, "decode-file", "--in", str(tmp_path / "m.blk"),
                           "--sidecar", str(tmp_path / "m.aux"), "--out", str(tmp_path / "o.w"))
        assert code == 2
        assert "cannot read block file" in err and reason in err
        assert "Traceback" not in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["m.aux", "m.blk"]


# A header that declares one 4 x 0xFFFFFFFF fp32 layer and ends there: the
# biases alone would be 16 GiB.
OVERSIZED_HEADER = struct.pack("<BI", 0, 1) + struct.pack("<II", 4, 0xFFFFFFFF)
ADDRESS_CAP = 1 << 30


def run_capped(cwd, *argv):
    """The CLI in a child process whose address space is capped at 1 GiB, so
    an attempt to allocate a declared size fails instead of succeeding."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))
    env = dict(os.environ, PYTHONPATH=str(Path(craft.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "craft.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, preexec_fn=cap, timeout=120)


class TestOversizedHeader:
    def test_block_file_exits_2_without_allocating(self, tmp_path):
        (tmp_path / "big.blk").write_bytes(b"CRFTB1" + OVERSIZED_HEADER)
        (tmp_path / "big.aux").write_text("0 00\n")
        proc = run_capped(tmp_path, "decode-file", "--in", "big.blk", "--sidecar", "big.aux",
                          "--out", "o.w")
        assert proc.returncode == 2, proc.stderr
        assert "truncated file" in proc.stderr and "Traceback" not in proc.stderr

    def test_weight_file_exits_2_without_allocating(self, tmp_path):
        (tmp_path / "big.w").write_bytes(b"CRFTW1" + OVERSIZED_HEADER)
        (tmp_path / "faults.txt").write_text("512 0.0 0.5 0\n")
        proc = run_capped(tmp_path, "encode-file", "--in", "big.w", "--fault-map",
                          "faults.txt", "--out", "o.blk")
        assert proc.returncode == 2, proc.stderr
        assert "truncated file" in proc.stderr and "Traceback" not in proc.stderr


class TestOutOfMemory:
    """Sizes within the caps that the host cannot hold end in one error line."""

    @pytest.mark.parametrize("sizes", [
        pytest.param(["--hidden", "9000,9000"], id="hidden"),
        pytest.param(["--samples", "1000000", "--features", "100"], id="dataset"),
    ])
    def test_train_exits_1_without_traceback(self, tmp_path, sizes):
        proc = run_capped(tmp_path, "train", "--out", "t.w", "--epochs", "1", *sizes)
        assert proc.returncode == 1, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("craft: error: out of memory: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "t.w").exists()


class TestConfigOverlay:
    def test_config_file_overrides_flags(self, capsys, tmp_path):
        model, _ = train_default(capsys, tmp_path, "m.w", "--quantize")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=3\nseed=11\n")
        code, out, _ = run(capsys, "sweep", "--model", str(model),
                           "--schemes", "baseline", "--ber", "1e-3",
                           "--trials", "1", "--config", str(cfg),
                           "--out", str(tmp_path / "s"))
        assert code == 0
        assert "config trials=3" in out
        assert "config seed=11" in out
        lines = (tmp_path / "s_raw.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    @pytest.mark.parametrize("first, last", [("--config", "--config="), ("--config=", "--config")])
    def test_both_spellings_overlay_and_the_last_wins(self, capsys, tmp_path, u8_model,
                                                      first, last):
        model = tmp_path / "m.w"
        save_model(u8_model, model)
        (tmp_path / "a.cfg").write_text("trials=3\n")
        (tmp_path / "b.cfg").write_text("trials=2\n")
        spell = lambda flag, path: [flag + path] if flag.endswith("=") else [flag, path]
        code, out, err = run(capsys, "criticality", "--model", str(model), "--trials", "1",
                             "--out", str(tmp_path / "c.csv"),
                             *spell(first, str(tmp_path / "a.cfg")),
                             *spell(last, str(tmp_path / "b.cfg")))
        assert code == 0, err
        assert "config trials=2" in out.splitlines()

    def test_config_file_supplies_required_flags(self, capsys, tmp_path, u8_model):
        save_model(u8_model, tmp_path / "m.w")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model={tmp_path / 'm.w'}\nout={tmp_path / 'c.csv'}\ntrials=1\n")
        code, _, err = run(capsys, "criticality", "--config", str(cfg))
        assert code == 0, err
        assert (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("argv", [["--conf", "{cfg}"], ["--conf={cfg}"], ["--hid", "4"],
                                      ["--config"]],
                             ids=["conf", "conf=", "hid", "bare-config"])
    def test_abbreviated_or_bare_flag_exits_1(self, capsys, tmp_path, argv):
        # Flags match only when spelled in full, in the overlay and in the
        # subcommands alike, so an abbreviation is an unrecognized argument.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\n")
        out = tmp_path / "t.w"
        code, _, err = run(capsys, "train", "--out", str(out), "--epochs", "1",
                           *(a.format(cfg=cfg) for a in argv))
        assert code == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "train", "--out", str(tmp_path / "m.w"),
                         "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_config_file_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "train", "--out", str(tmp_path / "m.w"),
                           "--config", str(cfg))
        assert code == 2
        assert f"cannot read config file {cfg}" in err and "Traceback" not in err

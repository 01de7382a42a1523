"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The regression constants
below were frozen from the first validated run of the deterministic
pipeline; everything is seeded, so they reproduce exactly.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from craft import nn
from craft.bitops import u32_from_bits
from craft.codecs import (ALL_CONFIGS, REMAP_CONFIGS, REMAP_INVERT_CONFIGS,
                          Precision, craft_overhead, decode_words, ecp_overhead,
                          ecp_words, encode_words)
from craft.harness import (Scheme, ber_sweep, bit_criticality, default_ber_grid,
                           robustness_improvement, second_zero_exponent_bit)
from craft.memory import FaultMap, generate_fault_map, stuck_words
from craft.objective import WeightView, search_best_encoding, store_words
from craft.cli import main

# frozen after the first validated run of each deterministic experiment
FROZEN_RATIO_FP32 = 68.38087806502098
FROZEN_RATIO_U8 = 1.3655918674735505

U8_UNIT = WeightView(Precision.U8, scale=1.0, zero_point=0)


@contextmanager
def criterion(num, name):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.time() - start:.1f}s)")


def single_cell_map(pos, stuck, region=512):
    return FaultMap(region, np.array([pos]), np.array([stuck], dtype=np.uint8),
                    0.0, 0.5, 0)


def test_01_codec_conformance():
    with criterion(1, "codec round-trip, 10k payloads x 64 configs, <10s"):
        rng = np.random.default_rng(424242)
        words = u32_from_bits(rng.integers(0, 2, (10_000, 512)).astype(np.uint8))
        start = time.time()
        for prec in Precision:
            for cfg in ALL_CONFIGS:
                codes = np.full(len(words), cfg.aux_code)
                out = decode_words(encode_words(words, codes, prec), codes, prec)
                assert np.array_equal(out, words)
        assert time.time() - start < 10.0


def test_02_switch_vector():
    with criterion(2, "bit switching maps 0b01110101 to 0b01010111"):
        words = np.zeros((1, 16), dtype=np.uint32)
        words[0, 0] = 0b01110101  # byte 0 of the block
        switch_only = [0x20]
        encoded = encode_words(words, switch_only, Precision.U8)
        assert encoded[0, 0] & 0xFF == 0b01010111


def test_03_single_fault_guarantee():
    with criterion(3, "single stuck cell always recoverable, exhaustive"):
        rng = np.random.default_rng(31173)
        payloads = rng.integers(0, 2, (100, 512)).astype(np.uint8)
        # One block per (payload, position, stuck value), in that nesting
        # order, each holding its single stuck cell, searched in one call.
        cases = len(payloads) * 512 * 2
        words = np.repeat(u32_from_bits(payloads), 512 * 2, axis=0)
        positions = np.tile(np.repeat(np.arange(512), 2), len(payloads))
        values = np.tile(np.array([0, 1], dtype=np.uint8), len(payloads) * 512)
        fmap = FaultMap(cases * 512, np.arange(cases) * 512 + positions, values, 0.0, 0.5, 0)
        mask, stuck = stuck_words(fmap, 0, cases)
        codes, _, deltas = store_words(words, mask, stuck, Precision.U8, np.ones(cases))
        assert np.all(deltas == 0.0)
        # the bit-level search agrees case by case on the first payload
        for i in range(512 * 2):
            report = search_best_encoding(payloads[0], single_cell_map(positions[i], values[i]),
                                          0, U8_UNIT)
            assert report.best_delta == deltas[i] == 0.0
            assert report.best_config.aux_code == codes[i]


def test_04_config_space_nesting():
    with criterion(4, "delta nesting craft <= remap+inv <= remap <= identity, 1000 cases"):
        for i in range(1000):
            gen = np.random.default_rng(5000 + i)
            x = gen.integers(0, 2, 512).astype(np.uint8)
            fmap = generate_fault_map(512, 1e-2, 0.5, 5000 + i)
            view = U8_UNIT if i % 2 == 0 else WeightView(Precision.FP32)
            d64 = search_best_encoding(x, fmap, 0, view).best_delta
            d32 = search_best_encoding(x, fmap, 0, view, REMAP_INVERT_CONFIGS).best_delta
            d16 = search_best_encoding(x, fmap, 0, view, REMAP_CONFIGS).best_delta
            d1 = search_best_encoding(x, fmap, 0, view, ALL_CONFIGS[:1]).best_delta
            assert d64 <= d32 <= d16 <= d1


def test_05_overhead_formulas():
    with criterion(5, "overheads: ecp(1,512)=11/512, aux(6,512)=6/512, exact"):
        assert ecp_overhead(1, 512) == 11 / 512
        assert craft_overhead(6, 512) == 6 / 512
        assert abs(ecp_overhead(1, 512) - 0.0215) < 1e-4
        assert abs(craft_overhead(6, 512) - 0.0117) < 1e-4


def test_06_ecp1_semantics():
    with criterion(6, "ecp1 exact with <=1 mismatch, exhaustive positions"):
        rng = np.random.default_rng(90210)
        for _ in range(3):
            x = u32_from_bits(rng.integers(0, 2, (1, 512)).astype(np.uint8))
            for pos in range(512):
                for value in (0, 1):
                    mask, stuck = stuck_words(single_cell_map(pos, value))
                    mismatching = mask & (x ^ stuck)
                    assert sum(bin(int(w)).count("1") for w in mismatching[0]) <= 1
                    assert np.array_equal(ecp_words(x, mask, stuck, 1), x)


def test_07_bit_criticality(fp32_model, u8_model, default_dataset):
    with criterion(7, "criticality: u8 MSB and fp32 bit30/SZOB dominate, <2min"):
        start = time.time()
        crit_u8 = bit_criticality(u8_model, default_dataset, ber=1e-3, trials=100,
                                  base_seed=7)
        deltas = {p.position: p.mean_delta for p in crit_u8.points}
        assert len(deltas) == 8
        assert max(deltas, key=deltas.get) == 7

        crit_fp = bit_criticality(fp32_model, default_dataset, ber=1e-3, trials=100,
                                  base_seed=7)
        fp = {p.position: p.mean_delta for p in crit_fp.points}
        assert len(fp) == 32
        szob = second_zero_exponent_bit(fp32_model)
        assert 23 <= szob <= 29
        mantissa_max = max(fp[p] for p in range(23))
        assert fp[30] > mantissa_max
        assert fp[szob] > mantissa_max
        assert time.time() - start < 120.0


def test_08_sweep_dominance(fp32_model, u8_model, default_dataset):
    with criterion(8, "sweep: exact craft dominance, robustness ratio frozen, <10min"):
        start = time.time()
        bers = default_ber_grid(1e-4, 1e-1, 5)
        schemes = [Scheme.parse("baseline"), Scheme.parse("craft")]

        base_fp, craft_fp = ber_sweep(fp32_model, default_dataset, schemes, bers,
                                      100, 7)
        for rb, rc in zip(base_fp.records, craft_fp.records):
            assert rc.total_delta <= rb.total_delta
        ratio_fp = robustness_improvement(craft_fp, base_fp)
        assert ratio_fp.ratio > 1.0
        assert not ratio_fp.censored
        assert ratio_fp.ratio == pytest.approx(FROZEN_RATIO_FP32, rel=1e-9)

        base_u8, craft_u8 = ber_sweep(u8_model, default_dataset, schemes, bers,
                                      100, 7)
        for rb, rc in zip(base_u8.records, craft_u8.records):
            assert rc.total_delta <= rb.total_delta
        ratio_u8 = robustness_improvement(craft_u8, base_u8)
        # the quantized model never leaves the error budget inside the grid,
        # so its ratio is a censored lower bound; still must exceed 1
        assert ratio_u8.ratio > 1.0
        assert ratio_u8.censored_a and not ratio_u8.censored_b
        assert ratio_u8.ratio == pytest.approx(FROZEN_RATIO_U8, rel=1e-9)

        assert time.time() - start < 600.0


def test_09_cli_determinism(tmp_path, capsys):
    with criterion(9, "CLI commands are byte-identical across reruns"):
        outputs = {}
        for tag in ("x", "y"):
            d = tmp_path / tag
            d.mkdir()
            stdout = []

            def run(*argv):
                assert main(list(argv)) == 0
                captured = capsys.readouterr()
                stdout.append(captured.out.replace(str(d), "<dir>"))

            model = d / "m.w"
            run("train", "--out", str(model), "--quantize", "--epochs", "8")
            run("sweep", "--model", str(model), "--schemes", "baseline,craft",
                "--ber", "1e-3,1e-2", "--trials", "2", "--seed", "5",
                "--out", str(d / "s"))
            run("criticality", "--model", str(model), "--trials", "2",
                "--seed", "5", "--out", str(d / "crit.csv"))
            fmap = generate_fault_map(26 * 512, 1e-3, 0.5, 11)
            from craft.memory import save_fault_map
            save_fault_map(fmap, d / "faults.txt")
            run("encode-file", "--in", str(model), "--out", str(d / "m.blk"),
                "--fault-map", str(d / "faults.txt"))
            run("decode-file", "--in", str(d / "m.blk"),
                "--sidecar", str(d / "m.blk.aux"), "--out", str(d / "m2.w"),
                "--reference", str(model))
            outputs[tag] = {
                "stdout": stdout,
                "files": {p.name: p.read_bytes() for p in sorted(d.iterdir())},
            }
        assert outputs["x"]["stdout"] == outputs["y"]["stdout"]
        assert outputs["x"]["files"].keys() == outputs["y"]["files"].keys()
        for name in outputs["x"]["files"]:
            assert outputs["x"]["files"][name] == outputs["y"]["files"][name], name


def test_10_nn_engine_checks(fp32_model, u8_model, default_dataset):
    with criterion(10, "gradient check, quantization bound, accuracy gap"):
        # analytic vs central finite differences on a 2-3-2 model
        gen = np.random.default_rng(2718)
        for _ in range(100):
            weights = [gen.normal(size=(2, 3)), gen.normal(size=(3, 2))]
            biases = [gen.normal(size=3), gen.normal(size=2)]
            x = gen.normal(size=(4, 2))
            y = gen.integers(0, 2, size=4)
            _, gw, gb = nn.gradients(weights, biases, x, y)
            analytic = np.concatenate([g.ravel() for g in gw + gb])
            numeric = []
            h = 1e-6
            for arr in weights + biases:
                flat = arr.reshape(-1)
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + h
                    up = nn.gradients(weights, biases, x, y)[0]
                    flat[i] = keep - h
                    down = nn.gradients(weights, biases, x, y)[0]
                    flat[i] = keep
                    numeric.append((up - down) / (2 * h))
            numeric = np.array(numeric)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-4

        # per-weight quantization error bound
        for w, layer in zip(fp32_model.weights, u8_model.layers):
            dequant = layer.scale * (layer.codes.astype(np.float64) - layer.zero_point)
            assert np.abs(dequant - w.astype(np.float64)).max() <= layer.scale / 2 + 1e-6

        # quantized accuracy within 2 points of fp32
        acc_fp = nn.accuracy(fp32_model, default_dataset.test_inputs,
                             default_dataset.test_labels)
        acc_q = nn.accuracy(u8_model, default_dataset.test_inputs,
                            default_dataset.test_labels)
        assert acc_fp >= 0.95
        assert abs(acc_fp - acc_q) <= 0.02

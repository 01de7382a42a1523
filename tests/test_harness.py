import hashlib
import json
import math
import pathlib
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from craft import harness, nn
from craft.codecs import PAYLOAD_BITS
from craft.harness import (DEFAULT_SA1_FRACTION, MAX_BER_GRID_POINTS, MAX_TRIAL_RESULTS,
                           BerPoint, CriticalityPoint, CriticalityResult, Scheme, SweepResult,
                           _apply_schemes, _Readbacks, _segment_sums, _summaries, ber_sweep,
                           bit_criticality, check_trials, default_ber_grid,
                           robustness_improvement,
                           second_zero_exponent_bit, write_criticality_csv,
                           write_raw_csv, write_summary_csv)
from craft.memory import (FaultMap, apply_stuck, generate_fault_map, generate_fault_maps,
                          stuck_words)
from craft.nn import MlpModel, accuracy
from craft.objective import NONFINITE_SENTINEL, best_encodings, deviation_words
from craft.prng import make_rng, trial_seed
from craft.weightfile import flatten_model, unflatten_model

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from readbacks import float64_weights, reference_error, scheme_readbacks, weights_differ

SCHEMES = [Scheme.parse(s) for s in ("baseline", "ecp1", "remap_invert", "craft")]


def sweep_from_errors(bers, errors, fault_free=0.0, scheme="x"):
    points = tuple(BerPoint(b, e, 0.0, 0.0) for b, e in zip(bers, errors))
    return SweepResult(scheme=scheme, ber_points=points, trials=1, seed=0,
                       fault_free_error=fault_free, records=())


class TestScheme:
    def test_parse(self):
        assert Scheme.parse("baseline").name == "baseline"
        assert Scheme.parse("ecp").name == "ecp1"
        assert Scheme.parse("ecp3").name == "ecp3"
        assert Scheme.parse("remap_invert").name == "remap_invert"
        assert Scheme.parse("craft").name == "craft"
        with pytest.raises(ValueError):
            Scheme.parse("hamming")
        with pytest.raises(ValueError, match="unknown scheme"):
            Scheme.parse("ecp\u0663")  # an Arabic-Indic three

    @pytest.mark.parametrize("kind, ecp_n, message", [
        ("parity", 1, "unknown scheme 'parity'"),
        ("ecp", 0, "ecp needs at least one pointer"),
    ])
    def test_direct_construction_checks_its_fields(self, kind, ecp_n, message):
        with pytest.raises(ValueError, match=message):
            Scheme(kind, ecp_n)

    def test_config_spaces_nest(self):
        assert Scheme("craft").n_configs == 64
        assert Scheme("remap_invert").n_configs == 32
        assert Scheme("baseline").n_configs == 0
        assert Scheme.parse("ecp3").n_configs == 0


class TestRunTrial:
    """Trial results of one scheme and fault map at a time, through ber_sweep
    or straight through the scheme and readback steps it runs."""

    def test_zero_ber_matches_fault_free(self, u8_model, default_dataset):
        clean_err = 1.0 - accuracy(u8_model, default_dataset.test_inputs,
                                   default_dataset.test_labels)
        schemes = [Scheme.parse(s) for s in ("baseline", "ecp1", "craft")]
        for res in ber_sweep(u8_model, default_dataset, schemes, [0.0], 1, 3):
            [record] = res.records
            assert record.classification_error == clean_err
            assert record.total_delta == 0.0

    def test_full_ber_all_sa1_reads_all_ones(self, u8_model, default_dataset):
        blocks, layout = flatten_model(u8_model)
        fmap = generate_fault_map(layout.n_blocks * PAYLOAD_BITS, 1.0, 1.0, 3)
        _, [[err]] = _Readbacks(blocks, layout, default_dataset).score(
            *_apply_schemes(blocks, layout, [Scheme.parse("baseline")], [fmap]))
        saturated = nn.QuantizedModel(layers=tuple(
            nn.QuantizedLayer(codes=np.full_like(l.codes, 255), scale=l.scale,
                              zero_point=l.zero_point, biases=l.biases)
            for l in u8_model.layers
        ))
        expected = 1.0 - accuracy(saturated, default_dataset.test_inputs,
                                  default_dataset.test_labels)
        assert err == expected

    def test_craft_delta_never_above_baseline(self, u8_model, default_dataset):
        # trial t of a sweep from seed 0 has seed t: seeds 0 to 49
        schemes = [Scheme.parse("baseline"), Scheme.parse("craft")]
        base, best = ber_sweep(u8_model, default_dataset, schemes, [1e-3], 50, 0)
        for rb, rc in zip(base.records, best.records, strict=True):
            assert rc.total_delta <= rb.total_delta

    def test_scheme_delta_nesting_is_exact(self, u8_model, default_dataset):
        schemes = [Scheme.parse(s) for s in ("baseline", "remap_invert", "craft")]
        base, ri, full = ber_sweep(u8_model, default_dataset, schemes, [3e-3], 10, 0)
        for rb, rr, rf in zip(base.records, ri.records, full.records, strict=True):
            assert rf.total_delta <= rr.total_delta <= rb.total_delta

    def test_ecp1_with_single_mismatch_per_block_is_exact(self, u8_model, default_dataset):
        blocks, layout = flatten_model(u8_model)
        # one mismatching cell in every block
        entries_idx, entries_val = [], []
        for b in range(layout.n_blocks):
            word, k = divmod(b * 13 % PAYLOAD_BITS, 32)
            entries_idx.append(b * PAYLOAD_BITS + word * 32 + k)
            entries_val.append(1 - (int(blocks[b, word]) >> k & 1))
        fmap = FaultMap(layout.n_blocks * PAYLOAD_BITS, np.array(entries_idx),
                        np.array(entries_val, dtype=np.uint8), 0.0, 0.5, 0)
        read, total = scheme_readbacks(blocks, layout, [Scheme.parse("ecp1")], fmap)[0]
        assert np.array_equal(read, blocks)
        assert total == 0.0


class TestBerSweep:
    def test_reproducible_single_trial(self, u8_model, default_dataset):
        schemes = [Scheme.parse("baseline"), Scheme.parse("craft")]
        a = ber_sweep(u8_model, default_dataset, schemes, [1e-3, 1e-2], 1, 5)
        b = ber_sweep(u8_model, default_dataset, schemes, [1e-3, 1e-2], 1, 5)
        assert a == b

    def test_threads_do_not_change_results(self, u8_model, default_dataset):
        # Trials run in the calling thread; a rerun reproduces every record
        # in (ber, trial) order, and no other thread count is accepted.
        schemes = [Scheme.parse("baseline"), Scheme.parse("craft")]
        first = ber_sweep(u8_model, default_dataset, schemes, [1e-3, 1e-2], 4, 5)
        again = ber_sweep(u8_model, default_dataset, schemes, [1e-3, 1e-2], 4, 5,
                          threads=1)
        assert first == again
        for res in first:
            assert [(r.ber, r.trial) for r in res.records] == \
                [(ber, t) for ber in (1e-3, 1e-2) for t in range(4)]
        with pytest.raises(ValueError, match="threads must be 1"):
            ber_sweep(u8_model, default_dataset, schemes, [1e-3, 1e-2], 4, 5, threads=2)

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The arguments of every grid of fault maps that the sweep draws."""
        calls = []
        draw = harness.generate_fault_maps

        def counted(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_fault_maps", counted)
        return calls

    def test_one_draw_per_trial(self, drawn, u8_model, default_dataset):
        """Trial t draws its whole BER grid once, from seed trial_seed(base, t)."""
        _, layout = flatten_model(u8_model)
        bers = [1e-2, 0.0, 1e-3, 1e-2]
        ber_sweep(u8_model, default_dataset, [Scheme.parse("baseline")], bers, 3, 2**64 - 2)
        region = layout.n_blocks * PAYLOAD_BITS
        assert drawn == [(region, bers, DEFAULT_SA1_FRACTION, trial_seed(2**64 - 2, t))
                         for t in range(3)]

    @pytest.mark.parametrize("bad", [2.0, float("nan")])
    def test_bad_ber_rejected_before_any_trial(self, drawn, u8_model, default_dataset, bad):
        """Every BER is checked before the first fault map is drawn (a check
        in the trial loop would draw 51 maps first)."""
        with pytest.raises(ValueError, match=re.escape(f"ber must be in [0, 1], got {bad}")):
            ber_sweep(u8_model, default_dataset, [Scheme.parse("craft")], [1e-3, bad], 50, 7)
        assert len(drawn) == 0

    def test_repeated_scheme_rejected_before_any_trial(self, drawn, u8_model, default_dataset):
        """`ecp` and `ecp1` name one scheme, whose rows would appear twice."""
        schemes = [Scheme.parse(s) for s in ("craft", "ecp", "ecp1")]
        with pytest.raises(ValueError, match="repeated scheme in craft,ecp1,ecp1"):
            ber_sweep(u8_model, default_dataset, schemes, [1e-3], 5, 7)
        assert len(drawn) == 0

    def test_row_counts(self, u8_model, default_dataset):
        schemes = [Scheme.parse("baseline"), Scheme.parse("craft")]
        results = ber_sweep(u8_model, default_dataset, schemes, [1e-3, 1e-2, 1e-1], 2, 5)
        assert len(results) == 2
        for res in results:
            assert len(res.ber_points) == 3
            assert len(res.records) == 6

    def test_paired_fault_maps_across_schemes(self, u8_model):
        # the pairing contract: same (ber, trial) means the identical map
        blocks, layout = flatten_model(u8_model)
        region = layout.n_blocks * PAYLOAD_BITS
        assert generate_fault_map(region, 1e-2, 0.5, 12) == \
            generate_fault_map(region, 1e-2, 0.5, 12)

    def test_baseline_error_trend_nondecreasing(self, u8_model, default_dataset):
        bers = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]
        results = ber_sweep(u8_model, default_dataset, [Scheme.parse("baseline")],
                            bers, 20, 9)
        points = results[0].ber_points
        for a, b in zip(points, points[1:]):
            slack = 2.0 * (a.std_error + b.std_error) / np.sqrt(20) + 1e-9
            assert b.mean_error >= a.mean_error - slack

    def test_csv_outputs(self, tmp_path, u8_model, default_dataset):
        schemes = [Scheme.parse("baseline"), Scheme.parse("craft")]
        results = ber_sweep(u8_model, default_dataset, schemes, [1e-3, 1e-2], 3, 5)
        raw, summary = tmp_path / "raw.csv", tmp_path / "summary.csv"
        write_raw_csv(results, raw)
        write_summary_csv(results, summary)
        raw_lines = raw.read_text().splitlines()
        assert raw_lines[0] == "scheme,ber,trial,classification_error,total_delta"
        assert len(raw_lines) == 1 + 2 * 2 * 3
        summary_lines = summary.read_text().splitlines()
        assert summary_lines[0] == "scheme,ber,mean_error,std_error,mean_delta"
        assert len(summary_lines) == 1 + 2 * 2
        # aggregated rows must equal recomputation from the raw rows
        rows = [line.split(",") for line in raw_lines[1:]]
        for sline in summary_lines[1:]:
            scheme, ber, mean_error, std_error, mean_delta = sline.split(",")
            errs = np.array([float(r[3]) for r in rows if r[0] == scheme and r[1] == ber])
            deltas = np.array([float(r[4]) for r in rows if r[0] == scheme and r[1] == ber])
            assert float(mean_error) == errs.mean()
            assert float(std_error) == errs.std(ddof=0)
            assert float(mean_delta) == deltas.mean()


def test_results_hold_python_floats(fp32_model, u8_model, default_dataset):
    """Every error and delta in a result is a float, not a numpy scalar,
    whose repr would reach the CSVs and the CLI's output."""
    for model in (fp32_model, u8_model):
        crit = bit_criticality(model, default_dataset, ber=1e-2, trials=2, base_seed=3)
        assert type(crit.fault_free_error) is float
        for p in crit.points:
            assert [type(v) for v in (p.position, p.mean_error, p.std_error, p.mean_delta)] \
                == [int, float, float, float]
        for res in ber_sweep(model, default_dataset, SCHEMES, [0.0, 1e-2], 2, 3):
            assert type(res.fault_free_error) is float
            for p in res.ber_points:
                assert {type(v) for v in (p.ber, p.mean_error, p.std_error, p.mean_delta)} \
                    == {float}
            for r in res.records:
                assert {type(r.classification_error), type(r.total_delta)} == {float}


def test_segment_sums_add_left_to_right():
    """Each segment's total equals a plain left-to-right loop, bit for bit,
    at lengths where numpy's pairwise sum would round differently; an empty
    segment, first, inside or last, sums to 0."""
    gen = np.random.default_rng(5)
    reordered = False
    lengths = [0, 1, 2, 7, 0, 100, 1000, 0]
    d = gen.random((3, sum(lengths))) * 10.0 ** gen.integers(-8, 9, size=(3, sum(lengths)))
    d[2, ::7] = NONFINITE_SENTINEL
    got = _segment_sums(d, np.repeat(np.arange(len(lengths)), lengths), len(lengths))
    assert got.shape == (3, len(lengths))
    ends = np.cumsum(lengths).tolist()
    for row, totals in zip(d, got.tolist()):
        for start, end, total in zip([0] + ends, ends, totals):
            want = 0.0
            for x in row[start:end].tolist():
                want += x
            assert total == want
            reordered |= total != math.fsum(row[start:end])
    assert reordered


def reference_criticality(model, dataset, ber, trials, base_seed):
    """bit_criticality as one fresh draw and fault map per (position, trial),
    with a rebuilt model and an inference on every readback.  Also returns
    how many readbacks hold float64 weights that differ from the fault-free
    ones."""
    blocks, layout = flatten_model(model)
    word_bits = layout.precision.word_bits
    region = layout.n_blocks * PAYLOAD_BITS
    n_words = region // word_bits
    fault_free = reference_error(blocks, layout, dataset)
    points, differing = [], 0
    for position in range(word_bits):
        errs = np.empty(trials)
        deltas = np.empty(trials)
        for t in range(trials):
            rng = make_rng(trial_seed(base_seed, t))
            stuck = rng.random(n_words) < ber
            values = (rng.random(int(stuck.sum())) < DEFAULT_SA1_FRACTION).astype(np.uint8)
            indices = np.flatnonzero(stuck).astype(np.int64) * word_bits + position
            fmap = FaultMap(region, indices, values, ber, DEFAULT_SA1_FRACTION,
                            trial_seed(base_seed, t))
            read, total = scheme_readbacks(blocks, layout, [Scheme("baseline")], fmap)[0]
            differing += weights_differ(read, blocks, layout)
            errs[t] = reference_error(read, layout, dataset)
            deltas[t] = total
        points.append(CriticalityPoint(position, float(errs.mean()),
                                       float(errs.std(ddof=0)), float(deltas.mean())))
    result = CriticalityResult(points=tuple(points), ber=ber, trials=trials,
                               seed=base_seed, fault_free_error=fault_free)
    return result, differing


def differing_sweep_readbacks(model, schemes, bers, trials, base_seed):
    """Sweep readbacks, over every (ber, trial, scheme), whose float64
    weights differ from the fault-free ones."""
    blocks, layout = flatten_model(model)
    region = layout.n_blocks * PAYLOAD_BITS
    differing = 0
    for ber in bers:
        for t in range(trials):
            fmap = generate_fault_map(region, ber, DEFAULT_SA1_FRACTION,
                                      trial_seed(base_seed, t))
            for scheme in schemes:
                read, _ = scheme_readbacks(blocks, layout, [scheme], fmap)[0]
                differing += weights_differ(read, blocks, layout)
    return differing


@pytest.fixture
def forward_passes(monkeypatch):
    """The first layer of every forward pass the harness's readback path
    runs, from the test's start.  The reference loops above infer through
    craft.nn, which the patch does not reach."""
    starts = []
    forward = harness._forward

    def counted(weights, biases, h, outs, start=0):
        starts.append(start)
        return forward(weights, biases, h, outs, start)

    monkeypatch.setattr(harness, "_forward", counted)
    return starts


def record_certificates(patch):
    """Record every pass of segmented readbacks that _Readbacks.score scores
    from now on, through `patch` (a pytest MonkeyPatch), as a list of
    [readbacks, touched, outs, ends, certified] entries, `certified` the
    (readbacks, segments) mask that the certificate passed (none when the
    pass had no candidate)."""
    batches = []
    score, certified = _Readbacks._score_pass, _Readbacks._certified

    def recording_score(self, touched, outs, ends):
        batches.append([self, touched, outs, ends,
                        np.zeros((len(outs), len(ends)), dtype=bool)])
        return score(self, touched, outs, ends)

    def recording_certified(self, *args):
        batches[-1][4] = passed = certified(self, *args)
        return passed

    patch.setattr(_Readbacks, "_score_pass", recording_score)
    patch.setattr(_Readbacks, "_certified", recording_certified)
    return batches


@pytest.fixture
def certificates(monkeypatch):
    return record_certificates(monkeypatch)


def n_certified(batches):
    return sum(int(passed.sum()) for *_, passed in batches)


def certified_reads(batches):
    """(readbacks, read) per certified readback of `batches`, in order,
    `read` the whole block stream it reads back."""
    for rb, touched, outs, ends, passed in batches:
        starts = [0, *ends[:-1].tolist()]
        for k, s in np.argwhere(passed).tolist():
            rows = slice(starts[s], int(ends[s]))
            read = rb.blocks.copy()
            read[touched[rows]] = outs[k, rows]
            yield rb, read


@pytest.fixture(params=["fp32", "u8"])
def model(request, fp32_model, u8_model):
    return fp32_model if request.param == "fp32" else u8_model


@pytest.fixture(params=["fp32", "u8", "odd_fp32", "odd_u8"])
def criticality_model(request, fp32_model, u8_model):
    """The trained models, and the 16-13-7-4 ones of :func:`odd_model`, whose
    partial last blocks hold pad slots and whose u8 layers have their own
    scales."""
    if request.param.startswith("odd_"):
        return odd_model(request.param[len("odd_"):])
    return fp32_model if request.param == "fp32" else u8_model


class TestUnchangedReadbacks:
    """Criticality draws each trial once for all positions, and both runs
    skip inference on readbacks whose weights equal the fault-free ones or
    that the certificate passes; none of these may change a result.  A run
    infers once for the fault-free error, then once per readback that
    changes a weight and is not certified."""

    @pytest.mark.parametrize("ber", [0.0, 1e-3, 1e-1, 1.0])
    @pytest.mark.parametrize("base_seed", [0, 7])
    def test_criticality_matches_per_position_reference(self, criticality_model,
                                                        default_dataset, ber, base_seed,
                                                        forward_passes, certificates):
        model = criticality_model
        expected, differing = reference_criticality(model, default_dataset, ber, 4,
                                                    base_seed)
        result = bit_criticality(model, default_dataset, ber=ber, trials=4,
                                 base_seed=base_seed)
        assert result == expected
        for got, want in zip(result.points, expected.points, strict=True):
            assert got == want
        assert len(forward_passes) == 1 + differing - n_certified(certificates)

    def test_sweep_infers_only_changed_readbacks(self, model, default_dataset, forward_passes,
                                                 certificates):
        bers = [0.0, 1e-3, 1e-2]
        differing = differing_sweep_readbacks(model, SCHEMES, bers, 3, 7)
        ber_sweep(model, default_dataset, SCHEMES, bers, 3, 7)
        assert len(forward_passes) == 1 + differing - n_certified(certificates)

    @pytest.mark.parametrize("bers", [[1e-3, 1e-2], [1e-2, 0.0, 1e-3, 1e-2]])
    def test_sweep_records_match_single_trials(self, u8_model, default_dataset, bers):
        """Every cell of a sweep, over an unsorted BER list with a repeat
        too, equals the one-trial sweep of its scheme, BER and seed, and the
        points keep the list's order."""
        results = ber_sweep(u8_model, default_dataset, SCHEMES, bers, 3, 7)
        for scheme, res in zip(SCHEMES, results, strict=True):
            assert [p.ber for p in res.ber_points] == bers
            for r in res.records:
                # a one-trial sweep's trial 0 has the sweep's seed
                [single] = ber_sweep(u8_model, default_dataset, [scheme], [r.ber], 1,
                                     trial_seed(7, r.trial))
                [one] = single.records
                assert (r.classification_error, r.total_delta) == \
                    (one.classification_error, one.total_delta)


#: SHA-256 of ``repr`` of the benchmark's sweep at seed 11 (see
#: :func:`test_sweep_outputs_are_pinned`), recorded before ber_sweep drew
#: one grid per trial.
SWEEP_REPR_SEED_11 = {
    "fp32": "df9ac7c7e49a7403adb38e0872c2c87c7623bac9e090acc5498c54b5be6f0bf2",
    "u8": "0b290b099290377da060c1d62af9cc50e12cb740ec49e82c94a704278f582e69",
}
BENCH_REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def test_sweep_outputs_are_pinned(model, default_dataset, tmp_path, request):
    """The benchmark's sweep (4 schemes, BERs 1e-3/1e-2/1e-1, 4 trials)
    writes the CSVs whose digests bench/reference.json records at its seed,
    7, and gives the recorded ``repr`` at seed 11, so a change of loop
    order or draw shows in tier-1.  The reference file is only read."""
    prec = request.node.callspec.params["model"]
    reference = json.loads(BENCH_REFERENCE.read_text())
    assert reference["seed"] == 7
    bers = [1e-3, 1e-2, 1e-1]
    results = ber_sweep(model, default_dataset, SCHEMES, bers, 4, 7)
    write_raw_csv(results, tmp_path / "raw.csv")
    write_summary_csv(results, tmp_path / "summary.csv")
    for kind in ("raw", "summary"):
        digest = hashlib.sha256((tmp_path / f"{kind}.csv").read_bytes()).hexdigest()
        assert digest == reference["digests"][f"sweep/{prec}_{kind}.csv"], kind
    results = ber_sweep(model, default_dataset, SCHEMES, bers, 4, 11)
    assert hashlib.sha256(repr(results).encode()).hexdigest() == SWEEP_REPR_SEED_11[prec]


#: SHA-256 of ``repr`` of the benchmark's criticality (BER 1e-3, 20 trials)
#: at seed 11 (see :func:`test_criticality_outputs_are_pinned`).
CRITICALITY_REPR_SEED_11 = {
    "fp32": "c029ad675fc9ed2bf12f6a0b381f1794d1b7a9e0c98c343ba663b7062dd19fe1",
    "u8": "fe62595ea51795d5ca68ce703d3e55ddd5f4c26bb0a46c6476c0d0ea8ed53326",
}


def test_criticality_outputs_are_pinned(model, default_dataset, tmp_path, request):
    """The benchmark's criticality (BER 1e-3, 20 trials) writes the CSV
    whose digest bench/reference.json records at its seed, 7, and gives
    the recorded ``repr`` at seed 11.  The reference file is only read."""
    prec = request.node.callspec.params["model"]
    reference = json.loads(BENCH_REFERENCE.read_text())
    assert reference["seed"] == 7
    result = bit_criticality(model, default_dataset, ber=1e-3, trials=20, base_seed=7)
    write_criticality_csv(result, tmp_path / "criticality.csv")
    digest = hashlib.sha256((tmp_path / "criticality.csv").read_bytes()).hexdigest()
    assert digest == reference["digests"][f"criticality/{prec}.csv"]
    result = bit_criticality(model, default_dataset, ber=1e-3, trials=20, base_seed=11)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == CRITICALITY_REPR_SEED_11[prec]


@pytest.mark.parametrize("ber", [1e-3, 1e-1, 1.0])
def test_score_totals_match_scheme_totals(criticality_model, default_dataset, ber):
    """score's total deviations equal, bit for bit, the in-order sums each
    scheme gives on its own: of the search's winning deltas for remap_invert
    and craft, and of the readouts' block deviations for baseline and ECP."""
    blocks, layout = flatten_model(criticality_model)
    fmap = generate_fault_map(layout.n_blocks * PAYLOAD_BITS, ber, DEFAULT_SA1_FRACTION, 7)
    schemes = [Scheme.parse(s) for s in ("baseline", "ecp1", "ecp3", "remap_invert", "craft")]
    touched, outs, ends = _apply_schemes(blocks, layout, schemes, [fmap])
    totals, _ = _Readbacks(blocks, layout, default_dataset).score(touched, outs, ends)
    mask, stuck = stuck_words(fmap, layout.n_blocks)
    mask, stuck, words = mask[touched], stuck[touched], blocks[touched]
    scales = layout.block_scales()
    scale = None if scales is None else scales[touched]
    searched = [s for s in schemes if s.n_configs]
    found = best_encodings(words, mask, stuck, layout.precision, scale,
                           [s.n_configs for s in searched])
    search_deltas = {s.name: deltas for s, (_, _, deltas) in zip(searched, found)}
    one = np.zeros(len(touched), dtype=np.intp)
    for scheme, out, [total] in zip(schemes, outs, totals.tolist(), strict=True):
        if scheme.n_configs:
            want = search_deltas[scheme.name]
        else:
            want = deviation_words(words, out, layout.precision, scale)
        assert total == _segment_sums(want[None], one, 1)[0, 0], scheme.name


def make_map(size, entries):
    idx = np.array([i for i, _ in entries], dtype=np.int64)
    val = np.array([v for _, v in entries], dtype=np.uint8)
    return FaultMap(size, idx, val, 0.0, 0.5, 0)


@st.composite
def whole_block_maps(draw):
    """(n_blocks, map) over a region of whole blocks: a generated map at BER
    0, 1e-2 or 1.0, or one built by hand, its cells listed in any order and
    dense at the block edges."""
    n_blocks = draw(st.integers(1, 6))
    region = n_blocks * PAYLOAD_BITS
    if draw(st.booleans()):
        return n_blocks, generate_fault_map(region, draw(st.sampled_from([0.0, 1e-2, 1.0])),
                                            draw(st.sampled_from([0.0, 0.5, 1.0])),
                                            draw(st.integers(0, 2**16)))
    edges = [p for b in range(n_blocks) for p in (b * PAYLOAD_BITS, (b + 1) * PAYLOAD_BITS - 1)]
    positions = st.one_of(st.integers(0, region - 1), st.sampled_from(edges))
    cells = draw(st.dictionaries(positions, st.integers(0, 1), max_size=40))
    return n_blocks, make_map(region, list(cells.items()))


@settings(max_examples=100, deadline=None)
@given(drawn=whole_block_maps())
@example(drawn=(3, make_map(3 * PAYLOAD_BITS, [(1023, 1), (512, 0), (0, 1)])))
@example(drawn=(2, make_map(2 * PAYLOAD_BITS, [])))
def test_apply_schemes_protects_the_stuck_words_rows_that_hold_cells(drawn):
    """The touched blocks are the ascending blocks that hold cells, and the
    baseline reads them back over their :func:`stuck_words` rows."""
    n_blocks, fmap = drawn
    # one (16, n) fp32 layer fills exactly n blocks
    weights = make_rng(n_blocks).standard_normal((16, n_blocks)).astype(np.float32)
    model = MlpModel((weights,), (np.zeros(n_blocks, dtype=np.float32),))
    blocks, layout = flatten_model(model)
    assert layout.n_blocks == n_blocks
    touched, outs, ends = _apply_schemes(blocks, layout, [Scheme("baseline")], [fmap])
    assert ends.tolist() == [len(touched)]
    holding = sorted({pos // PAYLOAD_BITS for pos, _ in fmap.entries})
    assert touched.tolist() == holding
    mask, stuck = stuck_words(fmap, n_blocks)
    assert outs.dtype == mask.dtype == stuck.dtype == np.uint32
    assert np.array_equal(outs[0], apply_stuck(blocks[touched], mask[touched], stuck[touched]))
    others = np.setdiff1d(np.arange(n_blocks), touched)
    assert not mask[others].any() and not stuck[others].any()


def test_sweep_searches_once_per_trial(monkeypatch, u8_model, default_dataset):
    """remap_invert and craft share one search per trial, over the touched
    blocks of every BER's fault map; an empty map adds none."""
    searches = []
    search = harness.best_encodings

    def counted(words, mask, stuck, precision, scale, sizes):
        searches.append((len(words), list(sizes)))
        return search(words, mask, stuck, precision, scale, sizes)

    monkeypatch.setattr(harness, "best_encodings", counted)
    bers = [0.0, 1e-3, 1e-2]
    ber_sweep(u8_model, default_dataset, SCHEMES, bers, 2, 7)
    _, layout = flatten_model(u8_model)
    touched = [sum(int(stuck_words(m, layout.n_blocks)[0].any(axis=1).sum())
                   for m in generate_fault_maps(layout.n_blocks * PAYLOAD_BITS, bers,
                                                DEFAULT_SA1_FRACTION, trial_seed(7, t)))
               for t in range(2)]
    assert all(touched)
    assert searches == [(n, [32, 64]) for n in touched]


def odd_model(precision, huge_scale=False):
    """A 16-13-7-4 model with random weights.  Its last two layers end in
    partial blocks, so they hold pad slots at both precisions.  With
    `huge_scale` (u8), layer 1's codes sit near the zero point under a scale
    that sends codes far from it past the float32 range."""
    gen = np.random.default_rng(2024)
    dims = (16, 13, 7, 4)
    model = nn.MlpModel(
        weights=tuple(gen.normal(0.0, 1.0 / np.sqrt(a), size=(a, b)).astype(np.float32)
                      for a, b in zip(dims, dims[1:])),
        biases=tuple(gen.normal(0.0, 0.1, size=b).astype(np.float32) for b in dims[1:]))
    if precision == "fp32":
        return model
    q = nn.quantize(model)
    if not huge_scale:
        return q
    layers = list(q.layers)
    zp = 128
    codes = gen.integers(zp - 20, zp + 21, size=layers[1].codes.shape).astype(np.uint8)
    layers[1] = nn.QuantizedLayer(codes=codes, scale=1e37, zero_point=zp,
                                  biases=layers[1].biases)
    return nn.QuantizedModel(layers=tuple(layers))


def slot_bits(layout):
    """Per block, the (16,) uint32 masks of the bits in weight slots and of
    those in pad slots."""
    wpb = layout.precision.weights_per_block
    real = np.concatenate([np.arange(n * wpb) < r * c
                           for (r, c), n in zip(layout.shapes, layout.layer_blocks)])
    per_byte = np.repeat(real.reshape(-1, wpb), 64 // wpb, axis=1)
    weight = np.where(per_byte, 0xFF, 0).astype(np.uint8).view("<u4")
    return weight, ~weight


def readback(case, blocks, layout, gen):
    """Seeded (touched, out) of one kind of readback."""
    weight, pad = slot_bits(layout)
    layer = np.repeat(np.arange(len(layout.shapes)), layout.layer_blocks)
    last = len(layout.shapes) - 1
    if case == "pad":
        touched = np.flatnonzero(pad.any(axis=1))
    else:
        layers = {"layer0": [0], "last": [last], "several": range(last + 1),
                  "nonfinite": range(last + 1)}[case]
        touched = np.sort(np.concatenate(
            [gen.choice(np.flatnonzero(layer == i), min(2, layout.layer_blocks[i]),
                        replace=False) for i in layers]))
    words = blocks[touched]
    if case == "nonfinite" and layout.precision.word_bits == 32:
        # +-Inf, a quiet NaN and a signalling NaN at random weight slots
        out = words.copy()
        specials = np.array([0x7F800000, 0xFF800000, 0x7FC00000, 0x7F800001], dtype=np.uint32)
        rows, cols = np.nonzero(weight[touched])
        pick = gen.choice(rows.size, 8, replace=False)
        out[rows[pick], cols[pick]] = gen.choice(specials, 8)
        return touched, out
    # under u8 "nonfinite"'s huge scale, codes flipped far from the zero
    # point decode past the float32 range
    mask = (pad if case == "pad" else weight)[touched]
    flips = np.zeros_like(words)
    for k in range(32):
        flips |= (gen.random(words.shape) < 0.05).astype(np.uint32) << np.uint32(k)
    flips &= mask
    flips[:, 0] |= mask[:, 0] & -mask[:, 0]  # at least one flip per block where a slot allows
    return touched, words ^ flips


class TestReadbacksMatchRebuild:
    """_Readbacks.score's errors against the full rebuild and accuracy of the
    oracle, on seeded readbacks of every kind, one at a time and mixed in one
    batch; each call must leave the kept weights and activations as they
    were."""

    # the layers whose float64 weights each kind of readback changes
    CHANGED = {"layer0": lambda c: c == [0], "last": lambda c: c == [2],
               "several": lambda c: len(c) > 1, "pad": lambda c: c == [],
               "nonfinite": lambda c: len(c) > 0}

    @pytest.mark.parametrize("precision", ["fp32", "u8"])
    @pytest.mark.parametrize("case", list(CHANGED))
    def test_error_matches_oracle(self, default_dataset, forward_passes, precision, case):
        model = odd_model(precision, huge_scale=case == "nonfinite")
        blocks, layout = flatten_model(model)
        rb = _Readbacks(blocks, layout, default_dataset)
        clean = [w.tobytes() for w in rb.weights]
        assert clean == [w.tobytes() for w in float64_weights(blocks, layout)]
        acts = [a.tobytes() for a in rb.acts]
        assert rb.fault_free == reference_error(blocks, layout, default_dataset)
        gen = np.random.default_rng(list(self.CHANGED).index(case))
        errors = set()
        for _ in range(10):
            touched, out = readback(case, blocks, layout, gen)
            read = blocks.copy()
            read[touched] = out
            assert not np.array_equal(read, blocks)
            decoded = float64_weights(read, layout)
            changed = [i for i, (a, b) in enumerate(zip(decoded, clean)) if a.tobytes() != b]
            assert self.CHANGED[case](changed), changed
            if case == "nonfinite":
                assert not all(np.isfinite(w).all() for w in decoded)
            forward_passes.clear()
            [[got]] = rb.score(touched, out[None], [len(touched)])[1].tolist()
            assert type(got) is float
            assert got == reference_error(read, layout, default_dataset)
            # one rerun, from the first changed layer, or none
            assert forward_passes == changed[:1]
            assert [w.tobytes() for w in rb.weights] == clean
            assert [a.tobytes() for a in rb.acts] == acts
            errors.add(got)
        if case != "pad":
            assert errors != {rb.fault_free}

    @pytest.mark.parametrize("precision", ["fp32", "u8"])
    def test_mixed_batch_matches_oracle(self, default_dataset, forward_passes, precision):
        """Readbacks of all six kinds in one call over the union of their
        touched blocks: each gets its oracle error, and each changed one
        reruns once, from its own first changed layer, in batch order."""
        model = odd_model(precision, huge_scale=True)
        blocks, layout = flatten_model(model)
        rb = _Readbacks(blocks, layout, default_dataset)
        clean = [w.tobytes() for w in rb.weights]
        acts = [a.tobytes() for a in rb.acts]
        kinds = ["pad", "layer0", "unchanged", "last", "several", "nonfinite"]
        gen = np.random.default_rng(99)
        parts = {k: readback(k, blocks, layout, gen) for k in kinds if k != "unchanged"}
        touched = np.unique(np.concatenate([t for t, _ in parts.values()]))
        outs = np.repeat(blocks[touched][None], len(kinds), axis=0)
        for k, (t, out) in parts.items():
            outs[kinds.index(k), np.searchsorted(touched, t)] = out
        expected, starts = [], []
        for out in outs:
            read = blocks.copy()
            read[touched] = out
            expected.append(reference_error(read, layout, default_dataset))
            decoded = float64_weights(read, layout)
            starts += [i for i, (a, b) in enumerate(zip(decoded, clean)) if a.tobytes() != b][:1]
        assert starts == [0, 2, 0, 0]  # layer0, last, several, nonfinite
        forward_passes.clear()
        _, got = rb.score(touched, outs, [len(touched)])
        assert got[:, 0].tolist() == expected
        assert got.dtype == np.float64
        assert forward_passes == starts
        assert [w.tobytes() for w in rb.weights] == clean
        assert [a.tobytes() for a in rb.acts] == acts

    @pytest.mark.parametrize("precision", ["fp32", "u8"])
    def test_batch_over_no_blocks_is_fault_free(self, default_dataset, forward_passes,
                                                precision):
        blocks, layout = flatten_model(odd_model(precision))
        rb = _Readbacks(blocks, layout, default_dataset)
        forward_passes.clear()
        totals, got = rb.score(np.empty(0, dtype=np.intp),
                               np.empty((3, 0, 16), dtype=np.uint32), [0, 0])
        assert got.tolist() == [[rb.fault_free] * 2] * 3
        assert totals.tolist() == [[0.0] * 2] * 3
        assert forward_passes == []


@pytest.mark.parametrize("ber", [0.0, 1e-3, 1e-1, 1.0])
def test_criticality_does_not_depend_on_pass_size(criticality_model, default_dataset,
                                                  monkeypatch, ber):
    """Scoring each criticality trial in a pass of its own gives the
    results that passes of many trials give, to the last bit."""
    want = repr(bit_criticality(criticality_model, default_dataset, ber=ber, trials=3,
                                base_seed=7))
    monkeypatch.setattr(harness, "_PASS_ROWS", 1)
    assert repr(bit_criticality(criticality_model, default_dataset, ber=ber, trials=3,
                                base_seed=7)) == want


def test_sweep_does_not_depend_on_pass_size(criticality_model, default_dataset, monkeypatch):
    """Scoring each map of a trial's grid in a pass of its own gives the
    results that one pass over the grid gives, to the last bit."""
    bers = [0.0, 1e-3, 1e-1, 1.0]
    want = repr(ber_sweep(criticality_model, default_dataset, SCHEMES, bers, 2, 7))
    monkeypatch.setattr(harness, "_PASS_ROWS", 1)
    assert repr(ber_sweep(criticality_model, default_dataset, SCHEMES, bers, 2, 7)) == want


@settings(max_examples=40, deadline=None)
@given(precision=st.sampled_from(["fp32", "u8"]),
       cases=st.lists(st.sampled_from(["empty", "unchanged", "pad", "layer0", "last",
                                       "several", "nonfinite"]), min_size=1, max_size=5),
       n_readbacks=st.integers(1, 3), pass_rows=st.sampled_from([1, 40, 4096]),
       seed=st.integers(0, 2**16))
def test_segmented_score_equals_one_call_per_segment(precision, cases, n_readbacks, pass_rows,
                                                     seed, default_dataset):
    """One segmented score call, in passes of any size, gives each segment
    the totals, bit for bit, and errors of a call over that segment alone,
    and runs the same forwards, empty segments and readbacks that change
    several layers included."""
    blocks, layout = flatten_model(odd_model(precision, huge_scale=True))
    rb = _Readbacks(blocks, layout, default_dataset)
    gen = np.random.default_rng(seed)
    segments = []
    for case in cases:
        if case == "empty":
            segments.append((np.empty(0, dtype=np.intp),
                             np.empty((n_readbacks, 0, 16), dtype=np.uint32)))
            continue
        parts = [readback("layer0" if case == "unchanged" else case, blocks, layout, gen)
                 for _ in range(n_readbacks)]
        touched = np.unique(np.concatenate([t for t, _ in parts]))
        outs = np.repeat(blocks[touched][None], n_readbacks, axis=0)
        if case != "unchanged":
            for out, (t, part) in zip(outs, parts):
                out[np.searchsorted(touched, t)] = part
        segments.append((touched, outs))
    forwards = {"alone": [], "segmented": []}
    with pytest.MonkeyPatch.context() as patch:
        def counted(weights, biases, h, outs, start):
            forwards[side].append(start)
            return nn._forward(weights, biases, h, outs, start)

        patch.setattr(harness, "_forward", counted)
        side = "alone"
        alone = [rb.score(t, o, [len(t)]) for t, o in segments]
        side = "segmented"
        patch.setattr(harness, "_PASS_ROWS", pass_rows)
        totals, errs = rb.score(np.concatenate([t for t, _ in segments]),
                                np.concatenate([o for _, o in segments], axis=1),
                                np.cumsum([len(t) for t, _ in segments]))
    assert totals.tolist() == [[a[0][k, 0] for a in alone] for k in range(n_readbacks)]
    assert errs.tolist() == [[a[1][k, 0] for a in alone] for k in range(n_readbacks)]
    assert forwards["segmented"] == forwards["alone"]
    assert [w.tobytes() for w in rb.weights] == \
        [w.tobytes() for w in float64_weights(blocks, layout)]


def held_out(inputs, labels):
    """A dataset stand-in that holds only a test split."""
    return SimpleNamespace(test_inputs=np.asarray(inputs, dtype=np.float64),
                           test_labels=np.asarray(labels))


@pytest.fixture(scope="module")
def trained_odd(default_dataset):
    """A trained 16-13-7-4 model, whose test margins are wide, unlike those
    of :func:`odd_model`'s random weights."""
    return nn.train(default_dataset, hidden_dims=(13, 7)).model


def certificate_passes(model, dataset, changes):
    """Whether the certificate passes the readback of fp32 `model` that sets
    weight (layer, i, j) to value for each entry of `changes`."""
    blocks, layout = flatten_model(model)
    weights = [w.copy() for w in model.weights]
    for (layer, i, j), value in changes.items():
        weights[layer][i, j] = value
    read, _ = flatten_model(MlpModel(tuple(weights), model.biases))
    touched = np.flatnonzero((read != blocks).any(axis=1))
    with pytest.MonkeyPatch.context() as patch:
        batches = record_certificates(patch)
        _Readbacks(blocks, layout, dataset).score(touched, read[touched][None], [len(touched)])
    [(*_, passed)] = batches
    return bool(passed[0, 0])


class TestCertificate:
    """A readback that the certificate passes keeps every test row's argmax,
    so it takes the fault-free error without inference; what it passes and
    what it refuses is pinned on constructed cases."""

    @pytest.mark.parametrize("precision", ["fp32", "u8"])
    @pytest.mark.parametrize("name", ["default", "16-13-7-4"])
    def test_certified_readbacks_take_the_oracle_error(self, name, precision, fp32_model,
                                                       trained_odd, default_dataset,
                                                       certificates):
        model = fp32_model if name == "default" else trained_odd
        if precision == "u8":
            model = nn.quantize(model)
        # at BER 1e-3 the 327 weights of 16-13-7-4 rarely hold two stuck
        # words in different layers, at 1e-2 they often do
        for ber in (1e-3, 1e-2):
            bit_criticality(model, default_dataset, ber=ber, trials=8, base_seed=7)
        batches = len(certificates)
        ber_sweep(model, default_dataset, SCHEMES, [1e-3, 1e-2, 1e-1], 4, 7)
        several = []  # per certified readback, in batch order
        for rb, read in certified_reads(certificates):
            clean = float64_weights(rb.blocks, rb.layout)
            assert reference_error(read, rb.layout, default_dataset) == rb.fault_free
            changed = [a.tobytes() != b.tobytes()
                       for a, b in zip(float64_weights(read, rb.layout), clean)]
            several.append(sum(changed) > 1)
        # a bound that never fires would pass the oracle check vacuously
        in_criticality = n_certified(certificates[:batches])
        assert 0 < in_criticality < len(several)
        assert any(several[:in_criticality])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_certified_readbacks_keep_every_argmax(self, data):
        """Small random models with at least one hidden layer, fp32 and u8,
        under changes to a few weights of any layers, from a last-bit change
        to a whole-weight one.  Half the examples change two or more layers,
        fp32 ones by 2^-24 to 2^-12 of a weight, which the several-layer
        bound often passes."""
        draw = data.draw
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
        dims = [draw(st.integers(1, 6), label="features"),
                *draw(st.lists(st.integers(1, 6), min_size=1, max_size=2), label="hidden"),
                draw(st.integers(1, 4), label="classes")]
        model = MlpModel(
            tuple(gen.normal(0.0, 1.0 / np.sqrt(a), size=(a, b)).astype(np.float32)
                  for a, b in zip(dims, dims[1:])),
            tuple(gen.normal(0.0, 0.1, size=b).astype(np.float32) for b in dims[1:]))
        n_rows = draw(st.integers(1, 30), label="rows")
        inputs = gen.normal(size=(n_rows, dims[0]))
        labels = gen.integers(0, dims[-1], size=n_rows)
        quantized = draw(st.booleans(), label="u8")
        if quantized:
            model = nn.quantize(model)
        stored = ([l.codes.copy() for l in model.layers] if quantized
                  else [w.copy() for w in model.weights])
        original = [a.copy() for a in stored]
        n_layers = len(dims) - 1
        if draw(st.booleans(), label="small changes across layers"):
            layers = draw(st.permutations(range(n_layers)), label="layers")
            layers = layers[:draw(st.integers(2, n_layers), label="changed layers")]
            largest = 12
        else:
            layers = draw(st.lists(st.integers(0, n_layers - 1), min_size=1, max_size=3),
                          label="layers")
            largest = 0
        for layer in layers:
            i, j = gen.integers(0, dims[layer]), gen.integers(0, dims[layer + 1])
            x = float(stored[layer][i, j])
            if quantized:
                x += draw(st.sampled_from([-3, -1, 1, 3]), label="code step")
                stored[layer][i, j] = min(max(x, 0), 255)
            else:
                rel = draw(st.sampled_from([-1.0, 1.0]), label="sign") * \
                    2.0 ** -draw(st.integers(largest, 24), label="relative size, log2")
                stored[layer][i, j] = x * (1 + rel) if x else rel
        if quantized:
            changed = nn.QuantizedModel(tuple(
                nn.QuantizedLayer(c, l.scale, l.zero_point, l.biases)
                for c, l in zip(stored, model.layers)))
        else:
            changed = MlpModel(tuple(stored), model.biases)
        blocks, layout = flatten_model(model)
        read, _ = flatten_model(changed)
        touched = np.flatnonzero((read != blocks).any(axis=1))
        rb = _Readbacks(blocks, layout, held_out(inputs, labels))
        with pytest.MonkeyPatch.context() as patch:
            batches = record_certificates(patch)
            [[err]] = rb.score(touched, read[touched][None], [len(touched)])[1].tolist()
        assert err == 1 - accuracy(changed, inputs, labels)
        if batches[0][4][0, 0]:
            event("certified")
            if sum(not np.array_equal(a, b) for a, b in zip(stored, original)) > 1:
                event("certified, several layers changed")
            assert np.array_equal(nn.infer(changed, inputs), nn.infer(model, inputs))

    def test_tied_rows_certify_nothing(self, default_dataset, certificates, forward_passes):
        """Two identical last-layer columns, lifted by their biases above
        the others, tie on every row.  A margin of 0 leaves no room, so
        every coefficient is inf and every readback that changes a weight
        runs inference."""
        model = odd_model("fp32")
        w, b = model.weights[-1].copy(), model.biases[-1].copy()
        w[:, 1] = w[:, 0]
        b[:2] = 10.0
        tied = MlpModel(model.weights[:-1] + (w,), model.biases[:-1] + (b,))
        expected, differing = reference_criticality(tied, default_dataset, 1e-2, 2, 7)
        assert bit_criticality(tied, default_dataset, ber=1e-2, trials=2,
                               base_seed=7) == expected
        rb = certificates[0][0]
        logits = rb.acts[-1]
        assert (logits[:, 0] == logits[:, 1]).all() and (logits.argmax(axis=1) == 0).all()
        assert np.isinf(rb.coef).all()
        assert n_certified(certificates) == 0
        assert differing > 0 and len(forward_passes) == 1 + differing

    def test_passes_changes_up_to_half_the_margin(self):
        """One layer and one row with logits (1, 0): a change D of weight
        (0, 0), under input 1, may move each logit by up to half the margin
        of 1.  |D| = 0.25 passes; 0.5, the edge, which the slack keeps out,
        and 0.75 do not (half the bound would pass 0.75)."""
        model = MlpModel((np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32),),
                         (np.zeros(2, dtype=np.float32),))
        row = held_out([[1.0, 0.0]], [0])
        assert certificate_passes(model, row, {(0, 0, 0): 0.75})
        assert not certificate_passes(model, row, {(0, 0, 0): 0.5})
        assert not certificate_passes(model, row, {(0, 0, 0): 0.25})
        # weight (1, 0) meets input 0, so any finite change of it moves
        # nothing, but a non-finite one makes 0 * inf = NaN
        assert certificate_passes(model, row, {(0, 1, 0): 1e30})
        assert not certificate_passes(model, row, {(0, 1, 0): np.inf})
        assert not certificate_passes(model, row, {(0, 1, 0): np.nan})

    def test_refuses_margins_within_rounding(self):
        """Logits of about 1e8 that differ by 2 ulps (3e-8): the rounding
        bound R of a 1e8-sized inner product (about 7e-8 for both runs)
        exceeds half the margin, so not even a change that moves logit 0 by
        4e-9 passes, as it would without R.  With input 3e-6 in place of
        3e-8 the margin clears R and the same change passes."""
        model = MlpModel((np.array([[1e8, 1e8], [1.0, 0.0]], dtype=np.float32),),
                         (np.zeros(2, dtype=np.float32),))
        assert not certificate_passes(model, held_out([[1.0, 3e-8]], [0]), {(0, 1, 0): 1.125})
        assert certificate_passes(model, held_out([[1.0, 3e-6]], [0]), {(0, 1, 0): 1.125})

    def test_passes_changes_in_several_layers(self, fp32_model, default_dataset):
        """Changes of a weight in layer 0 and one in layer 1 by 2^-20 of
        their size each pass alone, and together too: the bound carries the
        layer-0 change through ``|W| + |D|`` of layer 1."""
        w0, w1 = float(fp32_model.weights[0][0, 0]), float(fp32_model.weights[1][0, 0])
        layer0 = {(0, 0, 0): w0 * (1 + 2.0 ** -20)}
        layer1 = {(1, 0, 0): w1 * (1 + 2.0 ** -20)}
        assert certificate_passes(fp32_model, default_dataset, layer0)
        assert certificate_passes(fp32_model, default_dataset, layer1)
        assert certificate_passes(fp32_model, default_dataset, layer0 | layer1)

    def test_passes_several_layers_up_to_half_the_margin(self):
        """A 1-1-2 model under input 1 whose hidden unit reads h = 2^-20 and
        whose logits are the biases (1, 0), layer 1's weights being 0.
        Setting layer 1's weight (0, 1) to 2^18 and layer 0's weight to h +
        dh moves logit 1 to (h + dh) 2^18, all of which the bound counts.
        It passes below half the margin of 1 and not at the edge or above
        it (half the bound would pass dh = 2^-19, logit 0.75)."""
        model = one_hidden_unit()
        row = held_out([[1.0]], [0])
        assert certificate_passes(model, row, {(1, 0, 1): 2.0 ** 18})  # logit 1 = 0.25

        def passes(dh):
            return certificate_passes(model, row, {(0, 0, 0): 2.0 ** -20 + dh,
                                                   (1, 0, 1): 2.0 ** 18})
        assert passes(2.0 ** -21)  # 0.375
        assert not passes(2.0 ** -20)  # 0.5
        assert not passes(2.0 ** -19)  # 0.75

    def test_refuses_a_small_change_before_a_large_one_on_its_path(self):
        """The same model: layer 1's weight (0, 1) set to 1.5 * 2^18 passes
        alone (logit 1 = 0.375), and so does any finite change of layer 0
        alone, which meets layer 1's zero weights.  Together with a layer-0
        change of 2^-19 (about 2e-6) they move logit 1 to 1.125, past logit
        0, and the certificate refuses them; with the fault-free ``|W| = 0``
        of layer 1 in place of ``|W| + |D|`` it would pass them."""
        model = one_hidden_unit()
        row = held_out([[1.0]], [0])
        large = {(1, 0, 1): 1.5 * 2.0 ** 18}
        small = {(0, 0, 0): 3 * 2.0 ** -20}
        assert certificate_passes(model, row, large)
        assert certificate_passes(model, row, small)
        assert certificate_passes(model, row, {(0, 0, 0): 1e30})
        assert not certificate_passes(model, row, small | large)
        w0, w1 = (w.copy() for w in model.weights)
        w0[0, 0], w1[0, 1] = small[(0, 0, 0)], large[(1, 0, 1)]
        assert nn.infer(MlpModel((w0, w1), model.biases), row.test_inputs).tolist() == [1]

    def test_refuses_rounding_carried_through_a_large_change(self):
        """A 1-2-2 model whose hidden unit 1 is dead (ReLU of -1) on the one
        row, layer 1's weights being 0 and its biases the logits (1, 0).
        Setting layer 1's weight (1, 0), which meets the dead unit, to 1e30
        passes alone, and so does doubling unit 0's layer-0 weight.  Together
        the bound of their exact change is still 0, but the rounding of
        layer 0's outputs, carried through ``|W| + |D|`` of layer 1, may
        reach about 1e30 * 2^-52, far past the rounding budget, so the
        certificate refuses them."""
        model = MlpModel((np.array([[2.0 ** -20, -1.0]], dtype=np.float32),
                          np.zeros((2, 2), dtype=np.float32)),
                         (np.zeros(2, dtype=np.float32), np.array([1.0, 0.0], dtype=np.float32)))
        row = held_out([[1.0]], [0])
        large = {(1, 1, 0): 1e30}
        small = {(0, 0, 0): 2.0 ** -19}
        assert certificate_passes(model, row, large)
        assert certificate_passes(model, row, small)
        assert not certificate_passes(model, row, small | large)

    def test_certifies_nothing_where_a_run_may_overflow(self, forward_passes):
        """A chain of eight 1x1 layers of weight 1 under input 1, then logits
        (1, 0).  A run whose every layer from the first changed one on may
        hold weights of up to the float32 maximum (about 2^128) can reach
        2^1024, past float64, so every coefficient is inf, and changes of
        2^-10 to one layer or to two all run the forward from their first
        changed layer."""
        one = np.ones((1, 1), dtype=np.float32)
        model = MlpModel((one,) * 8 + (np.array([[1.0, 0.0]], dtype=np.float32),),
                         tuple(np.zeros(n, dtype=np.float32) for n in [1] * 8 + [2]))
        row = held_out([[1.0]], [0])
        assert np.isinf(_Readbacks(*flatten_model(model), row).coef).all()
        layer3 = {(3, 0, 0): 1 + 2.0 ** -10}
        layer5 = {(5, 0, 0): 1 + 2.0 ** -10}
        for changes in (layer3, layer5, layer3 | layer5):
            assert not certificate_passes(model, row, changes)
        # each build's fault-free forward from layer 0, then its readback's
        assert forward_passes == [0, 0, 3, 0, 5, 0, 3]

    @pytest.mark.parametrize("precision, forwards", [("fp32", 21), ("u8", 10)])
    def test_criticality_readback_forwards(self, fp32_model, default_dataset, forward_passes,
                                           precision, forwards):
        """On the default model at seed 7 (20 trials, BER 1e-3), 333 fp32
        and 83 u8 criticality readbacks change a weight, 48 and 16 of them
        in several layers.  The certificate leaves exactly `forwards` of
        them to run a forward (65 and 23 when only changes in one layer
        could pass)."""
        model = fp32_model if precision == "fp32" else nn.quantize(fp32_model)
        bit_criticality(model, default_dataset, ber=1e-3, trials=20, base_seed=7)
        assert len(forward_passes) - 1 == forwards


def one_hidden_unit():
    """A 1-1-2 fp32 model whose hidden unit reads 2^-20 under input 1 and
    whose logits are (1, 0), layer 1's weights being 0."""
    return MlpModel((np.array([[2.0 ** -20]], dtype=np.float32), np.zeros((1, 2), dtype=np.float32)),
                    (np.zeros(1, dtype=np.float32), np.array([1.0, 0.0], dtype=np.float32)))


class TestCheckTrials:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trial_is_refused(self, trials):
        with pytest.raises(ValueError, match=f"^trials must be at least 1, got {trials}$"):
            check_trials(trials)

    def test_one_trial_passes(self):
        assert check_trials(1) == 1


class TestSummaries:
    """The trial summary equals each row's own ``float(x.mean())`` and
    ``float(x.std(ddof=0))``, bit for bit."""

    @pytest.mark.parametrize("trials", [1, 2, 7, 100])
    def test_equals_per_row_reduction(self, trials):
        gen = np.random.default_rng(trials)
        errs = gen.integers(0, 1000, size=(5, trials)) / 1000
        deltas = gen.random((5, trials)) * 10.0 ** gen.integers(-8, 8, size=(5, 1))
        # deviations at and just below the sentinel of a non-finite decode
        deltas[3] = NONFINITE_SENTINEL
        deltas[4, ::2] = np.nextafter(NONFINITE_SENTINEL, 0)
        expected = [(float(e.mean()), float(e.std(ddof=0)), float(d.mean()))
                    for e, d in zip(errs, deltas)]
        got = list(_summaries(errs, deltas))
        assert [tuple(map(float.hex, row)) for row in got] == \
            [tuple(map(float.hex, row)) for row in expected]


class TestTrialResultLimit:
    """A run may hold MAX_TRIAL_RESULTS results; one more is rejected before
    the run builds its readbacks, the first of its allocations."""

    class Started(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_readbacks(self, monkeypatch):
        def started(*args, **kwargs):
            raise self.Started
        monkeypatch.setattr(harness, "_Readbacks", started)

    def test_sweep(self, u8_model, default_dataset):
        schemes, bers = SCHEMES[:2], [1e-3] * 5  # 10 results per trial
        trials = MAX_TRIAL_RESULTS // 10
        with pytest.raises(self.Started):
            ber_sweep(u8_model, default_dataset, schemes, bers, trials, 0)
        with pytest.raises(ValueError, match=f"2 schemes x 5 BER points x {trials + 1} trials "
                                             f"make {10 * trials + 10} trial results, "
                                             f"more than {MAX_TRIAL_RESULTS}"):
            ber_sweep(u8_model, default_dataset, schemes, bers, trials + 1, 0)

    @pytest.mark.parametrize("precision", ["fp32", "u8"])
    def test_criticality(self, fp32_model, u8_model, default_dataset, precision):
        model, bits = (fp32_model, 32) if precision == "fp32" else (u8_model, 8)
        trials = MAX_TRIAL_RESULTS // bits
        with pytest.raises(self.Started):
            bit_criticality(model, default_dataset, trials=trials)
        with pytest.raises(ValueError, match=f"{bits} bit positions x {trials + 1} trials "
                                             f"make {bits * trials + bits} trial results"):
            bit_criticality(model, default_dataset, trials=trials + 1)


class TestBitCriticality:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_trial(self, u8_model, default_dataset, trials):
        with pytest.raises(ValueError, match="trial"):
            bit_criticality(u8_model, default_dataset, ber=1e-3, trials=trials)

    @pytest.mark.parametrize("ber", [-1e-3, 1.5, 2.0, float("nan")])
    def test_ber_outside_unit_interval_rejected(self, u8_model, default_dataset, ber):
        with pytest.raises(ValueError, match="ber"):
            bit_criticality(u8_model, default_dataset, ber=ber, trials=1)

    def test_zero_ber_reports_fault_free_everywhere(self, u8_model, default_dataset):
        result = bit_criticality(u8_model, default_dataset, ber=0.0, trials=2, base_seed=1)
        assert len(result.points) == 8
        for p in result.points:
            assert p.mean_error == result.fault_free_error
            assert p.mean_delta == 0.0

    def test_u8_msb_dominates_deviation(self, u8_model, default_dataset):
        result = bit_criticality(u8_model, default_dataset, ber=1e-3, trials=20, base_seed=1)
        deltas = {p.position: p.mean_delta for p in result.points}
        assert max(deltas, key=deltas.get) == 7

    def test_single_cell_deviation_is_power_of_two_times_scale(self, u8_model, default_dataset):
        blocks, layout = flatten_model(u8_model)
        region = layout.n_blocks * PAYLOAD_BITS
        for position in (0, 3, 7):
            word = 5  # an arbitrary weight in layer 0
            pos = word * 8 + position
            stuck = 1 - (int(blocks[0, pos // 32]) >> (pos % 32) & 1)
            fmap = FaultMap(region, np.array([pos]), np.array([stuck], dtype=np.uint8),
                            0.0, 0.5, 0)
            _, delta = scheme_readbacks(blocks, layout, [Scheme.parse("baseline")], fmap)[0]
            assert delta == pytest.approx(2 ** position * layout.quant[0][0])

    def test_fp32_reports_32_positions(self, fp32_model, default_dataset):
        result = bit_criticality(fp32_model, default_dataset, ber=1e-3, trials=2, base_seed=1)
        assert len(result.points) == 32

    def test_csv(self, tmp_path, u8_model, default_dataset):
        result = bit_criticality(u8_model, default_dataset, ber=1e-3, trials=2, base_seed=1)
        path = tmp_path / "crit.csv"
        write_criticality_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "position,mean_error,std_error,mean_delta"
        assert len(lines) == 9


class TestSecondZeroExponentBit:
    def test_known_constant_weights(self):
        # 0.75 has biased exponent 126 = 0b01111110: bit 23 is the only zero
        # exponent bit below 30
        w = np.full((4, 4), 0.75, dtype=np.float32)
        model = nn.MlpModel(weights=(w,), biases=(np.zeros(4, dtype=np.float32),))
        assert second_zero_exponent_bit(model) == 23

    def test_within_exponent_range(self, fp32_model):
        assert 23 <= second_zero_exponent_bit(fp32_model) <= 29


class TestRobustnessImprovement:
    BERS = default_ber_grid(1e-4, 1e-1, 5)

    def test_identical_sweeps_give_one(self):
        errors = np.linspace(0.0, 0.5, len(self.BERS)).tolist()
        a = sweep_from_errors(self.BERS, errors)
        b = sweep_from_errors(self.BERS, errors)
        ratio = robustness_improvement(a, b)
        assert ratio.ratio == 1.0
        assert not ratio.censored

    def test_decade_shift_gives_ten(self):
        # same rising curve, shifted by one decade (5 grid steps)
        base = [0.0] * 5 + [0.02, 0.04, 0.08, 0.2, 0.5, 0.8] + [0.9] * 5
        shifted = [0.0] * 5 + base[:-5]
        a = sweep_from_errors(self.BERS, shifted)
        b = sweep_from_errors(self.BERS, base)
        ratio = robustness_improvement(a, b)
        assert not ratio.censored
        assert ratio.ratio == pytest.approx(10.0, rel=1e-9)

    def test_censored_flag_when_never_crossing(self):
        flat = [0.0] * len(self.BERS)
        rising = [0.0] * 10 + [0.2] * 6
        a = sweep_from_errors(self.BERS, flat)
        b = sweep_from_errors(self.BERS, rising)
        ratio = robustness_improvement(a, b)
        assert ratio.censored_a and not ratio.censored_b
        assert ratio.ber_a == self.BERS[-1]

    def test_curve_over_budget_from_its_first_point(self):
        # no grid point is within budget, so the crossing is the first BER
        a = sweep_from_errors(self.BERS, [0.5] * len(self.BERS))
        b = sweep_from_errors(self.BERS, [0.0] * len(self.BERS))
        ratio = robustness_improvement(a, b)
        assert ratio.ber_a == self.BERS[0] and not ratio.censored_a
        assert ratio.censored_b

    def test_mismatched_grids_rejected(self):
        a = sweep_from_errors(self.BERS, [0.0] * len(self.BERS))
        b = sweep_from_errors(self.BERS[:-1], [0.0] * (len(self.BERS) - 1))
        with pytest.raises(ValueError):
            robustness_improvement(a, b)

    @pytest.mark.parametrize("bers", [[1e-1, 1e-2, 1e-3], [1e-3, 1e-2, 1e-2], [1e-2, 1e-3, 1e-1],
                                      [0.0, 1e-3, 1e-2]],
                             ids=["descending", "repeated", "unsorted", "zero"])
    def test_grid_not_strictly_ascending_above_zero_rejected(self, bers):
        # on the descending grid a clearly outlasts b, yet the crossing
        # search read both as censored with ratio 1.0; a zero BER has no
        # log10 to interpolate in
        a = sweep_from_errors(bers, [0.0, 0.0, 0.0])
        b = sweep_from_errors(bers, [0.9, 0.5, 0.0])
        with pytest.raises(ValueError, match="strictly ascending BER grid above 0"):
            robustness_improvement(a, b)

    def test_interpolates_in_log_ber(self):
        # crossing halfway between two grid points in error space lands at
        # the log-midpoint of the interval
        bers = [1e-3, 1e-2]
        a = sweep_from_errors(bers, [0.0, 0.1])
        b = sweep_from_errors(bers, [0.0, 0.2])
        ra = robustness_improvement(a, b)
        # a crosses at t=0.5, b at t=0.25 -> ratio 10**0.25
        assert ra.ratio == pytest.approx(10 ** 0.25, rel=1e-9)


class TestGrid:
    def test_default_grid_shape(self):
        grid = default_ber_grid()
        assert len(grid) == 21
        assert grid[0] == pytest.approx(1e-5)
        assert grid[-1] == pytest.approx(1e-1)

    def test_acceptance_grid(self):
        grid = default_ber_grid(1e-4, 1e-1, 5)
        assert len(grid) == 16

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            default_ber_grid(1e-1, 1e-5, 5)

    @pytest.mark.parametrize("lo, hi", [(1e-3, math.inf), (math.nan, 1e-1), (1e-3, math.nan),
                                        (1e-2, 10.0), (0.0, 1e-1), (-1e-3, 1e-1)])
    def test_bounds_outside_unit_interval_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="bounds"):
            default_ber_grid(lo, hi, 5)

    @pytest.mark.parametrize("per_decade", [0, -1, MAX_BER_GRID_POINTS + 1, 100_000_000,
                                            pytest.param(10**400, id="10**400")])
    def test_points_per_decade_bounded(self, per_decade):
        with pytest.raises(ValueError, match="per decade"):
            default_ber_grid(1e-3, 1e-1, per_decade)

    def test_oversized_grid_rejected_before_it_is_built(self):
        # about 3e6 points: the count is checked, the list never made
        with pytest.raises(ValueError, match="exceeds"):
            default_ber_grid(1e-300, 1e-1, MAX_BER_GRID_POINTS)
        with pytest.raises(ValueError, match="exceeds"):
            default_ber_grid(1e-1, 1.0, MAX_BER_GRID_POINTS)  # one point too many

    def test_largest_grid_accepted(self):
        grid = default_ber_grid(1e-1, 1.0, MAX_BER_GRID_POINTS - 1)
        assert len(grid) == MAX_BER_GRID_POINTS
        assert grid[0] == pytest.approx(1e-1) and grid[-1] == pytest.approx(1.0)
        assert default_ber_grid(1e-2, 1e-2, MAX_BER_GRID_POINTS) == [pytest.approx(1e-2)]

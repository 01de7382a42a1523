"""Self-test of the benchmark: span arithmetic, output checks, smoke runs.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from craft import objective

SMOKE_SEED = 123  # not the default seed, so no reference digest applies


def test_self_time_subtracts_direct_children():
    rec = spans.Recorder()
    root = rec.open("harness.ber_sweep", now=0.0)
    a = rec.open("objective.search_best_encoding", now=1.0)
    leaf = rec.open("bitops.as_bit_array", now=2.0)
    rec.close(leaf, now=3.0)
    rec.close(a, now=4.0)
    b = rec.open("nn.accuracy", now=5.0)
    rec.close(b, now=9.0)
    rec.close(root, now=10.0)
    assert list(rec.parent) == [-1, root, a, root]
    assert rec.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert sum(rec.self_times()) == 10.0


def test_summary_reads_missing_functions_as_zero_and_restores_originals():
    original = objective.search_best_encoding
    funcs = {"objective": ("search_best_encoding", "removed_by_refactor")}
    rec, probes = spans.Recorder(), spans.Probes()
    with spans.traced(rec, probes, funcs):
        assert objective.search_best_encoding is not original
    assert objective.search_best_encoding is original
    out = spans.summarize(rec, probes, 1, 1.0, 0.0, funcs)
    assert out["objective.removed_by_refactor.calls"] == 0.0
    assert out["objective.search_best_encoding.calls"] == 0.0


def tiny(name, workdir):
    book = workloads.DigestBook(None)
    if name == "sweep":
        return workloads.Sweep(SMOKE_SEED, workdir, book, trials=1)
    if name == "criticality":
        return workloads.Criticality(SMOKE_SEED, workdir, book, trials=1)
    return workloads.Storage(SMOKE_SEED, workdir, book, hidden=(8,))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    wl = tiny("sweep", tmp_path_factory.mktemp("sweep"))
    wl.setup()
    return wl


def test_sweep_check_counts_broken_invariant(sweep):
    op = sweep.op()
    cells = len(workloads.SWEEP_BERS) * sweep.trials * 2
    assert sweep.check(op) == (cells, 0)
    results = op.outputs["u8"]
    craft = next(r for r in results if r.scheme == "craft")
    worse = dataclasses.replace(craft.records[0], total_delta=1e300)
    broken = [dataclasses.replace(r, records=(worse,) + r.records[1:]) if r is craft else r
              for r in results]
    assert workloads.sweep_cell_failures(broken) == 1


def test_sweep_check_fails_a_repeat_that_changes_output(sweep):
    sweep.check(sweep.op())
    op = sweep.op()
    op.outputs["fp32"] = op.outputs["fp32"][::-1]  # same records, other CSV order
    cells = len(workloads.SWEEP_BERS) * sweep.trials
    tally = run.Tally()
    tally.add(sweep.check(op))
    assert tally.failed == cells and tally.failed_frac == 0.5


def test_storage_check_counts_each_mismatching_block(tmp_path):
    wl = tiny("storage", tmp_path)
    wl.setup()
    op = wl.op()
    assert wl.check(op) == (sum(wl.blocks.values()), 0)
    (enc, (code, text)) = op.outputs["u8"]
    lines = text.splitlines()
    row = lines.index("block,delta") + 1
    lines[row] = lines[row].split(",")[0] + ",12345.0"
    op.outputs["u8"] = (enc, (code, "\n".join(lines)))
    assert wl.check(op) == (sum(wl.blocks.values()), 1)
    op.outputs["u8"] = (enc, (3, text))
    assert wl.check(op)[1] == wl.blocks["u8"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_SECONDS", 0.0)
    spec = json.loads(run.SPEC.read_text())
    tally = run.Tally()
    metrics = run.end_to_end(tiny(name, tmp_path), 0.0, tally)
    for s in spec["end_to_end"]:
        assert metrics[s["name"]] > 0, s["name"]
    layers = run.per_layer(tiny(name, tmp_path), 0.0, tally, tmp_path / "trace.csv.gz")
    assert {s["name"] for s in spec["per_layer"]} <= set(layers)
    assert abs(layers["trace.self_gap_frac"]) < 0.05
    assert tally.attempted > 0 and tally.failed == 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

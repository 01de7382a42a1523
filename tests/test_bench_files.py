"""The recorded benchmark results at the repository root stay readable.

Each ``BENCH_<pr>_<short sha>.json`` holds one or more series of runs of
``bench/run.py --workload all``.  A series gives, per workload of
``BENCHMARK.json`` and per end-to-end metric, the unit and the median, min
and max over its runs, with ``correct`` over all of them; the file gives
the host's ``env`` line, the seconds and the run count.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_results_are_recorded():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_names_exactly_the_end_to_end_metrics(path):
    record = json.loads(path.read_text())
    assert isinstance(record["env"], dict) and record["env"]
    assert record["runs"] >= 1 and record["seconds"] > 0
    workloads = [w["name"] for w in SPEC["workloads"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert record["series"]
    for series in record["series"]:
        assert type(series["correct"]) is bool
        assert list(series["metrics"]) == workloads
        for metrics in series["metrics"].values():
            assert sorted(metrics) == sorted(units)
            for name, m in metrics.items():
                assert m["unit"] == units[name]
                assert m["min"] <= m["median"] <= m["max"]

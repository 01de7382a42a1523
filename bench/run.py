#!/usr/bin/env python3
"""Seeded benchmark of the craft package: sweep, criticality and storage.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one child process each
    python3 bench/run.py --record-reference        # rewrite bench/reference.json

With ``--trace 0`` a run times whole operations and reports the end-to-end
metrics listed in BENCHMARK.json.  With ``--trace 1`` it alternates
untraced and traced operations and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  bench/README.md explains the workloads and
metrics.
"""

import os

# numpy links a threaded OpenBLAS; pin it to one thread before numpy is
# first imported, so timings do not depend on the machine's core count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".bench_work"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0

if not (SRC / "craft" / "__init__.py").is_file():
    sys.exit(f"bench: no craft sources under {SRC}; run from a full checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Operations attempted and failed, as the output checks count them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, counts: tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def environment() -> dict:
    """Interpreter, numpy, BLAS and CPU facts recorded with every result."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or blas.get("name")
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def run_for(wl, seconds: float, tally: Tally) -> list:
    """Repeat the workload's operation, checking each, until `seconds` pass."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        op = wl.op()
        tally.add(wl.check(op))
        ops.append(op)
    return ops


def kernel_s(ops) -> float:
    """The calibration kernel's mean seconds over the operations."""
    return statistics.fmean(s for op in ops for s in op.calibration)


def calibrated(ops) -> dict[str, float]:
    """Each phase's mean seconds at the calibration kernel's reference
    speed: scaled by the kernel's reference time over its mean time in
    this run.  See calibration.py.

    Means, not medians: the host flips between a fast and a slow state many
    times a second.  A phase's time is an average over those states, and
    so is the kernel's mean, while the median of short samples jumps from
    one state to the other as the slow share crosses a half."""
    kernel = kernel_s(ops)
    return {phase: seconds * calibration.REFERENCE_S / kernel
            for phase, seconds in wall(ops).items()}


def wall(ops) -> dict[str, float]:
    """Each phase's mean wall-clock seconds, for the record."""
    return {phase: statistics.fmean(op.seconds[phase] for op in ops)
            for phase in ops[0].seconds}


def end_to_end(wl, seconds: float, tally: Tally) -> dict[str, float]:
    """Calibrated set-up time and rates, and peak memory."""
    setup = workloads.Op()
    while len(setup.seconds) < SETUP_MIN_REPEATS or setup.total_s < SETUP_MIN_SECONDS:
        setup.timed(str(len(setup.seconds)), wl.setup)
    tally.add(wl.check(wl.op()))  # warm-up, checked but not timed
    ops = run_for(wl, seconds, tally)
    metrics = wl.rates(calibrated(ops))
    metrics["setup_s"] = statistics.fmean(calibrated([setup]).values())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics.update({f"{k}.wall": v for k, v in wl.rates(wall(ops)).items()})
    metrics["setup_s.wall"] = statistics.fmean(setup.seconds.values())
    # Printed so that a shift in the kernel itself between two commits,
    # which calibration would divide out of every rate, stays visible.
    metrics["calibration.kernel_s"] = kernel_s(ops)
    metrics["ops"] = len(ops)
    return metrics


def per_layer(wl, seconds: float, tally: Tally, trace_path: Path) -> dict[str, float]:
    """Untraced and traced operations in alternation until `seconds` pass."""
    wl.setup()
    tally.add(wl.check(wl.op()))
    rec, probes = spans.Recorder(), spans.Probes()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(wl.op())
        with spans.traced(rec, probes):
            traced.append(wl.op())
        tally.add(wl.check(untraced[-1]))
        tally.add(wl.check(traced[-1]))
    rec.write(trace_path)
    overhead = sum(calibrated(traced).values()) / sum(calibrated(untraced).values()) - 1.0
    return spans.summarize(rec, probes, len(traced), sum(op.total_s for op in traced),
                           overhead)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict | None, workdir: Path) -> tuple[dict, Tally]:
    tally = Tally()
    wl = workloads.WORKLOADS[name](seed, workdir, workloads.DigestBook(reference))
    if trace:
        metrics = per_layer(wl, seconds, tally, WORK / f"trace-{name}.csv.gz")
    else:
        metrics = end_to_end(wl, seconds, tally)
    return metrics, tally


def select(metrics: dict, specs: list[dict]) -> dict:
    return {s["name"]: {"value": float(metrics[s["name"]]), "unit": s["unit"]}
            for s in specs}


def report(name: str, metrics: dict, specs: list[dict], tally: Tally) -> None:
    """Every metric by name with its unit; extras such as wall-clock rates last."""
    units = {s["name"]: s["unit"] for s in specs}
    print(f"== {name}")
    for key in [*units, *(k for k in metrics if k not in units)]:
        unit = {"ops": "count", "calibration.kernel_s": "s"}.get(
            key, units.get(key.removesuffix(".wall"), ""))
        print(f"{name} {key} {metrics[key]!r} {unit}".rstrip())
    print(f"{name} failed_ops_frac {tally.failed_frac!r} frac "
          f"({tally.failed} failed of {tally.attempted})")


def record_reference() -> int:
    """Run one operation of each workload at the default seed and store
    their output digests as the reference."""
    digests = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = fresh_workdir(name)
        try:
            book = workloads.DigestBook(None)
            wl = cls(workloads.DEFAULT_SEED, workdir, book)
            wl.setup()
            attempted, failed = wl.check(wl.op())
            if failed:
                print(f"{name}: {failed} of {attempted} checks failed; reference not written",
                      file=sys.stderr)
                return 1
            digests.update(book.seen)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "digests": digests},
                                    indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def fresh_workdir(name: str) -> Path:
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def run_all(args) -> int:
    """Every workload in its own child process, so that per-process figures
    such as peak memory belong to that workload alone.  The metrics are
    merged under `<workload>.` prefixes."""
    total, metrics = Tally(), {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total.add((result["attempted"], result["failed"]))
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": total.failed == 0 and total.attempted > 0,
                      "attempted": total.attempted, "failed": total.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="drives fault maps and trial seeds; digests are "
                             "checked only at the default")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store output digests at the default seed and exit")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if args.record_reference:
        return record_reference()

    if args.workload == "all":
        return run_all(args)

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())["digests"]
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("env " + json.dumps(environment(), sort_keys=True))
    workdir = fresh_workdir(args.workload)
    try:
        values, tally = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args.workload, values, specs, tally)
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": select(values, specs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

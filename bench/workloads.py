"""The benchmark's workloads: sweep, criticality and storage.

Each workload builds its inputs in ``setup``, then repeats one fixed, seeded
operation (``op``).  ``check`` verifies an operation's outputs and returns
(attempted, failed) counts; ``rates`` turns seconds per timed phase into
the end-to-end metrics.  Models and datasets use the package defaults; the seed
drives the fault maps and trial seeds only, so one seed always gives the
same outputs, and every repeat of an operation must reproduce them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

from craft import cli, harness, memory, nn, weightfile

import calibration

DEFAULT_SEED = 7
PAYLOAD_BITS = 512
WORD_BITS = {"fp32": 32, "u8": 8}

SCHEMES = ("baseline", "ecp1", "remap_invert", "craft")
SWEEP_BERS = (1e-3, 1e-2, 1e-1)
SWEEP_TRIALS = 4
CRITICALITY_BER = 1e-3
CRITICALITY_TRIALS = 20
STORAGE_HIDDEN = (256, 256)
STORAGE_BER = 1e-2


@dataclass
class Op:
    """One operation: its outputs per precision, the seconds of each timed
    phase (one harness call or CLI command), and the calibration kernel's
    seconds, sampled before and after every phase."""

    outputs: dict = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    calibration: list[float] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    def timed(self, phase: str, fn, *args, **kwargs):
        """Call fn, timing it as `phase` between two calibration runs."""
        self.calibration.append(calibration.kernel_seconds())
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[phase] = time.perf_counter() - t0
        self.calibration.append(calibration.kernel_seconds())
        return result


class DigestBook:
    """Output digests: each repeat must match the first; at the default
    seed, each must also match the recorded reference."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.seen: dict[str, str] = {}

    def ok(self, key: str, path: Path) -> bool:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        first = self.seen.setdefault(key, digest)
        if digest != first:
            return False
        return self.reference is None or self.reference.get(key) == digest


def train_models(hidden=nn.DEFAULT_HIDDEN):
    dataset = nn.make_dataset()
    model = nn.train(dataset, hidden_dims=hidden).model
    return dataset, {"fp32": model, "u8": nn.quantize(model)}


def n_blocks(model) -> int:
    return weightfile.flatten_model(model)[1].n_blocks


def sweep_cell_failures(results) -> int:
    """(BER, trial) cells of one ber_sweep call that break its invariants.

    Fault maps are paired across schemes, so in every cell
    craft <= remap_invert <= baseline on total_delta (each search space
    contains the next one's, identity included), and all schemes share the
    fault-free error.
    """
    by_scheme = {r.scheme: r for r in results}
    cells = max((len(r.records) for r in results), default=0)
    if set(by_scheme) != set(SCHEMES) or len({r.fault_free_error for r in results}) != 1:
        return cells
    records = [by_scheme[s].records for s in SCHEMES]
    if any(len(r) != cells for r in records):
        return cells
    failed = 0
    for base, ecp, ri, craft in zip(*records):
        paired = len({(r.ber, r.trial) for r in (base, ecp, ri, craft)}) == 1
        if not (paired and craft.total_delta <= ri.total_delta <= base.total_delta):
            failed += 1
    return failed


class Sweep:
    """ber_sweep over the four schemes and three BERs, fp32 and u8."""

    name = "sweep"

    def __init__(self, seed: int, workdir: Path, book: DigestBook,
                 trials: int = SWEEP_TRIALS):
        self.seed, self.workdir, self.book = seed, workdir, book
        self.trials = trials
        self.schemes = [harness.Scheme.parse(s) for s in SCHEMES]

    def setup(self) -> None:
        self.dataset, self.models = train_models()
        self.blocks = {p: n_blocks(m) for p, m in self.models.items()}

    def op(self) -> Op:
        op = Op()
        for prec, model in self.models.items():
            op.outputs[prec] = op.timed(prec, harness.ber_sweep, model, self.dataset,
                                        self.schemes, SWEEP_BERS, self.trials, self.seed,
                                        threads=1)
        return op

    def rates(self, seconds: dict[str, float]) -> dict[str, float]:
        results = len(self.schemes) * len(SWEEP_BERS) * self.trials
        blocks = sum(results * self.blocks[p] for p in seconds)
        t = sum(seconds.values())
        # Each result writes every model block through the fault map and
        # reads it back inside one harness call, so both block rates share
        # the call's time.
        return {"trials_per_s": results * len(seconds) / t,
                "encode_blocks_per_s": blocks / t, "decode_blocks_per_s": blocks / t}

    def check(self, op: Op) -> tuple[int, int]:
        attempted = failed = 0
        for prec, results in op.outputs.items():
            raw = self.workdir / f"sweep_{prec}_raw.csv"
            summary = self.workdir / f"sweep_{prec}_summary.csv"
            harness.write_raw_csv(results, raw)
            harness.write_summary_csv(results, summary)
            files_ok = [self.book.ok(f"sweep/{prec}_raw.csv", raw),
                        self.book.ok(f"sweep/{prec}_summary.csv", summary)]
            cells = len(SWEEP_BERS) * self.trials
            attempted += cells
            failed += cells if not all(files_ok) else min(cells, sweep_cell_failures(results))
        return attempted, failed


class Criticality:
    """bit_criticality at BER 1e-3, fp32 (32 positions) and u8 (8)."""

    name = "criticality"

    def __init__(self, seed: int, workdir: Path, book: DigestBook,
                 trials: int = CRITICALITY_TRIALS):
        self.seed, self.workdir, self.book = seed, workdir, book
        self.trials = trials

    def setup(self) -> None:
        self.dataset, self.models = train_models()
        self.blocks = {p: n_blocks(m) for p, m in self.models.items()}
        ds = self.dataset
        self.fault_free = {p: 1.0 - nn.accuracy(m, ds.test_inputs, ds.test_labels)
                           for p, m in self.models.items()}

    def op(self) -> Op:
        op = Op()
        for prec, model in self.models.items():
            op.outputs[prec] = op.timed(prec, harness.bit_criticality, model, self.dataset,
                                        ber=CRITICALITY_BER, trials=self.trials, base_seed=self.seed)
        return op

    def rates(self, seconds: dict[str, float]) -> dict[str, float]:
        results = {p: WORD_BITS[p] * self.trials for p in seconds}
        blocks = sum(n * self.blocks[p] for p, n in results.items())
        t = sum(seconds.values())
        return {"trials_per_s": sum(results.values()) / t,
                "encode_blocks_per_s": blocks / t, "decode_blocks_per_s": blocks / t}

    def check(self, op: Op) -> tuple[int, int]:
        attempted = failed = 0
        for prec, result in op.outputs.items():
            path = self.workdir / f"criticality_{prec}.csv"
            harness.write_criticality_csv(result, path)
            positions = WORD_BITS[prec]
            attempted += positions
            if (not self.book.ok(f"criticality/{prec}.csv", path)
                    or result.fault_free_error != self.fault_free[prec]
                    or [p.position for p in result.points] != list(range(positions))):
                failed += positions
                continue
            failed += sum(1 for p in result.points
                          if not (0.0 <= p.mean_error <= 1.0 and p.std_error >= 0.0
                                  and 0.0 <= p.mean_delta < float("inf")))
        return attempted, failed


def run_cli(argv: list[str]) -> tuple[int, str]:
    """craft.cli.main in this process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def block_rows(text: str, header: str) -> list[list[str]]:
    """CSV rows printed after `header` up to the first non-row line."""
    lines = text.splitlines()
    if header not in lines:
        return []
    rows = []
    for line in lines[lines.index(header) + 1:]:
        if not line[:1].isdigit():
            break
        rows.append(line.split(","))
    return rows


class Storage:
    """craft encode-file then decode-file --reference on a 16-256-256-4 model."""

    name = "storage"

    def __init__(self, seed: int, workdir: Path, book: DigestBook,
                 hidden=STORAGE_HIDDEN):
        self.seed, self.workdir, self.book = seed, workdir, book
        self.hidden = tuple(hidden)

    def path(self, prec: str, suffix: str) -> str:
        return str(self.workdir / f"{prec}{suffix}")

    def setup(self) -> None:
        _, models = train_models(self.hidden)
        self.blocks = {}
        for prec, model in models.items():
            weightfile.save_model(model, self.path(prec, ".w"))
            self.blocks[prec] = n_blocks(model)
            fmap = memory.generate_fault_map(self.blocks[prec] * PAYLOAD_BITS, STORAGE_BER,
                                             seed=self.seed)
            memory.save_fault_map(fmap, self.path(prec, ".faults"))

    def op(self) -> Op:
        op = Op()
        for prec in self.blocks:
            p = functools.partial(self.path, prec)
            encoded = op.timed(f"encode.{prec}", run_cli, [
                "encode-file", "--in", p(".w"), "--out", p(".blk"), "--fault-map", p(".faults")])
            decoded = op.timed(f"decode.{prec}", run_cli, [
                "decode-file", "--in", p(".blk"), "--sidecar", p(".blk.aux"),
                "--out", p(".dec.w"), "--reference", p(".w")])
            op.outputs[prec] = (encoded, decoded)
        return op

    def rates(self, seconds: dict[str, float]) -> dict[str, float]:
        blocks = sum(self.blocks.values())
        encode = sum(seconds[f"encode.{p}"] for p in self.blocks)
        decode = sum(seconds[f"decode.{p}"] for p in self.blocks)
        return {"trials_per_s": len(self.blocks) / (encode + decode),
                "encode_blocks_per_s": blocks / encode,
                "decode_blocks_per_s": blocks / decode}

    def check(self, op: Op) -> tuple[int, int]:
        """Per block: both commands exit 0, decode-file's delta equals
        encode-file's, and the decoded weight file matches its digest."""
        attempted = failed = 0
        for prec, ((enc_code, enc_out), (dec_code, dec_out)) in op.outputs.items():
            n = self.blocks[prec]
            attempted += n
            enc = block_rows(enc_out, "block,aux_hex,delta")
            dec = block_rows(dec_out, "block,delta")
            if (enc_code != 0 or dec_code != 0 or len(enc) != n or len(dec) != n
                    or not self.book.ok(f"storage/{prec}.dec.w", self.path(prec, ".dec.w"))):
                failed += n
                continue
            failed += sum(1 for e, d in zip(enc, dec) if [e[0], e[-1]] != d)
        return attempted, failed


WORKLOADS = {w.name: w for w in (Sweep, Criticality, Storage)}

"""Command-line entry point.

Subcommands: train, sweep, criticality, encode-file, decode-file.  Every
command echoes its effective configuration (derived seeds included) as
`config key=value` lines; re-running with the same flags reproduces all
outputs byte for byte.  Exit codes: 0 success, 1 usage error, 2 I/O error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .codecs import PAYLOAD_BITS, decode_words
from .harness import (Scheme, _write_rows, ber_sweep, bit_criticality, default_ber_grid,
                      write_criticality_csv, write_raw_csv, write_summary_csv)
from .memory import load_fault_map, stuck_words
from .nn import (DEFAULT_CLASSES, DEFAULT_EPOCHS, DEFAULT_FEATURES, DEFAULT_HIDDEN,
                 DEFAULT_LR, DEFAULT_SAMPLES, DEFAULT_SEED, TrainingDivergedError,
                 accuracy, make_dataset, quantize, train)
from .objective import deviation_words, store_words
from .weightfile import (flatten_model, load_blocks, load_model, load_sidecar,
                         save_blocks, save_model, save_sidecar, unflatten_model)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class IOFailure(Exception):
    pass


class UsageFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _flag_type(parse):
    """An argparse type that says why it rejected a value: argparse prints
    an ArgumentTypeError's message, but for a ValueError only the name of
    the type function."""
    @functools.wraps(parse)
    def checked(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return checked


@_flag_type
def _hidden_dims(text: str) -> tuple[int, ...]:
    dims = tuple(int(part) for part in text.split(",") if part)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"hidden dims must be positive integers, got {text!r}")
    return dims


@_flag_type
def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


@_flag_type
def _ber(text: str) -> float:
    value = float(text)
    if not 0 <= value <= 1:
        raise ValueError(f"BER must be in [0, 1], got {value!r}")
    return value


@_flag_type
def _ber_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part]
    if not values:
        raise ValueError("empty BER list")
    for value in values:
        if not 0 <= value <= 1:
            raise ValueError(f"every BER must be in [0, 1], got {value!r}")
    return values


@_flag_type
def _ber_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:per-decade, got {text!r}")
    return default_ber_grid(float(parts[0]), float(parts[1]), int(parts[2]))


@_flag_type
def _schemes(text: str) -> list[Scheme]:
    schemes = [Scheme.parse(part) for part in text.split(",") if part]
    if not schemes:
        raise ValueError("empty scheme list")
    return schemes


def _echo(args: argparse.Namespace, derived: dict | None = None) -> None:
    values = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    values.update(derived or {})
    for key in sorted(values):
        value = values[key]
        if isinstance(value, list) and value and isinstance(value[0], Scheme):
            value = ",".join(s.name for s in value)
        elif isinstance(value, (list, tuple)):
            value = ",".join(map(str, value))
        print(f"config {key}={value}")


def _open_model(path):
    try:
        return load_model(path)
    except (OSError, ValueError) as exc:
        raise IOFailure(f"cannot read model file {path}: {exc}") from exc


def _check_out_dir(path) -> None:
    """Fail before any work unless the directory of output `path` takes files
    and `path` itself is not a directory."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory) or not os.access(directory, os.W_OK | os.X_OK):
        raise IOFailure(f"output directory {directory} is missing or not writable")
    if os.path.isdir(path):
        raise IOFailure(f"output {path} is a directory, not a file")


def _dataset(seed: int, args):
    """The synthetic dataset that the dataset flags describe."""
    try:
        return make_dataset(seed, args.classes, args.features, args.samples)
    except ValueError as exc:
        raise UsageFailure(f"bad dataset flags: {exc}") from exc


def _run_inputs(args, *out_paths):
    """Model and dataset of a sweep or criticality run, checked before any work:
    each of `out_paths` must be writable as a file and the dataset must fit
    the model."""
    for path in out_paths:
        _check_out_dir(path)
    model = _open_model(args.model)
    dims = model.layer_dims
    if (dims[0], dims[-1]) != (args.features, args.classes):
        raise UsageFailure(f"model maps {dims[0]} features to {dims[-1]} classes, not "
                           f"--features {args.features} to --classes {args.classes}")
    return model, _dataset(args.data_seed, args)


def _add_dataset_flags(sub, seed_flag: bool = True):
    sub.add_argument("--features", type=int, default=DEFAULT_FEATURES)
    sub.add_argument("--classes", type=int, default=DEFAULT_CLASSES)
    sub.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    if seed_flag:
        sub.add_argument("--data-seed", type=int, default=DEFAULT_SEED,
                         help="seed of the synthetic dataset the model was trained on")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="craft", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train (and optionally quantize) the synthetic MLP")
    p.add_argument("--out", required=True, help="output weight file")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_dataset_flags(p, seed_flag=False)
    p.add_argument("--hidden", type=_hidden_dims, default=DEFAULT_HIDDEN)
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p.add_argument("--lr", type=float, default=DEFAULT_LR)
    p.add_argument("--quantize", action="store_true", help="write u8 quantized weights")
    p.add_argument("--config", help="key=value file overlaying the flags")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="BER sweep comparing protection schemes")
    p.add_argument("--model", required=True)
    p.add_argument("--schemes", type=_schemes, default=_schemes("baseline,ecp1,remap_invert,craft"))
    p.add_argument("--ber-grid", type=_ber_grid, default=None,
                   help="lo:hi:per-decade log grid (default 1e-5:1e-1:5)")
    p.add_argument("--ber", type=_ber_list, default=None,
                   help="explicit comma-separated BER list, overrides the grid")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="output prefix for _raw.csv and _summary.csv")
    _add_dataset_flags(p)
    p.add_argument("--config", help="key=value file overlaying the flags")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("criticality", help="per-bit-position fault sensitivity")
    p.add_argument("--model", required=True)
    p.add_argument("--ber", type=_ber, default=1e-3)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_dataset_flags(p)
    p.add_argument("--config", help="key=value file overlaying the flags")
    p.set_defaults(func=cmd_criticality)

    p = sub.add_parser("encode-file", help="store a weight file through a fault map")
    p.add_argument("--in", dest="in_path", required=True, help="weight file to protect")
    p.add_argument("--out", required=True, help="output block file")
    p.add_argument("--fault-map", required=True, help="fault map text file")
    p.add_argument("--sidecar", default=None, help="aux sidecar path (default <out>.aux)")
    p.add_argument("--config", help="key=value file overlaying the flags")
    p.set_defaults(func=cmd_encode_file)

    p = sub.add_parser("decode-file", help="decode a stored block file back to weights")
    p.add_argument("--in", dest="in_path", required=True, help="block file")
    p.add_argument("--sidecar", required=True, help="aux sidecar written by encode-file")
    p.add_argument("--out", required=True, help="output weight file")
    p.add_argument("--reference", default=None,
                   help="original weight file; enables per-block deviation report")
    p.add_argument("--config", help="key=value file overlaying the flags")
    p.set_defaults(func=cmd_decode_file)

    return parser


def _overlay_config(argv: list[str]) -> list[str]:
    """Append tokens from a --config key=value file; later tokens win."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return argv
    try:
        with open(path) as fh:
            lines = [l.strip() for l in fh if l.strip() and not l.strip().startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise IOFailure(f"cannot read config file {path}: {exc}") from exc
    extra = []
    for line in lines:
        if "=" not in line:
            raise IOFailure(f"malformed config line {line!r} in {path}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "yes", "on"):
            extra.append(flag)
        elif value.lower() in ("false", "no", "off"):
            continue
        else:
            extra.extend([flag, value])
    return argv + extra


def cmd_train(args) -> int:
    dataset_seed = args.seed
    train_seed = args.seed + 1
    _echo(args, {"dataset_seed": dataset_seed, "train_seed": train_seed,
                 "precision": "u8" if args.quantize else "fp32"})
    _check_out_dir(args.out)
    dataset = _dataset(dataset_seed, args)
    try:
        result = train(dataset, hidden_dims=args.hidden, epochs=args.epochs,
                       lr=args.lr, seed=train_seed)
    except ValueError as exc:
        raise UsageFailure(f"bad training flags: {exc}") from exc
    model = quantize(result.model) if args.quantize else result.model
    acc = accuracy(model, dataset.test_inputs, dataset.test_labels)
    try:
        save_model(model, args.out)
    except OSError as exc:
        raise IOFailure(f"cannot write {args.out}: {exc}") from exc
    print(f"final_train_loss={result.epoch_losses[-1]!r}" if result.epoch_losses
          else "final_train_loss=nan")
    print(f"fault_free_accuracy={acc!r}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    bers = args.ber if args.ber is not None else (args.ber_grid or default_ber_grid())
    _echo(args, {"ber_points": bers, "trial_seeds": f"{args.seed}..{args.seed + args.trials - 1}"})
    raw_path = f"{args.out}_raw.csv"
    summary_path = f"{args.out}_summary.csv"
    model, dataset = _run_inputs(args, raw_path, summary_path)
    try:
        results = ber_sweep(model, dataset, args.schemes, bers, args.trials, args.seed)
    except ValueError as exc:
        raise UsageFailure(f"bad sweep flags: {exc}") from exc
    try:
        write_raw_csv(results, raw_path)
        write_summary_csv(results, summary_path)
    except OSError as exc:
        raise IOFailure(f"cannot write sweep CSVs: {exc}") from exc
    print(f"fault_free_error={results[0].fault_free_error!r}")
    print(f"wrote {raw_path}")
    print(f"wrote {summary_path}")
    return EXIT_OK


def cmd_criticality(args) -> int:
    _echo(args, {"trial_seeds": f"{args.seed}..{args.seed + args.trials - 1}"})
    model, dataset = _run_inputs(args, args.out)
    try:
        result = bit_criticality(model, dataset, ber=args.ber, trials=args.trials,
                                 base_seed=args.seed)
    except ValueError as exc:
        raise UsageFailure(f"bad criticality flags: {exc}") from exc
    try:
        write_criticality_csv(result, args.out)
    except OSError as exc:
        raise IOFailure(f"cannot write {args.out}: {exc}") from exc
    print(f"fault_free_error={result.fault_free_error!r}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_encode_file(args) -> int:
    sidecar = args.sidecar or f"{args.out}.aux"
    if os.path.realpath(sidecar) == os.path.realpath(args.out):
        raise UsageFailure(f"--out and --sidecar name the same file: {args.out}, {sidecar}")
    _echo(args, {"sidecar_path": sidecar})
    _check_out_dir(args.out)
    _check_out_dir(sidecar)
    model = _open_model(args.in_path)
    try:
        fmap = load_fault_map(args.fault_map)
    except (OSError, ValueError) as exc:
        raise IOFailure(f"cannot read fault map {args.fault_map}: {exc}") from exc
    blocks, layout = flatten_model(model)
    if fmap.region_size_bits < layout.n_blocks * PAYLOAD_BITS:
        raise IOFailure(
            f"fault map region ({fmap.region_size_bits} bits) smaller than "
            f"weight region ({layout.n_blocks * PAYLOAD_BITS} bits)")
    mask, stuck = stuck_words(fmap, layout.n_blocks)
    codes, stored, deltas = store_words(blocks, mask, stuck, layout.precision,
                                        layout.block_scales())
    _write_rows(sys.stdout, "block,aux_hex,delta",
                zip(range(layout.n_blocks), map("{:02x}".format, codes.tolist()), deltas.tolist()))
    try:
        save_blocks(stored, layout, args.out)
        save_sidecar(codes, sidecar)
    except OSError as exc:
        raise IOFailure(f"cannot write encoded output: {exc}") from exc
    print(f"wrote {args.out}")
    print(f"wrote {sidecar}")
    return EXIT_OK


def cmd_decode_file(args) -> int:
    _echo(args)
    _check_out_dir(args.out)
    try:
        blocks, layout = load_blocks(args.in_path)
    except (OSError, ValueError) as exc:
        raise IOFailure(f"cannot read block file {args.in_path}: {exc}") from exc
    try:
        codes = load_sidecar(args.sidecar, layout.n_blocks)
    except (OSError, ValueError) as exc:
        raise IOFailure(f"cannot read sidecar {args.sidecar}: {exc}") from exc
    decoded = decode_words(blocks, np.array(codes), layout.precision)
    try:
        model = unflatten_model(decoded, layout)
    except ValueError as exc:  # e.g. layer shapes that do not chain
        raise IOFailure(f"block file {args.in_path} does not describe a model: {exc}") from exc
    if args.reference is not None:
        reference = _open_model(args.reference)
        ref_blocks, ref_layout = flatten_model(reference)
        if (ref_layout.precision, ref_layout.shapes, ref_layout.quant) != \
                (layout.precision, layout.shapes, layout.quant):
            raise IOFailure("reference model does not match the block file layout")
        deltas = deviation_words(ref_blocks, decoded, layout.precision,
                                 ref_layout.block_scales())
        _write_rows(sys.stdout, "block,delta", enumerate(deltas.tolist()))
    try:
        save_model(model, args.out)
    except OSError as exc:
        raise IOFailure(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        tokens = _overlay_config(argv)
        try:
            args = parser.parse_args(tokens)
        except SystemExit as exc:  # argparse help/usage paths
            return int(exc.code or 0)
        return args.func(args)
    except (UsageFailure, IOFailure) as exc:
        print(f"craft: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageFailure) else EXIT_IO
    except TrainingDivergedError as exc:
        print(f"craft: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # sizes within the MAX_* caps that the host cannot hold
        print(f"craft: error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: train, sweep, criticality, encode-file, decode-file.  Every
command echoes its effective configuration (derived seeds included) as
`config key=value` lines; re-running with the same flags reproduces all
outputs byte for byte.  Exit codes: 0 success, 1 usage error, 2 I/O error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import sys
from pathlib import Path

from .codecs import decode_words
from .harness import (Scheme, _write_rows, ber_sweep, bit_criticality, check_trials,
                      default_ber_grid, write_criticality_csv, write_raw_csv, write_summary_csv)
from .memory import check_ber, load_fault_map, stuck_words
from .nn import (DEFAULT_CLASSES, DEFAULT_EPOCHS, DEFAULT_FEATURES, DEFAULT_HIDDEN,
                 DEFAULT_LR, DEFAULT_SAMPLES, DEFAULT_SEED, TrainingDivergedError,
                 accuracy, make_dataset, quantize, train)
from .objective import deviation_words, store_words
from .prng import trial_seed
from .weightfile import (AUX_HEX, flatten_model, load_blocks, load_model, load_sidecar,
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
    # A flag matches only when spelled in full, never by a prefix, and a
    # usage error exits 1, where argparse exits 2.
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


#: The ``--config`` flag of every subcommand, which :func:`_overlay_config` reads.
_CONFIG_FLAG = _Parser(prog="craft", add_help=False)
_CONFIG_FLAG.add_argument("--config", help="key=value file overlaying the flags")


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


def _comma_list(parse, what: str):
    """The flag type of a comma-separated list of `parse` values: empty parts
    are skipped, and a list with none left is refused."""
    @_flag_type
    def values(text: str) -> list:
        parsed = [parse(part) for part in text.split(",") if part]
        if not parsed:
            raise ValueError(f"empty {what} list")
        return parsed
    return values


@_flag_type
def _trials(text: str) -> int:
    return check_trials(int(text))


@_flag_type
def _ber(text: str) -> float:
    return check_ber(float(text))


@_flag_type
def _ber_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:per-decade, got {text!r}")
    return default_ber_grid(float(parts[0]), float(parts[1]), int(parts[2]))


# `_ber`'s ArgumentTypeError passes through `_comma_list` to argparse as it is.
_hidden_dims = _comma_list(int, "hidden dims")
_ber_list = _comma_list(_ber, "BER")
_schemes = _comma_list(Scheme.parse, "scheme")


def _echo(args: argparse.Namespace, derived: dict | None = None) -> None:
    values = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    values.update(derived or {})
    for key, value in sorted(values.items()):
        if isinstance(value, (list, tuple)):
            value = ",".join(map(str, value))
        print(f"config {key}={value}")


def _trial_seeds(args) -> str:
    """The first and last seed that the trials of a run receive."""
    return f"{trial_seed(args.seed, 0)}..{trial_seed(args.seed, args.trials - 1)}"


def _read(load, what: str, path, *args):
    """`load(path, *args)`, where a file that cannot be read, or does not hold
    what it should, is an I/O failure naming `what` and `path`."""
    try:
        return load(path, *args)
    except (OSError, ValueError) as exc:  # a UnicodeDecodeError is a ValueError
        raise IOFailure(f"cannot read {what} {path}: {exc}") from exc


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
    model = _read(load_model, "model file", args.model)
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
    add_command = functools.partial(sub.add_parser, parents=[_CONFIG_FLAG])

    p = add_command("train", help="train (and optionally quantize) the synthetic MLP")
    p.add_argument("--out", required=True, help="output weight file")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_dataset_flags(p, seed_flag=False)
    p.add_argument("--hidden", type=_hidden_dims, default=DEFAULT_HIDDEN)
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p.add_argument("--lr", type=float, default=DEFAULT_LR)
    p.add_argument("--quantize", action="store_true", help="write u8 quantized weights")
    p.set_defaults(func=cmd_train)

    p = add_command("sweep", help="BER sweep comparing protection schemes")
    p.add_argument("--model", required=True)
    p.add_argument("--schemes", type=_schemes, default=_schemes("baseline,ecp1,remap_invert,craft"))
    p.add_argument("--ber-grid", type=_ber_grid, default=None,
                   help="lo:hi:per-decade log grid (default 1e-5:1e-1:5)")
    p.add_argument("--ber", type=_ber_list, default=None,
                   help="explicit comma-separated BER list, overrides the grid")
    p.add_argument("--trials", type=_trials, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="output prefix for _raw.csv and _summary.csv")
    _add_dataset_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = add_command("criticality", help="per-bit-position fault sensitivity")
    p.add_argument("--model", required=True)
    p.add_argument("--ber", type=_ber, default=1e-3)
    p.add_argument("--trials", type=_trials, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_dataset_flags(p)
    p.set_defaults(func=cmd_criticality)

    p = add_command("encode-file", help="store a weight file through a fault map")
    p.add_argument("--in", dest="in_path", required=True, help="weight file to protect")
    p.add_argument("--out", required=True, help="output block file")
    p.add_argument("--fault-map", required=True, help="fault map text file")
    p.add_argument("--sidecar", default=None, help="aux sidecar path (default <out>.aux)")
    p.set_defaults(func=cmd_encode_file)

    p = add_command("decode-file", help="decode a stored block file back to weights")
    p.add_argument("--in", dest="in_path", required=True, help="block file")
    p.add_argument("--sidecar", required=True, help="aux sidecar written by encode-file")
    p.add_argument("--out", required=True, help="output weight file")
    p.add_argument("--reference", default=None,
                   help="original weight file; enables per-block deviation report")
    p.set_defaults(func=cmd_decode_file)

    return parser


def _overlay_config(argv: list[str]) -> list[str]:
    """Append tokens from a --config key=value file; later tokens win."""
    path = _CONFIG_FLAG.parse_known_args(argv)[0].config
    if path is None:
        return argv
    extra = []
    for line in _read(lambda p: Path(p).read_text().split("\n"), "config file", path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise IOFailure(f"malformed config line {line!r} in {path}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "yes", "on"):
            extra.append(flag)
        elif value.lower() not in ("false", "no", "off"):
            extra.extend([flag, value])
    return argv + extra


def cmd_train(args) -> int:
    dataset_seed, train_seed = trial_seed(args.seed, 0), trial_seed(args.seed, 1)
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
    save_model(model, args.out)
    print(f"final_train_loss={result.epoch_losses[-1]!r}" if result.epoch_losses
          else "final_train_loss=nan")
    print(f"fault_free_accuracy={acc!r}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    bers = args.ber if args.ber is not None else (args.ber_grid or default_ber_grid())
    _echo(args, {"ber_points": bers, "trial_seeds": _trial_seeds(args)})
    raw_path = f"{args.out}_raw.csv"
    summary_path = f"{args.out}_summary.csv"
    model, dataset = _run_inputs(args, raw_path, summary_path)
    try:
        results = ber_sweep(model, dataset, args.schemes, bers, args.trials, args.seed)
    except ValueError as exc:
        raise UsageFailure(f"bad sweep flags: {exc}") from exc
    write_raw_csv(results, raw_path)
    write_summary_csv(results, summary_path)
    print(f"fault_free_error={results[0].fault_free_error!r}")
    print(f"wrote {raw_path}")
    print(f"wrote {summary_path}")
    return EXIT_OK


def cmd_criticality(args) -> int:
    _echo(args, {"trial_seeds": _trial_seeds(args)})
    model, dataset = _run_inputs(args, args.out)
    try:
        result = bit_criticality(model, dataset, ber=args.ber, trials=args.trials,
                                 base_seed=args.seed)
    except ValueError as exc:
        raise UsageFailure(f"bad criticality flags: {exc}") from exc
    write_criticality_csv(result, args.out)
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
    model = _read(load_model, "model file", args.in_path)
    fmap = _read(load_fault_map, "fault map", args.fault_map)
    blocks, layout = flatten_model(model)
    try:
        mask, stuck = stuck_words(fmap, layout.n_blocks)
    except IndexError as exc:
        raise IOFailure(f"fault map {args.fault_map}: {exc}") from exc
    codes, stored, deltas = store_words(blocks, mask, stuck, layout.precision,
                                        layout.block_scales())
    save_blocks(stored, layout, args.out)
    save_sidecar(codes, sidecar)
    _write_rows(sys.stdout, "block,aux_hex,delta",
                [range(layout.n_blocks), map(AUX_HEX.__getitem__, codes.tolist()), deltas])
    print(f"wrote {args.out}")
    print(f"wrote {sidecar}")
    return EXIT_OK


def cmd_decode_file(args) -> int:
    _echo(args)
    _check_out_dir(args.out)
    blocks, layout = _read(load_blocks, "block file", args.in_path)
    codes = _read(load_sidecar, "sidecar", args.sidecar, layout.n_blocks)
    decoded = decode_words(blocks, codes, layout.precision)
    try:
        model = unflatten_model(decoded, layout)
    except ValueError as exc:  # e.g. layer shapes that do not chain
        raise IOFailure(f"block file {args.in_path} does not describe a model: {exc}") from exc
    if args.reference is not None:
        ref_blocks, ref_layout = flatten_model(_read(load_model, "model file", args.reference))
        if (ref_layout.precision, ref_layout.shapes, ref_layout.quant) != \
                (layout.precision, layout.shapes, layout.quant):
            raise IOFailure("reference model does not match the block file layout")
        deltas = deviation_words(ref_blocks, decoded, layout.precision,
                                 ref_layout.block_scales())
    save_model(model, args.out)
    if args.reference is not None:
        _write_rows(sys.stdout, "block,delta", [range(layout.n_blocks), deltas])
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        try:
            args = build_parser().parse_args(_overlay_config(argv))
        except SystemExit as exc:  # argparse help/usage paths
            code = int(exc.code or 0)
        else:
            code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except (UsageFailure, IOFailure) as exc:
        print(f"craft: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageFailure) else EXIT_IO
    except OSError as exc:  # a failed read or write, a closed stdout included
        if isinstance(exc, BrokenPipeError):
            # The interpreter flushes stdout again at exit; the SIGPIPE note
            # of the `signal` docs points its descriptor at os.devnull so
            # that this flush is silent.
            with contextlib.suppress(io.UnsupportedOperation):  # no descriptor
                stdout = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stdout)
                os.close(devnull)
        print(f"craft: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TrainingDivergedError as exc:
        print(f"craft: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # sizes within the MAX_* caps that the host cannot hold
        print(f"craft: error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

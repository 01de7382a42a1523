"""Fuzz the file-reading commands with truncated and byte-mutated inputs.

Valid fault maps, weight files, block files and sidecars are written once;
each example damages one of them and runs `encode-file` or `decode-file`
on it.  Whatever the damage, the CLI must exit 0, 1 or 2 with no traceback,
and it may exit 0 only when the damaged file still parses.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craft.cli import main
from craft.codecs import PAYLOAD_BITS
from craft.memory import generate_fault_map, load_fault_map, save_fault_map
from craft.weightfile import (flatten_model, load_blocks, load_model, load_sidecar,
                              save_model)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module", params=["fp32", "u8"])
def files(request, tmp_path_factory, fp32_model, u8_model):
    """Valid inputs of both commands, written once per precision."""
    model = fp32_model if request.param == "fp32" else u8_model
    root = tmp_path_factory.mktemp(request.param)
    paths = {"weights": root / "m.w", "fault_map": root / "faults.txt",
             "blocks": root / "m.blk", "sidecar": root / "m.blk.aux"}
    save_model(model, paths["weights"])
    n_blocks = flatten_model(model)[1].n_blocks
    save_fault_map(generate_fault_map(n_blocks * PAYLOAD_BITS, 1e-2, 0.5, 3), paths["fault_map"])
    code, err = run_cli("encode-file", "--in", paths["weights"], "--out", paths["blocks"],
                        "--fault-map", paths["fault_map"])
    assert code == 0, err
    return paths, n_blocks, root


def command_for(target, paths, damaged, root):
    """The command that reads `damaged` in place of `paths[target]`."""
    inputs = dict(paths, **{target: damaged})
    if target in ("weights", "fault_map"):
        return ("encode-file", "--in", inputs["weights"], "--fault-map", inputs["fault_map"],
                "--out", root / "out.blk", "--sidecar", root / "out.aux")
    return ("decode-file", "--in", inputs["blocks"], "--sidecar", inputs["sidecar"],
            "--out", root / "out.w", "--reference", paths["weights"])


def parses(target, path, n_blocks) -> bool:
    loader = {"weights": load_model, "fault_map": load_fault_map, "blocks": load_blocks,
              "sidecar": lambda p: load_sidecar(p, n_blocks)}[target]
    try:
        loader(path)
    except (OSError, ValueError):
        return False
    return True


@st.composite
def damage(draw, data: bytes) -> bytes:
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    # Half the edits land in the first 32 bytes, where a container header
    # keeps its magic, precision tag, layer count, first shape and u8
    # quantization parameters.
    position = st.one_of(st.integers(0, min(31, len(data) - 1)), st.integers(0, len(data) - 1))
    edits = draw(st.lists(st.tuples(position, st.integers(0, 255)), min_size=1, max_size=4))
    out = bytearray(data)
    for pos, value in edits:
        out[pos] = value
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(["weights", "fault_map", "blocks", "sidecar"]), data=st.data())
def test_damaged_input_exits_cleanly(files, target, data):
    paths, n_blocks, root = files
    damaged = root / f"damaged_{target}"
    damaged.write_bytes(data.draw(damage(paths[target].read_bytes())))
    try:
        code, err = run_cli(*command_for(target, paths, damaged, root))
    except Exception as exc:  # an escaped exception is a traceback on the console
        pytest.fail(f"{type(exc).__name__} escaped the CLI: {exc}")
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 0:
        assert parses(target, damaged, n_blocks)

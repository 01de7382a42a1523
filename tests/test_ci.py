"""The tier-1 step of CI and the pytest configuration stay in step."""

import shlex
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def tier1_command():
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index("      - name: Tier-1 tests")
    run = next(l for l in lines[start + 1:] if l.strip().startswith("run:"))
    return shlex.split(run.split("run:", 1)[1])


def test_tier1_warning_flags_mirror_filterwarnings(request):
    """CI passes pyproject.toml's `filterwarnings` again as `-W` flags, in
    the same order, since command-line filters take precedence over the ini
    list; an entry missing from either, or moved, changes what fails a run."""
    argv = tier1_command()
    flags = [argv[i + 1] for i, token in enumerate(argv) if token == "-W"]
    assert flags == request.config.getini("filterwarnings")

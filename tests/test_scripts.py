"""The runnable experiments in ``scripts/`` still run on this library.

Each script is run in a subprocess with tiny arguments, as the README
shows it, and must exit 0 and end on the line its summary prints.  No
other test imports the scripts, so an API change they depend on would
otherwise go unnoticed.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CASES = [
    (
        "muddle_trace.py --n 6 --d 2 --k 4 --latency 2 --bits 48 --steps 6",
        r"freshness bound 2\^-\d+; worst deviation seen 2\^(-inf|-?\d+\.\d)",
    ),
    # exits 1 if a folded state's packed F or N differs from the rebuild's
    (
        "apply_vs_rebuild.py --n 12 --k 4 --batches 2 --warmup 1",
        r"\s*12\s+4\s+\d+\.\d\d\s+\d+\.\d\d\s+\d+\.\d{3}",
    ),
    (
        "expansion_demo.py --family cycle --n 6 --max-ell 1",
        r"\s*1\s+3/8\s+0\.375000 reject \(witness 0\)",
    ),
    ("code_lines.py", r"total [1-9]\d*"),
]


@pytest.mark.parametrize("command,last", CASES, ids=[c.split()[0] for c, _ in CASES])
def test_script_runs_and_prints_its_summary(command, last):
    script, *args = command.split()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert re.fullmatch(last, proc.stdout.strip().splitlines()[-1])

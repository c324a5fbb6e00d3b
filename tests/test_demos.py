"""The four narrative demos print exactly their recorded output.

Each demo runs under ``-W error``: a warning in a demo fails its test,
since pytest's own warning filters do not reach a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def golden_for(demo: Path) -> Path:
    return GOLDEN / f"demo_{demo.name[:2]}.txt"


def test_every_demo_has_a_golden_file():
    assert len(DEMOS) == 4
    assert sorted(GOLDEN.glob("demo_*.txt")) == [golden_for(d) for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-W", "error", str(demo)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden_for(demo).read_text(encoding="utf-8")

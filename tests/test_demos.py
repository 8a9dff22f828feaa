"""The walkthroughs in demos/ run to completion against the library."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    # a copy, so the demos' own out/ directory is written under tmp_path
    demo = tmp_path / "demos" / name
    demo.parent.mkdir()
    shutil.copy(ROOT / "demos" / name, demo)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

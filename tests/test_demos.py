import os
import subprocess
import sys
from pathlib import Path

import pytest

import grouptrellis

SRC = Path(grouptrellis.__file__).resolve().parents[1]
DEMOS = SRC.parent / "demos"


@pytest.mark.parametrize("demo", ["posterior_walkthrough", "roc_noise_comparison", "trellis_tour"])
def test_demo_runs_and_leaves_the_working_directory_empty(demo, tmp_path):
    cwd, scratch = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    scratch.mkdir()
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        cwd=cwd, capture_output=True, text=True,
        # temporary files the demo writes stay inside tmp_path
        env={**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(scratch)},
    )
    assert proc.returncode == 0, proc.stderr
    assert list(cwd.iterdir()) == []

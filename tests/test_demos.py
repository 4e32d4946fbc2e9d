"""The demos run as scripts: each exits 0 without a traceback."""

import shutil
from pathlib import Path

import pytest

from test_io_cli import run_python

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_tree_scan_walkthrough.py", "02_affinity_image.py",
                                  "03_gradient_check.py", "04_scaling.py"])
def test_demo_runs(tmp_path, name):
    script = tmp_path / name  # a copy, so that files it writes land in tmp_path
    shutil.copy(DEMOS / name, script)
    proc = run_python([str(script)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr

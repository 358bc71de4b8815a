"""Smoke test: each script in scripts/ runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, marker", [
    (["lambda_sweep.py", "--problem", str(REPO / "problems" / "free.yaml"), "--steps", "9"],
     "sign changes in [4.0, 12.0]"),
    # one pair of the shortest benchmark runs, this checkout against itself
    (["bench_pairs.py", "--base", str(REPO), "--change", str(REPO), "--workload",
      "general_kernel", "--pairs", "1", "--seconds", "0.01"], '"change_wins": '),
], ids=["lambda_sweep", "bench_pairs"])
def test_script_runs(argv, marker):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout

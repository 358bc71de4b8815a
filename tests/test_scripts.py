"""Each script in scripts/ runs to completion on small inputs, and bench_pairs
reports runs that failed their check."""

import importlib.util
import json
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


def test_bench_pairs_exits_1_on_a_failed_run(tmp_path, monkeypatch, capsys):
    # a run whose result check fails, or that fails an operation, is named
    # on stderr after the JSON is written, and makes the exit status 1
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in json.loads((REPO / "BENCHMARK.json").read_text())[key]]

    def fake_run(root, workload, seed, seconds, trace):
        bad = root == "change" and seed == 1
        return {"correct": not bad, "failed": int(bad and trace), "attempted": 1,
                "metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "bench.json"
    argv = ["--base", "base", "--change", "change", "--workload", "synth_dense",
            "--pairs", "3", "--traced", "synth_dense", "--traced-pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert json.loads(out.read_text())["workloads"]["synth_dense"]["runs_correct_failed"]
    lines = capsys.readouterr().err.splitlines()
    assert lines[-2:] == ["synth_dense change run seed 1: correct False, failed 0",
                          "synth_dense change traced run seed 1: correct False, failed 1"]
    monkeypatch.setattr(bench_pairs, "run", lambda *args: fake_run("base", *args[1:]))
    assert bench_pairs.main(argv) == 0

import json
import math
from pathlib import Path

import pytest
import yaml

from nodalrec.cli import main
from nodalrec.io import read_nodal_csv

from _bullets import covers
from conftest import CORRIDOR_DOC

REPO = Path(__file__).resolve().parent.parent
FREE_YAML = str(REPO / "problems" / "free.yaml")
COSINE_YAML = str(REPO / "problems" / "cosine.yaml")
WORKED_YAML = str(REPO / "problems" / "worked_example.yaml")

ROTATED_FREE = """\
bc:
  theta: 0.0
  beta: 0.7853981633974483
"""


def _rotated(tmp_path):
    path = tmp_path / "rotated.yaml"
    path.write_text(ROTATED_FREE)
    return str(path)


def _category(capsys):
    captured = capsys.readouterr()
    for line in captured.err.splitlines():
        if line.startswith("error-category: "):
            return line.split(": ", 1)[1], captured
    return None, captured


def test_usage_error_exits_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])
    assert exc.value.code == 2
    cat, _ = _category(capsys)
    assert cat == "config"


@covers("cli.failure-category")
def test_config_error_exit(tmp_path, capsys):
    rc = main(["spectrum", "--problem", _rotated(tmp_path), "--n-min", "3"])
    assert rc == 2
    cat, _ = _category(capsys)
    assert cat == "config"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--problem", FREE_YAML, "--tol", "inf"],
    ["spectrum", "--problem", FREE_YAML, "--tol", "nan"],
    ["forward", "--problem", FREE_YAML, "--lam", "3.0", "inf"],
    ["forward", "--problem", FREE_YAML, "--lam", "nan"],
    ["reconstruct", "--data", "nodes.csv", "--known-m", "nan"],
    ["forward", "--problem", FREE_YAML, "--lam", "3.0", "--points", "1"],
    ["reconstruct", "--data", "nodes.csv", "--grid-points", "15"],
])
def test_nonfinite_option_exits_config(argv, tmp_path, capsys):
    # non-finite options, a step count below 2 and a reconstruction grid
    # below 16 points are configuration errors
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    cat, _ = _category(capsys)
    assert cat == "config"


@pytest.mark.parametrize("chi", ["(x - t)^1.5", "exp(-8*(x - t))"])
def test_unrepresentable_kernel_exits_invalid_problem(chi, tmp_path, capsys):
    path = tmp_path / "kernel.yaml"
    path.write_text(f'bc: {{theta: 0.0, beta: 0.0}}\ncoeffs:\n  chi: {{"12": "{chi}"}}\n')
    rc = main(["spectrum", "--problem", str(path), "--n-max", "6", "--out", str(tmp_path)])
    assert rc == 3
    cat, captured = _category(capsys)
    assert cat == "invalid-problem"
    assert "chi_separable" in captured.err


@pytest.mark.parametrize("coeffs", [
    'V: "1/0"', 'V: "10^400"', 'V: "(-1)^0.5"', 'chi: {"12": "2^2000"}',
    'V: "x*(-1)^0.5 - pi/2*(-1)^0.5"', 'V: "x + 1/0"',
])
def test_unevaluable_constant_exits_parse(coeffs, tmp_path, capsys):
    path = tmp_path / "constant.yaml"
    path.write_text(f"bc: {{theta: 0.0, beta: 0.0}}\ncoeffs:\n  {coeffs}\n")
    rc = main(["spectrum", "--problem", str(path), "--out", str(tmp_path)])
    assert rc == 3
    cat, captured = _category(capsys)
    assert cat == "parse"
    assert "cannot evaluate" in captured.err


@pytest.mark.parametrize("body, category, fragment", [
    ('coeffs: {V: "cos(x)*True"}', "parse", "V: literal True not allowed (line 1, column 8)"),
    ('coeffs: {chi: {"12": "x*True"}}', "parse",
     "chi.12: literal True not allowed (line 1, column 3)"),
    ("coeffs: [V]", "parse", "'coeffs' must be a mapping"),
    ("quadrature_points: 16", "invalid-problem", "quadrature_points must be at least 17"),
    ("quadrature_points: 4097.9", "parse", "quadrature_points must be an integer"),
    ("quadrature_points: true", "parse", "quadrature_points must be an integer"),
], ids=["bool-literal", "chi-bool-literal", "coeffs-list", "quadrature-16", "quadrature-fraction",
        "quadrature-bool"])
def test_rejected_problem_file_exits_3(body, category, fragment, tmp_path, capsys):
    path = tmp_path / "rejected.yaml"
    path.write_text(f"bc: {{theta: 0.0, beta: 0.0}}\n{body}\n")
    rc = main(["spectrum", "--problem", str(path), "--out", str(tmp_path)])
    assert rc == 3
    cat, captured = _category(capsys)
    assert cat == category
    assert fragment in captured.err


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("bc: [unclosed\n")
    rc = main(["spectrum", "--problem", str(bad)])
    assert rc == 3
    cat, _ = _category(capsys)
    assert cat == "parse"


@pytest.mark.parametrize("argv, name, body", [
    (["reconstruct", "--data"], "nodes.csv", b"\xff\xfe"),
    (["spectrum", "--problem"], "bad.yaml", b'bc: {theta: 0.0, beta: 0.0}\ncoeffs: {V: "x\xff"}\n'),
], ids=["nodal-csv", "problem-yaml"])
def test_input_that_is_not_utf8_exits_parse(tmp_path, capsys, argv, name, body):
    path = tmp_path / name
    path.write_bytes(body)
    rc = main([*argv, str(path), "--out", str(tmp_path / "out")])
    assert rc == 3
    cat, captured = _category(capsys)
    assert cat == "parse"
    assert f"{path}: not UTF-8 text (byte 0xff)" in captured.err


def test_unknown_key_exits_parse(tmp_path, capsys):
    # a misspelled key would otherwise be ignored: here V = 0 and m = 0
    path = tmp_path / "misspelled.yaml"
    path.write_text('bc: {theta: 0.3, beta: 0.1}\ncoefs: {V: "cos(x)", m: 0.5}\n')
    rc = main(["spectrum", "--problem", str(path), "--n-max", "6", "--out", str(tmp_path)])
    assert rc == 3
    cat, captured = _category(capsys)
    assert cat == "parse"
    assert "unknown top-level keys ['coefs']" in captured.err


def test_corridor_failure_agrees_between_spectrum_and_nodes(tmp_path, capsys):
    path = tmp_path / "corridor.yaml"
    path.write_text(yaml.safe_dump(CORRIDOR_DOC))
    argv = ["--problem", str(path), "--n-max", "8", "--out", str(tmp_path)]
    assert main(["spectrum", *argv]) == 4
    cat, captured = _category(capsys)
    assert cat == "ambiguity"
    message = captured.err.splitlines()[-1].removeprefix("error: ")
    assert message.startswith("lambda_5 = ")
    assert main(["nodes", *argv]) == 0
    _, captured = _category(capsys)
    assert f"warning: n=5: AmbiguityError: {message}" in captured.err.splitlines()
    assert sorted(read_nodal_csv(tmp_path / "nodes.csv").nodes) == [6, 7, 8]


def test_missing_file_exit(capsys):
    rc = main(["spectrum", "--problem", "/nonexistent/q.yaml"])
    assert rc == 3
    cat, _ = _category(capsys)
    assert cat == "io"


def test_numeric_error_exit(tmp_path, capsys):
    data = tmp_path / "thin.csv"
    data.write_text("n,j,x\n5,0,1.0\n6,0,1.0\n7,0,1.0\n")
    rc = main(["reconstruct", "--data", str(data), "--out", str(tmp_path)])
    assert rc == 4
    cat, _ = _category(capsys)
    assert cat == "insufficient-data"


def test_spectrum_rotated_offset(tmp_path, capsys):
    # beta = pi/4 rotates every eigenvalue to exactly n + 1/4; the batch
    # shares one grid, so the stepper's (lam h)^4 phase error grows toward
    # the top of the range and caps agreement below 1e-6
    rc = main([
        "spectrum", "--problem", _rotated(tmp_path),
        "--n-min", "5", "--n-max", "20", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,lambda,residual"
    assert len(lines) == 17
    for line in lines[1:]:
        n, lam, _ = line.split(",")
        assert abs(float(lam) - (int(n) + 0.25)) <= 2e-6


def test_forward_trajectories(tmp_path, capsys):
    rc = main([
        "forward", "--problem", _rotated(tmp_path),
        "--lam", "3.0", "4.5", "--out", str(tmp_path),
    ])
    assert rc == 0
    for i, lam in enumerate(("3.0", "4.5")):
        lines = (tmp_path / f"trajectory_{i}.csv").read_text().splitlines()
        assert lines[0] == f"# lambda={lam}"
        assert lines[1] == "x,phi1,phi2"
        assert len(lines) > 100


@pytest.mark.parametrize("argv", [
    ["--lam", "1e300"],  # about 6.3e301 steps
    ["--lam", "3.0", "--points", str(10 ** 21)],
])
def test_forward_grid_numpy_cannot_allocate_exits_resolution(argv, tmp_path, capsys):
    # a step count numpy refuses to make a grid of is a resolution failure
    # that names the points, not numpy's traceback
    rc = main(["forward", "--problem", FREE_YAML, *argv, "--out", str(tmp_path)])
    assert rc == 4
    cat, captured = _category(capsys)
    assert cat == "resolution"
    assert "points" in captured.err and "does not fit in memory" in captured.err
    assert not (tmp_path / "trajectory_0.csv").exists()


def test_nodes_command(tmp_path, capsys):
    rc = main([
        "nodes", "--problem", FREE_YAML,
        "--n-min", "5", "--n-max", "12", "--out", str(tmp_path),
    ])
    assert rc == 0
    data = read_nodal_csv(tmp_path / "nodes.csv")
    for n in range(5, 13):
        assert len(data.nodes[n]) == n - 1
        worst = max(
            abs(x - (j + 1) * math.pi / n) for j, x in enumerate(data.nodes[n])
        )
        assert worst <= 1e-8


def test_out_names_a_csv_in_a_new_directory(tmp_path, capsys):
    # an --out ending in .csv is the file itself; its directories are made
    path = tmp_path / "new" / "dir" / "eigen.csv"
    rc = main(["spectrum", "--problem", FREE_YAML, "--n-min", "5", "--n-max", "8",
               "--out", str(path)])
    assert rc == 0
    assert path.read_text().splitlines()[0].startswith("n,")
    assert sorted(p.name for p in path.parent.iterdir()) == ["eigen.csv"]


@covers("cli.byte-determinism")
def test_synth_nodes_byte_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main([
            "synth-nodes", "--problem", WORKED_YAML,
            "--n-min", "50", "--n-max", "120", "--out", str(out),
        ])
        assert rc == 0
    body_a = (out_a / "nodes.csv").read_bytes()
    assert body_a == (out_b / "nodes.csv").read_bytes()
    assert body_a.startswith(b"# source=synthetic\n")


def test_synth_then_reconstruct_chain(tmp_path, capsys):
    rc = main([
        "synth-nodes", "--problem", WORKED_YAML,
        "--n-min", "50", "--n-max", "200", "--out", str(tmp_path),
    ])
    assert rc == 0
    rc = main([
        "reconstruct", "--data", str(tmp_path / "nodes.csv"),
        "--out", str(tmp_path / "rec"),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "rec" / "summary.json").read_text())
    assert abs(summary["theta_hat"] - math.pi / 4) <= 1e-3
    assert abs(summary["m_hat"] - 1.0) <= 2e-2
    curves = (tmp_path / "rec" / "curves.csv").read_text().splitlines()
    assert curves[0] == "x,f,g,V,Lprime"


def test_reconstruct_n_min_above_thirty(tmp_path, capsys):
    # reconstruct has no --n-max, so no n-max default may be checked against
    # its --n-min
    rc = main([
        "synth-nodes", "--problem", WORKED_YAML,
        "--n-min", "50", "--n-max", "400", "--out", str(tmp_path),
    ])
    assert rc == 0
    rc = main([
        "reconstruct", "--data", str(tmp_path / "nodes.csv"), "--n-min", "40",
        "--out", str(tmp_path / "rec"),
    ])
    assert rc == 0
    assert (tmp_path / "rec" / "summary.json").exists()


def test_reconstruct_known_mass(tmp_path, capsys):
    rc = main([
        "synth-nodes", "--problem", WORKED_YAML,
        "--n-min", "50", "--n-max", "200", "--out", str(tmp_path),
    ])
    assert rc == 0
    rc = main([
        "reconstruct", "--data", str(tmp_path / "nodes.csv"), "--known-m", "1.0",
        "--out", str(tmp_path / "rec"),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "rec" / "summary.json").read_text())
    assert summary["m_hat"] == 1.0
    assert summary["diagnostics"]["m_mode"] == "known"


@pytest.mark.parametrize("command", ["spectrum", "nodes", "synth-nodes"])
def test_n_min_above_n_max_default_names_the_default(command, tmp_path, capsys):
    # an --n-min above the n-max default (30) without --n-max is refused with
    # a message that says where the 30 comes from; an explicit --n-max below
    # --n-min gets the plain message
    rc = main([command, "--problem", FREE_YAML, "--n-min", "40", "--out", str(tmp_path)])
    assert rc == 2
    cat, captured = _category(capsys)
    assert cat == "config"
    assert "got 30 < 40; 30 is the default n-max of " + command + ", give --n-max" in captured.err
    rc = main([command, "--problem", FREE_YAML, "--n-min", "40", "--n-max", "35",
               "--out", str(tmp_path)])
    assert rc == 2
    cat, captured = _category(capsys)
    assert cat == "config"
    assert "got 35 < 40" in captured.err and "default" not in captured.err


def test_roundtrip_synthetic_free(tmp_path, capsys):
    rc = main([
        "roundtrip", "--problem", FREE_YAML, "--mode", "synthetic",
        "--n-min", "50", "--n-max", "200", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mode"] == "synthetic"
    for key, value in report["errors"].items():
        assert value <= 1e-9, (key, value)
    out = capsys.readouterr().out
    assert "error V_sup" in out


def test_roundtrip_numeric_cosine(tmp_path, capsys):
    # nodal_data, then reconstruct: a report with the five errors, of which
    # theta and beta are the ones that converge (ROADMAP State table)
    rc = main([
        "roundtrip", "--problem", COSINE_YAML, "--mode", "numeric",
        "--n-max", "60", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["mode"], report["n_min"], report["n_max"]) == ("numeric", 20, 60)
    errors = report["errors"]
    assert sorted(errors) == ["Lprime_sup", "V_sup", "beta", "m", "theta"]
    assert all(math.isfinite(v) for v in errors.values())
    assert errors["theta"] <= 1e-4 and errors["beta"] <= 1e-4
    assert "warning" not in capsys.readouterr().err


def test_roundtrip_numeric_cap_gate(tmp_path, capsys):
    rc = main([
        "roundtrip", "--problem", FREE_YAML, "--mode", "numeric",
        "--n-min", "20", "--n-max", "401", "--out", str(tmp_path),
    ])
    assert rc == 2
    cat, captured = _category(capsys)
    assert cat == "config"
    assert "--allow-large" in captured.err


def test_paper_example_default_passes(capsys):
    rc = main(["paper-example"])
    assert rc == 0
    out = capsys.readouterr().out
    passes = [line for line in out.splitlines() if line.startswith("PASS ")]
    assert len(passes) == 5
    assert "wrote" not in out


def test_paper_example_writes_when_asked(tmp_path, capsys):
    rc = main(["paper-example", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "curves.csv").exists()


def test_paper_example_narrow_window_fails(capsys):
    # nine indices are enough to run but nowhere near enough to hit the
    # budgets; the command must say so and exit as a fixture mismatch
    rc = main(["paper-example", "--n-min", "50", "--n-max", "58"])
    assert rc == 5
    cat, captured = _category(capsys)
    assert cat == "fixture-mismatch"
    assert any(line.startswith("FAIL ") for line in captured.out.splitlines())

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from nodalrec.errors import ProblemFormatError
from nodalrec.forward import solve_batch
from nodalrec.io import (
    format_float,
    read_nodal_csv,
    write_nodal_csv,
    write_reconstruction,
    write_spectrum_csv,
    write_trajectory_csv,
)
from nodalrec.spectrum import NodalData

from _bullets import covers
from conftest import sup


def test_format_float_round_trips():
    for v in (math.pi, 1.0 / 3.0, 1e-17, -2.5, 0.1 + 0.2):
        assert float(format_float(v)) == float(v)


def test_nodal_round_trip(tmp_path, worked_synth_data):
    path = tmp_path / "nodes.csv"
    write_nodal_csv(worked_synth_data, path)
    back = read_nodal_csv(path)
    assert back.source == "synthetic"
    assert sorted(back.nodes) == sorted(worked_synth_data.nodes)
    for n in back.nodes:
        assert np.array_equal(back.nodes[n], np.asarray(worked_synth_data.nodes[n]))


def test_nodal_numeric_has_no_tag(tmp_path):
    data = NodalData(nodes={5: np.array([0.5, 1.5])})
    path = tmp_path / "nodes.csv"
    write_nodal_csv(data, path)
    text = path.read_text()
    assert not text.startswith("#")
    assert text.splitlines()[0] == "n,j,x"
    assert read_nodal_csv(path).source == "numeric"


def test_read_ignores_unknown_comments(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("# produced by hand\nn,j,x\n5,0,0.5\n5,1,1.5\n")
    back = read_nodal_csv(path)
    assert sup(back.nodes[5], np.array([0.5, 1.5])) == 0.0


@covers("cli.byte-determinism")
def test_writers_are_byte_deterministic(tmp_path, worked_synth_data, worked_spectrum_3060):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_nodal_csv(worked_synth_data, a)
    write_nodal_csv(worked_synth_data, b)
    assert a.read_bytes() == b.read_bytes()
    write_spectrum_csv(worked_spectrum_3060, a)
    write_spectrum_csv(worked_spectrum_3060, b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "body",
    [
        "",
        "n,x\n5,0.5\n",
        "n,j,x\n5,0\n",
        "n,j,x\n5,zero,0.5\n",
        "n,j,x\n5,0,0.5\n5,2,1.5\n",
        "n,j,x\n5,0,1.5\n5,1,0.5\n",
        "n,j,x\n5,0,3.5\n",
        "n,j,x\n5,0,0.5 # c\n",
        "n,j,x\n5,0,0.5\n5,1.0,1.5\n",
        "n,j,x\n5,0,0.5\n5,0,1.5\n",
        "n,j,x\n5,0,0.5,1\n",
        "n,j,x\n5,0,nan\n",
    ],
    ids=[
        "empty",
        "bad-header",
        "short-row",
        "non-numeric",
        "position-gap",
        "non-monotone",
        "outside-interval",
        "inline-comment",
        "float-j",
        "duplicate-position",
        "four-cells",
        "nan-node",
    ],
)
def test_read_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ProblemFormatError) as info:
        read_nodal_csv(path)
    assert str(info.value).startswith(str(path))


@pytest.mark.parametrize(
    "body, where",
    [
        # rows count from the header, skipping blank and comment lines
        ("n,j,x\n5,0,0.5\n\n# c\n5,1,1.5\n5,2,abc\n", ":4: "),
        ("n,j,x\n5,0,0.5\n5,1.0,1.5\n", ":3: "),
        ("n,j,x\n5,0,0.5\n# c\n5,1,1.5,2\n", ":3: "),
        ("n,j,x\n5,0,0.5 # c\n", ":2: "),
        ("n,j,x\n5,1,0.5\n5,2,1.5\n", ": node positions for n = 5 "),
        ("n,j,x\n7,0,0.5\n7,0,1.5\n5,0,0.5\n5,2,1.5\n", ": node positions for n = 7 "),
        ("n,j,x\n6,0,0.5\n5,0,0.5\n5,2,1.5\n6,0,1.5\n", ": node positions for n = 6 "),
    ],
)
def test_read_errors_name_the_row(tmp_path, body, where):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ProblemFormatError) as info:
        read_nodal_csv(path)
    assert str(info.value).startswith(f"{path}{where}")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_read_accepts_layouts(tmp_path, newline):
    body = [
        "# written by hand",
        "",
        " n , j , x ",
        "6,2,2.0",
        "# source=synthetic",
        " 5 ,\t1 , 1.5",
        "",
        "6,0,0.4",
        "# another comment",
        "5,0,5e-1",
        "6,1,1.0",
        "4,0,+1.0",
    ]
    path = tmp_path / "nodes.csv"
    path.write_bytes(newline.join(body).encode() + newline.encode())
    back = read_nodal_csv(path)
    assert back.source == "synthetic"
    assert list(back.nodes) == [6, 5, 4]  # the order each n first appears in
    for n, xs in {6: [0.4, 1.0, 2.0], 5: [0.5, 1.5], 4: [1.0]}.items():
        assert back.nodes[n].tobytes() == np.array(xs).tobytes()


def test_read_header_only(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("n,j,x\n# source=synthetic\n")
    back = read_nodal_csv(path)
    assert back.nodes == {}
    assert back.source == "synthetic"


def _csv_writer_reference(data):
    """The bytes csv.writer gives for the nodal rows, with repr floats."""
    buf = io.StringIO(newline="")
    if data.source == "synthetic":
        buf.write("# source=synthetic\n")
    writer = csv.writer(buf)
    writer.writerow(["n", "j", "x"])
    for n in sorted(data.nodes):
        for j, x in enumerate(data.nodes[n]):
            writer.writerow([n, j, repr(float(x))])
    return buf.getvalue().encode()


@pytest.mark.parametrize("source", ["numeric", "synthetic"])
def test_nodal_writer_bytes_match_csv_writer(tmp_path, source):
    tiny, long = 3.0e-5, 0.1 + 0.2  # exponent form, 17 significant digits
    assert repr(tiny) == "3e-05" and repr(long) == "0.30000000000000004"
    data = NodalData(
        nodes={12: np.linspace(0.2, 3.0, 12), 3: np.array([tiny, long, math.pi - 1e-9])},
        source=source,
    )
    path = tmp_path / "nodes.csv"
    write_nodal_csv(data, path)
    raw = path.read_bytes()
    assert raw == _csv_writer_reference(data)
    body = raw.split(b"\n", 1)[1] if source == "synthetic" else raw
    assert body.count(b"\r\n") == body.count(b"\n") == 1 + 15
    assert b"3,0,3e-05\r\n3,1,0.30000000000000004\r\n" in raw


def test_nodal_writer_bytes_on_worked_data(tmp_path, worked_synth_data):
    path = tmp_path / "nodes.csv"
    write_nodal_csv(worked_synth_data, path)
    assert path.read_bytes() == _csv_writer_reference(worked_synth_data)


def test_read_memory_per_node(tmp_path, worked_synth_data):
    # the reader holds a few arrays of the parsed rows (about 56 bytes a
    # node), not a Python object per line
    path = tmp_path / "nodes.csv"
    write_nodal_csv(worked_synth_data, path)
    read_nodal_csv(path)  # first call loads what the parser needs once
    total = sum(len(xs) for xs in worked_synth_data.nodes.values())
    tracemalloc.start()
    try:
        back = read_nodal_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(xs) for xs in back.nodes.values()) == total
    assert peak / total < 100, f"{peak / total:.0f} bytes per node"


def test_spectrum_csv_cells_round_trip(tmp_path, worked_spectrum_3060):
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(worked_spectrum_3060, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,lambda,residual"
    assert len(lines) == 1 + len(worked_spectrum_3060.indices)
    for line in lines[1:]:
        n, lam, resid = line.split(",")
        assert float(lam) == worked_spectrum_3060.entries[int(n)]
        assert float(resid) == worked_spectrum_3060.residuals[int(n)]


def test_trajectory_csv(tmp_path, free_prob):
    sol = solve_batch(free_prob, [4.0])
    path = tmp_path / "traj.csv"
    write_trajectory_csv(sol, path, comment="lambda=4.0")
    lines = path.read_text().splitlines()
    assert lines[0] == "# lambda=4.0"
    assert lines[1] == "x,phi1,phi2"
    assert len(lines) == 2 + sol.grid.size
    x, p1, p2 = lines[2].split(",")
    assert float(x) == 0.0
    assert float(p1) == sol.Y[0, 0, 0]
    assert float(p2) == sol.Y[1, 0, 0]


def test_write_reconstruction(tmp_path, worked_synth_recon):
    summary_path, curves_path = write_reconstruction(worked_synth_recon, tmp_path)
    summary = json.loads(open(summary_path).read())
    assert set(summary) >= {
        "theta_hat", "beta_hat", "m_hat", "offset",
        "stage1_dispersion", "stage2_dispersion", "diagnostics",
    }
    assert summary["theta_hat"] == worked_synth_recon.theta_hat
    assert summary["diagnostics"]["m_mode"] == "recovered"
    lines = open(curves_path).read().splitlines()
    assert lines[0] == "x,f,g,V,Lprime"
    assert len(lines) == 1 + worked_synth_recon.f_hat.x.size
    cells = lines[-1].split(",")
    assert float(cells[0]) == math.pi
    assert float(cells[3]) == worked_synth_recon.V_hat.values[-1]

import csv
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nodalrec.asymptotics import synthesize_nodal_data
from nodalrec.errors import ProblemFormatError
from nodalrec import io as nodal_io
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


@pytest.mark.parametrize(
    "body",
    [
        b"n,j,x\n5,0,0.5\n \t \n5,1,1.5\n",
        b"n,j,x\n5,0,0.5\n   # c\n5,1,1.5\n",
        b"n,j,x\n5,0,0.5\n\x0c\n5,1,1.5\n",
        b"n,j,x\r5,0,0.5\r5,1,1.5\r",
    ],
    ids=["whitespace-line", "indented-comment", "form-feed-line", "cr-line-ends"],
)
def test_read_skips_lines_that_strip_to_nothing_or_a_comment(tmp_path, body):
    path = tmp_path / "nodes.csv"
    path.write_bytes(body)
    back = read_nodal_csv(path)
    assert back.source == "numeric"
    assert list(back.nodes) == [5]
    assert back.nodes[5].tobytes() == np.array([0.5, 1.5]).tobytes()


@pytest.mark.parametrize(
    "body",
    [b"  # source=synthetic\nn,j,x\n5,0,0.5\n", b"n,j,x\n5,0,0.5\n# source=synthetic"],
    ids=["indented-before-header", "last-line-without-newline"],
)
def test_read_finds_the_tag(tmp_path, body):
    path = tmp_path / "nodes.csv"
    path.write_bytes(body)
    assert read_nodal_csv(path).source == "synthetic"


@pytest.mark.parametrize(
    "body", ["n,j,x\n5,0,#0.5\n", "n,j,x # c\n5,0,0.5\n"], ids=["comment-in-cell", "comment-after-header"]
)
def test_read_rejects_comments_after_cells(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ProblemFormatError) as info:
        read_nodal_csv(path)
    assert str(info.value).startswith(str(path))


@pytest.mark.parametrize("body", ["n,j,x\n", "n,j,x\n# c\n\n# source=synthetic\n  \n"], ids=["header-only", "comments-after-header"])
def test_read_without_rows_warns_nothing(tmp_path, body):
    path = tmp_path / "nodes.csv"
    path.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_nodal_csv(path)
    assert back.nodes == {}


def _straddling(special, shift):
    """Lines of a file of rows of n = 7 whose line `special` starts at
    character _CHUNK + shift, where the reader's first read ends; returns the
    lines and the row number (header = 1) of `special` if it is a row, else
    of the row after it."""
    lines, size, j = ["n,j,x"], 6, 0
    while size < nodal_io._CHUNK - 100:
        lines.append(f"7,{j},{0.1 + 1e-5 * j!r}")
        size += len(lines[-1]) + 1
        j += 1
    lines.append("# " + "p" * (nodal_io._CHUNK + shift - size - 3))  # pads to the offset
    lines.append(special)
    row = j + 2
    while size < 2 * nodal_io._CHUNK:
        lines.append(f"7,{j},{0.1 + 1e-5 * j!r}")
        size += len(lines[-1]) + 1
        j += 1
    return lines, row


@pytest.mark.parametrize("shift", [-9, -1, 0, 1, 9])
@pytest.mark.parametrize("special", ["# source=synthetic", "  # a comment", " \t ", ""])
def test_read_lines_across_a_piece_boundary(tmp_path, special, shift):
    lines, _ = _straddling(special, shift)
    path = tmp_path / "nodes.csv"
    path.write_text("\n".join(lines) + "\n")
    assert path.stat().st_size > nodal_io._CHUNK
    back = read_nodal_csv(path)
    assert back.source == ("synthetic" if "source" in special else "numeric")
    xs = back.nodes[7]
    assert xs.tobytes() == (0.1 + 1e-5 * np.arange(xs.size)).tobytes()
    assert xs.size == sum(line.startswith("7,") for line in lines)


@pytest.mark.parametrize("shift", [-9, -1, 0, 1, 9])
def test_read_error_names_the_row_after_a_piece_boundary(tmp_path, shift):
    # the bad row straddles the boundary, or is the first of the next piece
    lines, row = _straddling("7,x,0.5", shift)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProblemFormatError) as info:
        read_nodal_csv(path)
    assert str(info.value).startswith(f"{path}:{row}: could not convert string 'x'")
    lines, row = _straddling("", shift)
    lines[lines.index("") + 1] = "7,0,0.5,1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProblemFormatError) as info:
        read_nodal_csv(path)
    assert str(info.value).startswith(f"{path}:{row}: the dtype passed requires 3 columns")


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


def _hard_doubles():
    """Doubles in (0, pi) where a shortest-digit printer can go wrong."""
    rng = np.random.default_rng(22)
    values = [0.5, 0.25, 2.0 ** -13, math.pi, np.nextafter(math.pi, 0.0), 3.0, 9.0 / 8.0]
    for power in (1e-4, 1e-3, 0.01, 0.1, 1.0):  # the decades' edges
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, 1.0)]
    for digits in range(1, 18):  # shortest repr of 1 to 17 digits, in every decade
        ints = rng.integers(10 ** (digits - 1), 10 ** digits, 40)
        for e in range(-4, 1):
            values += [float(f"{i}e{e - digits + 1}") for i in ints.tolist()]
    # binary fractions k / 2**m, whose decimal expansions end: among them
    # exact ties at 15 to 17 digits, and values below 1e-4
    for m in range(40, 61):
        values += (rng.integers(1, 2 ** 40, 40) / 2.0 ** m).tolist()
    for m in range(13, 19):
        values += ((2 * rng.integers(2 ** (m - 1), 2 ** (m + 1), 40) + 1) / 2.0 ** m).tolist()
    values += rng.uniform(0.0, math.pi, 10 ** 5).tolist()
    values = np.unique(np.array(values))
    return values[(values > 0.0) & (values < math.pi)]


def test_nodal_writer_bytes_on_hard_doubles(tmp_path):
    # the shortest digits are made in bulk, and the few doubles they leave
    # (powers of two, ties, values below 1e-4) are printed by repr; both
    # must give repr's bytes
    values = _hard_doubles()
    assert values.size > 10 ** 5
    rng = np.random.default_rng(7)
    nodes = {-3: values[:5], 0: values[5:40], 10 ** 4: values[40:41], 123456: np.array([])}
    rest, n = values[41:], 7
    while rest.size:  # lists of 1 to 3 * 10**4 nodes, some longer than the writer's chunk
        take = int(rng.integers(1, 3 * 10 ** 4))
        nodes[n], rest, n = rest[:take], rest[take:], n + 1
    assert max(map(len, nodes.values())) > 10 ** 4
    data = NodalData(nodes=nodes, source="synthetic")
    path = tmp_path / "nodes.csv"
    write_nodal_csv(data, path)
    assert path.read_bytes() == _csv_writer_reference(data)


def test_write_memory_does_not_grow_with_nodes(tmp_path, worked_problem, worked_synth_data):
    # the writer renders a bounded number of rows at a time, so its working
    # memory is the same for 79k and 499k nodes
    path = tmp_path / "nodes.csv"
    dense = synthesize_nodal_data(worked_problem, (50, 1000))
    peaks = []
    for data in (worked_synth_data, dense):
        write_nodal_csv(data, path)  # first call loads what the writer needs once
        tracemalloc.start()
        try:
            write_nodal_csv(data, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] < 1.5, f"peaks {peaks[0]} and {peaks[1]} bytes"


_NODE_VALUES = st.one_of(
    st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
    st.floats(1e-9, 1e-4),  # repr in exponent form
    st.integers(1, 31415926535897000).map(lambda k: k / 1e16),  # up to 17 digits
)


@given(
    nodes=st.dictionaries(
        st.integers(-3, 3000),
        st.lists(_NODE_VALUES, max_size=12, unique=True).map(sorted),
        max_size=6,
    ),
    source=st.sampled_from(["numeric", "synthetic"]),
)
def test_nodal_csv_round_trip_property(tmp_path_factory, nodes, source):
    data = NodalData(nodes={n: np.array(xs, dtype=float) for n, xs in nodes.items()}, source=source)
    path = tmp_path_factory.mktemp("nodes") / "nodes.csv"
    write_nodal_csv(data, path)
    assert path.read_bytes() == _csv_writer_reference(data)
    back = read_nodal_csv(path)
    assert back.source == source
    # an empty list writes no rows, so it does not come back
    assert list(back.nodes) == [n for n in sorted(nodes) if nodes[n]]
    for n, xs in back.nodes.items():
        assert xs.tobytes() == np.array(nodes[n], dtype=float).tobytes()


@pytest.mark.parametrize("body", [
    b"\xff\xfe",
    # a byte that is not UTF-8 past the reader's first piece
    b"n,j,x\r\n" + b"".join(b"5,%d,1.5\r\n" % j for j in range(2 * nodal_io._CHUNK // 8))
    + b"5,0,\xff\r\n",
], ids=["two-bytes", "late-byte"])
def test_read_rejects_text_that_is_not_utf8(tmp_path, body):
    path = tmp_path / "nodes.csv"
    path.write_bytes(body)
    with pytest.raises(ProblemFormatError, match="not UTF-8 text") as info:
        read_nodal_csv(path)
    assert str(info.value).startswith(f"{path}: ")


def test_read_sorts_only_rows_out_of_order(tmp_path, worked_synth_data, monkeypatch):
    # rows in (n, j) order, as write_nodal_csv writes them, are taken as
    # they come; shuffled rows are sorted and read back the same
    path = tmp_path / "nodes.csv"
    write_nodal_csv(worked_synth_data, path)
    sorts, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    back = read_nodal_csv(path)
    assert sorts == []
    lines = path.read_text().splitlines()
    body = lines.index("n,j,x") + 1  # after the tag and the header
    rows = [lines[body + i] for i in np.random.default_rng(3).permutation(len(lines) - body)]
    path.write_text("\n".join(lines[:body] + rows) + "\n")
    shuffled = read_nodal_csv(path)
    assert sorts == [1]
    assert sorted(shuffled.nodes) == list(back.nodes)
    for n, xs in back.nodes.items():
        assert xs.tobytes() == shuffled.nodes[n].tobytes()


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

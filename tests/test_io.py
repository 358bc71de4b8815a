import csv
import io
import json
import math
import re
import tracemalloc
import warnings
from decimal import Context, Decimal

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
        # positions and n beyond int32 are read as the ints they are
        ("n,j,x\n5,4294967296,0.5\n", ": node positions for n = 5 are not 0..0"),
        ("n,j,x\n5,0,0.5\n5,4294967297,1.5\n", ": node positions for n = 5 are not 0..1"),
        ("n,j,x\n3000000000,0,0.5\n3000000000,2,1.5\n",
         ": node positions for n = 3000000000 are not 0..1"),
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


def _five_digit_j_data():
    """Lists under n of 1 to 4 digits, which form one block, and one list
    of 12,000 nodes under n = 123,456, longer than a block, which forms
    one of its own; in it j has 1 to 5 digits."""
    values = _hard_doubles()
    rng = np.random.default_rng(11)
    nodes = {n: np.sort(rng.choice(values, size, replace=False))
             for n, size in ((7, 3), (42, 40), (123, 300), (4321, 500), (123456, 12000))}
    return NodalData(nodes=nodes, source="numeric")


def test_nodal_writer_bytes_with_five_digit_j(tmp_path):
    # the j field of the long list's block is two quads wide, and the
    # shorter j lose their leading zeros in both
    data = _five_digit_j_data()
    assert list(nodal_io._blocks([len(xs) for xs in data.nodes.values()])) == [(0, 4), (4, 5)]
    path = tmp_path / "nodes.csv"
    write_nodal_csv(data, path)
    raw = path.read_bytes()
    assert raw == _csv_writer_reference(data)
    assert b"\r\n123456,9999," in raw and b"\r\n123456,10000," in raw


@pytest.mark.parametrize("nodes", [
    {5: np.array([]), 6: np.array([])},
    {5: np.array([0.5, 1.5]), 6: np.array([]), 7: np.array([0.25])},
])
def test_nodal_writer_skips_empty_lists(tmp_path, nodes):
    data = NodalData(nodes=nodes)
    path = tmp_path / "nodes.csv"
    write_nodal_csv(data, path)
    assert path.read_bytes() == _csv_writer_reference(data)


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_block_boundaries_change_no_result(tmp_path, monkeypatch, worked_problem, worked_synth_data,
                                           block):
    # the writer and synthesis take whole lists in blocks of about _BLOCK
    # values; where the blocks end changes nothing, nor does it move the
    # list the NodalData check, one list at a time, names
    path = tmp_path / "nodes.csv"
    written = (worked_synth_data, _five_digit_j_data())

    def run():
        raw = []
        for data in written:
            write_nodal_csv(data, path)
            raw.append(path.read_bytes())
        return raw, synthesize_nodal_data(worked_problem, (50, 120))

    lists = {n: math.pi * np.arange(1, n) / n for n in range(5, 80)}
    raw, synth = run()
    with monkeypatch.context() as patch:
        patch.setattr(nodal_io, "_BLOCK", block)
        raw_b, synth_b = run()
        starts = [lo for lo, _ in nodal_io._blocks([xs.size for xs in lists.values()])]
        # a faulty list right after a block boundary of the writer, and a
        # second one after it
        assert len(starts) > 1
        n = list(lists)[starts[len(starts) // 2]]
        faulty = {**lists, n: lists[n][::-1], n + 1: lists[n + 1] + 1.0}
        with pytest.raises(ValueError) as patched:
            NodalData(nodes=faulty)
    with pytest.raises(ValueError) as default:
        NodalData(nodes=faulty)
    assert raw_b == raw
    assert list(synth_b.nodes) == list(synth.nodes)
    for k, xs in synth_b.nodes.items():
        assert xs.tobytes() == synth.nodes[k].tobytes()
    assert str(patched.value) == str(default.value) == f"node list for n = {n} not strictly increasing"


@pytest.mark.parametrize("nodes, message", [
    ({5: [[0.5], [1.0]]}, "node list for n = 5 is not one-dimensional"),
    ({5: 0.5}, "node list for n = 5 is not one-dimensional"),
    ({4: [0.5, 1.0], 5: [[0.5], [1.0]]}, "node list for n = 5 is not one-dimensional"),
    ({5.0: [0.5, 1.0]}, "node list for n = 5.0: n is not an integer"),
    ({5.5: [0.5, 1.0]}, "node list for n = 5.5: n is not an integer"),
    ({True: [0.5, 1.0]}, "node list for n = True: n is not an integer"),
    # lists numpy cannot make float arrays of
    ({5: [[0.5], [1.0, 2.0]]}, "node list for n = 5 is not a list of real numbers"),
    ({5: ["a"]}, "node list for n = 5 is not a list of real numbers"),
    ({5: [1 + 2j]}, "node list for n = 5 is not a list of real numbers"),
    ({4: [0.5, 1.0], 5: ["a"], 6: [[0.5], [1.0]]}, "node list for n = 5 is not a list of real numbers"),
    # a complex array, whose imaginary part numpy would drop
    ({5: np.array([0.5 + 2j, 1.0])}, "node list for n = 5 is not a list of real numbers"),
])
def test_nodal_data_refuses_what_its_file_cannot_hold(tmp_path, monkeypatch, nodes, message):
    with pytest.raises(ValueError) as info:
        NodalData(nodes=nodes)
    assert str(info.value) == message
    # the reader passes the message on after the file's name
    path = tmp_path / "nodes.csv"
    path.write_bytes(b"n,j,x\r\n5,0,0.5\r\n")
    monkeypatch.setattr(nodal_io, "NodalData", lambda **kwargs: NodalData(**{**kwargs, "nodes": nodes}))
    with pytest.raises(ProblemFormatError) as info:
        read_nodal_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_nodal_data_takes_numpy_integer_keys(tmp_path):
    path = tmp_path / "nodes.csv"
    write_nodal_csv(NodalData(nodes={np.int64(5): [0.5, 1.0]}), path)
    assert path.read_bytes() == b"n,j,x\r\n5,0,0.5\r\n5,1,1.0\r\n"


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


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("newline", [b"\r\n", b"\n", b"\r"], ids=["crlf", "lf", "cr"])
@pytest.mark.parametrize("source", ["numeric", "synthetic"])
def test_read_skips_a_leading_byte_order_mark(tmp_path, newline, source, monkeypatch):
    # spreadsheets save "CSV UTF-8" with a byte-order mark before the header;
    # the file reads as its copy without one, the writer's rows in numpy
    plain = tmp_path / "plain.csv"
    write_nodal_csv(NodalData(nodes={5: np.array([0.5, 1.5]), 6: np.array([0.1, 1.2, 2.3])},
                              source=source), plain)
    raw = plain.read_bytes()
    if newline != b"\r\n":  # every line end, the tag line's bare "\n" too
        raw = raw.replace(b"\r\n", b"\n").replace(b"\n", newline)
        plain.write_bytes(raw)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(_BOM + raw)
    loaded = _count_loadtxt_rows(monkeypatch)
    back, want = read_nodal_csv(marked), read_nodal_csv(plain)
    assert back.source == want.source == source
    assert list(back.nodes) == list(want.nodes) == [5, 6]
    for n, xs in want.nodes.items():
        assert back.nodes[n].tobytes() == xs.tobytes()
    if newline == b"\r\n":
        assert not loaded


@pytest.mark.parametrize("raw, where", [
    (b"n,j,x\r\n" + _BOM + b"5,0,0.5\r\n", r":2: could not convert string '\ufeff5' to int64"),
    (_BOM + _BOM + b"n,j,x\r\n5,0,0.5\r\n", r": expected header n,j,x, got '\ufeffn,j,x'"),
], ids=["before-a-row", "twice"])
def test_read_rejects_a_byte_order_mark_elsewhere(tmp_path, raw, where):
    path = tmp_path / "nodes.csv"
    path.write_bytes(raw)
    with pytest.raises(ProblemFormatError) as info:
        read_nodal_csv(path)
    assert str(info.value) == f"{path}{where}"


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


def _count_loadtxt_rows(monkeypatch):
    """A list of the rows np.loadtxt parses from here on."""
    rows, parse = [], nodal_io._parse_rows

    def counted(lines):
        table = parse(lines)
        rows.extend(table.tolist())
        return table

    monkeypatch.setattr(nodal_io, "_parse_rows", counted)
    return rows


def test_read_hard_doubles_bit_for_bit(tmp_path, monkeypatch):
    # the writer's rows are parsed in numpy; every double comes back, and
    # only the pieces with exponent-form cells (below 1e-4) go to loadtxt
    values = _hard_doubles()
    small = values[values < 1e-4]
    rng = np.random.default_rng(8)
    nodes, rest, n = {}, values[values >= 1e-4], 3
    while rest.size:
        take = int(rng.integers(1, 3 * 10 ** 4))
        nodes[n], rest, n = rest[:take], rest[take:], n + int(rng.integers(1, 10 ** 4))
    nodes[n] = small
    path = tmp_path / "nodes.csv"
    write_nodal_csv(NodalData(nodes=nodes, source="synthetic"), path)
    loaded = _count_loadtxt_rows(monkeypatch)
    back = read_nodal_csv(path)
    assert back.source == "synthetic"
    assert list(back.nodes) == list(nodes)
    for n, xs in nodes.items():
        assert back.nodes[n].tobytes() == xs.tobytes()
    assert small.size <= len(loaded) < small.size + nodal_io._CHUNK // 9


def _decimal_cells(rng):
    """Decimal strings D.F in (0, 3) that are not all shortest reprs."""
    def digits(k):
        return "".join(map(str, rng.integers(0, 10, k)))

    cells = []
    for p in range(1, 23):  # 1 to 22 fraction digits
        cells += [f"{d}.{digits(p - 1)}{rng.integers(1, 10)}" for d in (0, 1, 2) for _ in range(6)]
    cells += [f"0.0001{digits(17)}" for _ in range(20)]  # 21 fraction digits
    # 21 to 23 fraction digits, five of them leading zeros
    cells += [f"0.00000{rng.integers(1, 10)}{digits(k)}" for k in (15, 16, 17) for _ in range(6)]
    cells += [f"{rng.integers(1, 3)}.{digits(k)}" for k in range(17, 26) for _ in range(6)]
    cells += [f"0.{rng.integers(1, 10)}{digits(k)}" for k in range(17, 26) for _ in range(6)]
    cells += [repr(float(v)) for v in rng.uniform(0.0, 3.0, 200)]
    # M = 2**53 + 1, 3 and 5, whose conversion to a double is a tie
    cells += ["0.9007199254740993", "0.9007199254740995", "2.9007199254740993", "0.0009007199254740993"]
    # just below 1 + 2**-53, the midpoint of 1 and the next double, then the
    # exact midpoints there and at 2 - 2**-53 (ties, which round to even)
    cells += ["1.00000000000000011102230246251565"]
    exact = Context(prec=80)
    for x in (1.0, np.nextafter(1.0, 2.0), np.nextafter(2.0, 0.0)):
        mid = exact.divide(exact.add(Decimal(x), Decimal(np.nextafter(x, 3.0).item())), 2)
        cells.append(format(mid, "f"))
    cells += ["0.30000000000000004", "0.1", "2.0", "1.", "0.000100000000000000004792"]
    return cells


def test_read_decimals_as_float_reads_them(tmp_path, monkeypatch):
    # rows in the writer's grammar whose x are not shortest reprs: 1 to 22
    # fraction digits and more, 18 or more significant digits, ties in the
    # conversion of M = D.F * 10**p to a double and exact midpoints between
    # doubles, with n and j written with leading zeros
    rng = np.random.default_rng(24)
    cells = sorted(_decimal_cells(rng), key=float)
    # every 8th cell, so that the cells that read as the same double (never
    # more than 8 in a row here) go to different lists, 5 to a list
    lists = [part[k:k + 5] for part in (cells[i::8] for i in range(8)) for k in range(0, len(part), 5)]
    groups, lines = {}, ["n,j,x"]
    for k, group in enumerate(lists):
        n_text = f"{k + 1:0{1 + k % 4}d}" if k % 3 else str(k + 1)
        groups[int(n_text)] = group
        for j, cell in enumerate(group):
            lines.append(f"{n_text},{j:0{1 + (j + k) % 3}d},{cell}")
    path = tmp_path / "nodes.csv"
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    assert len(cells) > 400 and max(len(line) for line in lines) > 50
    loaded = _count_loadtxt_rows(monkeypatch)
    back = read_nodal_csv(path)
    assert loaded == []  # every row in the writer's grammar
    assert list(back.nodes) == list(groups)
    for n, group in groups.items():
        assert back.nodes[n].tobytes() == np.array([float(c) for c in group]).tobytes()
    # cells above pi, which a nodal file refuses, through the numpy parse alone
    rows = ["1,0,9.007199254740993", "2,0,9.007199254740995", "3,0,9.999999999999999999",
            "12345678,87654321,9.00000000000000000000001", "4,5,7.0", "6,7,3.14159265358979323846"]
    ns, js, xs = nodal_io._written_rows("".join(row + "\r\n" for row in rows).encode())
    for row, (n, j, x) in zip(rows, zip(ns.tolist(), js.tolist(), xs.tolist())):
        cells = row.split(",")
        assert (n, j, x) == (int(cells[0]), int(cells[1]), float(cells[2]))
        assert np.float64(x).tobytes() == np.float64(float(cells[2])).tobytes()
    # and a row outside that grammar leaves its piece to loadtxt
    for row in (b"123456789,0,0.5\r\n", b"1,123456789,0.5\r\n", b",0,0.5\r\n", b"1,0,10.5\r\n",
                b"1,,0.5\r\n", b"1,0,+1.0\r\n", b"1,0,1e-5\r\n", b"1,0,0.5\n", b"1,0,0.5",
                b"1,0,0.5\r\r\n", b"1,0,0.5\r5\n2,0,0.5\r\n", b"12"):
        assert nodal_io._written_rows(b"5,0,0.5\r\n" + row) is None, row


def _split_lines(raw):
    return re.split(r"\r\n|\r|\n", raw.decode())


def _reference_read(raw):
    """The source and nodes of a nodal CSV, parsed line by line in Python:
    blank and comment lines dropped, then the header, then int, int, float
    cells; lists in the order each n first appears."""
    source, nodes = "numeric", {}
    lines = [line for line in _split_lines(raw) if line.strip() and not line.strip().startswith("#")]
    if any(line.strip().replace(" ", "") == "#source=synthetic" for line in _split_lines(raw)):
        source = "synthetic"
    for line in lines[1:]:
        n, j, x = (cell.strip() for cell in line.split(","))
        nodes.setdefault(int(n), {})[int(j)] = float(x)
    return source, {n: np.array([xs[j] for j in sorted(xs)]) for n, xs in nodes.items()}


def _written_lines(j0, size):
    """Rows of n = 7 from position j0 on, in the writer's bytes, of about
    `size` bytes in all."""
    rows, total = [], 0
    while total < size:
        rows.append(f"7,{j0 + len(rows)},{0.1 + 1e-5 * (j0 + len(rows))!r}\r\n".encode())
        total += len(rows[-1])
    return rows


@pytest.mark.parametrize("newline", ["\n", "\r"], ids=["lf", "cr-only"])
def test_read_hand_written_piece_between_written_pieces(tmp_path, newline, monkeypatch):
    # the writer's rows for more than two pieces, then lines in other forms
    # mid-file, then the writer's rows again: the file reads as a line by
    # line parse reads it
    first = _written_lines(0, 2 * nodal_io._CHUNK + 100)
    hand = ["", "# a comment", " 5 ,\t1 , 1.5", "# source=synthetic", "5,0,5e-1", "4,0,+1.0", "  "]
    last = _written_lines(len(first), nodal_io._CHUNK // 2)
    raw = b"n,j,x\r\n" + b"".join(first) + newline.join(hand).encode() + newline.encode() + b"".join(last)
    path = tmp_path / "nodes.csv"
    path.write_bytes(raw)
    loaded = _count_loadtxt_rows(monkeypatch)
    back = read_nodal_csv(path)
    assert 3 <= len(loaded) < len(first) / 2  # the hand-written piece only
    source, nodes = _reference_read(raw)
    assert back.source == source == "synthetic"
    assert list(back.nodes) == list(nodes) == [7, 5, 4]
    for n, xs in nodes.items():
        assert back.nodes[n].tobytes() == xs.tobytes()
    assert back.nodes[7].size == len(first) + len(last)


@pytest.mark.parametrize("bad, reason", [
    ("7,x,0.5", "could not convert string 'x'"),
    ("7,0,0.5,1", "the dtype passed requires 3 columns"),
    ("7,0,1e-0.5", "could not convert string '1e-0.5'"),
])
def test_read_error_names_the_row_after_written_pieces(tmp_path, bad, reason):
    rows = _written_lines(0, 3 * nodal_io._CHUNK)
    path = tmp_path / "bad.csv"
    path.write_bytes(b"# source=synthetic\nn,j,x\r\n" + b"".join(rows) + bad.encode() + b"\r\n"
                     + b"".join(_written_lines(len(rows), 1000)))
    with pytest.raises(ProblemFormatError) as info:
        read_nodal_csv(path)
    assert str(info.value).startswith(f"{path}:{len(rows) + 2}: {reason}")


@pytest.mark.parametrize("lead", [0, 2], ids=["alone", "after-written-pieces"])
@pytest.mark.parametrize("rows", [
    ["3000000000,0,0.5", "3000000000,1,1.5"],
    ["5,0,0.5", f"{5 + 2**32},0,0.7", "5,1,0.9", f"{5 + 2**32},1,1.1"],
    ["-3,0,0.5", "-3,1,1.5", "2,0,0.1", f"{-2**31 - 1},0,0.2"],
], ids=["beyond-int32", "equal-mod-2**32", "negative"])
def test_read_keys_beyond_int32(tmp_path, rows, lead):
    # n outside the writer's 1 to 8 digits reads as the int of its cell,
    # also where rows in the writer's form come first
    raw = (b"n,j,x\r\n" + b"".join(_written_lines(0, lead * nodal_io._CHUNK))
           + "".join(f"{row}\r\n" for row in rows).encode())
    path = tmp_path / "nodes.csv"
    path.write_bytes(raw)
    back = read_nodal_csv(path)
    _, nodes = _reference_read(raw)
    assert list(back.nodes) == list(nodes)
    assert all(type(n) is int for n in back.nodes)
    for n, xs in nodes.items():
        assert back.nodes[n].tobytes() == xs.tobytes()


def test_read_memory_per_node(tmp_path, worked_synth_data):
    # the reader holds its x column, the runs of n and j and one piece's
    # arrays (51 bytes a node on these 78,975 nodes), not a Python object
    # per line, and no second copy of the nodes
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
    assert peak / total < 66, f"{peak / total:.1f} bytes per node"


def test_read_memory_of_dense_nodes(tmp_path, worked_dense_data):
    # on the 499,275 dense nodes the piece's arrays weigh little beside the
    # x column, the one float a row the reader keeps: the n and j of each
    # piece are reduced to runs (17 bytes a node)
    path = tmp_path / "nodes.csv"
    write_nodal_csv(worked_dense_data, path)
    read_nodal_csv(path)  # first call loads what the parser needs once
    total = sum(len(xs) for xs in worked_dense_data.nodes.values())
    tracemalloc.start()
    try:
        back = read_nodal_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(xs) for xs in back.nodes.values()) == total
    assert peak / total < 22, f"{peak / total:.1f} bytes per node"


@pytest.mark.parametrize("fault", [None, "duplicate", "gap"])
def test_runs_split_at_piece_edges_read_the_same(tmp_path, worked_synth_data, monkeypatch, fault):
    # pieces of about 1000 bytes cut most lists into runs that end at a
    # piece's edge; in order and with the file's halves swapped mid-list,
    # they give the nodes, key order and fault message of whole pieces
    data = NodalData(nodes={n: xs for n, xs in worked_synth_data.nodes.items() if n < 160})
    path = tmp_path / "nodes.csv"
    write_nodal_csv(data, path)
    head, body = path.read_bytes().split(b"n,j,x\r\n")
    rows = body.splitlines(keepends=True)
    n = int(rows[5000].split(b",")[0])
    if fault == "duplicate":
        rows.insert(5000, rows[5000])
    elif fault == "gap":
        del rows[5000]
    half = len(rows) // 2 + 7
    for order in (rows, rows[half:] + rows[:half]):
        path.write_bytes(head + b"n,j,x\r\n" + b"".join(order))
        keys = list(dict.fromkeys(int(row.split(b",")[0]) for row in order))
        for chunk in (nodal_io._CHUNK, 1000):
            monkeypatch.setattr(nodal_io, "_CHUNK", chunk)
            if fault is None:
                back = read_nodal_csv(path)
                assert list(back.nodes) == keys
                for k, xs in back.nodes.items():
                    assert xs.tobytes() == data.nodes[k].tobytes()
                continue
            with pytest.raises(ProblemFormatError) as info:
                read_nodal_csv(path)
            count = sum(row.startswith(b"%d," % n) for row in rows)
            assert str(info.value) == f"{path}: node positions for n = {n} are not 0..{count - 1}"


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


def test_small_csvs_are_csv_writer_bytes(tmp_path, worked_spectrum_3060, free_prob,
                                         worked_synth_recon):
    # the spectrum, trajectory and curves CSVs are the bytes csv.writer
    # gives for repr of their cells; a comment line ends in a bare "\n"
    def rendered(header, rows, comment=None):
        buf = io.StringIO(newline="")
        if comment:
            buf.write(f"# {comment}\n")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode()

    spec = worked_spectrum_3060
    write_spectrum_csv(spec, tmp_path / "spectrum.csv")
    assert (tmp_path / "spectrum.csv").read_bytes() == rendered(
        ["n", "lambda", "residual"],
        [[n, repr(float(spec.entries[n])), repr(float(spec.residuals[n]))] for n in spec.indices])
    sol = solve_batch(free_prob, [4.0])
    write_trajectory_csv(sol, tmp_path / "traj.csv", comment="lambda=4.0")
    raw = (tmp_path / "traj.csv").read_bytes()
    assert raw.startswith(b"# lambda=4.0\nx,phi1,phi2\r\n")
    assert raw == rendered(["x", "phi1", "phi2"],
                           [[repr(float(v)) for v in (sol.grid[i], sol.Y[0, i, 0], sol.Y[1, i, 0])]
                            for i in range(sol.grid.size)], "lambda=4.0")
    rec = worked_synth_recon
    _, curves_path = write_reconstruction(rec, tmp_path)
    curves = (rec.f_hat.x, rec.f_hat.values, rec.g_hat.values, rec.V_hat.values,
              rec.Lprime_hat.values)
    assert open(curves_path, "rb").read() == rendered(
        ["x", "f", "g", "V", "Lprime"],
        [[repr(float(c[i])) for c in curves] for i in range(rec.f_hat.x.size)])

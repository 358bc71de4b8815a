"""File formats: nodal CSV, spectrum CSV, trajectory CSV, reconstruction output.

All numeric cells use ``repr(float(...))``, the shortest representation that
round-trips the binary value (at least 15 significant digits).  Bodies contain
no timestamps, so identical inputs produce byte-identical files.

CSV rows end in ``\\r\\n``, the line end of ``csv.writer``; comment lines
(``# ...``) end in a bare ``\\n``.  The nodal CSV holds the bytes
``csv.writer`` gives for its ``n,j,x`` cells, built per n from one ``repr`` of
the whole node list: its ``", "``-separated floats, each after its
``"{j},"``, joined by ``"\\r\\n{n},"``.  The reader takes the file in pieces
of whole lines of about ``_CHUNK`` characters, with universal newlines, so
LF, CRLF and CR files read the same.  In each piece one regular expression
notes a ``# source=synthetic`` tag and another drops the blank lines and
the ``#`` comment lines, wherever they stand; the first row left is the
header, and ``np.loadtxt`` parses the others of the piece in one call.  It
rounds decimal strings correctly, so every written float reads back bit for
bit, and it rejects a ``#`` after a cell.  Rows may come in any order: rows
not already in (n, j) order, as the writer puts them, are sorted by (n, j),
and the positions j of each n must be 0..len-1.  A file that is not UTF-8
text is a ProblemFormatError.
"""

import csv
import itertools
import json
import math
import operator
import os
import re

import numpy as np

from .errors import ProblemFormatError
from .spectrum import NodalData


def format_float(value):
    return repr(float(value))


def write_nodal_csv(data, path):
    """CSV "n,j,x"; j is the 0-based position in ascending-x order.

    Synthetic data is tagged with a "# source=synthetic" comment so readers
    can tell which generator produced it.
    """
    positions = [f"{j}," for j in range(max(map(len, data.nodes.values()), default=0))]
    with open(path, "w", newline="") as fh:
        if data.source == "synthetic":
            fh.write("# source=synthetic\n")
        fh.write("n,j,x\r\n")
        for n in data.indices:
            xs = np.asarray(data.nodes[n], dtype=float).tolist()
            if xs:
                rows = f"\r\n{n},".join(map(operator.add, positions, repr(xs)[1:-1].split(", ")))
                fh.write(f"{n},{rows}\r\n")


_NODAL_ROW = np.dtype([("n", np.int64), ("j", np.int64), ("x", np.float64)])
_CHUNK = 1 << 15  # characters the reader takes at a time, to the next line end
# in a piece of whole lines with a "\n" before and after each: the tag line,
# and a blank or comment line with the line end before it (the first
# lookahead turns a data row away at its first character)
_TAG = re.compile(r"\n[^\S\n]*#[^\S\n]*source=synthetic[^\S\n]*(?=\n)")
_SKIP = re.compile(r"\n(?=[\s#])[^\S\n]*(?:#[^\n]*)?(?=\n)")


def _parse_rows(lines):
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=_NODAL_ROW, ndmin=1)


def read_nodal_csv(path):
    """Inverse of write_nodal_csv; unknown comments are ignored."""
    source = "numeric"
    count = 0  # rows before the piece being parsed, header included
    lines = []  # that piece's rows
    rows = iter(lines)  # the parser's place in them

    def pieces(fh):
        """An iterator over the rows of each piece that has any; the header
        is checked before the first."""
        nonlocal source, count, lines, rows
        while chunk := read(fh, _CHUNK):
            piece = f"\n{chunk}{read(fh)}\n"  # a last line may lack its "\n"
            if "#" in piece and _TAG.search(piece):
                source = "synthetic"
            body = _SKIP.sub("", piece)[1:-1]
            if body and not count:
                header, _, body = body.partition("\n")
                header = header.strip()
                if [c.strip() for c in header.split(",")] != ["n", "j", "x"]:
                    raise ProblemFormatError(f"{path}: expected header n,j,x, got {header!r}")
                count = 1
            if body:
                count += len(lines)
                lines = body.split("\n")
                rows = iter(lines)
                yield rows

    def read(fh, size=None):
        """fh.read(size), or the rest of the line without a size."""
        try:
            return fh.readline() if size is None else fh.read(size)
        except UnicodeDecodeError as exc:
            raise ProblemFormatError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from None

    with open(path, encoding="utf-8") as fh:
        todo = pieces(fh)
        first = next(todo, None)
        if first is None:
            if not count:
                raise ProblemFormatError(f"{path}: no rows")
            return NodalData(nodes={}, source=source)
        try:
            table = _parse_rows(itertools.chain(first, itertools.chain.from_iterable(todo)))
        except ValueError as exc:
            # the parser pulls one line at a time, so the last line it took
            # is the faulty row; parsed again alone and stripped, it gives a
            # message that quotes its cells without the line's outer spaces
            faulty = len(lines) - operator.length_hint(rows)
            try:
                _parse_rows([lines[faulty - 1].strip()])
            except ValueError as alone:
                exc = alone
            reason = str(exc).split(" at row ")[0]
            raise ProblemFormatError(f"{path}:{count + faulty}: {reason}") from None

    n, j = table["n"], table["j"]
    if np.all((n[1:] > n[:-1]) | ((n[1:] == n[:-1]) & (j[1:] > j[:-1]))):
        x = table["x"].copy()  # the rows come in (n, j) order, as write_nodal_csv writes them
        order = None
    else:  # a repeated (n, j) is an error, so (n, j) alone fixes the order
        order = np.lexsort((j, n))
        n, j, x = n[order], j[order], table["x"][order]
    del table
    new = np.concatenate(([True], n[1:] != n[:-1]))  # first row of each n
    starts = np.flatnonzero(new)
    stops = np.append(starts[1:], n.size)
    # where each n first appears
    first_row = starts if order is None else np.minimum.reduceat(order, starts)
    bad = np.flatnonzero(np.where(new, j != 0, np.diff(j, prepend=-1) != 1))
    if bad.size:
        groups = np.unique(np.searchsorted(starts, bad, side="right") - 1)
        k = groups[np.argmin(first_row[groups])]
        raise ProblemFormatError(
            f"{path}: node positions for n = {n[starts[k]]} are not 0..{stops[k] - starts[k] - 1}"
        )
    starts, stops = starts.tolist(), stops.tolist()
    nodes = {int(n[starts[k]]): x[starts[k]:stops[k]] for k in np.argsort(first_row).tolist()}
    try:
        return NodalData(nodes=nodes, source=source)
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from None


def write_spectrum_csv(spectrum, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lambda", "residual"])
        for n, lam, resid in spectrum.rows():
            writer.writerow([n, format_float(lam), format_float(resid)])


def write_trajectory_csv(sol, path, comment=None):
    """CSV "x,phi1,phi2" of the first lambda of a forward BatchSolution."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["x", "phi1", "phi2"])
        for x, p1, p2 in zip(sol.grid, sol.Y[0, :, 0], sol.Y[1, :, 0]):
            writer.writerow([format_float(x), format_float(p1), format_float(p2)])


def write_reconstruction(result, out_dir):
    """summary.json (scalars + diagnostics) and curves.csv "x,f,g,V,Lprime"."""
    os.makedirs(out_dir, exist_ok=True)
    summary = {
        "theta_hat": result.theta_hat,
        "beta_hat": result.beta_hat,
        "m_hat": result.m_hat,
        "offset": result.diagnostics["offset"],
        "stage1_dispersion": result.diagnostics["stage1_dispersion"],
        "stage2_dispersion": result.diagnostics["stage2_dispersion"],
        "diagnostics": {k: _plain(v) for k, v in result.diagnostics.items()},
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    curves_path = os.path.join(out_dir, "curves.csv")
    with open(curves_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "f", "g", "V", "Lprime"])
        for i, x in enumerate(result.f_hat.x):
            writer.writerow([
                format_float(x),
                format_float(result.f_hat.values[i]),
                format_float(result.g_hat.values[i]),
                format_float(result.V_hat.values[i]),
                format_float(result.Lprime_hat.values[i]),
            ])
    return summary_path, curves_path


def _plain(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value

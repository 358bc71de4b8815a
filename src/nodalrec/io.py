"""File formats: nodal CSV, spectrum CSV, trajectory CSV, reconstruction output.

All numeric cells use ``repr(float(...))``, the shortest representation that
round-trips the binary value (at least 15 significant digits).  Bodies contain
no timestamps, so identical inputs produce byte-identical files.

CSV rows end in ``\\r\\n``, the line end of ``csv.writer``; comment lines
(``# ...``) end in a bare ``\\n``.  The nodal CSV is written as one joined
string of ``n,j,x`` rows per n, the same bytes ``csv.writer`` gives for these
cells.  Its reader strips each line, skips blank lines and comments wherever
they stand (noting a ``# source=synthetic`` tag), checks the header, and
parses the rows with ``np.loadtxt``, which rounds decimal strings correctly,
so every written float reads back bit for bit.  Rows may come in any order:
they are sorted by (n, j), and the positions j of each n must be
0..len-1.  LF and CRLF files read the same.
"""

import csv
import itertools
import json
import math
import os

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
    with open(path, "w", newline="") as fh:
        if data.source == "synthetic":
            fh.write("# source=synthetic\n")
        fh.write("n,j,x\r\n")
        for n in data.indices:
            xs = np.asarray(data.nodes[n], dtype=float).tolist()
            fh.write("".join([f"{n},{j},{x!r}\r\n" for j, x in enumerate(xs)]))


_NODAL_ROW = np.dtype([("n", np.int64), ("j", np.int64), ("x", np.float64)])


def read_nodal_csv(path):
    """Inverse of write_nodal_csv; unknown comments are ignored."""
    source = "numeric"
    count = 0  # rows handed to the parser, header included

    def rows(fh):
        nonlocal source, count
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                if line[1:].strip() == "source=synthetic":
                    source = "synthetic"
                continue
            count += 1
            yield line

    with open(path, newline="") as fh:
        lines = rows(fh)
        header = next(lines, None)
        if header is None:
            raise ProblemFormatError(f"{path}: no rows")
        if [c.strip() for c in header.split(",")] != ["n", "j", "x"]:
            raise ProblemFormatError(f"{path}: expected header n,j,x, got {header!r}")
        first = next(lines, None)
        if first is None:
            return NodalData(nodes={}, source=source)
        try:
            table = np.loadtxt(itertools.chain((first,), lines), delimiter=",",
                               comments=None, dtype=_NODAL_ROW, ndmin=1)
        except ValueError as exc:
            # the parser pulls one line at a time, so count is the faulty
            # row; numpy's own row number counts from 0 or 1 by fault kind
            reason = str(exc).split(" at row ")[0]
            raise ProblemFormatError(f"{path}:{count}: {reason}") from None

    # a repeated (n, j) is an error, so (n, j) alone fixes the order
    order = np.lexsort((table["j"], table["n"]))
    n, j, x = table["n"][order], table["j"][order], table["x"][order]
    del table
    new = np.concatenate(([True], n[1:] != n[:-1]))  # first row of each n
    starts = np.flatnonzero(new)
    stops = np.append(starts[1:], n.size)
    first_row = np.minimum.reduceat(order, starts)  # where each n first appears
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

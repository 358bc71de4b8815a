"""File formats: nodal CSV, spectrum CSV, trajectory CSV, reconstruction output.

All numeric cells use ``repr(float(...))``, the shortest representation that
round-trips the binary value (at least 15 significant digits).  Bodies contain
no timestamps, so identical inputs produce byte-identical files.

CSV rows end in ``\\r\\n``, the line end of ``csv.writer``; comment lines
(``# ...``) end in a bare ``\\n``.  The nodal CSV holds the bytes
``csv.writer`` gives for its ``n,j,x`` cells, rendered in numpy a bounded
number of rows at a time: ``_shortest`` computes repr's digits of each node
exactly from an error-free product with a power of ten, and hands the few
it cannot certify (powers of two, exact decimal ties, values below 1e-4) to
``repr`` itself, so the bytes are repr's by construction.  The reader takes
the file in pieces of whole lines of about ``_CHUNK`` characters, with
universal newlines, so LF, CRLF and CR files read the same.  In each piece one regular expression
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
    can tell which generator produced it.  The rows are rendered
    ``_ROWS`` at a time, straight from consecutive node lists, as the
    bytes ``csv.writer`` gives for ``[n, j, repr(x)]``: ``_shortest`` makes
    the digits of ``repr`` with exact arithmetic, and the few values it
    cannot certify are printed by ``repr`` itself.
    """
    with open(path, "wb") as fh:
        if data.source == "synthetic":
            fh.write(b"# source=synthetic\n")
        fh.write(b"n,j,x\r\n")
        for pieces in _chunks(data):
            fh.write(_render(pieces))


_ROWS = 1 << 13  # rows the writer renders at a time
# the ASCII digits of 0..99, two bytes each, read as one uint16 in the
# machine's byte order
_PAIRS = (48 + np.stack(np.divmod(np.arange(100), 10), axis=1)).astype(np.uint8)
_PAIRS = _PAIRS.view(np.uint16).ravel()
# each literal is the smallest double >= its power of ten, so x >= 10**e
# exactly when x is >= the literal
_DECADES = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
_SCALES = np.array([1e20, 1e19, 1e18, 1e17, 1e16])  # 10**(16 - e), exact
# the characters before the digits, by decade; above 1 the first digit
# goes in the null byte
_HEADS = np.frombuffer(
    b"0.000\0\0\0" b"0.00\0\0\0\0" b"0.0\0\0\0\0\0" b"0.\0\0\0\0\0\0" b"\0.\0\0\0\0\0\0", np.uint64)
_WIDTH = 24  # bytes of a cell of _shortest: 7 before the 17 digits


def _chunks(data):
    """Lists of (b"{n},", xs, j0) pieces, _ROWS rows a list (the last may
    be shorter): xs are the nodes j0, j0 + 1, ... of n."""
    pieces, room = [], _ROWS
    for n in data.indices:
        prefix = f"{n},".encode()
        xs = np.asarray(data.nodes[n], dtype=float)
        j0 = 0
        while j0 < xs.size:
            take = xs[j0:j0 + room]
            pieces.append((prefix, take, j0))
            j0 += take.size
            room -= take.size
            if not room:
                yield pieces
                pieces, room = [], _ROWS
    if pieces:
        yield pieces


def _render(pieces):
    """The bytes of the rows of one list of _chunks pieces."""
    prefixes, xs, j0s = zip(*pieces)
    counts = np.array([x.size for x in xs])
    x = np.concatenate(xs)
    stops = np.cumsum(counts)
    j = np.arange(x.size) - np.repeat(stops - counts - j0s, counts)
    wn = 2 * ((max(map(len, prefixes)) + 1) // 2)  # even, so the digit pairs of j align
    names = np.frombuffer(b"".join(p.ljust(wn, b"\0") for p in prefixes), np.uint8)
    wj = 2 * ((len(str(j.max())) + 1) // 2)
    cells = _shortest(x)
    rows = np.empty((x.size, wn + wj + cells.shape[1] + 4), np.uint8)
    for name, start, stop in zip(names.reshape(-1, wn), stops - counts, stops):
        rows[start:stop, :wn] = name
    rows.view(np.uint16)[:, wn // 2:(wn + wj) // 2] = _pairs(j, wj // 2).T
    rows[:, wn:wn + wj - 1] *= j[:, None] >= 10 ** np.arange(wj - 1, 0, -1)  # j's leading zeros
    rows[:, wn + wj:wn + wj + 2] = (ord(","), 0)
    rows[:, -2 - cells.shape[1]:-2] = cells
    rows[:, -2:] = (13, 10)
    return rows.tobytes().translate(None, b"\0")


def _pairs(v, count):
    """The last 2 * count decimal digits of the non-negative int64 array v,
    zero-padded, as a (count, len(v)) array of ASCII digit pairs."""
    pairs = np.empty((count, v.size), np.uint16)
    for k in range(count - 1, -1, -1):
        q = v // 100
        pairs[k] = _PAIRS[v - q * 100]
        v = q
    return pairs


def _shortest(x):
    """repr of each float of x, as a (len(x), width) uint8 array of ASCII
    left-aligned in null bytes.

    A double x in [1e-4, 10) lies in a decade [10**e, 10**(e + 1)),
    -4 <= e <= 0, and P = x * 10**p with p = 16 - e is exactly hi + lo
    (Dekker's two-product; 10**p <= 1e20 is a double).  hi is an integer
    below 2**57, so P = I + r with the int64 I = hi + floor(lo) and
    r = lo - floor(lo) in [0, 1), both exact, and the roundings of P to 15,
    16 and 17 digits follow from I's last two digits and r (how they round
    a tie does not matter, see below).

    repr gives the fewest digits that read back as x and, among those, the
    nearest to x.  Unless x is a power of two, a decimal reads back as x
    when it lies within half an ulp h of x (scaled, like P, by 10**p), and
    the nearest k-digit decimal is the k-digit rounding.  So repr is the
    first of the 15-, 16- and 17-digit roundings that lies within h, with
    its trailing zeros dropped; the 17-digit one always does.  None shorter
    is missed: 15-digit decimals lie more than an ulp apart (DBL_DIG = 15),
    so a decimal of at most 15 digits that reads back as x is the 15-digit
    rounding.  P is a multiple of 2**-46, so the distance of a rounding
    from P (below 64) and h are exact doubles.  No decimal of 17 or fewer
    digits lies at exactly h, as the midpoint of two doubles here has more
    than 30 significant digits, and no rounding within h carries to
    10**(e + 1), as the double nearest each power of ten from 1e-3 to 10
    is not below it.

    Left to ``repr`` are every x outside [1e-4, 10) (below it, repr takes
    the exponent form), the powers of two, whose rounding interval is not
    symmetric, and a 16- or 17-digit rounding of an exact tie, where two
    decimals are as near to x.  A 15-digit tie is never within h.
    """
    decade = sum(x >= bound for bound in _DECADES)  # e + 5 inside, 0 or 6 outside
    fast = (decade >= 1) & (decade <= 5) & (x.view(np.uint64) & np.uint64((1 << 52) - 1) != 0)
    decade[~fast] = 5
    xs = np.where(fast, x, 1.5)
    scale = _SCALES[decade - 1]
    hi = xs * scale
    xh, xl = _split(xs)
    sh, sl = _split(scale)
    lo = ((xh * sh - hi) + xh * sl + xl * sh) + xl * sl
    floor = np.floor(lo)
    r = lo - floor
    whole = hi.astype(np.int64) + floor.astype(np.int64)
    # 2**E for x in [2**E, 2**(E + 1)), times 2**-53
    h = (xs.view(np.uint64) & np.uint64(0x7FF << 52)).view(np.float64) * (2.0 ** -53 * scale)
    q = whole // 100
    m = whole - q * 100
    c15 = (q + ((m > 50) | ((m == 50) & (r > 0)))) * 100
    ok15 = np.abs((c15 - whole) - r) < h
    q = whole // 10
    m = whole - q * 10
    c16 = (q + ((m > 5) | ((m == 5) & (r > 0)))) * 10
    ok16 = np.abs((c16 - whole) - r) < h  # implied by ok15
    fast &= ok15 | (ok16 & ~((m == 5) & (r == 0))) | (~ok16 & (r != 0.5))
    # the 17 digits at 7..23, after the "0" of the pair they start with
    cells = np.empty((x.size, _WIDTH), np.uint8)
    chosen = np.where(ok15, c15, np.where(ok16, c16, whole + (r > 0.5)))
    cells.view(np.uint16)[:, 3:] = _pairs(chosen, 9).T
    # the trailing zeros: the last one of a 16-digit rounding, and the last
    # two and those of the 15 digits of a 15-digit one
    cells[:, -1] *= ~ok16
    short = np.flatnonzero(ok15)
    size = 15 - np.argmax(cells[short, 21:6:-1] != ord("0"), axis=1)
    cells[short, 7:] *= np.arange(17) < size[:, None]
    # "0." and 4 - decade zeros before the digits below 1; above, the first
    # digit before the "."
    first = cells[:, 7].copy()
    cells.view(np.uint64)[:, 0] = _HEADS[decade - 1]
    units = decade == 5
    cells[:, 0] += first * units
    cells[:, 7] = first * ~units
    cells[short[(size == 1) & units[short]], 8] = ord("0")  # "d.0"
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([repr(v) for v in x[slow].tolist()], dtype=bytes)
        width = text.dtype.itemsize
        if width > _WIDTH:
            cells = np.pad(cells, ((0, 0), (0, width - _WIDTH)))
        cells[slow] = 0
        cells[slow, :width] = text.view(np.uint8).reshape(-1, width)
    return cells


def _split(a):
    """Veltkamp's split of a into two halves of 26 bits with a = hi + lo."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


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

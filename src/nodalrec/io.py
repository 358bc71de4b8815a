"""File formats: nodal CSV, spectrum CSV, trajectory CSV, reconstruction output.

``NodalData`` holds what a nodal CSV holds: the node lists by n and their
source, numeric or synthetic, each list checked once and held as a float64
array.  This module imports only errors, so the solvers that build it and
the reader share it without an import cycle.

All numeric cells use ``repr(float(...))``, the shortest representation that
round-trips the binary value (at least 15 significant digits).  Bodies contain
no timestamps, so identical inputs produce byte-identical files.

CSV rows end in ``\\r\\n``, the line end of ``csv.writer``; comment lines
(``# ...``) end in a bare ``\\n``; the small CSVs go through
``csv.writer`` itself (``_write_rows``).  The nodal CSV holds the bytes
``csv.writer`` gives for its ``n,j,x`` cells, rendered in numpy a block of
whole lists at a time: ``_shortest`` computes repr's digits of each node
exactly from an error-free product with a power of ten, and hands the few
it cannot certify (powers of two, exact decimal ties, values below 1e-4) to
``repr`` itself, so the bytes are repr's by construction.  Digits of x and
j are looked up four at a time in a table of the ASCII of 0..9999.

The reader is the writer's inverse.  It takes the file as bytes in pieces
of whole lines of about ``_CHUNK`` bytes.  A piece whose rows are all in
the writer's form, ``n,j,D.F\\r\\n`` (after the writer's tag and header in
the first), is parsed in numpy: eight digits at a time from 8-byte words,
and x as the correctly rounded M / 10**p of the digits M of D.F, by one
division where M < 2**53 and with an exact residual check above; the rare
cell it cannot certify is read by ``float``.  Any other piece is decoded
as UTF-8 with universal newlines, so LF, CRLF and CR files read the same.
One UTF-8 byte-order mark at the start of the file is skipped.
In it one regular expression notes a ``# source=synthetic`` tag and
another drops the blank lines and the ``#`` comment lines, wherever they
stand; the first row left in the file is the header, and ``np.loadtxt``
parses the other rows of the piece in one call.  Both round decimal
strings correctly, so every written float reads back bit for bit, and a
row outside the writer's form gets loadtxt's value or error, which
rejects a ``#`` after a cell.  Only the x column is kept: the n and j
of each piece are reduced to runs, (n, first j, first row) of consecutive
rows of one n with j rising by 1.  Rows may come in any order, but sorted
by (n, first j) the runs of each n must tile its positions 0..len-1.  x
is gathered into (n, j) order only where the rows are not in it, as the
writer puts them, and the per-n views of x go to ``NodalData``, so the
reader ends holding one copy of the nodes.  A file that is not UTF-8 text is a ProblemFormatError.
"""

import csv
import functools
import io
import json
import math
import operator
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ProblemFormatError

# node values one numpy pass of synthesis, the CSV writer or a stage fit takes (``_blocks``)
_BLOCK = 1 << 13


def _blocks(sizes):
    """The (lo, hi) index ranges of runs of consecutive lists, by their
    sizes, that together hold at most _BLOCK values; a longer list is a
    block of its own and is not split."""
    lo = total = 0
    for hi, size in enumerate([*sizes, math.inf]):  # an endless list closes the last block
        if total + size > _BLOCK and hi > lo:
            yield lo, hi
            lo, total = hi, 0
        total += size


@dataclass(frozen=True)
class NodalData:
    """Map n -> ascending node positions in the open interval (0, pi), and
    for numeric data the eigenvalues the search found.

    Each list is stored as a float64 1-D array, converted once (a float64
    array is not copied), so readers index ``nodes[n]`` as it is.  The
    first n in dict order that is not an integer (not a bool; numpy
    integers pass), or whose list is not real numbers or not 1-D, is named;
    then the first whose values fail, its order fault before its bounds one.
    """

    nodes: dict
    source: str = "numeric"
    failures: dict = field(default_factory=dict)
    eigenvalues: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.source not in ("numeric", "synthetic"):
            raise ValueError(f"source must be numeric or synthetic, got {self.source!r}")
        nodes = {}
        for n, xs in self.nodes.items():
            if isinstance(n, bool) or not hasattr(type(n), "__index__"):  # operator.index's test
                raise ValueError(f"node list for n = {n!r}: n is not an integer")
            try:
                if np.issubdtype(getattr(xs, "dtype", float), np.complexfloating):
                    raise TypeError  # numpy would drop the imaginary part, with a warning
                xs = nodes[n] = np.asarray(xs, dtype=np.float64)
            except (TypeError, ValueError):
                raise ValueError(f"node list for n = {n} is not a list of real numbers") from None
            if xs.ndim != 1:
                raise ValueError(f"node list for n = {n} is not one-dimensional")
        for n, xs in nodes.items():
            if xs.size and not (xs[1:] > xs[:-1]).all():
                raise ValueError(f"node list for n = {n} not strictly increasing")
            if xs.size and not (xs[0] > 0.0 and xs[-1] < math.pi):
                raise ValueError(f"node list for n = {n} leaves (0, pi)")
        object.__setattr__(self, "nodes", nodes)

    @property
    def indices(self):
        return sorted(self.nodes)


def format_float(value):
    return repr(float(value))


def write_nodal_csv(data, path):
    """CSV "n,j,x"; j is the 0-based position in ascending-x order.

    Synthetic data is tagged with a "# source=synthetic" comment so readers
    can tell which generator produced it.  The rows are rendered a block
    of whole lists at a time (``_blocks``; an empty list has no rows and is
    skipped), as the bytes ``csv.writer`` gives for ``[n, j, repr(x)]``:
    ``_shortest`` makes the digits of ``repr`` with exact arithmetic, and
    the few values it cannot certify are printed by ``repr`` itself.
    """
    keys = [n for n in data.indices if data.nodes[n].size]
    lists = [data.nodes[n] for n in keys]
    with open(path, "wb") as fh:
        fh.write(_WRITTEN_HEADS[data.source == "synthetic"])
        for lo, hi in _blocks([xs.size for xs in lists]):
            fh.write(_render(keys[lo:hi], lists[lo:hi]))


# what write_nodal_csv writes before its rows, for numeric and synthetic data
_WRITTEN_HEADS = (b"n,j,x\r\n", b"# source=synthetic\nn,j,x\r\n")
# each literal is the smallest double >= its power of ten, so x >= 10**e
# exactly when x is >= the literal
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0])
_SCALES = np.array([1e20, 1e19, 1e18, 1e17, 1e16])  # 10**(16 - e), exact
# the 8 bytes before the last 16 digits, at 5 * f + e + 4 for x's first digit
# f and x in [10**e, 10**(e + 1)): "0.", -1 - e zeros and f below 1, else "f."
_HEADS = np.frombuffer(b"".join(
    (b"0." + b"0" * (-1 - e)).ljust(7, b"\0") + bytes([48 + f]) if e < 0
    else bytes([48 + f]) + b".".ljust(7, b"\0") for f in range(10) for e in range(-4, 1)), np.uint64)
# bytes of a cell of _shortest: 7 before the 17 digits; also the longest
# repr of any double (sign, 17 digits, ".", "e-308"), so every cell fits
_WIDTH = 24


def _render(keys, lists):
    """The bytes of the rows of the non-empty node lists under the n keys."""
    names = np.array([f"{n},".encode() for n in keys])  # null-padded to the longest
    counts = np.array([xs.size for xs in lists])
    x = np.concatenate(lists)
    stops = np.cumsum(counts)
    j = np.arange(x.size) - np.repeat(stops - counts, counts)
    wn = names.itemsize
    wj = 4 * ((len(str(j.max())) + 3) // 4)
    rows = np.empty((x.size, wn + wj + _WIDTH + 3), np.uint8)
    rows[:, :wn] = np.repeat(names, counts).view(np.uint8).reshape(-1, wn)
    digits = rows[:, wn:wn + wj].view(np.uint32)
    digits[:, 0] = _quad_table()[1][_quads(j, digits[:, 1:])]  # the first quad has no leading zeros
    if wj > 4:  # nor have the others, where j is shorter than the field
        rows[:, wn:wn + wj - 1] *= j[:, None] >= 10 ** np.arange(wj - 1, 0, -1)
    rows[:, wn + wj] = ord(",")
    _shortest(x, rows[:, wn + wj + 1:-2])
    rows[:, -2:] = (13, 10)
    return rows.tobytes().translate(None, b"\0")


@functools.cache  # built by the first write, so that importing costs no memory
def _quad_table():
    """The ASCII digits of v = 0..9999, four bytes each, read as one uint32
    in the machine's byte order: zero-padded in row 0, and in row 1 with
    the digit of 10**k a null byte while v < 10**k (the last always shows)."""
    digits = 48 + np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    digits = np.stack([digits, digits * (np.arange(10 ** 4)[:, None] >= [1000, 100, 10, 0])])
    return digits.view(np.uint32)[..., 0]


def _quads(v, out):
    """Writes the last 4 * out.shape[1] decimal digits of the non-negative
    int64 array v, zero-padded, into the uint32 columns of out as ASCII,
    and returns the rest, v // 10**(4 * out.shape[1])."""
    for k in range(out.shape[1] - 1, -1, -1):
        q = v // 10 ** 4  # a division by a constant, several times faster than np.divmod
        out[:, k] = _quad_table()[0][v - q * 10 ** 4]
        v = q
    return v


def _shortest(x, cells):
    """Writes repr of each float of x into the rows of cells, a
    (len(x), _WIDTH) uint8 array, as ASCII left-aligned in null bytes.

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
    decade = np.searchsorted(_DECADES, x, side="right")  # e + 5 inside, 0 or 6 outside
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
    # the 17 digits at 7..23, the first in the head (at byte 0 above 1)
    chosen = np.where(ok15, c15, np.where(ok16, c16, whole + (r > 0.5)))
    first = _quads(chosen, cells[:, 8:].view(np.uint32))
    cells.view(np.uint64)[:, 0] = _HEADS[5 * first + decade - 1]
    # the trailing zeros: the last one of a 16-digit rounding, and the last
    # two and those of the 15 digits of a 15-digit one
    cells[:, -1] *= ~ok16
    short = np.flatnonzero(ok15)
    size = 15 - np.argmax(cells[short, 21:6:-1] != ord("0"), axis=1)
    cells[short, 7:] *= np.arange(17) < size[:, None]
    cells[short[(size == 1) & (decade[short] == 5)], 8] = ord("0")  # "d.0"
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([repr(v) for v in x[slow].tolist()], dtype=bytes)
        width = text.dtype.itemsize
        cells[slow] = 0
        cells[slow, :width] = text.view(np.uint8).reshape(-1, width)


def _split(a):
    """Veltkamp's split of a into two halves of 26 bits with a = hi + lo."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_NODAL_ROW = np.dtype([("n", np.int64), ("j", np.int64), ("x", np.float64)])
_CHUNK = 1 << 18  # bytes the reader takes at a time, cut back to the last line end
_MARKS = np.frombuffer(b",,.\r\n", np.uint8)  # the non-digits of a written row, in order
_LEAD = b"0" * 24  # digits before a piece, so that every word read below starts in it
# _KEEP[k] keeps the top k bytes of a little-endian word: the last k characters
_KEEP = np.array([0] + [(1 << 64) - (1 << (64 - 8 * k)) for k in range(1, 9)], np.uint64)
_TENS = 10 ** np.arange(18)  # int64
_EXACT_TENS = np.array([float(10 ** k) for k in range(23)])  # the powers of ten that are doubles
# in a piece of whole lines with a "\n" before and after each: the tag line,
# and a blank or comment line with the line end before it (the first
# lookahead turns a data row away at its first character)
_TAG = re.compile(r"\n[^\S\n]*#[^\S\n]*source=synthetic[^\S\n]*(?=\n)")
_SKIP = re.compile(r"\n(?=[\s#])[^\S\n]*(?:#[^\n]*)?(?=\n)")


def _parse_rows(lines):
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=_NODAL_ROW, ndmin=1)


def read_nodal_csv(path):
    """Inverse of write_nodal_csv; unknown comments are ignored.

    The file is read in pieces of whole lines of about ``_CHUNK`` bytes.  A
    piece whose rows are all in the writer's form is parsed in numpy
    (``_written_rows``); any other piece is decoded as UTF-8 with universal
    newlines and parsed by ``np.loadtxt`` after its blank and comment lines
    are dropped, so its values, errors and row numbers are loadtxt's.

    Only the x column is kept; the positions are checked on the runs of
    each piece's n and j, and the lists handed to ``NodalData`` are views
    of x, gathered into (n, j) order only where the rows come out of it.
    """
    source = "numeric"
    count = 0  # rows before the piece being parsed, header included
    runs = []  # the n, first j and first row of the runs of each piece
    with open(path, "rb") as fh:
        if fh.read(3) != b"\xef\xbb\xbf":  # skip a leading UTF-8 byte-order mark
            fh.seek(0)
        # x, with room for rows of 20 bytes or more, grown if they are
        # shorter; pages never written are never resident
        x = np.empty(os.fstat(fh.fileno()).st_size // 20 + 1)
        for piece in _pieces(fh):
            rows = None
            if count:
                rows = _written_rows(piece)
            else:
                head = next((h for h in _WRITTEN_HEADS if piece.startswith(h)), b"")
                if head and (rows := _written_rows(piece, len(head))) is not None:
                    count = 1
                    if head.startswith(b"#"):
                        source = "synthetic"
            if rows is None:
                text = f"\n{_text(path, piece)}\n"  # a last line may lack its "\n"
                if "source=synthetic" in text and _TAG.search(text):
                    source = "synthetic"
                body = _SKIP.sub("", text)[1:-1]
                if body and not count:
                    header, _, body = body.partition("\n")
                    header = header.strip()
                    if [c.strip() for c in header.split(",")] != ["n", "j", "x"]:
                        raise ProblemFormatError(f"{path}: expected header n,j,x, got {header!r}")
                    count = 1
                if not body:
                    continue
                table = _loaded_rows(path, body.split("\n"), count)
                rows = table["n"], table["j"], table["x"]
            n, j, xs = rows
            stop = count - 1 + xs.size
            if stop > x.size:
                x.resize(2 * stop, refcheck=False)
            x[count - 1:stop] = xs
            new = np.concatenate(([True], (n[1:] != n[:-1]) | (j[1:] - j[:-1] != 1)))  # a run starts
            runs.append((n[new], j[new], np.flatnonzero(new) + count - 1))
            count = stop + 1
    if not count:
        raise ProblemFormatError(f"{path}: no rows")
    x.resize(count - 1, refcheck=False)
    if not runs:
        return NodalData(nodes={}, source=source)
    n, j, first = (np.concatenate(column) for column in zip(*runs))  # first: the run's first row
    del runs
    size = np.diff(np.append(first, x.size))
    order = None  # the runs come in (n, j) order, as write_nodal_csv writes them
    if not np.all((n[1:] > n[:-1]) | ((n[1:] == n[:-1]) & (j[1:] > j[:-1]))):
        order = np.lexsort((j, n))  # runs of one (n, j) tile no list, so their order does not matter
        n, j, size, first = n[order], j[order], size[order], first[order]
    at = np.cumsum(size) - size  # where each run starts in (n, j) order
    new = np.concatenate(([True], n[1:] != n[:-1]))  # the first run of each n
    group, starts = np.cumsum(new) - 1, np.flatnonzero(new)
    keys, begins = n[starts], at[starts]  # and where its list begins
    stops = np.append(begins[1:], x.size)
    # each run must start at its place in its list.  j rises by 1 within a
    # run in int64, which may wrap around, but a run that starts at its
    # place, below the row count, ends below it too, so a list passes
    # exactly when its positions are 0..len-1
    bad = np.unique(group[j != at - begins[group]])
    first_row = np.minimum.reduceat(first, starts)  # where each n first appears
    if bad.size:
        k = bad[np.argmin(first_row[bad])]
        raise ProblemFormatError(
            f"{path}: node positions for n = {keys[k]} are not 0..{stops[k] - begins[k] - 1}"
        )
    if order is not None:  # the row at each place in (n, j) order
        x = x[np.repeat(first - at, size) + np.arange(x.size)]
    nodes = {int(keys[k]): x[begins[k]:stops[k]] for k in np.argsort(first_row).tolist()}
    try:
        return NodalData(nodes=nodes, source=source)
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from None


def _pieces(fh):
    """The bytes of a binary file in pieces of whole lines of about _CHUNK
    bytes; only the last may lack its line end, and no "\\r\\n" is cut."""
    buf = bytearray()
    while block := fh.read(_CHUNK):
        seen = max(len(buf) - 1, 0)  # a "\r" left at the end may end a line
        buf += block
        # the last line end, where a "\r" at the very end may start a "\r\n"
        cut = max(buf.rfind(b"\n", seen), buf.rfind(b"\r", seen, len(buf) - 1)) + 1
        if cut:
            yield bytes(buf[:cut])
            del buf[:cut]
    if buf:
        yield bytes(buf)


def _text(path, piece):
    """A piece as text with universal newlines, as a text-mode file reads it."""
    try:
        text = piece.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from None
    return io.IncrementalNewlineDecoder(None, translate=True).decode(text, final=True)


def _loaded_rows(path, lines, count):
    """np.loadtxt's rows of a piece's lines, or a ProblemFormatError that
    names the faulty row, numbered after the `count` rows before them."""
    rows = iter(lines)  # the parser's place in them
    try:
        return _parse_rows(rows)
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


def _written_rows(piece, start=0):
    """The n, j and x of the rows of piece[start:], if it has rows and each
    line is a row as write_nodal_csv writes it, else None.

    Such a row is "n,j,D.F\\r\\n": n and j are 1 to 8 ASCII digits, D is one
    digit and F any number of them, so its five non-digits fix every field.
    Each field of up to 8 digits is read from the 8-byte word that ends
    with it, and F from up to three such words (Lemire's eight-digit
    parse); the p digits of F give M = D * 10**p + F, exact in int64.  For M < 2**53 and p <= 22, M and
    10**p are doubles, so one division rounds M / 10**p correctly
    (Clinger's fast path).  Up to 10**18 the quotient is checked with an
    exact residual and moved by an ulp if need be (``_rounded``).  A cell
    with more than 22 fraction digits or M >= 10**18 is read by ``float``.
    Below 10, a decimal tie between two doubles has at least 50 fraction
    digits, so every other cell is certified.
    """
    body = piece[start:]
    if b"#" in body or not body.endswith(b"\r\n"):
        return None  # no rows, a comment, LF or CR line ends, or a last line without its end
    b = np.frombuffer(_LEAD + body, np.uint8)
    marks = np.flatnonzero(b - 48 > 9)
    if marks.size % 5:
        return None  # a row with other non-digits
    marks = marks.reshape(-1, 5)
    if not (b[marks] == _MARKS).all():
        return None
    comma1, comma2, dot, cr, nl = marks.T
    first = np.concatenate(([len(_LEAD)], nl[:-1] + 1))  # where each row starts
    n_size, j_size = comma1 - first, comma2 - comma1 - 1
    if not np.all((dot == comma2 + 2) & (nl == cr + 1) & (n_size >= 1) & (n_size <= 8)
                  & (j_size >= 1) & (j_size <= 8)):
        return None
    words = np.ndarray((b.size - 7,), "<u8", b, 0, (1,))  # the 8 bytes from each offset
    d = b[comma2 + 1] - np.int64(48)
    p = cr - dot - 1
    f = [_digits(words, cr - 8 * k, np.clip(p - 8 * k, 0, 8)) for k in range(3)]
    # M < 10**18 when it has at most 18 digits, or D = 0 and F < 10**18;
    # where it is not, or where 10**p is not a double, float reads the cell
    sure = (p <= 17) | ((p <= 22) & (d == 0) & (f[2] < 100))
    whole = d * _TENS[np.minimum(p, 17)] + f[2] * 10 ** 16 + f[1] * 10 ** 8 + f[0]
    scale = _EXACT_TENS[np.minimum(p, 22)]
    x = whole / scale
    big = np.flatnonzero(sure & (whole >= 1 << 53))
    if big.size:
        x[big], sure[big] = _rounded(x[big], whole[big], scale[big])
    for i in np.flatnonzero(~sure).tolist():
        x[i] = float(b[comma2[i] + 1:cr[i]].tobytes())
    return _digits(words, comma1, n_size), _digits(words, comma2, j_size), x


def _digits(words, stops, sizes):
    """The values of the fields of 0 to 8 ASCII digits that end before the
    offsets `stops`, read from the little-endian `words` that end there."""
    v = words[stops - 8] ^ np.uint64(0x3030303030303030)
    v &= _KEEP[sizes]  # the digits before a field read as leading zeros
    v = v * np.uint64(10) + (v >> np.uint64(8))  # digit pairs in bytes 0, 2, 4 and 6
    v = ((v & np.uint64(0xFF000000FF)) * np.uint64(100 + (1000000 << 32))
         + ((v >> np.uint64(16)) & np.uint64(0xFF000000FF)) * np.uint64(1 + (10000 << 32)))
    return (v >> np.uint64(32)).astype(np.int64)


def _rounded(q, m, t, moves=1):
    """The doubles nearest the quotients m / t, from q within 1.5 ulp of
    them, and whether each is certified.

    m is an int64 in [2**53, 10**18) and t = 10**p a double, p <= 22.  The
    residual m - q * t is exact (``_residual``), and so are half the gaps
    to q's neighbours times t.  So q is the nearest double when the
    residual lies strictly between those; otherwise the neighbour on the
    residual's side is tried, `moves` times at most.  A tie is not
    certified.
    """
    r = 2 * _residual(q, m, t)
    up, down = np.nextafter(q, np.inf), np.nextafter(q, 0.0)
    near = ((down - q) * t < r) & (r < (up - q) * t)
    far = np.flatnonzero(~near)
    if far.size and moves:
        q[far] = np.where(r[far] > 0, up[far], down[far])
        q[far], near[far] = _rounded(q[far], m[far], t[far], moves - 1)
    return q, near


def _residual(q, m, t):
    """m - q * t, exactly, for q within 2 ulp of m / t: q * t = hi + lo
    exactly (Dekker's two-product), and hi is an integer, as it lies near
    m >= 2**53.  The residual is a multiple of u = min(1, 2**p ulp(q)) and
    below 2 ulp(q) 10**p in size: fewer than 2 * 5**p < 2**53 units where
    u < 1 (p <= 22), and below 2**-51 m < 2**9 where u = 1, so a double."""
    hi = q * t
    qh, ql = _split(q)
    th, tl = _split(t)
    lo = ((qh * th - hi) + qh * tl + ql * th) + ql * tl
    return (m - hi.astype(np.int64)) - lo


def _write_rows(path, header, rows, comment=None):
    """A CSV of the header and rows by ``csv.writer``, after a "# comment"
    line if one is given; every cell but an int is written by format_float."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, int) else format_float(c) for c in row] for row in rows)


def write_spectrum_csv(spectrum, path):
    _write_rows(path, ["n", "lambda", "residual"], spectrum.rows())


def write_trajectory_csv(sol, path, comment=None):
    """CSV "x,phi1,phi2" of the first lambda of a forward BatchSolution."""
    _write_rows(path, ["x", "phi1", "phi2"], zip(sol.grid, sol.Y[0, :, 0], sol.Y[1, :, 0]), comment)


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
    _write_rows(curves_path, ["x", "f", "g", "V", "Lprime"], zip(
        result.f_hat.x, result.f_hat.values, result.g_hat.values, result.V_hat.values,
        result.Lprime_hat.values))
    return summary_path, curves_path


def _plain(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value

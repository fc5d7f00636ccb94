"""Distance matrices via breadth-first search, all sources at once.

The distance matrix of a connected graph is integral, symmetric, zero on the
diagonal, and satisfies the triangle inequality; entries equal 1 exactly on
edges.  Disconnected input is rejected with a witness pair of vertices.

`distance_array` grows every BFS ball together: `ball[v]` is a Python-int
bitset of the sources within distance l of v, and one sweep ORs each ball
with its neighbours' balls.  After sweep l the balls are unpacked into one
n x n counter of how many levels have held source s inside ball[v], so
after L sweeps d(s, v) = L - inside[v][s] off the diagonal; the matrix is
symmetric, so the counter's rows are the sources' rows.  Two levels are
known without unpacking: level 0 is the identity (the diagonal is zeroed
at the end), and the search stops at the first level where every ball
holds every vertex, so that all-ones level is neither unpacked nor swept
again.  A sweep that grows nothing leaves a disconnected graph.  Each
level costs O(m) big-int ORs of n bits plus O(n^2) bytes of numpy work, so
long thin graphs pay most: `cycle(1500)` (diameter 750) takes about 0.9 s
on a 2-vCPU Xeon, against 0.4 s for n single-source searches.
`distance_array` returns that counter (uint16 below order 65,536), which
every CLI command hands straight to `format_matrix`, the solver or the
exact kernel; `distance_matrix` is its Python lists, for the public API.

`format_matrix` writes 64 rows at a time as fixed-width byte cells.  Rows
of distances (no sign, every entry below 2**16) take their cells from a
table of one cell per value, by one lookup per entry; other rows spell
their digits out by division.  The NUL padding is dropped only where a
cell can hold one, so rows of single digits are copied out as they are.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph

IntMatrix = list[list[int]]


class DisconnectedError(ValueError):
    def __init__(self, u: int, v: int):
        self.pair = (u, v)
        super().__init__(f"graph is disconnected: no path between vertices {u} and {v}")


def distance_array(g: Graph) -> np.ndarray:
    """`distance_matrix` as an unsigned integer array."""
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    ball = [1 << v for v in range(n)]
    full = (1 << n) - 1
    width = (n + 7) // 8
    inside = np.zeros((n, n), np.uint16 if n < 65536 else np.uint32)
    levels = 0
    while True:
        grown = []
        for v in range(n):
            b = ball[v]
            for u in nbrs[v]:
                b |= ball[u]
            grown.append(b)
        levels += 1
        if grown.count(full) == n or grown == ball:
            break
        ball = grown
        packed = b"".join([b.to_bytes(width, "little") for b in ball])
        inside += np.unpackbits(np.frombuffer(packed, np.uint8).reshape(n, width),
                                axis=1, count=n, bitorder="little")
    for v, b in enumerate(grown):
        if not b & 1:
            raise DisconnectedError(0, v)
    np.subtract(levels, inside, out=inside)
    np.fill_diagonal(inside, 0)
    return inside


def distance_matrix(g: Graph) -> IntMatrix:
    """All-pairs shortest path distances; raises DisconnectedError if needed."""
    return distance_array(g).tolist()


def format_matrix(mat: IntMatrix | np.ndarray) -> str:
    """Text dump: first line "n", then n rows of n space-separated integers.

    `mat` is a list of rows of ints that fit int64, or a 2-d array of a
    type that casts to int64 without loss (other types are refused).
    Rows are formatted 64 at a time with no Python work per entry, in
    slabs that are views of an unsigned array in its own type (what
    `distance_array` returns) and int64 slabs otherwise (views of an int64
    array, copies of anything else).  Each entry fills one fixed-width
    cell of bytes, its separator in column 0 (a newline before a row's
    first entry, a space elsewhere), its sign in column 1 where the slab
    holds a negative entry, then its digits right-aligned in NUL padding.
    One pass over the slab's bytes then drops the NULs, leaving the text;
    a slab of single digits and no sign has none, and skips it.
    """
    unsigned = False
    if isinstance(mat, np.ndarray):
        if not np.can_cast(mat.dtype, np.int64):  # no silent wrap or rounding
            raise ValueError(f"matrix entries of type {mat.dtype} may not "
                             "fit int64")
        square = mat.ndim == 2 and mat.shape[0] == mat.shape[1]
        unsigned = mat.dtype.kind == "u"
    else:
        square = all(len(row) == len(mat) for row in mat)
    if not square:
        raise ValueError("matrix must be square")
    n = len(mat)
    slabs = [_format_rows(mat[lo:lo + 64] if unsigned
                          else np.asarray(mat[lo:lo + 64], np.int64))
             for lo in range(0, n, 64)]
    return "".join([str(n), *slabs, "\n"])  # one copy of the text, not two


def _format_rows(rows: np.ndarray) -> str:
    """Each row of a 2-d unsigned or int64 array as a newline and its
    entries.  `rows` is read, never written.

    A slab with no negative entry and every entry below 2**16 (every
    distance array, every list of distances) takes its cells from a table
    of one cell per value up to its largest, padded to 2, 4 or 8 bytes so
    that a cell is one unsigned integer: one `np.take` by the entries
    gives them all.  Any other slab spells its digits out by division,
    one pass per digit.
    """
    signed = False
    if rows.dtype.kind == "u":
        mag = rows
    else:
        neg = rows < 0
        signed = bool(neg.any())
        mag = np.abs(rows).view(np.uint64)       # |-2**63| is 2**63 unsigned
    top = int(mag.max())
    digits = len(str(top))
    if not signed and top < 1 << 16:
        size = 2 if digits < 2 else 4 if digits < 4 else 8
        table = _digit_cells(np.arange(top + 1, dtype=np.uint32)[None], top,
                             size)
        cells = np.take(table.view(f"u{size}").ravel(), mag)
        cells = cells.view(np.uint8).reshape(*rows.shape, size)
    else:
        cells = _digit_cells(mag, top, 1 + signed + digits,
                             neg if signed else None)
    cells[:, 0, 0] = ord("\n")
    text = cells.tobytes()
    if digits > 1 or signed:                     # else no cell holds a NUL
        text = text.translate(None, b"\0")
    return text.decode("ascii")


def _digit_cells(mag: np.ndarray, top: int, width: int,
                 neg: np.ndarray | None = None) -> np.ndarray:
    """The cells of a 2-d unsigned array `mag` whose largest entry is
    `top`, `width` bytes each: a space, a sign column where `neg` is
    given, then the digits right-aligned in NUL padding, found by one
    `divmod` pass per digit."""
    cells = np.zeros((*mag.shape, width), np.uint8)
    cells[:, :, 0] = ord(" ")
    if neg is not None:
        cells[:, :, 1] = neg * ord("-")
    for k in range(1, len(str(top)) + 1):
        live = mag > 0
        mag, digit = np.divmod(mag, 10)
        digit = digit.astype(np.uint8)
        digit += ord("0")
        if k > 1:                                # no leading zeros; 0 prints "0"
            digit *= live
        cells[:, :, -k] = digit
    return cells


def parse_matrix(text: str) -> IntMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix input")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ValueError("line 1: expected matrix order") from None
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    mat = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"line {i}: expected {n} entries, got {len(parts)}")
        try:
            mat.append([int(p) for p in parts])
        except ValueError:
            raise ValueError(f"line {i}: entries must be integers") from None
    return mat

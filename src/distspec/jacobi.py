"""Dense symmetric eigenvalues by Householder tridiagonalization and a
Sturm-count search.

Independent of any library eigensolver on purpose: this is the numeric
oracle that closed-form spectra are checked against, so it must not share
code paths with them or with LAPACK-backed routines.  The matrix is scaled by
a power of two and reduced to a symmetric tridiagonal T by Householder
reflections, one column at a time (Golub & Van Loan, Matrix Computations,
section 8.3.1).  Couplings of T no larger than n*eps*||A||_F are set to zero,
which by Weyl's theorem moves no eigenvalue by more than twice that; on
distance matrices with few distinct eigenvalues T then falls apart into short
blocks.  A block of one row is its own eigenvalue.  Every other eigenvalue
is located by the Sturm count of its block (Barth, Martin & Wilkinson,
Numer. Math. 9, 1967), all of them at once as numpy arrays: the live blocks
are laid side by side, longest first, so that one count costs as many
Python steps as the longest block has rows and row i touches only the
blocks longer than i.  Each round counts at 15 points per interval instead
of one, which gains 4 bits per round instead of 1 for nearly the same Python
cost.  The search stops at eps*||T||.  The count runs in slabs of rows
without the guard against tiny pivots and checks each slab once, running
it again with the guard only where a pivot came out tiny (Demmel & Li,
IEEE Trans. Comput. 43(8), 1994; Marques, Riedy & Voemel, SIAM J. Sci.
Comput. 28(5), 2006, as in LAPACK's dlaneg), so its results are those of
the guarded count, bit for bit.  `spectra.error_bound` states the resulting
normwise error estimate from the eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np

# Sizes beyond this are outside the intended desk scale: the reduction is
# O(n^3) in numpy and one count O(n * longest block), so order 1500 takes
# about 5 s when T does not split (a dense random matrix, 2-vCPU Xeon).
MAX_ORDER = 1500
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Each round of the search counts at 15 points inside every interval and
# keeps the sixteenth that holds the target.
_BITS = 4
_POINTS = 2 ** _BITS - 1
# Rows of the count run between two checks of their pivots.  From order 120
# up the slab buffer, 8 * 15 rows of the layout, is smaller than the
# reduction's (n x n) arrays, so the search raises no memory peak; 16-row
# slabs were about 7% faster at orders 40-150 but raised it.
_SLAB = 8
_SYMMETRY_TOL = 1e-12  # largest |a[i][j] - a[j][i]| / max(1, max|a|)


def sym_eigenvalues(mat) -> list[float]:
    """All eigenvalues of a symmetric matrix, sorted in decreasing order.

    The input may be any square array-like of order at most MAX_ORDER with
    finite real entries.  A NaN or infinite entry is rejected with the
    location of the first one, and asymmetry beyond 1e-12 (relative to the
    matrix scale) with the location of the worst offending pair.  Each
    eigenvalue is within `spectra.error_bound(values)` of the exact one,
    an estimate worked out from the returned values alone.
    """
    a = np.array(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    n = a.shape[0]
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported cap {MAX_ORDER}")
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"matrix entry a[{i}][{j}] = {a[i, j]} is not finite")
    top = max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))
    sym = a - a.T
    np.abs(sym, out=sym)
    worst = float(sym.max(initial=0.0))
    if worst > _SYMMETRY_TOL * max(1.0, top):
        i, j = np.unravel_index(int(sym.argmax()), sym.shape)
        raise ValueError(f"matrix not symmetric: |a[{i}][{j}] - a[{j}][{i}]| = {worst:g}")
    del sym
    if n == 1:
        return [float(a[0, 0])]

    # scaled by a power of two, which is exact, so that no square or sum
    # of entries overflows or underflows
    shift = min(max(math.frexp(top)[1], -1000), 1000)
    a *= math.ldexp(0.5, -shift)
    a = a + a.T
    frob = math.sqrt(float(np.vdot(a, a)))
    d, e = _tridiagonalize(a)
    del a  # an (n x n) array, not needed while searching
    e[np.abs(e) <= n * _EPS * frob] = 0.0
    vals = _sturm_search(d, e) * math.ldexp(1.0, shift)
    return sorted(vals.tolist(), reverse=True)


def _tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a tridiagonal matrix orthogonally
    similar to the symmetric a, which is overwritten.

    Column k is mapped onto its first subdiagonal entry by the reflection
    H = I - 2vv'/v'v, applied to the trailing block B as
    B - vw' - wv' with p = 2Bv/v'v and w = p - (v'p/v'v)v.  A column that is
    already zero below that entry needs no reflection and is skipped.  The
    rank-2 term is one matrix product into a buffer allocated once.
    """
    n = a.shape[0]
    e = np.empty(n - 1)
    work = np.empty((n - 1) ** 2)
    for k in range(n - 2):
        x = a[k + 1:, k]
        sigma = float(x[1:] @ x[1:])
        x0 = float(x[0])
        if sigma == 0.0:
            e[k] = x0
            continue
        alpha = -math.copysign(math.sqrt(x0 * x0 + sigma), x0)
        v = x.copy()
        v[0] = x0 - alpha
        vv = sigma + v[0] * v[0]
        b = a[k + 1:, k + 1:]
        p = (b @ v) * (2.0 / vv)
        w = p - (float(v @ p) / vv) * v
        pair = np.array((v, w))
        rank2 = work[:len(v) ** 2].reshape(len(v), len(v))
        np.matmul(pair.T, pair[::-1], out=rank2)
        b -= rank2
        e[k] = alpha
    e[n - 2] = a[n - 1, n - 2]
    return a.diagonal().copy(), e


def _sturm_search(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The eigenvalues of the tridiagonal (d, e), searched for all at once.

    The zeros of e cut T into blocks.  A block of one row is its diagonal
    entry and needs no search.  Every other target j is the k-th smallest
    eigenvalue of its block and starts from the block's Gershgorin interval.
    Its block is a column of an (L x m) layout, L the longest block and m
    the number of such targets, longest block first, so that row i is the
    prefix of the columns whose block is longer than i.  Below its block a
    column is padded with a diagonal entry above every interval.
    """
    n = len(d)
    starts = np.flatnonzero(np.concatenate(([True], e == 0.0)))
    lengths = np.diff(np.append(starts, n))
    block = np.repeat(np.arange(len(starts)), lengths)

    ae = np.abs(e)
    radius = np.zeros(n)
    radius[:-1] += ae
    radius[1:] += ae
    lo = np.minimum.reduceat(d - radius, starts)
    hi = np.maximum.reduceat(d + radius, starts)
    e2 = e * e
    tnorm = max(float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    pivmin = _TINY * max(1.0, float(np.max(e2)))
    margin = 2.1 * n * _EPS * tnorm + 4.2 * pivmin  # room for rounding

    # a block of one row is its entry, as the midpoint of [d - 0.0, d + 0.0]
    # gives it: -0.0 becomes 0.0
    vals = d + 0.0
    length = lengths[block].tolist()
    cols = sorted((j for j in range(n) if length[j] > 1),
                  key=length.__getitem__, reverse=True)
    if not cols:
        return vals
    cols = np.array(cols)
    first, size = starts[block[cols]], lengths[block[cols]]
    rank = cols - first
    lo = lo[block[cols]] - margin
    hi = hi[block[cols]] + margin

    # entry i of column j is T's entry first[j] + i, or the padding at index
    # n past the end of the block; the coupling into the first row of a
    # block is a zero of e
    rows = np.arange(size[0])[:, None]
    inside = rows < size
    at = np.where(inside, first + rows, n)
    dpad = np.append(d, np.max(hi) + max(1.0, tnorm))[at][:, None]
    e2pad = np.concatenate(([0.0], e2, [0.0]))[at][:, None]
    # how many columns row i reaches: those whose block is longer than i
    reach = inside.sum(axis=1)
    del at, inside  # (L x m) arrays, not needed while searching

    # row p of x is the p-th point of every column's interval
    x = np.empty((_POINTS, len(cols)))
    count = np.empty(x.shape, dtype=np.int64)
    slabs = _slabs(dpad, e2pad, reach, x, count)

    # rounds enough to take the widest interval below eps * ||T||
    widest = float(np.max(hi - lo)) / max(_EPS * tnorm, pivmin)
    points = np.arange(1.0, _POINTS + 1)[:, None]
    with np.errstate(all="ignore"):  # the unchecked pivots of a slab
        for _ in range(-(-math.frexp(widest)[1] // _BITS)):
            step = (hi - lo) / (_POINTS + 1)
            np.multiply(points, step, out=x)
            np.add(lo, x, out=x)
            _count_below(slabs, pivmin, count)
            lo = lo + (count <= rank).sum(axis=0) * step
            hi = lo + step
    vals[cols] = 0.5 * (lo + hi)
    return vals


def _slabs(dpad: np.ndarray, e2pad: np.ndarray, reach: np.ndarray,
           x: np.ndarray, count: np.ndarray) -> list[tuple]:
    """The slabs of _SLAB rows that `_count_below` runs through: views into
    buffers allocated once per search.  A slab is (d, x, q, mask, count,
    steps, end): its rows of d; the columns of x and count that its first
    row reaches; its pivots q, one (points x columns) array per row, and a
    mask of their shape; per row, the (e^2, q_prev, quotient, q) views of
    one step of the recurrence; and where its last row of pivots is kept."""
    rows, m = len(dpad), x.shape[1]
    height = min(_SLAB, rows)
    pivots = np.empty(height * _POINTS * m)
    masks = np.empty(pivots.shape, dtype=bool)
    quotient = np.empty(x.shape)
    end = np.empty(x.shape)
    prev = np.ones(x.shape)  # before the first row, so e_0^2 / 1 = 0
    slabs = []
    for r0 in range(0, rows, height):
        r1 = min(r0 + height, rows)
        k = reach[r0]
        q = pivots[:(r1 - r0) * _POINTS * k].reshape(r1 - r0, _POINTS, k)
        steps = []
        for i in range(r0, r1):
            row = q[i - r0, :, :reach[i]]
            steps.append((e2pad[i, :, :reach[i]], prev[:, :reach[i]],
                          quotient[:, :reach[i]], row))
            prev = row
        slabs.append((dpad[r0:r1, :, :k], x[:, :k], q,
                      masks[:q.size].reshape(q.shape), count[:, :k], steps,
                      end[:, :k]))
        prev = end
    return slabs


def _count_below(slabs: list[tuple], pivmin: float, count: np.ndarray) -> None:
    """Per point p and column j, count[p, j] = the number of eigenvalues of
    its block below x[p, j]: the negative pivots of
    q_i = d_i - x - e_{i-1}^2 / q_{i-1}, with a pivot smaller than pivmin in
    magnitude taken as -pivmin.

    Each slab first runs without that guard and is then checked once: if
    every pivot is at least pivmin above or below zero, the guard would not
    have fired and the pivots are the guarded ones.  A tiny pivot fails the
    check, and so does a NaN, which can only follow one; the slab is then
    run again with the guard, from the same starting row.
    """
    count.fill(0)
    for d, x, q, mask, cnt, steps, end in slabs:
        _pivots(d, x, q, steps, 0.0)
        np.greater_equal(q, pivmin, out=mask)
        clear = np.count_nonzero(mask)
        np.less_equal(q, -pivmin, out=mask)
        if clear + np.count_nonzero(mask) < q.size:
            _pivots(d, x, q, steps, pivmin)
            np.less(q, 0.0, out=mask)
        np.copyto(end, q[-1])
        cnt += mask.sum(axis=0)


def _pivots(d: np.ndarray, x: np.ndarray, q: np.ndarray, steps: list[tuple],
            guard: float) -> None:
    """A slab's pivots into q, each smaller than guard in magnitude taken as
    -guard as soon as it is formed."""
    np.subtract(d, x, out=q)
    for e2, prev, quot, row in steps:
        np.divide(e2, prev, out=quot)
        np.subtract(row, quot, out=row)
        if guard:
            row[np.abs(row) < guard] = -guard

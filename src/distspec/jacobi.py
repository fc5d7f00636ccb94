"""Dense symmetric eigenvalues by Householder tridiagonalization and a
Sturm-count search.

Independent of any library eigensolver on purpose: this is the numeric
oracle that closed-form spectra are checked against, so it must not share
code paths with them or with LAPACK-backed routines.  The matrix is scaled by
a power of two and reduced to a symmetric tridiagonal T by Householder
reflections, one column at a time (Golub & Van Loan, Matrix Computations,
section 8.3.1), which ends once the block left to reduce is no larger than
n*eps*||A||_F: that block's diagonal is the rest of T, with zero couplings,
so a distance matrix of rank r takes at most about 2r steps, not n.
Couplings of T no larger than n*eps*||A||_F are set to zero.  By Weyl's
theorem the stop moves no eigenvalue by more than n*eps*||A||_F and the split
by no more than twice that; on distance matrices with few distinct
eigenvalues T then falls apart into short blocks.  A block of one row is its
own eigenvalue.  Every other eigenvalue is located by the Sturm count of its
block (Barth, Martin & Wilkinson, Numer. Math. 9, 1967), all of them at
once as numpy arrays: the live blocks are laid side by side, longest first,
so that one count costs as many Python steps as the longest block has rows
and row i touches only the blocks longer than i.  Each round counts at 15
points per eigenvalue instead of one, for nearly the same Python cost: one
block-wide round, 16-sections while two eigenvalues of a block share an
interval, then a regula falsi zoom on det(T_block - x), which takes a
random graph from 14 rounds to 6 or 7 (`_sturm_search`).  The counts alone
decide every interval; the search stops at eps*||T||.  The count runs in
slabs of rows without the guard against tiny pivots and checks each slab
once, running it again with the guard only where a pivot came out tiny
(Demmel & Li, IEEE Trans. Comput. 43(8), 1994; Marques, Riedy & Voemel,
SIAM J. Sci. Comput. 28(5), 2006, as in LAPACK's dlaneg), so its results
are those of the guarded count, bit for bit.  `spectra.error_bound` states
the resulting normwise error estimate from the eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np

# Sizes beyond this are outside the intended desk scale: the reduction is
# O(n^3) in numpy and one count O(n * longest block), so order 1500 takes
# about 4 s when T does not split (4.0 s for a dense random symmetric
# matrix, against 4.6-5.0 s with 14 rounds of 16-section; numpy 2.4 with
# one BLAS thread on a 2-vCPU Xeon).
MAX_ORDER = 1500
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Each round of the search counts at 15 points per target; a 16-section
# keeps the sixteenth of the interval that holds it.
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
    tol = n * _EPS * math.sqrt(float(np.vdot(a, a)))
    d, e = _tridiagonalize(a, tol)
    del a  # an (n x n) array, not needed while searching
    e[np.abs(e) <= tol] = 0.0
    vals = _sturm_search(d, e) * math.ldexp(1.0, shift)
    return sorted(vals.tolist(), reverse=True)


def _tridiagonalize(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a tridiagonal matrix orthogonally
    similar to the symmetric a, which is overwritten, to within tol =
    n*eps*||a||_F.

    Column k is mapped onto its first subdiagonal entry by the reflection
    H = I - 2vv'/v'v, applied to the trailing block B as
    B - vw' - wv' with p = 2Bv/v'v and w = p - (v'p/v'v)v.  A column that is
    already zero below that entry needs no reflection and is skipped.  The
    rank-2 term is one matrix product into a buffer allocated once.

    The reflections keep ||a||_F, so ||a[k:, k:]||_F^2 is ||a||_F^2 less
    d_i^2 + 2e_i^2 for each i < k.  Once that running estimate is down to
    its own rounding, n*eps*||a||_F^2, the block's norm is measured, and a
    block no larger than tol is left as its diagonal with zero couplings,
    which by Weyl's theorem moves no eigenvalue by more than tol.  A failed
    check is made again only once the estimate has fallen to a quarter of
    the measured norm^2.  A matrix of full rank never gets that low, and its
    d and e are those of the reduction without the stop, bit for bit.
    """
    n = a.shape[0]
    e = np.zeros(n - 1)
    work = np.empty((n - 1) ** 2)
    left = (tol / (n * _EPS)) ** 2
    check = n * _EPS * left
    for k in range(n - 2):
        if left <= check:
            rest = a[k:, k:]
            left = float(np.einsum("ij,ij->", rest, rest))  # copies no view
            if left <= tol * tol:
                break
            check = left / 4
        x = a[k + 1:, k]
        sigma = float(x[1:] @ x[1:])
        x0 = float(x[0])
        left -= float(a[k, k]) ** 2 + 2.0 * (x0 * x0 + sigma)
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
    else:
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

    Every round counts at 15 points per target, and each target keeps the
    gap between two of them, or an end of its interval, that the counts show
    holds it.  The first round lays 15 * size points evenly across each block's
    interval, points 15r+1 to 15r+15 in the column of rank r, and finds
    each target's gap among all of them, so that a block of L rows gains
    log2(15L + 1) bits.  Rounds of 16-section follow, as many as take the
    widest gap below eps*||T||.  Once no two targets of a block share a gap
    `_zoom` takes over, unless the longest block is no longer than a slab,
    where zooming costs more numpy calls than the rounds it saves.
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

    # z[0] holds a round's points in rows 1 to 15 and, while the search
    # zooms, each gap's low end in row 0 and its high end in row 16; z[1]
    # and z[2] hold det(T_block - x) at each as a mantissa and an exponent,
    # NaN until the zoom works them out
    m = len(cols)
    z = np.full((3, _POINTS + 2, m), np.nan)
    ends, x = z[0], z[0, 1:-1]
    count = np.empty(x.shape, dtype=np.int64)
    slabs = _slabs(dpad, e2pad, reach, x, count)

    tol = max(_EPS * tnorm, pivmin)
    points = np.arange(1.0, _POINTS + 1)[:, None]
    column = np.arange(m)
    start = column - rank  # the first column of each target's block
    with np.errstate(all="ignore"):  # the unchecked pivots of a slab
        step = (hi - lo) / (_POINTS * size + 1)
        np.multiply(rank * _POINTS + points, step, out=x)
        np.add(lo, x, out=x)
        _count_below(slabs, pivmin, count)
        # the points of its block below each rank, from one search of the
        # keys start * (n + 1) + count, ascending in column-major order
        key = start * (n + 1)
        below = np.searchsorted((key + count).T.ravel(), key + rank,
                                side="right") - start * _POINTS
        lo = lo + below * step
        hi = lo + step

        # zoom only pays where the longest block is longer than a slab;
        # column j and j + 1 are in one block unless rank[j + 1] is 0
        shared = rank[1:] > 0 if size[0] > _SLAB else None
        rounds = -(-math.frexp(float(np.max(hi - lo)) / tol)[1] // _BITS)
        for left in range(rounds, 0, -1):
            if shared is not None and not np.any(shared & (lo[1:] == lo[:-1])):
                ends[0], ends[-1] = lo, hi
                _zoom(z, slabs, pivmin, count, rank, tol, 2 * left)
                lo, hi = ends[0], ends[-1]
                break
            step = (hi - lo) / (_POINTS + 1)
            np.multiply(points, step, out=x)
            np.add(lo, x, out=x)
            _count_below(slabs, pivmin, count)
            lo = lo + (count <= rank).sum(axis=0) * step
            hi = lo + step
    vals[cols] = 0.5 * (lo + hi)
    return vals


def _zoom(z: np.ndarray, slabs: list[tuple], pivmin: float,
          count: np.ndarray, rank: np.ndarray, tol: float,
          rounds: int) -> None:
    """Narrows the gaps from z[0, 0] to z[0, -1], each holding one
    eigenvalue, to tol, working det(T_block - x) out at every point.  The
    first round takes 15 points from end to end, as no end has a
    determinant yet, and the top of a Gershgorin interval, where a regular
    graph's top eigenvalue lies, was never counted; later rounds take
    `_zoom_points`.  Raises ArithmeticError after `rounds` rounds rather
    than return a wider gap."""
    ends, x = z[0], z[0, 1:-1]
    det = (z[1, 1:-1], z[2, 1:-1])
    column = np.arange(x.shape[1])
    for r in range(rounds + 1):
        lo, hi = ends[0], ends[-1]
        width = hi - lo
        if float(np.max(width)) <= tol:
            return
        if r == rounds:
            raise ArithmeticError("the Sturm search did not converge")
        if r == 0:
            np.multiply(np.arange(_POINTS)[:, None], width / (_POINTS - 1),
                        out=x)
            np.add(lo, x, out=x)
            x[-1] = hi
        else:
            _zoom_points(z, width)
        _count_below(slabs, pivmin, count, det)
        below = (count <= rank).sum(axis=0)
        z[:, 0], z[:, -1] = z[:, below, column], z[:, below + 1, column]


# where a zoom round puts its points, as fractions of the gap's width: the
# even sixteenths, the odd ones, and the offsets around the estimate
_EVEN = np.arange(2.0, _POINTS + 1, 2)[:, None] / (_POINTS + 1)
_ODD = np.arange(1.0, _POINTS + 1, 2)[:, None] / (_POINTS + 1)
_AROUND = np.array([s * 16.0 ** -i for i in range(1, 5)
                    for s in (-1.0, 1.0)])[:, None]


def _zoom_points(z: np.ndarray, width: np.ndarray) -> None:
    """A zoom round's points into z[0, 1:16], ascending: the gap's
    eighths, which shrink it 8-fold at least, and g +- w * 16^-1 ... 16^-4
    clipped to it, around the regula falsi estimate
    g = lo + w * |f_lo| / (|f_lo| + |f_hi|) from the determinants at its
    ends (Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4).  Where their signs agree or g is not strictly inside, as where
    a determinant underflowed or overflowed, the odd sixteenths replace
    those 8, which makes the round a 16-section."""
    lo, hi = z[0, 0], z[0, -1]
    low, high = z[1:, 0], z[1:, -1]
    scale = np.abs(low[0])
    g = lo + width * scale / (scale + np.abs(high[0])
                              * np.exp2(high[1] - low[1]))
    useful = (low[0] * high[0] < 0.0) & (lo < g) & (g < hi)
    x = z[0, 1:-1]
    half = len(_EVEN)
    np.add(lo, _EVEN * width, out=x[:half])
    np.copyto(x[half:], np.where(useful, np.clip(g + _AROUND * width, lo, hi),
                                 lo + _ODD * width))
    x.sort(axis=0)


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


def _count_below(slabs: list[tuple], pivmin: float, count: np.ndarray,
                 det: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """Per point p and column j, count[p, j] = the number of eigenvalues of
    its block below x[p, j]: the negative pivots of
    q_i = d_i - x - e_{i-1}^2 / q_{i-1}, with a pivot smaller than pivmin in
    magnitude taken as -pivmin.

    Each slab first runs without that guard and is then checked once: if
    every pivot is at least pivmin above or below zero, the guard would not
    have fired and the pivots are the guarded ones.  A tiny pivot fails the
    check, and so does a NaN, which can only follow one; the slab is then
    run again with the guard, from the same starting row.

    Given det = (mantissa, exponent), it also writes there the product of
    the pivots, det(T_block - x) times the positive pivots of the padding
    rows in the block's last slab: the product of each slab's pivots is
    split by frexp, so that only a slab's own product can underflow or
    overflow, which leaves a mantissa of 0, inf or NaN.
    """
    count.fill(0)
    if det is not None:
        mantissa, exponent = det
        mantissa.fill(1.0)
        exponent.fill(0.0)
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
        if det is not None:
            frac, power = np.frexp(q.prod(axis=0))
            k = q.shape[-1]
            mantissa[:, :k] *= frac
            exponent[:, :k] += power


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

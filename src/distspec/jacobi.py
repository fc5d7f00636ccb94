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
blocks.  Every eigenvalue is then located by the Sturm count of its block
(Barth, Martin & Wilkinson, Numer. Math. 9, 1967), all n of them at once as
numpy arrays, with the blocks laid side by side so that one count costs as
many Python steps as the longest block has rows.  Each round counts at 15
points per interval instead of one, which gains 4 bits per round instead of
1 for nearly the same Python cost.  The search stops at eps*||T||.
`spectra.error_bound` states the resulting normwise error estimate from the
eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np

# Sizes beyond this are outside the intended desk scale: the reduction is
# O(n^3) in numpy and one count O(n * longest block), so order 1500 takes
# about 7 s when T does not split (a dense random matrix, 2-vCPU Xeon).
MAX_ORDER = 1500
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Each round of the search counts at 15 points inside every interval and
# keeps the sixteenth that holds the target.
_BITS = 4
_POINTS = 2 ** _BITS - 1
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
    if n == 1:
        return [float(a[0, 0])]

    # scaled by a power of two, which is exact, so that no square or sum
    # of entries overflows or underflows
    shift = min(max(math.frexp(top)[1], -1000), 1000)
    a *= math.ldexp(0.5, -shift)
    a = a + a.T
    frob = math.sqrt(float(np.vdot(a, a)))
    d, e = _tridiagonalize(a)
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

    The zeros of e cut T into blocks.  Target j is the k-th smallest
    eigenvalue of its block and starts from the block's Gershgorin interval.
    Its block is column j of an (L x n) layout, L the longest block, padded
    below with diagonal entries above every interval and zero couplings, so
    the padding never counts.
    """
    n = len(d)
    starts = np.flatnonzero(np.concatenate(([True], e == 0.0)))
    lengths = np.diff(np.append(starts, n))
    block = np.repeat(np.arange(len(starts)), lengths)
    rank = np.arange(n) - starts[block]

    ae = np.abs(e)
    radius = np.zeros(n)
    radius[:-1] += ae
    radius[1:] += ae
    lo = np.minimum.reduceat(d - radius, starts)
    hi = np.maximum.reduceat(d + radius, starts)
    e2 = e * e
    tnorm = max(float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    pivmin = _TINY * max(1.0, float(np.max(e2)))
    # room for rounding in the counts; a block of one row is exact as it is
    margin = (2.1 * n * _EPS * tnorm + 4.2 * pivmin) * (lengths > 1)
    lo = (lo - margin)[block]
    hi = (hi + margin)[block]

    # entry i of column j is T's entry starts[block[j]] + i, or the padding
    # at index n past the end of the block; the coupling into the first row
    # of a block is a zero of e
    rows = np.arange(int(lengths.max()))[:, None]
    at = np.where(rows < lengths[block], starts[block] + rows, n)
    dpad = np.append(d, np.max(hi) + max(1.0, tnorm))[at]
    e2pad = np.concatenate(([0.0], e2, [0.0]))[at]
    del at  # an (L x n) index array, not needed while searching

    # rounds enough to take the widest interval below eps * ||T||
    widest = float(np.max(hi - lo)) / max(_EPS * tnorm, pivmin)
    points = np.arange(1.0, _POINTS + 1)[:, None]
    for _ in range(-(-math.frexp(widest)[1] // _BITS)):
        step = (hi - lo) / (_POINTS + 1)
        below = _count_below(dpad, e2pad, lo + points * step, pivmin) <= rank
        lo = lo + below.sum(axis=0) * step
        hi = lo + step
    return 0.5 * (lo + hi)


def _count_below(dpad: np.ndarray, e2pad: np.ndarray, x: np.ndarray,
                 pivmin: float) -> np.ndarray:
    """Per column j, the number of eigenvalues of its block below x[j]:
    the negative pivots of q_i = d_i - x - e_{i-1}^2 / q_{i-1}, with a pivot
    smaller than pivmin in magnitude taken as -pivmin."""
    count = np.zeros(x.shape, dtype=np.int64)
    q = np.ones(x.shape)
    for drow, e2row in zip(dpad, e2pad):
        q = drow - x - e2row / q
        q[np.abs(q) < pivmin] = -pivmin
        count += q < 0.0
    return count

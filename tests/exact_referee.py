"""Independent referees for the exact kernel in `distspec.exact`.

These are the rational-arithmetic routines the package used before its exact
invariants were derived from one characteristic polynomial.  They share no
code with the kernel, so a test that compares the two catches a fault in
either:

  - `congruence_inertia`: symmetric congruence reduction over `Fraction`,
    1x1 pivots where a diagonal entry is nonzero, 2x2 hyperbolic pivots
    otherwise (congruence preserves inertia);
  - `krylov_distinct_count`: degree of the minimal polynomial, the first k
    for which I, M, ..., M^k become linearly dependent, tested on flattened
    upper triangles by fraction-free elimination over Python ints;
  - `fraction_rank_det`: Gaussian elimination over `Fraction`;
  - `leverrier_charpoly`: the characteristic polynomial by the
    Faddeev-LeVerrier trace recurrence over `Fraction`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from distspec.exact import Inertia


def congruence_inertia(mat) -> Inertia:
    """Inertia of a symmetric rational matrix by congruence reduction."""
    n = len(mat)
    a = {(i, j): Fraction(mat[i][j]) for i in range(n) for j in range(i, n)
         if mat[i][j] != 0}

    def get(i: int, j: int) -> Fraction:
        if i > j:
            i, j = j, i
        return a.get((i, j), Fraction(0))

    def put(i: int, j: int, v: Fraction) -> None:
        if i > j:
            i, j = j, i
        if v:
            a[(i, j)] = v
        else:
            a.pop((i, j), None)

    active = list(range(n))
    pos = neg = zero = 0
    while active:
        pivot_idx = None
        best = None
        for idx, i in enumerate(active):
            v = get(i, i)
            if v != 0 and (best is None or abs(v) > best):
                best, pivot_idx = abs(v), idx
        if pivot_idx is not None:
            i = active.pop(pivot_idx)
            piv = get(i, i)
            if piv > 0:
                pos += 1
            else:
                neg += 1
            col = {j: get(i, j) for j in active if get(i, j) != 0}
            for j in col:
                cj = col[j]
                for k in active:
                    if k < j:
                        continue
                    ck = col.get(k, Fraction(0))
                    if ck:
                        put(j, k, get(j, k) - cj * ck / piv)
            for j in active:
                put(i, j, Fraction(0))
            continue
        # all active diagonal entries are zero; look for an off-diagonal pivot
        pair = None
        for x in range(len(active)):
            for y in range(x + 1, len(active)):
                if get(active[x], active[y]) != 0:
                    pair = (x, y)
                    break
            if pair:
                break
        if pair is None:
            zero += len(active)
            break
        x, y = pair
        i, j = active[y], active[x]
        active = [v for v in active if v not in (i, j)]
        # block [[0, c], [c, 0]] contributes one eigenvalue of each sign
        pos += 1
        neg += 1
        c = get(i, j)
        coli = {k: get(i, k) for k in active if get(i, k) != 0}
        colj = {k: get(j, k) for k in active if get(j, k) != 0}
        for k in active:
            bik = coli.get(k, Fraction(0))
            bjk = colj.get(k, Fraction(0))
            if not (bik or bjk):
                continue
            for l in active:
                if l < k:
                    continue
                bil = coli.get(l, Fraction(0))
                bjl = colj.get(l, Fraction(0))
                delta = (bik * bjl + bjk * bil) / c
                if delta:
                    put(k, l, get(k, l) - delta)
        for k in active:
            put(i, k, Fraction(0))
            put(j, k, Fraction(0))
    return Inertia(pos, zero, neg)


def krylov_distinct_count(mat) -> int:
    """Distinct eigenvalues of a symmetric matrix as its minimal polynomial
    degree, by exact rank of the flattened powers I, M, M^2, ..."""
    n = len(mat)
    idx = [(i, j) for i in range(n) for j in range(i, n)]

    def matmul(p):
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            pi = p[i]
            oi = out[i]
            for k in range(n):
                pik = pi[k]
                if pik:
                    mk = mat[k]
                    for j in range(n):
                        oi[j] += pik * mk[j]
        return out

    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    basis: list[tuple[int, list[int]]] = []  # (pivot position, reduced row)
    for k in range(n + 1):
        vec = [power[i][j] for i, j in idx]
        for pivot_pos, row in basis:
            f = vec[pivot_pos]
            if f:
                # fraction-free: vec = a*vec - f*row clears the pivot, and
                # dividing out the gcd keeps the entries small
                a = row[pivot_pos]
                vec = [a * x - f * r for x, r in zip(vec, row)]
                g = math.gcd(*vec)
                if g > 1:
                    vec = [x // g for x in vec]
        lead = next((c for c, x in enumerate(vec) if x != 0), None)
        if lead is None:
            return k
        basis.append((lead, vec))
        power = matmul(power)
    raise AssertionError("minimal polynomial search failed to terminate")


def fraction_rank_det(mat) -> tuple[int, int | Fraction]:
    """(rank, determinant) of a rational matrix by Gaussian elimination over
    Fraction; the determinant is 0 unless the matrix is square of full rank."""
    rows = [[Fraction(x) for x in row] for row in mat]
    ncols = len(rows[0]) if rows else 0
    rank, det = 0, Fraction(1)
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        pr = rows[rank]
        det *= pr[col]
        inv = 1 / pr[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                f *= inv
                rr = rows[r]
                for c in range(col, ncols):
                    rr[c] -= f * pr[c]
        rank += 1
        if rank == len(rows):
            break
    return rank, det if rank == len(rows) == ncols else 0


def leverrier_charpoly(mat) -> list[int]:
    """Coefficients of det(xI - M), lowest degree first, from the
    Faddeev-LeVerrier recurrence M_k = M M_{k-1} + c_{n-k+1} I,
    c_{n-k} = -tr(M M_k) / k."""
    n = len(mat)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(mat[i][t] * mk[t][j] for t in range(n))
               + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
              for i in range(n)]
        trace = sum(sum(mat[i][t] * mk[t][i] for t in range(n))
                    for i in range(n))
        coeffs[n - k] = -trace / k
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]

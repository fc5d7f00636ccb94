"""Exact linear algebra over the integers and rationals.

These routines are the ground-truth side of every numeric cross-check.  One
kernel, run at most once per matrix, gives the determinant, inertia and
distinct-eigenvalue count, all from the characteristic polynomial
chi(x) = det(xI - M):

1. chi by Hessenberg reduction and the standard recurrence (Cohen, *A Course
   in Computational Algebraic Number Theory*, ch. 2) modulo primes below
   2**27 in int64 arrays, lifted by the Chinese remainder theorem under a
   Hadamard bound.  27 bits is (63 - bit length of EXACT_ORDER_CAP) // 2, so
   EXACT_ORDER_CAP products of two residues plus one more sum below 2**63: a
   modular product is one matmul, as is each Hessenberg column.  The
   reduction runs over the matrix's primes at once, one slice per prime, of
   one array of the matrix (int64 where the entries fit), and a block start
   every slice shares costs no zeroing.  det M = (-1)^n chi(0);
2. the coefficient of x^(n-k) needs the bound only for k up to the rank r,
   since larger minors vanish.  For symmetric M, Gaussian elimination modulo
   the first prime gives r' <= r, stopped once more rank could save no
   prime, and chi is lifted under the bound for k <= r' + 2.  It is kept
   only if its (exact) coefficients of x^(n-r'-1) and x^(n-r'-2) are 0;
   otherwise the prime divided a minor, and chi is lifted under the full
   bound.  The check suffices because chi is real-rooted: if a_j = a_(j+1)
   = 0, the j-th derivative has a double root at 0, and by Rolle a multiple
   root of a real-rooted polynomial's derivative is a root of the polynomial
   itself, so a_(j-1) = 0 too, and so on down to a_0: the rank is r';
3. a symmetric matrix has only real eigenvalues, so the rank is n less the
   multiplicity of the root 0, Descartes' rule of signs on chi(x) and
   chi(-x) counts the positive and negative ones exactly, and
   n - deg gcd(chi, chi') counts the distinct ones.

The public functions share chi through a memo of the last matrix, its
symmetry and its chi; input is capped at order EXACT_ORDER_CAP.  Every entry
is taken exactly and scaled by the LCM of the denominators: no rounding.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, chain, combinations
from numbers import Integral, Rational
from operator import mul
from typing import Sequence

import numpy as np

from .spectra import Inertia


# Largest order accepted: chi costs O(rank * n^2) per prime, and the prime
# count grows with rank times the bit length of the row norms.
EXACT_ORDER_CAP = 256


_PRIME_BITS = (63 - EXACT_ORDER_CAP.bit_length()) // 2  # 27: see above
_PRIMES: list[int] = []  # largest primes below 2**_PRIME_BITS, descending
# every odd trial divisor an odd number below 2**_PRIME_BITS needs
_ODD_DIVISORS = np.arange(3, math.isqrt(2**_PRIME_BITS) + 1, 2)


def _primes_over(bound: int) -> list[int]:
    """The fewest leading primes of `_PRIMES` whose product exceeds bound."""
    prod, k = 1, 0
    while prod <= bound:
        if k == len(_PRIMES):
            c = _PRIMES[-1] - 2 if _PRIMES else 2**_PRIME_BITS - 1
            while not (c % _ODD_DIVISORS).all():
                c -= 2
            _PRIMES.append(c)
        prod *= _PRIMES[k]
        k += 1
    return _PRIMES[:k]


def _integer_rows(rows: Sequence[Sequence],
                  integer: bool) -> Sequence[Sequence[int]]:
    """Rows as Python ints, scaled by the positive LCM of all denominators;
    with integer set, every entry must be an integer."""
    types = set(map(type, chain.from_iterable(rows)))
    if types <= {int}:
        return rows
    if all(issubclass(t, Integral) for t in types):
        return [list(map(int, row)) for row in rows]
    if integer:
        raise ValueError("integer entries required")
    fr = [[_fraction(x, i, j) for j, x in enumerate(row)]
          for i, row in enumerate(rows)]
    scale = math.lcm(*(x.denominator for row in fr for x in row))
    return [[(x * scale).numerator for x in row] for row in fr]


def _fraction(x, i: int, j: int) -> Fraction:
    """Entry (i, j), a rational or finite float or Decimal, exactly."""
    if isinstance(x, Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    if not isinstance(x, (float, np.floating, Decimal)):
        raise ValueError(
            f"entry ({i}, {j}) is {x!r}, not a rational, float or Decimal")
    try:
        return Fraction(*x.as_integer_ratio())
    except (OverflowError, ValueError):  # infinite or NaN
        raise ValueError(f"entry ({i}, {j}) is {x}, not finite") from None


def _int_array(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """An integer matrix as one int64 array, or as an object array of
    Python ints if an entry is beyond int64."""
    n = len(rows)
    try:
        return np.array(rows, dtype=np.int64).reshape(n, n)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(n, n)


def _residues(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """The `_int_array` a modulo each prime: a new int64 array, shape
    (primes, n, n)."""
    mm = np.array(primes, dtype=a.dtype)[:, None, None]
    return (a % mm).astype(np.int64, copy=False)


def _modular_rank(a: np.ndarray, p: int,
                  enough: int) -> tuple[int, int | None]:
    """The rank of the `_int_array` a modulo the prime p, a lower bound on
    its rank, by Gaussian elimination that stops once the rank reaches
    enough; and its determinant modulo p if the elimination ran through
    every column, else None.
    """
    a = _residues(a, [p])[0]
    n = len(a)
    rank, det = 0, 1
    for c in range(n):
        if rank >= enough:
            return rank, None
        nz = np.flatnonzero(a[rank:, c])
        if not nz.size:
            continue
        if nz[0]:
            a[[rank, rank + nz[0]]] = a[[rank + nz[0], rank]]
            det = -det
        top = a[rank, c:]
        det = det * int(top[0]) % p
        rest = a[rank + 1:, c:]
        f = rest[:, 0] * pow(int(top[0]), -1, p) % p
        rest -= f[:, None] * top
        rest %= p
        rank += 1
    return rank, det * (rank == n) % p


def _charpoly_residues(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """Coefficients of det(xI - M) modulo each prime, lowest degree first,
    for M the `_int_array` a: shape (primes, n + 1).  The primes run
    _CHUNK_ENTRIES matrix entries at a time."""
    group = max(1, _CHUNK_ENTRIES // (a.size + 1))
    return np.concatenate([
        _stack_charpoly(_residues(a, primes[j:j + group]),
                        primes[j:j + group])
        for j in range(0, len(primes), group)])


def _stack_charpoly(h: np.ndarray, primes: list[int]) -> np.ndarray:
    """chi modulo each prime for a stack h of residues of one matrix, shape
    (primes, n, n), which the reduction overwrites.

    Per slice, a similarity brings M to upper Hessenberg form H with every
    subdiagonal entry 0 or 1.  A 0 starts a diagonal block, and zeroing the
    entries above it leaves chi, the product of the blocks' polynomials, as
    it is.  With lo the last block start shared by all slices, the
    recurrence

        p_{m+1} = x p_m - sum_{lo <= i <= m} H[i, m] p_i

    then gives chi = p_n.  As it and every later step read only rows lo..,
    a block start all slices share zeroes nothing.  Column m becomes one
    product of columns m.. with (t; u), column m - 1 from row m down, taken
    before row m is scaled by 1/t: the row and column operations commute.
    """
    kp, n = h.shape[:2]
    mod = np.array(primes, dtype=np.int64)
    mc, mm = mod[:, None], mod[:, None, None]
    los = [0]  # for each column, the last block start shared by all slices
    for m in range(1, n):
        lo, piv = los[-1], h[:, m, m - 1]
        if not piv.all():
            below = h[:, m:, m - 1]
            if not below.any():  # shared by all slices: nothing to zero
                los.append(m)
                continue
            nz = below[:, 1:] != 0
            ks = np.flatnonzero(nz.any(axis=1) & (piv == 0))
            if ks.size:  # swap row and column m with the first nonzero below
                iv = m + 1 + nz[ks].argmax(axis=1)
                h[ks, m], h[ks, iv] = h[ks, iv], h[ks, m]
                h[ks, :, m], h[ks, :, iv] = h[ks, :, iv], h[ks, :, m]
            ends = piv == 0  # no row to swap in: a block starts at m
            h[ends, lo:m, m:] = 0  # rows above lo are 0 there already
            piv[ends] = 1  # t = 1: no later step reads H[m, m-1]
        los.append(lo)
        t, v = piv.tolist(), h[:, m:, m - 1:m]  # v = (t; u), t the pivot
        h[:, lo:, m:m + 1] = np.matmul(h[:, lo:, m:], v) % mm
        row = h[:, m, m - 1:]  # over t, which makes H[m, m-1] 1
        row *= np.array([pow(x, -1, p) for x, p in zip(t, primes)],
                        dtype=np.int64)[:, None]
        row %= mc
        rest = h[:, m + 1:, m - 1:]  # rows m+1.. -= u * row m
        rest -= v[:, 1:] * row[:, None]
        rest %= mm
    polys = np.zeros((kp, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    for m, lo in zip(range(n), los):
        new = polys[:, m + 1, :m + 2]
        new[:, 1:] = polys[:, m, :m + 1]
        new[:, :m + 1] -= np.matmul(h[:, None, lo:m + 1, m],
                                    polys[:, lo:m + 1, :m + 1])[:, 0]
        new %= mc
    return polys[:, n, :]


def _crt_lift(residues: np.ndarray, primes: list[int]) -> list[int]:
    """Symmetric CRT lift of each column of residues (one row per prime)."""
    modulus = math.prod(primes)
    weights = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    half = modulus // 2
    out = []
    for col in residues.T.tolist():
        c = sum(r * w for r, w in zip(col, weights)) % modulus
        out.append(c - modulus if c > half else c)
    return out


# a matrix's prime slices are handled this many matrix entries at a time,
# which caps each int64 working array of the characteristic polynomial at
# 4 MiB.
_CHUNK_ENTRIES = 1 << 19


def _hadamard_bounds(rows: Sequence[Sequence[int]]) -> list[int]:
    """Twice the prefix maximum of e_k(r) for k = 0..n: entry k bounds the
    lift of the coefficients of x^n .. x^(n-k) of chi.  The coefficient of
    x^(n-k) sums principal k x k minors, at most prod r_i each (Hadamard),
    r_i = isqrt(|row_i|^2) + 1."""
    r = [math.isqrt(sum(map(mul, row, row))) + 1 for row in rows]
    e = [1] + [0] * len(r)  # elementary symmetric functions of the r_i
    for i, x in enumerate(r):
        for k in range(i + 1, 0, -1):
            e[k] += x * e[k - 1]
    return [2 * b for b in accumulate(e, max)]


def _zero(chi: list[int]) -> int:
    """Multiplicity of the root 0 of chi: n - rank for symmetric M."""
    return next(k for k, c in enumerate(chi) if c)


def _chi(rows: Sequence[Sequence[int]], symmetric: bool) -> list[int]:
    """Coefficients of det(xI - M), lowest degree first, for an integer
    matrix M.  For symmetric M the first lift stops at k = r' + 2 and stands
    only under the two-zero certificate of the module docstring."""
    n = len(rows)
    bound = _hadamard_bounds(rows)
    primes = full = _primes_over(bound[n])
    rank, det, a = 0, None, _int_array(rows)
    if symmetric:
        # from rank enough on, the bound at rank + 2 takes every prime
        below = math.prod(full[:-1])
        enough = next(k for k, b in enumerate(bound) if b >= below) - 2
        rank, det = _modular_rank(a, full[0], enough)
        primes = _primes_over(bound[min(n, rank + 2)])
    res = _charpoly_residues(a, primes)
    chi = _crt_lift(res, primes)
    if len(primes) < len(full) and any(chi[n - rank - 2:n - rank]):
        more = _charpoly_residues(a, full[len(primes):])
        chi = _crt_lift(np.concatenate([res, more]), full)
    if n - _zero(chi) < rank or det is not None and \
            ((-1) ** n * chi[0] - det) % full[0]:
        raise ArithmeticError(
            f"characteristic polynomial {chi} disagrees with rank {rank} "
            f"and determinant {det} modulo {full[0]}")
    return chi


_last: tuple[tuple, bool, list[int]] | None = None


def _chi_of(mat: Sequence[Sequence], *, symmetric: bool = False,
            integer: bool = False) -> list[int]:
    """chi of this matrix, reused if the matrix equals the previous one.

    One pass copies the rows into the memo key, which the checks read in
    the order of precedence of their messages: shape, symmetry, order cap.
    A numpy array of integers or floats is first turned into Python
    numbers, which compare faster than numpy scalars.  Symmetry is found
    once per matrix and kept in the memo.
    """
    global _last
    if isinstance(mat, np.ndarray) and mat.dtype.kind in "iuf":
        mat = mat.tolist()
    key = tuple(map(tuple, mat))
    last, n = _last, len(key)
    hit = last is not None and last[0] == key
    if any(len(row) != n for row in key):
        raise ValueError("matrix must be square")
    sym = last[1] if hit else key == tuple(zip(*key))
    if symmetric and not sym:
        for i, j in combinations(range(n), 2):
            x, y = key[i][j], key[j][i]
            if x != y and x == x and y == y:  # the entry check names a NaN
                raise ValueError(f"matrix not symmetric at ({i}, {j})")
    if n > EXACT_ORDER_CAP:
        raise ValueError(
            f"order {n} exceeds the exact search cap {EXACT_ORDER_CAP}")
    if integer or not hit:
        rows = _integer_rows(key, integer)
    if not hit:
        _last = (key, sym, _chi(rows, sym))
    return _last[2]


def _sign_changes(coeffs: Sequence[int]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) by a primitive pseudo-remainder sequence.

    Coefficients run highest degree first, with nonzero leading ones.
    """
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            f = r[0]
            r = [b[0] * x - f * (b[i] if i < len(b) else 0)
                 for i, x in enumerate(r)][1:]
        while r and r[0] == 0:
            r.pop(0)
        if not r:
            return len(b) - 1
        g = math.gcd(*r)
        a, b = b, [x // g for x in r]
    return 0


def det_exact(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix (Python or numpy integers), (-1)^n
    chi(0) from the exact characteristic polynomial: no division, and no
    bound on the size of the entries.  A non-symmetric matrix takes the
    Hadamard bound of every order.  Guarded at order EXACT_ORDER_CAP.
    """
    chi = _chi_of(mat, integer=True)
    return (-1) ** (len(chi) - 1) * chi[0]


def inertia_exact(mat: Sequence[Sequence]) -> Inertia:
    """Inertia (positive, zero, negative) of a symmetric matrix of rationals
    (numpy integers too) or finite floats, numpy floats or Decimals.

    Read off the integer characteristic polynomial: the zero count is the
    multiplicity of the root 0, and Descartes' rule of signs, exact for a
    polynomial with only real roots, counts the positive roots of chi(x) and
    of chi(-x).  Guarded at order EXACT_ORDER_CAP.
    """
    chi = _chi_of(mat, symmetric=True)
    n, zero = len(chi) - 1, _zero(chi)
    tail = chi[zero:]
    pos = _sign_changes(tail)
    neg = _sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(tail)])
    if pos + neg + zero != n:
        raise ArithmeticError(f"sign counts {pos}+{neg}+{zero} miss order {n}")
    return Inertia(pos, zero, neg)


def distinct_eigenvalue_count(mat: Sequence[Sequence]) -> int:
    """Number of distinct eigenvalues of a symmetric matrix with the entries
    of `inertia_exact`.

    n - deg gcd(chi, chi') for chi of the matrix times the LCM of its
    denominators, real-rooted, with the root 0 (multiplicity n - rank)
    divided out first so the pseudo-remainder sequence runs on degree rank:
    no numeric tolerance.  Guarded at order EXACT_ORDER_CAP.
    """
    chi = _chi_of(mat, symmetric=True)
    n, zero = len(chi) - 1, _zero(chi)
    rank = n - zero
    f = chi[zero:][::-1]
    df = [(rank - k) * c for k, c in enumerate(f[:-1])]
    return (rank < n) + rank - _gcd_degree(f, df)

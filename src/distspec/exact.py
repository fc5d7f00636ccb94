"""Exact linear algebra over the integers and rationals.

These routines are the ground-truth side of every numeric cross-check.  One
kernel, run at most once per matrix, gives the determinant, inertia and
distinct-eigenvalue count:

1. fraction-free Bareiss elimination over Python ints: rank and determinant;
2. the characteristic polynomial chi(x) = det(xI - M), by Hessenberg
   reduction and the standard recurrence (Cohen, *A Course in Computational
   Algebraic Number Theory*, ch. 2) modulo primes below 2**27 in int64
   arrays, lifted by the Chinese remainder theorem under a Hadamard bound;
   (-1)^n chi(0) must equal the Bareiss determinant.  27 bits is (63 - bit
   length of EXACT_ORDER_CAP) // 2, so EXACT_ORDER_CAP products of two
   residues plus one more sum below 2**63: a modular product is one matmul;
3. a symmetric matrix has only real eigenvalues, so Descartes' rule of signs
   on chi(x) and chi(-x) counts the positive and negative ones exactly, and
   n - deg gcd(chi, chi') counts the distinct ones.

The public functions share the kernel through a memo holding only the last
matrix; input is capped at order EXACT_ORDER_CAP.  Rational input is
first scaled by the LCM of its denominators.  No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
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


def _entry_types(rows: Sequence[Sequence]) -> set[type]:
    return set(map(type, chain.from_iterable(rows)))


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Rows as Python ints, scaled by the positive LCM of all denominators."""
    if _entry_types(rows) <= {int}:
        return [list(row) for row in rows]
    fr = [[Fraction(x) for x in row] for row in rows]
    scale = math.lcm(*(x.denominator for row in fr for x in row))
    return [[(x * scale).numerator for x in row] for row in fr]


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """(rank, determinant) of a square matrix by fraction-free elimination;
    consumes rows.

    Every entry after k pivots is a (k+1)-minor of the input (Sylvester's
    identity), so each division by the previous pivot is exact.  The
    determinant is 0 unless the matrix has full rank.
    """
    n = len(rows)
    rank, sign, prev = 0, 1, 1
    for c in range(n):
        piv = next((r for r in range(rank, n) if rows[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top = rows[rank]
        p = top[c]
        tail = top[c + 1:]
        for r in range(rank + 1, n):
            row = rows[r]
            f = row[c]
            if f:
                row[c + 1:] = [(p * x - f * y) // prev
                               for x, y in zip(row[c + 1:], tail)]
            elif p != prev:
                row[c + 1:] = [p * x // prev for x in row[c + 1:]]
        prev = p
        rank += 1
    det = sign * prev if rank == n else 0
    return rank, det


def _charpoly_residues(rows: list[list[int]], primes: list[int]) -> np.ndarray:
    """Coefficients of det(xI - M) modulo each prime, lowest degree first.

    Per prime, a similarity brings M to upper Hessenberg form H with every
    subdiagonal entry 0 or 1.  A 0 starts a diagonal block, and zeroing the
    entries above it leaves chi, the product of the blocks' polynomials, as
    it is.  With lo the last block start shared by all primes, the recurrence

        p_{m+1} = x p_m - sum_{lo <= i <= m} H[i, m] p_i

    then gives chi = p_n.
    """
    n, kp = len(rows), len(primes)
    mod = np.array(primes, dtype=np.int64)
    mc, mm = mod[:, None], mod[:, None, None]
    try:
        h = np.array(rows, dtype=np.int64).reshape(n, n)[None] % mm
    except OverflowError:  # entries beyond int64: reduce them as Python ints
        big = np.array(rows, dtype=object)
        h = np.stack([(big % p).astype(np.int64) for p in primes])
    los = [0]  # for each column, the last block start shared by all primes
    for m in range(1, n):
        lo, piv = los[-1], h[:, m, m - 1]
        if not piv.all():
            nz = h[:, m + 1:, m - 1] != 0
            for k in np.flatnonzero(nz.any(axis=1) & (piv == 0)):
                i = m + 1 + nz[k].argmax()
                h[k, [m, i], :] = h[k, [i, m], :]
                h[k, :, [m, i]] = h[k, :, [i, m]]
            ends = piv == 0  # no row to swap in: a block starts at m
            h[ends, lo:m, m:] = 0  # rows above lo are 0 there already
            if ends.all():  # nothing to eliminate
                los.append(m)
                continue
        los.append(lo)
        t = [x or 1 for x in piv.tolist()]  # make H[m, m-1] 1 where nonzero
        row, col = h[:, m, :], h[:, lo:, m]
        row *= np.array([pow(x, -1, p) for x, p in zip(t, primes)],
                        dtype=np.int64)[:, None]
        row %= mc
        col *= np.array(t, dtype=np.int64)[:, None]
        col %= mc
        u = h[:, m + 1:, m - 1:m]
        if u.any():  # column m += columns m+1.. @ u; rows m+1.. -= u * row m
            col += np.matmul(h[:, lo:, m + 1:], u)[:, :, 0]
            col %= mc
            rest = h[:, m + 1:, m - 1:]
            rest -= u * row[:, None, m - 1:]
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


# Primes are handled this many matrix entries at a time, which caps each
# int64 working array of the characteristic polynomial at 4 MiB.
_CHUNK_ENTRIES = 1 << 19


class _Kernel:
    """Rank, determinant and characteristic polynomial of one integer
    matrix, each computed on first use."""

    def __init__(self, rows: list[list[int]]):
        self.rows = rows

    @cached_property
    def rank_det(self) -> tuple[int, int]:
        return _bareiss([list(row) for row in self.rows])

    @cached_property
    def chi(self) -> list[int]:
        """Coefficients of det(xI - M), lowest degree first, for symmetric M.

        Each principal k x k minor is at most prod r_i in absolute value,
        r_i = isqrt(|row_i|^2) + 1 (Hadamard), and minors of order above the
        rank vanish, so twice max_{k <= rank} e_k(r) bounds the modulus.
        """
        (rank, det), n = self.rank_det, len(self.rows)
        e = [1] + [0] * rank  # elementary symmetric functions of the r_i
        for row in self.rows:
            r = math.isqrt(sum(x * x for x in row)) + 1
            for k in range(rank, 0, -1):
                e[k] += r * e[k - 1]
        primes = _primes_over(2 * max(e))
        step = max(1, _CHUNK_ENTRIES // (n * n + 1))
        res = np.concatenate([_charpoly_residues(self.rows, primes[i:i + step])
                              for i in range(0, len(primes), step)])
        chi = _crt_lift(res, primes)
        zero = n - rank  # nullity of a symmetric matrix: multiplicity of root 0
        if any(chi[:zero]) or not chi[zero] or (-1) ** n * chi[0] != det:
            raise ArithmeticError(
                f"characteristic polynomial {chi} disagrees with Bareiss "
                f"rank {rank} and determinant {det}")
        return chi


_last: tuple[tuple, _Kernel] | None = None


def _kernel(mat: Sequence[Sequence], *, symmetric: bool = False,
            integer: bool = False) -> _Kernel:
    """The kernel for this matrix, reused if it equals the previous one.

    One pass copies the rows into the memo key; the checks read the copy, in
    the order of precedence of their messages: shape, integer entries,
    symmetry, order cap.
    """
    global _last
    key = tuple(map(tuple, mat))
    n = len(key)
    if any(len(row) != n for row in key):
        raise ValueError("matrix must be square")
    if integer and not all(issubclass(t, int) for t in _entry_types(key)):
        raise ValueError("integer entries required")
    if symmetric and key != tuple(zip(*key)):
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                    if key[i][j] != key[j][i])
        raise ValueError(f"matrix not symmetric at ({i}, {j})")
    if n > EXACT_ORDER_CAP:
        raise ValueError(
            f"order {n} exceeds the exact search cap {EXACT_ORDER_CAP}")
    last = _last
    if last is not None and last[0] == key:
        return last[1]
    kern = _Kernel(_integer_rows(key))
    _last = (key, kern)
    return kern


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
    """Determinant of an integer matrix by fraction-free Bareiss elimination.

    All intermediate divisions are exact, so the arithmetic stays in the
    integers no matter how large the entries grow.  Guarded at order
    EXACT_ORDER_CAP.
    """
    return _kernel(mat, integer=True).rank_det[1]


def inertia_exact(mat: Sequence[Sequence]) -> Inertia:
    """Inertia (positive, zero, negative) of a symmetric rational matrix.

    Read off the integer characteristic polynomial: the zero count is the
    multiplicity of the root 0, and Descartes' rule of signs, exact for a
    polynomial with only real roots, counts the positive roots of chi(x) and
    of chi(-x).  Guarded at order EXACT_ORDER_CAP.
    """
    kern = _kernel(mat, symmetric=True)
    n = len(kern.rows)
    zero = n - kern.rank_det[0]
    tail = kern.chi[zero:]
    pos = _sign_changes(tail)
    neg = _sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(tail)])
    if pos + neg + zero != n:
        raise ArithmeticError(f"sign counts {pos}+{neg}+{zero} miss order {n}")
    return Inertia(pos, zero, neg)


def distinct_eigenvalue_count(mat: Sequence[Sequence[int]]) -> int:
    """Number of distinct eigenvalues of a symmetric integer matrix.

    Equals n - deg gcd(chi, chi') for the characteristic polynomial chi; the
    root 0, of multiplicity n - rank, is divided out first, so the
    pseudo-remainder sequence runs on a polynomial of degree rank.  The
    answer carries no numeric tolerance.  Guarded at order EXACT_ORDER_CAP.
    """
    kern = _kernel(mat, symmetric=True)
    n, rank = len(kern.rows), kern.rank_det[0]
    if rank == 0:
        return int(n > 0)
    f = kern.chi[n - rank:][::-1]
    df = [(rank - k) * c for k, c in enumerate(f[:-1])]
    return (rank < n) + rank - _gcd_degree(f, df)

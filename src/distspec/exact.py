"""Exact linear algebra over the integers and rationals.

These routines are the ground-truth side of every numeric cross-check.  One
kernel, run at most once per matrix, gives the determinant, rank, inertia
and distinct-eigenvalue count:

1. fraction-free Bareiss elimination over Python ints: rank and determinant;
2. the characteristic polynomial chi(x) = det(xI - M), by Hessenberg
   reduction and the standard recurrence (Cohen, *A Course in Computational
   Algebraic Number Theory*, ch. 2) modulo primes below 2**31 in int64
   arrays, lifted by the Chinese remainder theorem under a Hadamard bound;
   (-1)^n chi(0) must equal the Bareiss determinant;
3. a symmetric matrix has only real eigenvalues, so Descartes' rule of signs
   on chi(x) and chi(-x) counts the positive and negative ones exactly, and
   n - deg gcd(chi, chi') counts the distinct ones.

The public functions share the kernel through a memo holding only the last
matrix; square input is capped at order EXACT_ORDER_CAP.  Rational input is
first scaled by the LCM of its denominators.  No floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

Partition = Sequence[Sequence[int]]


@dataclass(frozen=True)
class Inertia:
    positive: int
    zero: int
    negative: int

    @property
    def n(self) -> int:
        return self.positive + self.zero + self.negative

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.zero, self.negative)


# Largest order accepted: chi costs O(rank * n^2) per prime, and the prime
# count grows with rank times the bit length of the row norms.
EXACT_ORDER_CAP = 256


def _check_square(mat) -> int:
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    return n


_PRIMES: list[int] = []  # largest primes below 2**31, descending; grown lazily


def _is_prime(m: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic below 3.2e9."""
    for a in (2, 3, 5, 7):
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _primes_over(bound: int) -> list[int]:
    """The fewest leading primes of `_PRIMES` whose product exceeds bound."""
    prod, k = 1, 0
    while prod <= bound:
        if k == len(_PRIMES):
            c = _PRIMES[-1] - 2 if _PRIMES else 2**31 - 1
            while not _is_prime(c):
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
    """(rank, determinant) by fraction-free elimination; consumes rows.

    Every entry after k pivots is a (k+1)-minor of the input (Sylvester's
    identity), so each division by the previous pivot is exact.  The
    determinant is 0 unless the matrix is square of full rank.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank, sign, prev = 0, 1, 1
    for c in range(ncols):
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if rows[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top = rows[rank]
        p = top[c]
        tail = top[c + 1:]
        for r in range(rank + 1, nrows):
            row = rows[r]
            f = row[c]
            if f:
                row[c + 1:] = [(p * x - f * y) // prev
                               for x, y in zip(row[c + 1:], tail)]
            elif p != prev:
                row[c + 1:] = [p * x // prev for x in row[c + 1:]]
        prev = p
        rank += 1
    det = sign * prev if rank == nrows == ncols else 0
    return rank, det


def _matmul_mod(a: np.ndarray, b: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """a @ b modulo each prime, for stacks of residues below 2**31.

    b is split into 16-bit halves, so each int64 product stays below 2**47
    and a sum of fewer than 2**15 of them below 2**63.
    """
    hi = np.matmul(a, b >> 16) % mod
    return ((hi << 16) + np.matmul(a, b & 0xFFFF)) % mod


def _charpoly_residues(rows: list[list[int]], primes: list[int]) -> np.ndarray:
    """Coefficients of det(xI - M) modulo each prime, lowest degree first.

    Per prime, a similarity brings M to upper Hessenberg form H with every
    subdiagonal entry 0 or 1; the recurrence

        p_{m+1} = x p_m - sum_{s <= i <= m} H[i, m] p_i,

    with s the start of the current unreduced block, then gives chi = p_n.
    Elementwise products of residues are reduced before they are summed.
    """
    n, kp = len(rows), len(primes)
    mod = np.array(primes, dtype=np.int64)
    mc, mm = mod[:, None], mod[:, None, None]
    try:
        h = np.array(rows, dtype=np.int64).reshape(n, n)[None] % mm
    except OverflowError:  # entries beyond int64: reduce them as Python ints
        big = np.array(rows, dtype=object)
        h = np.stack([(big % p).astype(np.int64) for p in primes])
    block = np.zeros((kp, n), dtype=np.int64)  # block start for each column
    for m in range(1, n):
        nz = h[:, m:, m - 1] != 0
        has = nz.any(axis=1)
        block[:, m] = np.where(has, block[:, m - 1], m)
        if not has.any():
            continue
        first = nz.argmax(axis=1) + m
        for k in np.flatnonzero(has & (first != m)):
            i = first[k]
            h[k, [m, i], :] = h[k, [i, m], :]
            h[k, :, [m, i]] = h[k, :, [i, m]]
        t = np.where(has, h[:, m, m - 1], 1)
        inv = np.array([pow(int(x), -1, int(p)) for x, p in zip(t, mod)],
                       dtype=np.int64)
        h[:, m, :] = h[:, m, :] * inv[:, None] % mc
        h[:, :, m] = h[:, :, m] * t[:, None] % mc
        u = h[:, m + 1:, m - 1:m].copy()
        if u.any():  # rows m+1.. -= u * row m; column m += columns m+1.. @ u
            h[:, m + 1:, m - 1:] = (h[:, m + 1:, m - 1:]
                                   - u * h[:, m:m + 1, m - 1:]) % mm
            h[:, :, m:m + 1] += _matmul_mod(h[:, :, m + 1:], u, mm)
            h[:, :, m] %= mc
    polys = np.zeros((kp, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    for m in range(n):
        lo = int(block[:, m].min())
        w = h[:, lo:m + 1, m] * (np.arange(lo, m + 1) >= block[:, m:m + 1])
        terms = _matmul_mod(polys[:, lo:m + 1, :m + 1].transpose(0, 2, 1),
                            w[:, :, None], mm)[:, :, 0]
        polys[:, m + 1, 1:m + 2] = polys[:, m, :m + 1]
        polys[:, m + 1, :m + 1] = (polys[:, m + 1, :m + 1] - terms) % mc
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


def _kernel(mat: Sequence[Sequence], *, square: bool = True,
            symmetric: bool = False, integer: bool = False) -> _Kernel:
    """The kernel for this matrix, reused if it equals the previous one.

    One pass copies the rows into the memo key; the checks read the copy, in
    the order of precedence of their messages: shape, integer entries,
    symmetry, order cap.
    """
    global _last
    key = tuple(map(tuple, mat))
    if square:
        n = _check_square(key)
    elif any(len(row) != len(key[0]) for row in key):
        raise ValueError("matrix rows must have equal length")
    if integer and not all(issubclass(t, int) for t in _entry_types(key)):
        raise ValueError("integer entries required")
    if symmetric and key != tuple(zip(*key)):
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                    if key[i][j] != key[j][i])
        raise ValueError(f"matrix not symmetric at ({i}, {j})")
    if square and n > EXACT_ORDER_CAP:
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


def rank_exact(mat: Sequence[Sequence]) -> int:
    """Rank of a rational matrix by fraction-free Bareiss elimination."""
    return _kernel(mat, square=False).rank_det[0]


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


def check_partition(n: int, cells: Partition) -> list[list[int]]:
    """Validate that cells are disjoint, nonempty, and cover 0..n-1."""
    seen: set[int] = set()
    out = []
    for cell in cells:
        cl = list(cell)
        if not cl:
            raise ValueError("empty partition cell")
        for v in cl:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two cells")
            seen.add(v)
        out.append(cl)
    if len(seen) != n:
        missing = next(v for v in range(n) if v not in seen)
        raise ValueError(f"partition misses vertex {missing}")
    return out


def quotient_matrix(mat: Sequence[Sequence], cells: Partition) -> tuple[list[list[Fraction]], bool]:
    """Quotient matrix of a partition plus an exact equitability flag.

    Entry (i, j) is the average over rows in cell i of the row sum across
    cell j; the partition is equitable exactly when those row sums are
    constant within every block, tested with rational arithmetic.
    """
    n = _check_square(mat)
    parts = check_partition(n, cells)
    b = []
    equitable = True
    for ci in parts:
        row = []
        for cj in parts:
            sums = [sum(Fraction(mat[u][v]) for v in cj) for u in ci]
            if any(s != sums[0] for s in sums[1:]):
                equitable = False
            row.append(sum(sums) / len(ci))
        b.append(row)
    return b, equitable

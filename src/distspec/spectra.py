"""Spectrum containers, inertia triples and exact quadratic irrationals: the
value types that every route shares.

Eigenvalue multisets are represented as (value, multiplicity) pairs sorted in
decreasing order.  Values may be exact (int, Fraction, QuadraticNumber) or
floating point; exact values carry through to serialized output so that
irrational eigenvalues like (-5+sqrt(33))/2 survive a round trip.  Values
are ordered and equated exactly, a float as the rational it is, so the order
is total.  Of several equal values given, the first stands for all.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]


def _squarefree_split(d: int) -> tuple[int, int]:
    """Write d = s*s*r with r square-free; return (s, r).

    Trial division runs only while p**3 <= d: what is left then has every
    prime factor above its cube root, so it is 1, a prime, a product of two
    distinct primes or a prime squared, and only the square is not
    square-free.
    """
    if d < 0:
        raise ValueError("radicand must be non-negative")
    root = math.isqrt(d)
    if d and root * root == d:
        return root, 1
    s, r, p = 1, 1, 2
    while p * p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
            s *= p
        if d % p == 0:
            d //= p
            r *= p
        p += 1
    root = math.isqrt(d)
    if root > 1 and root * root == d:
        return s * root, r
    return s, r * d


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rational a, b and any integer d >= 0."""
    sa = (a > 0) - (a < 0)
    if not (b and d):
        return sa
    sb = 1 if b > 0 else -1
    if sa in (0, sb):
        return sb
    # opposite signs: the larger of a*a and b*b*d decides
    gap = a * a - b * b * d
    return sa if gap > 0 else sb if gap < 0 else 0


@dataclass(frozen=True)
class QuadraticNumber:
    """Exact number of the form a + b*sqrt(d) with rational a, b.

    Stored canonically: d square-free, and b == 0 forces d == 0, so equal
    values compare equal as dataclasses.  Only this constructor factors d:
    sums and products of canonical values are built by `_canonical`.
    """

    a: Fraction
    b: Fraction
    d: int

    def __init__(self, a: Rational, b: Rational = 0, d: int = 0):
        a, b = Fraction(a), Fraction(b)
        s, r = _squarefree_split(int(d))
        if r == 1:  # sqrt(s*s) = s folds into the rational part
            a += b * s
        self._set(a, b * s, r)

    def _set(self, a: Fraction, b: Fraction, d: int) -> None:
        if not (b and d > 1):
            b, d = Fraction(0), 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _canonical(cls, a: Fraction, b: Fraction, d: int) -> QuadraticNumber:
        """a + b*sqrt(d) for a square-free d, built without factoring."""
        x = object.__new__(cls)
        x._set(a, b, d)
        return x

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def __add__(self, other):
        if isinstance(other, QuadraticNumber):
            if self.d == other.d or self.b == 0 or other.b == 0:
                return QuadraticNumber._canonical(
                    self.a + other.a, self.b + other.b, self.d or other.d)
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber._canonical(self.a + other, self.b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber._canonical(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if isinstance(other, (QuadraticNumber, int, Fraction)):
            return self + (-other if isinstance(other, QuadraticNumber) else -Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QuadraticNumber):
            if self.d == other.d or self.b == 0 or other.b == 0:
                d = self.d or other.d
                return QuadraticNumber._canonical(
                    self.a * other.a + self.b * other.b * d,
                    self.a * other.b + self.b * other.a,
                    d,
                )
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber._canonical(self.a * other, self.b * other, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sign = "-" if self.b < 0 else "+"
        babs = abs(self.b)
        bpart = f"sqrt({self.d})" if babs == 1 else f"{babs}*sqrt({self.d})"
        if self.a == 0:
            return f"{bpart}" if self.b > 0 else f"-{bpart}"
        return f"{self.a}{sign}{bpart}"

    def _cmp(self, other) -> int:
        if isinstance(other, float) and math.isinf(other):
            return -1 if other > 0 else 1
        if isinstance(other, (int, Fraction, float)):
            return _sign(self.a - Fraction(other), self.b, self.d)
        if not isinstance(other, QuadraticNumber):
            raise TypeError(f"cannot order QuadraticNumber and "
                            f"{type(other).__name__}")
        a = self.a - other.a
        if self.d == other.d or self.b == 0 or other.b == 0:
            return _sign(a, self.b - other.b, self.d or other.d)
        # different radicands: the sign of a + w with w = u + v,
        # u = b1*sqrt(d1) and v = -b2*sqrt(d2), decided by squaring twice
        u2, v2 = self.b * self.b * self.d, other.b * other.b * other.d
        su, sv = (1 if self.b > 0 else -1), (1 if other.b < 0 else -1)
        # u2 != v2, since d1/d2 is not the square of a rational
        sw = su if su == sv or u2 > v2 else sv
        sa = (a > 0) - (a < 0)
        if sa in (0, sw):
            return sw
        # a and w differ in sign: compare a^2 with w^2 = u2 + v2 + 2uv,
        # never equal since sqrt(d1*d2) is irrational
        gap = _sign(a * a - u2 - v2, 2 * self.b * other.b, self.d * other.d)
        return sa if gap > 0 else sw

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, QuadraticNumber):
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        if isinstance(other, (int, Fraction, float)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))


Value = Union[int, Fraction, QuadraticNumber, float]


@dataclass(frozen=True)
class Inertia:
    positive: int
    zero: int
    negative: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.zero, self.negative)


def exact_string(v: Value) -> str | None:
    """Canonical text for exact values, None for floats."""
    return None if isinstance(v, float) else str(v)


def _fmt(v: Value) -> float:
    """v rounded to 12 significant digits, as every output prints values."""
    try:
        return float(f"{float(v):.12g}")
    except OverflowError:
        raise ValueError("value beyond the float range +-1.8e308") from None


class Spectrum:
    """Eigenvalue multiset with multiplicities, sorted in decreasing order.

    Exactly equal values form one entry, whose value is the first of them
    given.
    """

    __slots__ = ("entries",)

    def __init__(self, pairs: Iterable[tuple[Value, int]]):
        items: list[list] = []
        for value, mult in pairs:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult == 0:
                continue
            if isinstance(value, QuadraticNumber) and value.is_rational:
                value = value.as_fraction()
            if isinstance(value, Fraction) and value.denominator == 1:
                value = int(value)
            elif isinstance(value, float) and math.isnan(value):
                raise ValueError("spectrum value is NaN")
            items.append([value, mult])
        if not items:
            raise ValueError("empty spectrum")
        # stable: equal values keep the order given
        items.sort(key=lambda item: item[0], reverse=True)
        merged = items[:1]
        for item in items[1:]:
            if merged[-1][0] == item[0]:
                merged[-1][1] += item[1]
            else:
                merged.append(item)
        self.entries: tuple[tuple[Value, int], ...] = tuple((v, m) for v, m in merged)

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.entries)

    def inertia_counts(self) -> tuple[int, int, int]:
        """(positive, zero, negative) eigenvalue counts, exact where values are."""
        pos = zero = neg = 0
        for v, m in self.entries:
            if v > 0:
                pos += m
            elif v < 0:
                neg += m
            else:
                zero += m
        return pos, zero, neg

    def to_json_dict(self) -> dict:
        eigs = [{"value": _fmt(v), "exact": exact_string(v), "mult": m}
                for v, m in self.entries]
        return {"n": self.dimension, "eigs": eigs}

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        body = ", ".join(
            f"{float(v):.6g}^{m}" if m > 1 else f"{float(v):.6g}"
            for v, m in self.entries
        )
        return f"Spectrum({body})"


def cluster_to_spectrum(values: list[float]) -> Spectrum:
    """Group a descending float eigenvalue list into a Spectrum.

    Adjacent values closer than 2 * `error_bound(values)` land in one
    cluster represented by the cluster mean: computed copies of one
    eigenvalue lie within that of each other.
    """
    if not values:
        raise ValueError("empty eigenvalue list")
    if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
        raise ValueError("eigenvalue list must be sorted in decreasing order")
    tol = 2 * error_bound(values)
    pairs: list[tuple[float, int]] = []
    cluster = [values[0]]
    for v in values[1:]:
        if cluster[-1] - v < tol:
            cluster.append(v)
        else:
            pairs.append((sum(cluster) / len(cluster), len(cluster)))
            cluster = [v]
    pairs.append((sum(cluster) / len(cluster), len(cluster)))
    return Spectrum(pairs)


def error_bound(values: list[float]) -> float:
    """The numeric solver's normwise error estimate 4*n*eps*||A||_F for a
    symmetric matrix A with these eigenvalues, whose 2-norm is ||A||_F.

    The factor 4 is 2 for the couplings `jacobi.sym_eigenvalues` sets to
    zero and 2 for the reduction and the search (Golub & Van Loan, section
    8.3).  An estimate, not a proof: the largest deviation from LAPACK seen
    is 0.37 of n*eps*||A||_F over the `verify` default grids, and 2.05 on
    random matrices of order 3, where LAPACK's own error is as large.
    """
    return 4 * len(values) * sys.float_info.epsilon * math.hypot(*values)


# Largest deviation from a closed form, and largest error bound, that a
# numeric spectrum may show and still match it.
MATCH_TOL = 1e-8


def spectra_match(a: Spectrum, b: Spectrum, tol: float = MATCH_TOL) -> bool:
    """True when both spectra agree in multiplicities and in values to tol."""
    return max_deviation(a, b) < tol


def max_deviation(a: Spectrum, b: Spectrum) -> float:
    """Largest absolute difference between the float images of aligned
    entries, after the canonical descending sort; inf if the number of
    entries or any multiplicity differs."""
    if len(a.entries) != len(b.entries) or any(
            ma != mb for (_, ma), (_, mb) in zip(a.entries, b.entries)):
        return math.inf
    return max(abs(float(va) - float(vb)) for (va, _), (vb, _) in zip(a.entries, b.entries))

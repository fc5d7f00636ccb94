"""Closed-form distance spectra and determinant/inertia formulas.

Each function evaluates a published formula, exactly (integers or quadratic
irrationals) except the trigonometric cycle spectra; the Kneser spectrum
runs the Johnson scheme's three-term recurrence (Delsarte 1973, 4.2).  The
numeric eigensolver never feeds into these: the two routes stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, cos, pi, sin

from .spectra import Inertia, QuadraticNumber, Spectrum, Value


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """A Spectrum plus the name of the formula that produced it."""

    spectrum: Spectrum
    formula: str


# ---------------------------------------------------------------------------
# spectra

# the most (value, multiplicity) entries a closed form builds; only the
# cycle's grow with its order
ENTRY_CAP = 10 ** 6


def cycle_spectrum(n: int) -> ClosedFormSpectrum:
    """Distance spectrum of the cycle C_n.

    Odd n = 2p+1: (n^2-1)/4 once and -sec^2(pi j / n)/4 twice for j = 1..p.
    Even n = 2p: n^2/4 once, 0 with multiplicity p-1, -csc^2(pi(2j-1)/n)
    twice for j = 1..p/2, and a single extra -1 exactly when p is odd.
    The list has about n/2 entries for odd n and n/4 + 2 for even n; more
    than ENTRY_CAP of them are refused before any is built.
    """
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    entries = (n + 1) // 2 if n % 2 else 2 + (n // 2 + 1) // 2
    if entries > ENTRY_CAP:
        raise ValueError(f"cycle({n}) has {entries} spectrum entries, "
                         f"over the cap {ENTRY_CAP}")
    pairs: list[tuple[Value, int]] = []
    if n % 2:
        p = (n - 1) // 2
        pairs.append(((n * n - 1) // 4, 1))
        for j in range(1, p + 1):
            pairs.append((-1.0 / (4.0 * cos(pi * j / n) ** 2), 2))
    else:
        p = n // 2
        pairs.append((n * n // 4, 1))
        pairs.append((0, p - 1))
        for j in range(1, p // 2 + 1):
            pairs.append((-1.0 / sin(pi * (2 * j - 1) / n) ** 2, 2))
        if p % 2:
            pairs.append((-1, 1))
    return ClosedFormSpectrum(Spectrum(pairs), f"cycle({n})")


def hamming_spectrum(d: int, n: int) -> ClosedFormSpectrum:
    """Distance spectrum of H(d, n): one eigenvalue d n^(d-1) (n-1), zeros,
    and -n^(d-1) with multiplicity d(n-1)."""
    if d < 1 or n < 2:
        raise ValueError("hamming spectrum needs d >= 1 and n >= 2")
    total = n ** d
    big = n ** (d - 1)
    pairs = [(d * big * (n - 1), 1),
             (0, total - d * (n - 1) - 1),
             (-big, d * (n - 1))]
    return ClosedFormSpectrum(Spectrum(pairs), f"hamming({d},{n})")


def doob_spectrum(m: int, d: int) -> ClosedFormSpectrum:
    """Distance spectrum of the Doob graph D(m, d), order 4^(2m+d).

    D(m, d) has the intersection array of the Hamming graph H(2m+d, 4), so
    it has the same distance spectrum: 3q 4^(q-1) once, -4^(q-1) with
    multiplicity 3q, zeros elsewhere, for q = 2m+d.
    """
    if m < 1 or d < 0:
        raise ValueError("doob spectrum needs m >= 1 and d >= 0")
    return ClosedFormSpectrum(hamming_spectrum(2 * m + d, 4).spectrum,
                              f"doob({m},{d})")


def shrikhande_power_spectrum(m: int) -> ClosedFormSpectrum:
    """Distance spectrum of the m-fold cartesian power of the Shrikhande
    graph, the Doob graph D(m, 0), which has the intersection array and so
    the distance spectrum of H(2m, 4)."""
    if m < 1:
        raise ValueError("needs m >= 1")
    return ClosedFormSpectrum(doob_spectrum(m, 0).spectrum,
                              f"shrikhande-power({m})")


def s_value(n: int, r: int) -> int:
    """The sum over j of j C(r, j) C(n-r, j); spectral radius of D(J(n, r))."""
    if not 1 <= r <= n - 1:
        raise ValueError("needs 1 <= r <= n-1")
    return sum(j * comb(r, j) * comb(n - r, j) for j in range(r + 1))


def johnson_spectrum(n: int, r: int) -> ClosedFormSpectrum:
    """Distance spectrum of J(n, r): s(n, r) once, -s(n, r)/(n-1) with
    multiplicity n-1, zeros elsewhere."""
    s = s_value(n, r)
    pairs = [(s, 1),
             (0, comb(n, r) - n),
             (Fraction(-s, n - 1), n - 1)]
    return ClosedFormSpectrum(Spectrum(pairs), f"johnson({n},{r})")


def kneser_f(i: int, n: int, r: int) -> int:
    """Distance in K(n, r) between r-sets whose intersection has size r-i."""
    if n <= 2 * r:
        raise ValueError("kneser distance needs n > 2r")
    if not 0 <= i <= r:
        raise ValueError("needs 0 <= i <= r")
    gap = n - 2 * r
    return min(2 * ceil(i / gap), 2 * ceil((r - i) / gap) + 1)


def kneser_multiplicity(j: int, n: int) -> int:
    """Dimension of the j-th common eigenspace of the Johnson scheme."""
    if j < 0 or n < 2 * j - 1:
        raise ValueError("eigenspace index out of range")
    return comb(n, j) - (comb(n, j - 1) if j else 0)


def kneser_spectrum(n: int, r: int) -> ClosedFormSpectrum:
    """Distance spectrum of K(n, r) for n > 2r.

    On the j-th eigenspace the eigenvalue is the sum of kneser_f(i) P_i(j),
    P_i(j) that of J(n, r)'s distance-i relation, by the scheme's recurrence
    (Delsarte 1973, 4.2; Brouwer, Cohen and Neumaier 1989, 4.1): P_{-1} = 0,
    P_0 = 1, c_{i+1} P_{i+1} = (theta_j - a_i) P_i - b_{i-1} P_{i-1} exactly,
    for b_i = (r-i)(n-r-i), c_i = i^2, a_i = r(n-r) - b_i - c_i and
    theta_j = b_j - j.  O(r^2) integer steps; equal eigenvalues merge.
    """
    if not 1 <= r <= n - 1:
        raise ValueError("needs 1 <= r <= n-1")
    if n <= 2 * r:
        raise ValueError("kneser spectrum needs n > 2r (connected case)")
    b = [(r - i) * (n - r - i) for i in range(r + 1)]
    a = [r * (n - r) - b[i] - i * i for i in range(r + 1)]
    f = [kneser_f(i, n, r) for i in range(r + 1)]
    pairs = []
    for j in range(r + 1):
        theta = b[j] - j
        prev, p, value = 0, 1, f[0]
        for i in range(r):
            prev, p = p, ((theta - a[i]) * p - b[i - 1] * prev) // (i + 1) ** 2
            value += f[i + 1] * p
        pairs.append((value, kneser_multiplicity(j, n)))
    return ClosedFormSpectrum(Spectrum(pairs), f"kneser({n},{r})")


def double_odd_spectrum(r: int) -> ClosedFormSpectrum:
    """Distance spectrum of the double odd graph DO(r), order 2 C(2r+1, r)."""
    if r < 2:
        raise ValueError("needs r >= 2")
    c = comb(2 * r + 1, r)
    s = s_value(2 * r + 1, r)
    pairs = [((2 * r + 1) * c, 1),
             (0, 2 * c - 2 * r - 2),
             (Fraction(-2 * s, r), 2 * r),
             (4 * s - (2 * r + 1) * c, 1)]
    return ClosedFormSpectrum(Spectrum(pairs), f"double-odd({r})")


def halved_cube_spectrum(d: int) -> ClosedFormSpectrum:
    """Distance spectrum of the halved d-cube on even-weight words, d >= 2:
    d 2^(d-3) once, -2^(d-3) with multiplicity d, zeros elsewhere.

    At d = 3 the zeros have multiplicity 0, leaving the spectrum of K_4.
    d = 2 is K_2 = {1, -1}, where the pattern breaks (2^(d-3) is 1/2).
    """
    if d < 2:
        raise ValueError("halved cube needs d >= 2")
    big = 2 ** max(d - 3, 0)
    pairs = ([(d * big, 1), (0, 2 ** (d - 1) - d - 1), (-big, d)] if d > 2
             else [(1, 1), (-1, 1)])
    return ClosedFormSpectrum(Spectrum(pairs), f"halved-cube({d})")


def cocktail_party_spectrum(m: int) -> ClosedFormSpectrum:
    """Distance spectrum of CP(m) = K_{2m} minus a perfect matching, m >= 2."""
    if m < 2:
        raise ValueError("needs m >= 2 (CP(1) is disconnected)")
    pairs = [(2 * m, 1), (0, m - 1), (-2, m)]
    return ClosedFormSpectrum(Spectrum(pairs), f"cocktail-party({m})")


def complete_spectrum(n: int) -> ClosedFormSpectrum:
    if n < 2:
        raise ValueError("needs n >= 2")
    return ClosedFormSpectrum(Spectrum([(n - 1, 1), (-1, n - 1)]), f"complete({n})")


def icosahedron_spectrum() -> ClosedFormSpectrum:
    pairs = [(18, 1), (0, 5),
             (QuadraticNumber(-3, 1, 5), 3),
             (QuadraticNumber(-3, -1, 5), 3)]
    return ClosedFormSpectrum(Spectrum(pairs), "icosahedron")


def dodecahedron_spectrum() -> ClosedFormSpectrum:
    pairs = [(50, 1), (0, 9),
             (QuadraticNumber(-7, 3, 5), 3),
             (-2, 4),
             (QuadraticNumber(-7, -3, 5), 3)]
    return ClosedFormSpectrum(Spectrum(pairs), "dodecahedron")


# ---------------------------------------------------------------------------
# determinants and inertia

def barbell_determinant(k: int, m: int, length: int) -> int:
    """det D for the generalized barbell B(k; m; length)."""
    if k < 2 or m < 2 or length < 0:
        raise ValueError("needs k, m >= 2 and length >= 0")
    return (-1) ** (k + m + length - 1) * 2 ** length * (
        k * m * (length + 5) - 2 * (k + m))


def barbell_inertia(k: int, m: int, length: int) -> Inertia:
    """Inertia of D for the generalized barbell: one positive, no zeros."""
    if k < 2 or m < 2 or length < 0:
        raise ValueError("needs k, m >= 2 and length >= 0")
    return Inertia(1, 0, k + m + length - 1)


def lollipop_determinant(k: int, length: int) -> int:
    """det D for the lollipop L(k, length); length = 0 is the bare clique."""
    if k < 2 or length < 0:
        raise ValueError("needs k >= 2 and length >= 0")
    return (-1) ** (k + length - 1) * 2 ** length * (k * (length + 2) - 2) // 2


def lollipop_inertia(k: int, length: int) -> Inertia:
    if k < 2 or length < 0:
        raise ValueError("needs k >= 2 and length >= 0")
    return Inertia(1, 0, k + length - 1)


def tree_determinant(n: int) -> int:
    """det D for any tree on n vertices; depends only on the order."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return (-1) ** (n - 1) * (n - 1) * 2 ** (n - 2)


def tree_inertia(n: int) -> Inertia:
    if n < 2:
        raise ValueError("needs n >= 2")
    return Inertia(1, 0, n - 1)


# ---------------------------------------------------------------------------
# summation identities

# Each identity's parameters and the least value each may take.
LEMMA_RANGES = {1: {"s": 1}, 2: {"s": 2}, 3: {"d": 2}, 4: {"d": 2},
                5: {"d": 3}, 6: {"a": 2, "b": 0}}
# largest upper bound of a `verify lemma-identities` sweep: its work grows
# about tenfold per doubling, to about 2.5 s at 200 for both bounds
LEMMA_CAP = 200


def lemma_identity(selector: int, *, s: int | None = None, d: int | None = None,
                   a: int | None = None, b: int | None = None) -> tuple[int, int]:
    """Evaluate both sides of one of six binomial summation identities.

    Returns (summation side, closed-form side) as exact integers.  The
    parameters each identity takes, and their ranges, are in LEMMA_RANGES.
    Identity (5) genuinely fails at d = 2 (sum 4 against 3), so that value
    is rejected rather than reported as a mismatch.
    """
    if selector not in LEMMA_RANGES:
        raise ValueError(f"unknown identity selector {selector}")
    given = {"s": s, "d": d, "a": a, "b": b}
    lows = LEMMA_RANGES[selector]
    if any(given[p] is None or given[p] < lo for p, lo in lows.items()):
        needs = " and ".join(f"{p} >= {lo}" for p, lo in lows.items())
        raise ValueError(f"identity {selector} needs {needs}")
    if selector == 1:
        return sum((-1) ** k * comb(s, k) for k in range(s + 1)), 0
    if selector == 2:
        return sum((-1) ** k * k * comb(s, k) for k in range(s + 1)), 0
    if selector == 3:
        lhs = sum(2 * i * comb(d, 2 * i) for i in range(d // 2 + 1))
        return lhs, d * 2 ** (d - 2)
    if selector == 4:
        lhs = sum((2 * i + 1) * comb(d, 2 * i + 1) for i in range((d - 1) // 2 + 1))
        return lhs, d * 2 ** (d - 2)
    if selector == 5:
        lhs = sum((2 * i) ** 2 * comb(d, 2 * i) for i in range(d // 2 + 1))
        return lhs, d * (d + 1) * 2 ** (d - 3)
    lo = ceil(b / 2)
    hi = (a + b) // 2
    lhs = sum(i * comb(a, 2 * i - b) for i in range(lo, hi + 1))
    # 8 | 2^a for a >= 3; at a = 2 the product is 4(2 + 2b)
    return lhs, (a + 2 * b) * 2 ** a // 8

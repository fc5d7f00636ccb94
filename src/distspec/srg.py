"""Strongly regular graph parameter arithmetic.

Everything here is exact: adjacency and distance eigenvalues as quadratic
irrationals, multiplicities as integers, and all verdicts (feasibility,
optimism, one-positive-eigenvalue classification) by integer comparisons.
A strongly regular graph with mu > 0 has diameter 2, so its distance
spectrum is determined by the parameters alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .spectra import QuadraticNumber, Spectrum


class SrgParameterError(ValueError):
    pass


# Largest discriminant accepted that is not a square.  Only such a radicand
# is factored, by trial division up to its cube root: at the cap that is
# 10**7 divisors, 4.1-4.6 s for `distspec srg` on a 2-vCPU Xeon.
DISCRIMINANT_CAP = 10**21


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True  # q itself is prime


def _multiplicities(n: int, k: int, lam: int,
                    mu: int) -> tuple[int, int] | None:
    """(m_theta, m_tau) = (n - 1 -+ gap / sqrt(disc)) / 2, with
    gap = 2k + (n-1)(lam - mu); None if the discriminant disc is not
    positive or either is not a non-negative integer."""
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    gap = 2 * k + (n - 1) * (lam - mu)
    if disc <= 0:
        return None
    if gap == 0:
        # the conference case: equal multiplicities force odd order
        return ((n - 1) // 2,) * 2 if n % 2 == 1 else None
    s = isqrt(disc)
    if s * s != disc or gap % s != 0:
        return None
    shift = gap // s
    if (n - 1 - shift) % 2 != 0 or abs(shift) > n - 1:
        return None
    return (n - 1 - shift) // 2, (n - 1 + shift) // 2


def _feasible(n: int, k: int, lam: int, mu: int) -> bool:
    """`SrgParams.is_feasible` on plain integers."""
    if k * (k - lam - 1) != (n - k - 1) * mu:
        return False
    if k < n - 1 and (n - 2 - 2 * k + mu < 0 or n - 2 * k + lam < 0):
        # the complement of a strongly regular graph is one too, so its
        # lambda and mu must also be counts
        return False
    return _multiplicities(n, k, lam, mu) is not None


@dataclass(frozen=True)
class SrgParams:
    """Parameter tuple (n, k, lam, mu) of a strongly regular graph.

    mu = 0 (disjoint unions of cliques) is storable so that the complement
    of every feasible set but the complete graph's constructs, but every
    spectral operation requires mu > 0, where the graph is connected with
    diameter 2.
    """

    n: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        n, k, lam, mu = self.n, self.k, self.lam, self.mu
        if not (0 < k < n):
            raise SrgParameterError(f"need 0 < k < n, got k={k}, n={n}")
        if not (0 <= lam <= k - 1):
            raise SrgParameterError(f"need 0 <= lam <= k-1, got lam={lam}")
        if not (0 <= mu <= k):
            raise SrgParameterError(f"need 0 <= mu <= k, got mu={mu}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)

    @property
    def discriminant(self) -> int:
        return (self.lam - self.mu) ** 2 + 4 * (self.k - self.mu)

    def is_feasible(self) -> bool:
        """Counting identity, integrality of the eigenvalue multiplicities,
        and non-negativity of the complementary parameters."""
        return _feasible(self.n, self.k, self.lam, self.mu)

    def require_spectral(self) -> None:
        if self.mu == 0:
            raise SrgParameterError(
                f"{self.as_tuple()}: mu = 0 means a disconnected graph; distances undefined")
        if not self.is_feasible():
            raise SrgParameterError(f"infeasible parameters {self.as_tuple()}")


@dataclass(frozen=True)
class SrgEigenData:
    """Exact adjacency and distance eigenvalue data of an SRG."""

    theta: QuadraticNumber
    tau: QuadraticNumber
    m_theta: int
    m_tau: int
    rho_d: int
    theta_d: QuadraticNumber
    tau_d: QuadraticNumber

    def distance_spectrum(self) -> Spectrum:
        return Spectrum([
            (self.rho_d, 1),
            (self.theta_d, self.m_theta),
            (self.tau_d, self.m_tau),
        ])


def srg_eigen_data(p: SrgParams) -> SrgEigenData:
    """Adjacency eigenvalues theta > tau with multiplicities, plus the
    diameter-2 distance eigenvalues rho_D = 2(n-1)-k, -theta-2, -tau-2.
    A discriminant over DISCRIMINANT_CAP that is not a square is refused
    before it is factored."""
    p.require_spectral()
    n, k, lam, mu = p.as_tuple()
    disc = p.discriminant
    if disc > DISCRIMINANT_CAP and isqrt(disc) ** 2 != disc:
        raise SrgParameterError(
            f"discriminant {disc} is not a square and exceeds the cap "
            f"{DISCRIMINANT_CAP}")
    half = Fraction(1, 2)
    root = QuadraticNumber(0, 1, disc)
    base = QuadraticNumber(Fraction(lam - mu, 2))
    theta = base + root * half
    tau = base - root * half
    m_theta, m_tau = _multiplicities(n, k, lam, mu)
    return SrgEigenData(
        theta=theta,
        tau=tau,
        m_theta=m_theta,
        m_tau=m_tau,
        rho_d=2 * (n - 1) - k,
        theta_d=-theta - 2,
        tau_d=-tau - 2,
    )


def is_conference(p: SrgParams) -> bool:
    """Conference parameters (n, (n-1)/2, (n-5)/4, (n-1)/4)."""
    n = p.n
    return (4 * p.k == 2 * (n - 1)
            and 4 * p.lam == n - 5
            and 4 * p.mu == n - 1)


def is_optimistic(p: SrgParams) -> bool:
    """More positive than negative distance eigenvalues, decided from the
    parameters: lam < (k + mu - 4)/2 and lam >= mu - 2k/(n-1).

    The second comparison is inclusive (equal multiplicities still count);
    the first is strict (tau_D = 0 adds a zero eigenvalue, not a positive).
    """
    p.require_spectral()
    n, k, lam, mu = p.as_tuple()
    return 2 * lam + 4 < k + mu and (n - 1) * (lam - mu) + 2 * k >= 0


def complement_params(p: SrgParams) -> SrgParams:
    """Parameters of the complement graph.  The complement of K_n is
    edgeless, so a complete-graph set (k = n - 1) is refused."""
    n, k, lam, mu = p.as_tuple()
    if k == n - 1:
        raise SrgParameterError(
            f"{p.as_tuple()} is the complete graph K_{n}: its complement is "
            f"edgeless and has no strongly regular parameters")
    return SrgParams(n, n - k - 1, n - 2 - 2 * k + mu, n - 2 * k + lam)


def symplectic_params(m: int, q: int) -> SrgParams:
    """Parameter family of the symplectic graphs Sp(2m, q) over GF(q)."""
    if m < 2:
        raise SrgParameterError("symplectic family needs m >= 2")
    if not _is_prime_power(q):
        raise SrgParameterError(f"q = {q} is not a prime power")
    n = (q ** (2 * m) - 1) // (q - 1)
    k = q ** (2 * m - 1)
    lam = q ** (2 * m - 2) * (q - 1)
    return SrgParams(n, k, lam, lam)


def orthogonal_params(m: int, e: int) -> SrgParams:
    """Parameter family from the orthogonal groups O_{2m+1}(3) acting on
    nonisotropic points of one type; e is the point type, +1 or -1."""
    if m < 2:
        raise SrgParameterError("orthogonal family needs m >= 2")
    if e not in (1, -1):
        raise SrgParameterError("type e must be +1 or -1")
    n = 3 ** m * (3 ** m + e) // 2
    k = 3 ** (m - 1) * (3 ** m - e) // 2
    lam = 3 ** (m - 1) * (3 ** (m - 1) - e) // 2
    return SrgParams(n, k, lam, lam)


def classify_one_positive(p: SrgParams) -> bool:
    """Whether an SRG with these parameters has exactly one positive distance
    eigenvalue: the complete graph (k = n-1, where feasibility forces
    lam = n-2), the pentagon, or tau = -2."""
    p.require_spectral()
    if p.k == p.n - 1 or p.as_tuple() == (5, 2, 0, 1):
        return True
    # tau = -2 exactly, i.e. the discriminant is the square of lam - mu + 4
    shift = p.lam - p.mu + 4
    return shift > 0 and p.discriminant == shift * shift


def feasible_parameter_sets(max_n: int) -> list[SrgParams]:
    """All feasible tuples with mu > 0 and n <= max_n, ascending.

    The counting identity k(k - lam - 1) = mu(n - k - 1) needs n - k - 1
    to divide k(k - lam - 1), that is (n - k - 1)/g to divide k - lam - 1
    with g = gcd(k, n - k - 1).  So for each n and k the candidates are
    lam = k - 1 - j(n - k - 1)/g and mu = jk/g, j from the largest with
    lam >= 0 and mu <= k down to 1, in ascending lam.  Each is tested as
    integers, and only those that pass become `SrgParams`.
    """
    out = []
    for n in range(4, max_n + 1):
        for k in range(2, n - 1):
            den = n - k - 1
            g = gcd(k, den)
            for j in range(min(g, (k - 1) * g // den), 0, -1):
                lam, mu = k - 1 - j * den // g, j * k // g
                if _feasible(n, k, lam, mu):
                    out.append(SrgParams(n, k, lam, mu))
    return out

"""Integer utilities: factorization, divisors and their degree weights, kappa
and its primes, decimal strings of any length, exponent tuples, and the two
index sets over them that the table walk reads: the square tuples and T_u.

An exponent tuple I = (f_1, ..., f_t) encodes the divisor p_1^f_1 * ... * p_t^f_t
of N = p_1^r_1 * ... * p_t^r_t relative to an explicit (possibly permuted)
ordering of the prime factors.

A level's divisor data lives on its FactoredInteger, which factor returns.
Every functools cache in the package, whether keyed by a level, a prime
power or a shape, holds at most CACHE_SIZE entries, so memory stays bounded
however many levels a process visits.  kappa(N) is never factored, so trial
division never runs on a number above N + 1.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

CACHE_SIZE = 4096


class FactoredInteger:
    """A positive integer with an ordered prime-power factorization, and the
    owner of its divisor data, each computed once, in that prime ordering."""

    def __init__(self, value: int, factors: tuple[tuple[int, int], ...]):
        if value != math.prod(p ** r for p, r in factors):
            raise ValueError(f"factors {factors} do not multiply to {value}")
        if len({p for p, _ in factors}) != len(factors):
            raise ValueError(f"repeated prime in {factors}")
        self.value, self.factors = value, factors

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.factors) == (other.value, other.factors)

    def __hash__(self):
        return hash((self.value, self.factors))

    def __repr__(self):
        return f"FactoredInteger(value={self.value!r}, factors={self.factors!r})"

    @property
    def t(self) -> int:
        return len(self.factors)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @cached_property
    def exponents(self) -> tuple[int, ...]:
        return tuple(r for _, r in self.factors)

    @cached_property
    def u(self) -> int:
        """1-based position of the prime 2 in the ordering, or 0 if N is odd."""
        for i, (p, _) in enumerate(self.factors, start=1):
            if p == 2:
                return i
        return 0

    @cached_property
    def divisor_exponents(self) -> tuple:
        """The exponent tuple of each divisor in this prime ordering, divisors ascending."""
        pairs = [(1, ())]
        for p, r in self.factors:
            pairs = [(d * p ** k, I + (k,)) for d, I in pairs for k in range(r + 1)]
        pairs.sort()
        return tuple(I for _, I in pairs)

    @cached_property
    def divisors(self) -> tuple[int, ...]:
        """All positive divisors, ascending."""
        return tuple(divisor_of(self, I) for I in self.divisor_exponents)

    @cached_property
    def divisor_positions(self) -> dict:
        """{d: position of d in divisors}; shared, so never mutate it."""
        return {d: i for i, d in enumerate(self.divisors)}

    @cached_property
    def degree_weights(self) -> tuple:
        """phi(gcd(d, N/d)) over the divisors d: both the number of level-d
        cusps and the degree of the orbit divisor (P_d)."""
        return tuple(phi(z_of(self.value, d)) for d in self.divisors)


@lru_cache(maxsize=CACHE_SIZE)
def factor(n: int) -> FactoredInteger:
    """Factor a positive integer by trial division; primes ascending.  n = 1
    gives t = 0.  Division stops at the square root of the unfactored part,
    so the largest argument used here, N + 1 for N <= 10^6 (kappa_primes),
    takes about 500 steps."""
    if n < 1:
        raise ValueError("positive integer required")
    facs = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            r = valuation(m, p)
            facs.append((p, r))
            m //= p ** r
        p += 1 if p == 2 else 2
    if m > 1:
        facs.append((m, 1))
    return FactoredInteger(n, tuple(facs))


# The divisor data of factor(n), kept as functions of n for the callers
# that hold only a level.
def divisors(n: int) -> tuple[int, ...]:
    return factor(n).divisors


def divisor_exponents(n: int) -> tuple:
    return factor(n).divisor_exponents


def divisor_positions(n: int) -> dict:
    return factor(n).divisor_positions


def degree_weights(n: int) -> tuple:
    return factor(n).degree_weights


def phi(n: int) -> int:
    """Euler totient."""
    return math.prod(p ** (r - 1) * (p - 1) for p, r in factor(n).factors)


def valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def kappa(n) -> int:
    """kappa(N) = (N/rad N) * prod (p^2 - 1)."""
    return math.prod(p ** (r - 1) * (p * p - 1) for p, r in factor(n).factors)


def kappa_primes(n) -> tuple:
    """The primes of kappa(N), ascending, without factoring kappa(N): those
    of p - 1 and p + 1 for each p | N, and p itself when p^2 | N."""
    ps = {p for p, r in factor(n).factors if r > 1}
    for p in factor(n).primes:
        ps.update(factor(p - 1).primes, factor(p + 1).primes)
    return tuple(sorted(ps))


def decimal_str(n: int) -> str:
    """str(n), n >= 0, past Python's int-to-str digit limit (4300 by default,
    640 at the least): n splits at 10^k, k about half its digits, into parts below 10^600."""
    if n.bit_length() <= 1990:
        return str(n)
    hi, lo = divmod(n, 10 ** (k := n.bit_length() * 3 // 20))
    return decimal_str(hi) + decimal_str(lo).zfill(k)


def z_of(n: int, d: int) -> int:
    """z = gcd(d, N/d), the modulus of the cusp residue at level d."""
    return math.gcd(d, n // d)


# ---------------------------------------------------------------------------
# Exponent tuples, the square tuples and T_u
# ---------------------------------------------------------------------------

def exponent_tuple(N: FactoredInteger, d: int) -> tuple[int, ...]:
    """The tuple of p_i-valuations of the divisor d, in the ordering of N."""
    if N.value % d:
        raise ValueError(f"{d} does not divide {N.value}")
    return tuple(valuation(d, p) for p in N.primes)


def divisor_of(N: FactoredInteger, I) -> int:
    return math.prod(map(pow, N.primes, I))


def in_square(I) -> bool:
    return max(I, default=0) >= 2


def in_T_u(I, r_u: int, u: int) -> bool:
    """The exceptional 2-power set, for 2 at slot u with exponent r_u in N:
    nonempty only when 2 | N with r_u >= 5.  3 <= f_u makes I square."""
    return (u != 0 and r_u >= 5 and 3 <= I[u - 1] <= r_u
            and all(f == 1 for i, f in enumerate(I, start=1) if i != u))

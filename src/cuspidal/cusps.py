"""Cusps of X0(N): canonical representatives <x : d>, widths, and the
pointwise actions of degeneracy maps and Atkin-Lehner involutions.

A cusp is written <x : d> with d | N and x taken modulo z = gcd(d, N/d),
subject to gcd(x, d) = 1.  Two cusps are equal iff they share d and agree
mod z.  The stored representative is the least x >= 1 in its class mod z
with gcd(x, d) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intarith import as_factored, divisors, valuation, z_of


@dataclass(frozen=True, order=True)
class Cusp:
    n: int
    d: int
    x: int

    def __str__(self):
        return f"{self.x}/{self.d}@{self.n}"

    @property
    def z(self) -> int:
        return z_of(self.n, self.d)


def _canonical_x(n: int, d: int, x: int) -> int:
    z = z_of(n, d)
    x %= z
    if x == 0:
        x = z
    while math.gcd(x, d) != 1:
        x += z
    return x


def make_cusp(n, d: int, x: int) -> Cusp:
    n = as_factored(n).value
    if n % d != 0:
        raise ValueError(f"{d} does not divide {n}")
    return Cusp(n, d, _canonical_x(n, d, x))


def enumerate_cusps(n) -> tuple[Cusp, ...]:
    """All cusps of X0(N); for each d | N there are phi(gcd(d, N/d)) of them."""
    n = as_factored(n).value
    out = []
    for d in divisors(n):
        z = z_of(n, d)
        for x0 in range(1, z + 1):
            if math.gcd(x0, z) == 1:
                out.append(make_cusp(n, d, x0))
    return tuple(out)


def width(c: Cusp) -> int:
    return c.n // (c.d * c.z)


def alpha_push(c: Cusp, p: int) -> Cusp:
    """Pushforward along alpha_p : X0(Np) -> X0(N) (the identity map on tau)."""
    if c.n % p != 0:
        raise ValueError("p must divide the level")
    n = c.n // p
    r = valuation(n, p)
    f = valuation(c.d, p)
    if f <= r:
        return make_cusp(n, c.d, c.x)
    return make_cusp(n, c.d // p, p * c.x)


def beta_push(c: Cusp, p: int) -> Cusp:
    """Pushforward along beta_p : X0(Np) -> X0(N) (tau -> p*tau)."""
    if c.n % p != 0:
        raise ValueError("p must divide the level")
    n = c.n // p
    f = valuation(c.d, p)
    if f == 0:
        return make_cusp(n, c.d, p * c.x)
    return make_cusp(n, c.d // p, c.x)


def atkin_lehner(c: Cusp, p: int) -> Cusp:
    """The partial Atkin-Lehner involution w_p on cusps of X0(N), p | N."""
    n = c.n
    if n % p != 0:
        raise ValueError("p must divide the level")
    r = valuation(n, p)
    f = valuation(c.d, p)
    dp = c.d // p ** f
    d_new = dp * p ** (r - f)
    z_m = z_of(n // p ** r, dp)  # prime-to-p part of the new modulus
    z_p = p ** min(f, r - f)     # p-part (symmetric in f <-> r-f)
    # x_new = x mod z_m and -x mod z_p (CRT); pow(., -1, 1) is 0.
    x_new = c.x - 2 * c.x * z_m * pow(z_m, -1, z_p)
    return make_cusp(n, d_new, x_new)

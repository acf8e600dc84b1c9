"""Cusps of X0(N): canonical representatives <x : d> and widths.

A cusp is written <x : d> with d | N and x taken modulo z = gcd(d, N/d),
subject to gcd(x, d) = 1.  Two cusps are equal iff they share d and agree
mod z.  The stored representative is the least x >= 1 in its class mod z
with gcd(x, d) = 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .intarith import divisors, factor, z_of


class Cusp(NamedTuple):
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
    factor(n)  # raises ValueError for n < 1
    if n % d != 0:
        raise ValueError(f"{d} does not divide {n}")
    return Cusp(n, d, _canonical_x(n, d, x))


def enumerate_cusps(n) -> tuple[Cusp, ...]:
    """All cusps of X0(N); for each d | N there are phi(gcd(d, N/d)) of them."""
    out = []
    for d in divisors(n):
        z = z_of(n, d)
        for x0 in range(1, z + 1):
            if math.gcd(x0, z) == 1:
                out.append(make_cusp(n, d, x0))
    return tuple(out)


def width(c: Cusp) -> int:
    return c.n // (c.d * c.z)

"""The order of a degree-0 rational cuspidal divisor class in J0(N).

The profile of C collects V = Upsilon * Phi(C), the gcd of its entries, the
normalized vector Vbar, the parity sums Pw_p over divisors with odd
p-valuation, the factor h in {1, 2}, and the exact order
numerator(kappa(N) * h / (24 * GCD)).  eta_certificate turns the profile
into the eta quotient whose divisor is the order times C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .divisors import CuspDivisor
from .etalinalg import eta_divisor, ligozat_check, ligozat_weights, upsilon_apply
from .intarith import factor, kappa


@dataclass(frozen=True)
class OrderProfile:
    n: int
    V: tuple
    gcd_value: int
    Vbar: tuple | None
    pw: dict
    h: int
    order: int | None
    degree: int


def profile(C: CuspDivisor) -> OrderProfile:
    n = C.n
    V = upsilon_apply(n, C.coeffs)
    deg = C.degree()
    g = math.gcd(*V)
    if g == 0:
        return OrderProfile(n, V, 0, None, {}, 1, 1 if deg == 0 else None, deg)
    vbar = tuple(v // g for v in V)
    # Ligozat's weight rows 12 * [v_p(d) odd], primes ascending
    pw = {p: sum(map(mul, w, vbar)) // 12
          for p, w in zip(factor(n).primes, ligozat_weights(n)[2:])}
    h = 2 if any(v % 2 for v in pw.values()) else 1
    order = None
    if deg == 0:
        order = Fraction(kappa(n) * h, 24 * g).numerator
    return OrderProfile(n, V, g, vbar, pw, h, order, deg)


def eta_certificate(C: CuspDivisor) -> tuple:
    """The exponent vector r with div(g_r) = n * C, n the order of C."""
    prof = profile(C)
    if prof.degree != 0:
        raise ValueError("eta certificates require degree 0")
    n_order = prof.order
    k = kappa(C.n)
    r = []
    for v in prof.V:
        e = Fraction(24 * n_order * v, k)
        if e.denominator != 1:
            raise ArithmeticError("certificate exponents must be integral")
        r.append(int(e))
    r = tuple(r)
    if not ligozat_check(C.n, r):
        raise ArithmeticError(f"the eta quotient {r} fails the Ligozat conditions")
    if eta_divisor(C.n, r) != n_order * C:
        raise ArithmeticError(f"the eta quotient {r} does not have divisor {n_order} * C")
    return r


def profile_to_json(prof: OrderProfile) -> dict:
    return {
        "V": list(prof.V),
        "gcd": prof.gcd_value,
        "Vbar": list(prof.Vbar) if prof.Vbar is not None else None,
        "pw": {str(p): v for p, v in prof.pw.items()},
        "h": prof.h,
        "order": str(prof.order) if prof.order is not None else None,
    }


"""The order of a degree-0 rational cuspidal divisor class in J0(N).

The profile of C collects V = Upsilon * Phi(C), the gcd of its entries, the
normalized vector Vbar, the parity sums Pw_p over divisors with odd
p-valuation, the factor h in {1, 2}, and the exact order
numerator(kappa(N) * h / (24 * GCD)).  eta_certificate turns the profile
into the eta quotient whose divisor is the order times C.

Upsilon(N) is the Kronecker product of its p^r blocks, so for a pure tensor
C = v_1 (x) ... (x) v_k at pairwise coprime levels M_i, V is the tensor of
the images Upsilon(M_i) * v_i.  Yoo's generators are such tensors, of
prime-power base vectors and at most one two-prime D vector: tensor_profile
applies Upsilon to each factor at its own level, once per factor, and
never at N.  profile applies Upsilon(N) to any divisor.  Both end in the
same gcd, Vbar, Pw, h and order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .divisors import CuspDivisor, kronecker
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


def _profile_of(n: int, V: tuple, deg) -> OrderProfile:
    """The profile at level N with V = Upsilon * Phi(C) and deg = deg C."""
    g = math.gcd(*V)
    if g == 0:
        return OrderProfile(n, V, 0, None, {}, 1, 1 if deg == 0 else None, deg)
    vbar = tuple([v // g for v in V])
    # Ligozat's weight rows 12 * [v_p(d) odd], primes ascending
    pw = {p: sum(map(mul, w, vbar)) // 12
          for p, w in zip(factor(n).primes, ligozat_weights(n)[2:])}
    h = 2 if any(v % 2 for v in pw.values()) else 1
    order = None
    if deg == 0:
        order = Fraction(kappa(n) * h, 24 * g).numerator
    return OrderProfile(n, V, g, vbar, pw, h, order, deg)


def profile(C: CuspDivisor) -> OrderProfile:
    """The profile of any divisor C at level N, with Upsilon(N) applied to C."""
    return _profile_of(C.n, upsilon_apply(C.n, C.coeffs), C.degree())


@lru_cache(maxsize=None)
def _upsilon_image(v: CuspDivisor) -> tuple:
    """Upsilon(M) * v for a tensor factor v at level M."""
    return upsilon_apply(v.n, v.coeffs)


def tensor_profile(vecs) -> OrderProfile:
    """The profile of tensor_join(*vecs), factors at pairwise coprime levels:
    V is the tensor of the factors' images under Upsilon, and the degree
    the product of their degrees."""
    levels = tuple(v.n for v in vecs)
    V = kronecker(levels, [_upsilon_image(v) for v in vecs])
    return _profile_of(math.prod(levels), V, math.prod(v.degree() for v in vecs))


def eta_certificate(C: CuspDivisor) -> tuple:
    """(n, r): the order n of C and the exponent vector r with
    div(g_r) = n * C."""
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
    return n_order, r


def profile_to_json(prof: OrderProfile) -> dict:
    return {
        "V": list(prof.V),
        "gcd": prof.gcd_value,
        "Vbar": list(prof.Vbar) if prof.Vbar is not None else None,
        "pw": {str(p): v for p, v in prof.pw.items()},
        "h": prof.h,
        "order": str(prof.order) if prof.order is not None else None,
    }


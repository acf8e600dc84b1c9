"""The order of a degree-0 rational cuspidal divisor class in J0(N).

The profile of C collects the gcd GCD of the entries of V = Upsilon * Phi(C),
the normalized vector Vbar = V / GCD, the parity sums Pw_p of Vbar over
divisors with odd p-valuation, the factor h in {1, 2}, and the exact order
numerator(kappa(N) * h / (24 * GCD)).  V itself is derived: GCD * Vbar, or
the zero vector when GCD = 0.  eta_certificate turns the profile into the
eta quotient whose divisor is the order times C.

Upsilon(N) is the Kronecker product of its p^r blocks, so for a pure tensor
C = v_1 (x) ... (x) v_k at pairwise coprime levels M_i, V is the tensor of
the images W_i = Upsilon(M_i) * v_i.  Three identities then give the
profile from the profile of each factor at its own level (GCD g_i, the
support of Wbar_i = W_i / g_i and its parity sums at the primes of M_i):

* GCD = g_1 * ... * g_k, as the gcd of a tensor is the product of gcds;
* Vbar = Wbar_1 (x) ... (x) Wbar_k;
* Pw_p = (the parity sum for p of the factor that holds p) times the
  support totals of all other factors, as [v_p(d) odd] depends on one
  factor only.

The degree is the product of the factors' degrees, and h and the order
follow from GCD and Pw as for any profile, in one helper.

Yoo's generators are such tensors, of prime-power base vectors and at most
one two-prime D vector: tensor_profile profiles each factor at its own
level, once per factor (cached), never applying Upsilon at N, and
multiplies only the factors' supports.  A profile stores that support
{d: Vbar_d != 0}; the sigma0(N) tuples Vbar and V are derived from it on
request.  profile(C) of any divisor is the tensor profile of the one
factor C.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .divisors import CuspDivisor, from_dict, tensor_terms
from .etalinalg import eta_divisor, ligozat_check, ligozat_weights, upsilon_apply
from .intarith import CACHE_SIZE, degree_weights, divisors, factor, kappa


class OrderProfile(NamedTuple):
    """The profile of a divisor at level n: gcd_value = GCD, support =
    {d: Vbar_d} over the nonzero entries of Vbar ({} when GCD = 0), pw =
    Pw_p over the primes of n ascending ({} when GCD = 0), h, the order (None
    unless the degree is 0) and the degree.  Vbar and V = GCD * Vbar are
    functions of the fields, so equality keeps its meaning."""
    n: int
    gcd_value: int
    support: dict
    pw: dict
    h: int
    order: int | None
    degree: int

    @property
    def Vbar(self) -> tuple | None:
        return from_dict(self.n, self.support).coeffs if self.gcd_value else None

    @property
    def V(self) -> tuple:
        g = self.gcd_value
        return from_dict(self.n, {d: g * c for d, c in self.support.items()}).coeffs


def profile(C: CuspDivisor) -> OrderProfile:
    """The profile of any divisor C at level N: the tensor profile of the
    one factor C, with Upsilon(N) applied to C."""
    return tensor_profile((C,))


def _with_order(n: int, g: int, support: dict, pw: dict, degree: int) -> OrderProfile:
    """The profile at level n with these fields, h and the order derived:
    h = 2 when some Pw_p is odd, else 1, and for degree 0 the order is the
    numerator of kappa(n) * h / (24 * GCD), which is 1 when GCD = 0."""
    h = 2 if any(s % 2 for s in pw.values()) else 1
    order = None
    if degree == 0:
        k = kappa(n) * h
        order = k // math.gcd(k, 24 * g)
    return OrderProfile(n, g, support, pw, h, order, degree)


@lru_cache(maxsize=CACHE_SIZE)
def _factor_profile(m: int, coeffs: tuple) -> OrderProfile:
    """The profile of the tensor factor with these coefficients at its own
    level m, with Upsilon applied at m.  Keyed by (m, coeffs), not by the
    divisor, whose __hash__ is a Python call that builds and hashes that
    pair on every lookup and so makes a lookup about twice as slow.  Its
    support and pw are shared, so never mutate them."""
    W = upsilon_apply(m, coeffs)
    deg = sum(map(mul, coeffs, degree_weights(m)))
    g = math.gcd(*W)
    if g == 0:
        return _with_order(m, 0, {}, {}, deg)
    wbar = [w // g for w in W]
    # Ligozat's weight rows 12 * [v_p(d) odd], primes ascending
    pw = {p: sum(map(mul, w, wbar)) // 12
          for p, w in zip(factor(m).primes, ligozat_weights(m)[2:])}
    return _with_order(m, g, {d: x for d, x in zip(divisors(m), wbar) if x}, pw, deg)


def tensor_profile(vecs) -> OrderProfile:
    """The profile of tensor_join(*vecs), factors at pairwise coprime levels,
    from the factors' own profiles: GCD and the degree are the products of
    theirs, the support is the tensor of their supports, and Pw_p is the
    parity sum for p of the factor at p times the support totals of the
    others.  One factor's profile is its own."""
    profs = [_factor_profile(v.n, v.coeffs) for v in vecs]
    if len(profs) == 1:
        return profs[0]
    levels = tuple([f.n for f in profs])
    g = math.prod([f.gcd_value for f in profs])
    pw = []
    if g:
        totals = [sum(f.support.values()) for f in profs]
        for i, f in enumerate(profs):
            totals[i], t = 1, totals[i]  # the product of the other totals
            rest = math.prod(totals)
            totals[i] = t
            pw += [(p, s * rest) for p, s in f.pw.items()]
        pw.sort()
    return _with_order(math.prod(levels), g,
                       tensor_terms(levels, [f.support.items() for f in profs]),
                       dict(pw), math.prod([f.degree for f in profs]))


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


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
* Vbar = Wbar_1 (x) ... (x) Wbar_k, so Vbar_d is the product of the
  Wbar_i at gcd(d, M_i);
* Pw_p = (the parity sum for p of the factor that holds p) times the
  support totals of all other factors, as [v_p(d) odd] depends on one
  factor only.

The degree and kappa are the products of the factors' (kappa is
multiplicative over coprime levels), so Pw_p is odd, and h = 2, exactly
when the factor at p has an odd parity sum for p and every other factor an
odd support total.  The order follows from kappa, GCD and h as for any
profile, in one helper.

Yoo's generators are such tensors, of prime-power base vectors and at most
one two-prime D vector: tensor_profile profiles each factor at its own
level, once per factor (cached with its kappa, support total and tops),
never applying Upsilon at N.  A tensor of two or more factors keeps their
profiles and builds its support {d: Vbar_d != 0} and Pw only when something
asks for them; value(d) reads one entry and top(sig) the support element
that comes last in a block's divisor order, each off the factors in O(k),
which is all the certificates read.  The sigma0(N) tuples Vbar and V are
derived from the support on request.  profile(C) of any divisor is the
profile of the one factor C.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul
from typing import NamedTuple

from .divisors import CuspDivisor, from_dict, tensor_terms
from .etalinalg import eta_divisor, ligozat_check, ligozat_weights, upsilon_apply
from .generators import tri_ladder
from .intarith import CACHE_SIZE, degree_weights, factor, kappa


def _vbar(prof) -> tuple | None:
    return from_dict(prof.n, prof.support).coeffs if prof.gcd_value else None


def _v(prof) -> tuple:
    g = prof.gcd_value
    return from_dict(prof.n, {d: g * c for d, c in prof.support.items()}).coeffs


class OrderProfile(NamedTuple):
    """The profile of one divisor at its own level n: gcd_value = GCD,
    support = {d: Vbar_d} over the nonzero entries of Vbar ({} when GCD = 0),
    pw = Pw_p over the primes of n ascending ({} when GCD = 0), h, the order
    (None unless the degree is 0), the degree, kappa(n), the support total
    and tops, which the tensor profiles read.  tops maps each prime p of a
    level of one or two primes to the support element whose exponents have
    the largest tri-ladder positions, compared with p's first (1 for an
    empty support; {} at three or more primes).  Vbar and V = GCD * Vbar
    are functions of the fields, so equality keeps its meaning."""
    n: int
    gcd_value: int
    support: dict
    pw: dict
    h: int
    order: int | None
    degree: int
    kappa: int
    total: int
    tops: dict

    Vbar = property(_vbar)
    V = property(_v)

    def value(self, d: int) -> int:
        """Vbar_d."""
        return self.support.get(d, 0)

    def top(self, sig: dict) -> int:
        """The support element that comes last in the colex order of
        tri-ladder positions, the prime of larger sig[p] more significant."""
        tops = self.tops
        if len(tops) == 1:  # a one-prime factor has one top
            top, = tops.values()
            return top
        return tops[max(tops, key=sig.__getitem__)]


class TensorProfile:
    """The profile of a tensor of two or more factors at pairwise coprime
    levels, kept as the factors' OrderProfiles: n, gcd_value, h, the order
    and the degree as fields, and the support and pw built from the
    factors' supports and parity sums when read (pw once).  Equal to any
    profile with the same n, gcd_value, support, pw, h, order and degree."""
    __slots__ = ("factors", "n", "gcd_value", "h", "order", "degree", "_pw")

    def __init__(self, factors, n, gcd_value, h, order, degree):
        self.factors, self.n, self.gcd_value = factors, n, gcd_value
        self.h, self.order, self.degree, self._pw = h, order, degree, None

    @property
    def support(self) -> dict:
        fs = self.factors
        return tensor_terms(tuple([f.n for f in fs]), [f.support.items() for f in fs])

    @property
    def pw(self) -> dict:
        """Pw_p, primes ascending: the parity sum for p of the factor at p
        times the support totals of the others ({} when GCD = 0)."""
        if self._pw is None:
            pw = []
            if self.gcd_value:
                totals = [f.total for f in self.factors]
                for i, f in enumerate(self.factors):
                    rest = math.prod(totals[:i]) * math.prod(totals[i + 1:])
                    pw += [(p, s * rest) for p, s in f.pw.items()]
            self._pw = dict(sorted(pw))
        return self._pw

    Vbar = property(_vbar)
    V = property(_v)

    def value(self, d: int) -> int:
        """Vbar_d, the product of the factors' Wbar at gcd(d, M_i)."""
        x = 1
        for f in self.factors:
            x *= f.support.get(math.gcd(d, f.n), 0)
            if not x:
                return 0
        return x

    def top(self, sig: dict) -> int:
        """As OrderProfile.top: the product of the factors' tops, which sit
        at disjoint primes, or 1 for an empty support."""
        return math.prod([f.top(sig) for f in self.factors]) if self.gcd_value else 1

    def __eq__(self, other):
        fields = ("n", "gcd_value", "support", "pw", "h", "order", "degree")
        return all(getattr(self, a) == getattr(other, a, None) for a in fields)


def profile(C: CuspDivisor) -> OrderProfile:
    """The profile of any divisor C at level N: the tensor profile of the
    one factor C, with Upsilon(N) applied to C."""
    return tensor_profile((C,))


def _order(k: int, g: int, h: int, degree: int) -> int | None:
    """The order of a profile with kappa k: for degree 0 the numerator of
    k * h / (24 * GCD), which is 1 when GCD = 0, else None."""
    if degree:
        return None
    kh = k * h
    return kh // math.gcd(kh, 24 * g)


@lru_cache(maxsize=CACHE_SIZE)
def _walks(m: int) -> dict:
    """{p: the pairs (position, d) over the divisors d of m, walked down the
    tri ladders with p's slot most significant} for each prime p of a level
    of one or two primes ({} at more), so a factor's top is the first d of
    a walk with a nonzero entry."""
    fm = factor(m)
    if fm.t > 2:
        return {}
    pos = fm.divisor_positions
    downs = [[p ** f for f in reversed(tri_ladder(r))] for p, r in fm.factors]
    return {p: [(pos[a * b], a * b)
                for a, b in product(downs[i], downs[i - 1] if fm.t == 2 else [1])]
            for i, p in enumerate(fm.primes)}


@lru_cache(maxsize=CACHE_SIZE)
def _factor_profile(m: int, coeffs: tuple) -> OrderProfile:
    """The profile of the tensor factor with these coefficients at its own
    level m, with Upsilon applied at m.  Keyed by (m, coeffs), not by the
    divisor, whose __hash__ is a Python call that builds and hashes that
    pair on every lookup and so makes a lookup about twice as slow.  Its
    support, pw and tops are shared, so never mutate them."""
    W = upsilon_apply(m, coeffs)
    deg = sum(map(mul, coeffs, degree_weights(m)))
    g = math.gcd(*W)
    fm, k = factor(m), kappa(m)
    if g == 0:
        return OrderProfile(m, 0, {}, {}, 1, _order(k, 0, 1, deg), deg, k, 0,
                            dict.fromkeys(_walks(m), 1))
    wbar = [w // g for w in W]
    # Ligozat's weight rows 12 * [v_p(d) odd], primes ascending
    pw = {p: sum(map(mul, w, wbar)) // 12
          for p, w in zip(fm.primes, ligozat_weights(m)[2:])}
    h = 2 if any(s % 2 for s in pw.values()) else 1
    support = {d: x for d, x in zip(fm.divisors, wbar) if x}
    tops = {p: next(d for i, d in walk if wbar[i]) for p, walk in _walks(m).items()}
    return OrderProfile(m, g, support, pw, h, _order(k, g, h, deg), deg, k,
                        sum(support.values()), tops)


def tensor_profile(vecs):
    """The profile of tensor_join(*vecs), factors at pairwise coprime levels
    (the support, when built, checks them), from the factors' own profiles:
    GCD, the degree and kappa are the products of theirs, and h = 2 when
    some Pw_p is odd, which takes an odd parity sum for p at the factor that
    holds p and odd support totals at all others.  One factor's profile is
    its own OrderProfile; two or more give a TensorProfile."""
    profs = [_factor_profile(v.n, v.coeffs) for v in vecs]
    if len(profs) == 1:
        return profs[0]
    even = [f for f in profs if f.total % 2 == 0]
    odd = len(even) < 2 and any(s % 2 for f in even or profs for s in f.pw.values())
    h = 2 if odd else 1
    g = math.prod([f.gcd_value for f in profs])
    degree = math.prod([f.degree for f in profs])
    k = math.prod([f.kappa for f in profs])
    return TensorProfile(tuple(profs), math.prod([f.n for f in profs]), g, h,
                         _order(k, g, h, degree), degree)


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


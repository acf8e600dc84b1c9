"""Rational cuspidal divisors on X0(N).

S2(N) is the lattice of integer combinations of the Galois-orbit divisors
(P_d), d | N, kept sparse: from_dict and the arithmetic build supports and
never read the divisor list of the level, so a generator's factors need no
factorization of their own.  S2(N)^0 is the degree-0 sublattice.  The
degeneracy pullbacks (alpha_p)^*, (beta_p)^* and their pi compositions,
which build the base vectors of the generators, act on this basis by the
case-by-case exponent formulas, extended linearly.

tensor_terms multiplies the supports of factors at coprime levels into
{divisor of the product: coefficient}, tensor_join places those terms in a
divisor at the product level, and kron is the dense Kronecker product, in
factor order, that the oracle uses.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul

from .intarith import degree_weights, divisor_positions, divisors, phi, valuation


class CuspDivisor:
    """An element of S2(N): coefficients on (P_d), d ascending, and its
    support, the pairs (d, c) with c != 0 in that order.  CuspDivisor(n,
    coeffs) holds the coefficients and _from_support the support; each
    derives the other once.  Equality and the hash read the support."""

    def __init__(self, n: int, coeffs: tuple):
        if len(coeffs) != len(divisors(n)):
            raise ValueError(f"a divisor at level {n} needs {len(divisors(n))} "
                             f"coefficients, not {len(coeffs)}")
        self.n, self.coeffs = n, coeffs

    @classmethod
    def _from_support(cls, n: int, support: tuple) -> CuspDivisor:
        D = cls.__new__(cls)
        D.n, D.support = n, support
        return D

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.support) == (other.n, other.support)

    def __hash__(self):
        return hash((self.n, self.support))

    def __repr__(self):
        return f"CuspDivisor(n={self.n!r}, coeffs={self.coeffs!r})"

    @cached_property
    def support(self) -> tuple:
        return tuple([(d, c) for d, c in zip(divisors(self.n), self.coeffs) if c])

    @cached_property
    def coeffs(self) -> tuple:
        pos = divisor_positions(self.n)
        out = [0] * len(pos)
        for d, c in self.support:
            out[pos[d]] = c
        return tuple(out)

    def degree(self):
        return sum(map(mul, self.coeffs, degree_weights(self.n)))

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError(f"divisors at levels {self.n} and {other.n} do not combine")
        terms = dict(self.support)
        for d, c in other.support:
            terms[d] = terms.get(d, 0) + c
        return from_dict(self.n, terms)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._from_support(self.n, tuple([(d, -c) for d, c in self.support]))

    def __rmul__(self, k):
        return from_dict(self.n, {d: k * c for d, c in self.support})

    def __str__(self):
        return format_terms(self.support)


def format_terms(terms) -> str:
    """The pairs (d, c) as "c*(d)" joined by commas, or "0" when there are none."""
    return ",".join([f"{c}*({d})" for d, c in terms]) or "0"


def from_dict(n, coeffs: dict) -> CuspDivisor:
    """The sum of c * (P_d) over {d: c}, kept as its support; ValueError
    unless every d is a positive divisor of n."""
    for d in coeffs:
        if d <= 0 or n % d:
            raise ValueError(f"{d} does not divide {n}")
    return CuspDivisor._from_support(n, tuple([(d, c) for d, c in sorted(coeffs.items()) if c]))


def divisor_to_json(n, terms) -> dict:
    """{"N": N, "coeffs": {"d": c}} over the pairs (d, c) of nonzero terms."""
    return {"N": n, "coeffs": {str(d): c for d, c in terms}}


def orbit_divisor(n, d: int) -> CuspDivisor:
    """The orbit divisor (P_d): the sum of all cusps of level d."""
    return from_dict(n, {d: 1})


def C_generator(n, d: int) -> CuspDivisor:
    """C_d = phi(gcd(d, N/d)) * (P_1) - (P_d); degree 0, defined for d > 1."""
    if d == 1:
        raise ValueError("C_d requires d > 1")
    return from_dict(n, {1: phi(math.gcd(d, n // d)), d: -1})


# ---------------------------------------------------------------------------
# Tensor structure over coprime factorizations
# ---------------------------------------------------------------------------

def kron(coeffs) -> list:
    """The Kronecker product of coefficient tuples, first factor most
    significant (no factors give [1])."""
    flat = [1]
    for c in coeffs:
        flat = [a * x for a in flat for x in c]
    return flat


def tensor_terms(levels: tuple, supports) -> dict:
    """{d_1...d_k: c_1...c_k} over the pairs (d_i, c_i) of the supports, the
    nonzero entries of factors at the levels M_1, ..., M_k (no factors give
    {1: 1}), in no particular order.  The products d_1...d_k are distinct
    exactly when the levels are pairwise coprime."""
    if math.prod(levels) != math.lcm(*levels):
        raise ValueError("tensor factors must have coprime levels")
    terms = [(1, 1)]
    for support in supports:
        terms = [(a * d, b * x) for d, x in support for a, b in terms]
    return dict(terms)


def tensor_join(*vecs: CuspDivisor) -> CuspDivisor:
    """e(M_1)_d1 (x) ... (x) e(M_k)_dk -> e(M_1...M_k)_{d1...dk}, extended
    multilinearly, for any number of factors at pairwise coprime levels (no
    factors give the unit at level 1)."""
    levels = tuple(v.n for v in vecs)
    return from_dict(math.prod(levels), tensor_terms(levels, [v.support for v in vecs]))


# ---------------------------------------------------------------------------
# Degeneracy pullbacks on the (P_d) basis
# ---------------------------------------------------------------------------

def _p_parts(d: int, p: int):
    f = valuation(d, p)
    return d // p ** f, f


def _map_basis(D: CuspDivisor, n_target: int, rule) -> CuspDivisor:
    out = {}
    for d, c in D.support:
        for d_new, mult in rule(d):
            out[d_new] = out.get(d_new, 0) + c * mult
    return from_dict(n_target, out)


def alpha_pull(D: CuspDivisor, p: int) -> CuspDivisor:
    """(alpha_p)^* : S2(N) -> S2(Np)."""
    n = D.n * p
    r = valuation(D.n, p)

    def rule(d):
        dp, f = _p_parts(d, p)
        if r == 0:
            return [(dp, p), (dp * p, 1)]
        if 2 * f <= r:
            return [(dp * p ** f, p)]
        if f <= r - 1:
            return [(dp * p ** f, 1)]
        return [(dp * p ** r, 1), (dp * p ** (r + 1), 1)]

    return _map_basis(D, n, rule)


def beta_pull(D: CuspDivisor, p: int) -> CuspDivisor:
    """(beta_p)^* : S2(N) -> S2(Np)."""
    n = D.n * p
    r = valuation(D.n, p)

    def rule(d):
        dp, f = _p_parts(d, p)
        if r == 0:
            return [(dp, 1), (dp * p, p)]
        if f == 0:
            return [(dp, 1), (dp * p, 1)]
        if 2 * f < r:
            return [(dp * p ** (f + 1), 1)]
        return [(dp * p ** (f + 1), p)]

    return _map_basis(D, n, rule)


def pi1_pull(D: CuspDivisor, p: int, k: int) -> CuspDivisor:
    """pi_1(p^a, p^{a-k})^* = k-fold alpha pullback."""
    for _ in range(k):
        D = alpha_pull(D, p)
    return D


def pi2_pull(D: CuspDivisor, p: int, k: int) -> CuspDivisor:
    """pi_2^* = k-fold beta pullback."""
    for _ in range(k):
        D = beta_pull(D, p)
    return D


def pi12_pull(D: CuspDivisor, p: int) -> CuspDivisor:
    """pi_12(N)^* : S2(N) -> S2(N p^2), the composite alpha^* o beta^*."""
    return alpha_pull(beta_pull(D, p), p)


def pi12_pull_div_p(D: CuspDivisor, p: int) -> CuspDivisor:
    """(1/p) pi_12^*; all image coefficients are divisible by p."""
    img = pi12_pull(D, p)
    if any(c % p for _, c in img.support):
        raise ArithmeticError("pi12 pullback not divisible by p")
    return from_dict(img.n, {d: c // p for d, c in img.support})

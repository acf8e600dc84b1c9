"""Rational cuspidal divisors on X0(N).

S2(N) is the lattice of integer combinations of the Galois-orbit divisors
(P_d), d | N, stored densely over the ascending divisor list.  S2(N)^0 is the
degree-0 sublattice.  The degeneracy pullbacks (alpha_p)^*, (beta_p)^* and
their pi compositions, which build the base vectors of the generators, act
on this basis by the case-by-case exponent formulas, extended linearly.

tensor_join takes any number of factors at pairwise coprime levels and forms
the dense Kronecker product of their coefficient tuples in one pass, then
gathers it into ascending-divisor order; kronecker does the same on bare
coefficient tuples, and kron is the product before the gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .intarith import degree_weights, divisor_positions, divisors, phi, valuation


@dataclass(frozen=True)
class CuspDivisor:
    """An element of S2(N): coefficients on (P_d), d ascending."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != len(divisors(self.n)):
            raise ValueError(f"a divisor at level {self.n} needs {len(divisors(self.n))} "
                             f"coefficients, not {len(self.coeffs)}")

    def as_dict(self) -> dict:
        return {d: c for d, c in zip(divisors(self.n), self.coeffs) if c}

    def degree(self):
        return sum(map(mul, self.coeffs, degree_weights(self.n)))

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError(f"divisors at levels {self.n} and {other.n} do not combine")
        return CuspDivisor(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return CuspDivisor(self.n, tuple(-a for a in self.coeffs))

    def __rmul__(self, k):
        return CuspDivisor(self.n, tuple(k * a for a in self.coeffs))

    def __str__(self):
        terms = [f"{c}*({d})" for d, c in self.as_dict().items()]
        return ",".join(terms) if terms else "0"


def from_dict(n, coeffs: dict) -> CuspDivisor:
    pos = divisor_positions(n)
    out = [0] * len(pos)
    for d, c in coeffs.items():
        if d not in pos:
            raise ValueError(f"{d} does not divide {n}")
        out[pos[d]] = c
    return CuspDivisor(n, tuple(out))


def divisor_to_json(D: CuspDivisor) -> dict:
    """{"N": N, "coeffs": {"d": c}} over the nonzero coefficients, d ascending."""
    return {"N": D.n, "coeffs": {str(d): c for d, c in zip(divisors(D.n), D.coeffs) if c}}


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

@lru_cache(maxsize=None)
def _kronecker_gather(levels: tuple) -> tuple:
    """For factors at these levels, the position in their Kronecker product
    (first factor most significant) of each divisor of the product, divisors
    ascending.  The products of divisors are all distinct exactly when the
    levels are pairwise coprime."""
    prods = [1]
    for m in levels:
        prods = [a * b for a in prods for b in divisors(m)]
    if len(prods) != len(divisors(math.prod(levels))):
        raise ValueError("tensor factors must have coprime levels")
    return tuple(sorted(range(len(prods)), key=prods.__getitem__))


def kron(coeffs) -> list:
    """The Kronecker product of coefficient tuples, first factor most
    significant (no factors give [1])."""
    flat = [1]
    for c in coeffs:
        flat = [a * x for a in flat for x in c]
    return flat


def kronecker(levels: tuple, coeffs) -> tuple:
    """The coefficient tuple, over the ascending divisors of M_1...M_k, of the
    tensor product of coefficient tuples over the divisors of M_1, ..., M_k
    (pairwise coprime levels)."""
    flat = kron(coeffs)
    return tuple([flat[i] for i in _kronecker_gather(levels)])


def tensor_join(*vecs: CuspDivisor) -> CuspDivisor:
    """e(M_1)_d1 (x) ... (x) e(M_k)_dk -> e(M_1...M_k)_{d1...dk}, extended
    multilinearly, for any number of factors at pairwise coprime levels (no
    factors give the unit at level 1)."""
    levels = tuple(v.n for v in vecs)
    return CuspDivisor(math.prod(levels), kronecker(levels, [v.coeffs for v in vecs]))


# ---------------------------------------------------------------------------
# Degeneracy pullbacks on the (P_d) basis
# ---------------------------------------------------------------------------

def _p_parts(d: int, p: int):
    f = valuation(d, p)
    return d // p ** f, f


def _map_basis(D: CuspDivisor, n_target: int, rule) -> CuspDivisor:
    out = {}
    for d, c in D.as_dict().items():
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
    for c in img.coeffs:
        if c % p:
            raise ArithmeticError("pi12 pullback not divisible by p")
    return CuspDivisor(img.n, tuple(c // p for c in img.coeffs))

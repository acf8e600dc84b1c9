"""Canonical generators of C(N).

This module fixes the prime ordering for a target prime ell, the twisted
orderings on exponent tuples with the bijection iota between them (a
property of the shape (r_1, ..., r_t; u) alone, so divisor_orderings is
cached on it and returns exponent tuples, never divisors), the base
vectors A_p(r,f) / B_p(r,f) / B2(r,f) at prime-power levels, the two-prime
correction vectors D, the composite generators Z (one per divisor) and Y2
(one per squarefree divisor), and their closed-form predicted orders.

Generators are keyed by their exponent tuple I.  Yoo's case split depends
only on the shape (I, u, s, r_u, kind), so _case makes it once per shape:
one base vector per prime slot (A, B or B2), at most one two-prime D in
place of two slots, and the H factor of the order.  generator_factors and
generator_order read it; generator_terms multiplies the factors' nonzero
entries, generator_vector places the terms in a divisor, and construct_Z,
construct_Y and predicted_order wrap them for a divisor d.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .divisors import (CuspDivisor, from_dict, orbit_divisor, pi1_pull,
                       pi2_pull, pi12_pull_div_p, tensor_terms)
from .intarith import (CACHE_SIZE, FactoredInteger, A_tuple, E_tuple,
                       exponent_tuple, factor, in_delta, in_E_set, in_F_set, in_F1_set,
                       in_G_set, in_G1_set, in_H_u, in_H_u1, in_square, in_T_u,
                       tuple_k, tuple_m, tuple_n, valuation)


# ---------------------------------------------------------------------------
# Prime ordering for a target prime ell
# ---------------------------------------------------------------------------

class OrderedLevel(NamedTuple):
    """N in one prime ordering for the target prime ell, with s = 0 for odd
    ell, else u; u is the slot of 2 (0 if N is odd) and r_u the exponent of
    2 in N (0 if N is odd)."""
    base: FactoredInteger
    ell: int
    s: int
    u: int
    r_u: int

    @property
    def t(self) -> int:
        return self.base.t


def _gamma(p: int, r: int) -> int:
    return p ** (r - 1) * (p + 1)


def _admissible(factors, ell: int) -> bool:
    gv = [valuation(_gamma(p, r), ell) for p, r in factors]
    if any(gv[i] < gv[j] for i in range(len(gv)) for j in range(i + 1, len(gv))):
        return False
    u = next((i for i, (p, _) in enumerate(factors, start=1) if p == 2), 0)
    s = 0 if ell % 2 else u
    pv = [valuation(p - 1, ell) if p > 2 or ell % 2 else 0 for p, _ in factors]
    idx = [i for i in range(len(factors)) if i + 1 != s]
    return all(pv[idx[a]] <= pv[idx[b]] for a in range(len(idx))
               for b in range(a + 1, len(idx)))


def _make_level(factors, ell: int) -> OrderedLevel:
    """The level with this prime ordering, on factor(N) itself when the
    ordering is ascending, so its divisor data are built once per level."""
    factors = tuple(factors)
    base = factor(math.prod(p ** r for p, r in factors))
    if base.factors != factors:
        base = FactoredInteger(base.value, factors)
    u = base.u
    return OrderedLevel(base, ell, 0 if ell % 2 else u, u, base.exponents[u - 1] if u else 0)


def order_primes(n, ell: int) -> OrderedLevel:
    """Permute the prime factors to satisfy both valuation conditions for ell,
    by one deterministic sort."""
    fn = factor(n)
    key = lambda pr: (-valuation(_gamma(*pr), ell), valuation(pr[0] - 1, ell), pr[0])
    cand = tuple(sorted(fn.factors, key=key))
    # The sort is always admissible: for odd ell no p != ell has ell | p - 1 and
    # ell | p + 1; for ell = 2 and odd p, v2(p+1) >= 2 iff v2(p-1) = 1.
    if _admissible(cand, ell):
        return _make_level(cand, ell)
    raise ArithmeticError(f"no admissible prime ordering for N={fn.value}, ell={ell}")


def default_level(n) -> OrderedLevel:
    """Ordering-insensitive contexts (the non-squarefree block): primes ascending."""
    fn = factor(n)
    return _make_level(fn.factors, 2)


# ---------------------------------------------------------------------------
# The ladders on {0..r}, the twisted orders, and iota
# ---------------------------------------------------------------------------

def prec_ladder(r: int) -> tuple:
    if r == 1:
        return (1, 0)
    return (1, 0, 2) + tuple(range(r, 2, -1))


def tri_ladder(r: int) -> tuple:
    if r == 1:
        return (0, 1)
    vals = [0, 1, r]
    hi, lo, take_hi = r - 1, 2, True
    while len(vals) < r + 1:
        vals.append(hi if take_hi else lo)
        hi, lo = (hi - 1, lo) if take_hi else (hi, lo + 1)
        take_hi = not take_hi
    return tuple(vals)


def iota_r(r: int) -> dict:
    return dict(zip(prec_ladder(r), tri_ladder(r)))


def iota_delta(I, u: int) -> tuple:
    """The bijection on Delta(t) (t >= 2)."""
    t = len(I)
    m = tuple_m(I)
    x = max(m, u)
    b = [1 - a for a in I]
    if in_E_set(I):
        b[x - 1] = 1
    elif in_H_u1(I, u):
        b[m - 1] = 1
        b[u - 1] = 0
    return tuple(b)


def _colex_key(I, u: int, ranks):
    """Twisted colexicographic key: coordinates compared via the given per-slot
    ladder ranks, larger index more significant, the u-coordinate least."""
    t = len(I)
    rest = tuple(ranks[j][I[j]] for j in range(t - 1, -1, -1) if j != u - 1)
    return rest + ((ranks[u - 1][I[u - 1]],) if u else ())


@lru_cache(maxsize=CACHE_SIZE)
def divisor_orderings(exponents: tuple, u: int) -> tuple:
    """(prec, tri) for the shape (r_1, ..., r_t; u): the exponent tuples of
    the divisors d_1, d_2, ... > 1 in the order prec, and delta_i = iota(d_i).
    The squarefree block Delta comes first, ordered by the tri key of its
    iota_delta image, then the square block in the prec colex order; iota is
    iota_delta on Delta (t >= 2) and iota_r slot by slot elsewhere."""
    t = len(exponents)
    tri_ranks = [{f: i for i, f in enumerate(tri_ladder(r))} for r in exponents]
    prec_ranks = [{f: i for i, f in enumerate(prec_ladder(r))} for r in exponents]
    delta = [I for I in product((0, 1), repeat=t) if any(I)]
    square = [I for I in product(*[range(r + 1) for r in exponents]) if in_square(I)]
    prec = (sorted(delta, key=lambda I: _colex_key(iota_delta(I, u), u, tri_ranks))
            + sorted(square, key=lambda I: _colex_key(I, u, prec_ranks)))
    iotas = [iota_r(r) for r in exponents]
    tri = tuple(iota_delta(I, u) if t >= 2 and in_delta(I) else
                tuple(im[f] for im, f in zip(iotas, I)) for I in prec)
    return tuple(prec), tri


# ---------------------------------------------------------------------------
# Base vectors at prime-power levels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def base_vector_A(p: int, r: int, f: int) -> CuspDivisor:
    n = p ** r
    if not 0 <= f <= r:
        raise ValueError("need 0 <= f <= r")
    if f == 0:
        return orbit_divisor(n, 1)
    if r == 1:
        return from_dict(p, {1: p, p: 1})
    if f == r:
        return from_dict(n, {1: 1, n: -1})
    if f == 1:
        return pi1_pull(base_vector_A(p, 1, 1), p, r - 1)
    if f == 2:
        if r % 2 == 1:
            return pi2_pull(base_vector_A(p, r - 1, 2), p, 1)
        corr = p ** (r - 2) * base_vector_A(p, r, r)
        return pi12_pull_div_p(base_vector_A(p, r - 2, 2), p) + corr
    if (r - f) % 2 == 0:
        j = (r - f) // 2
        return pi1_pull(base_vector_A(p, r - j, r - j), p, j)
    j = (r + 1 - f) // 2
    return pi2_pull(base_vector_A(p, r - j, r - j), p, j)


@lru_cache(maxsize=CACHE_SIZE)
def base_vector_B(p: int, r: int) -> CuspDivisor:
    return _gamma(p, r) * base_vector_A(p, r, 0) - base_vector_A(p, r, 1)


def _E_vec(r: int, k: int) -> tuple:
    m = min(k, r - k)
    if k % 2 == 1:
        head = (0, 2 ** (m - 1))
    else:
        head = (3 * 2 ** (m - 2), -(2 ** (m - 2)))
    return head + (0,) * (k - 2) + (-1,) + (0,) * (r - k)


@lru_cache(maxsize=CACHE_SIZE)
def base_vector_B2(r: int, f: int) -> CuspDivisor:
    """The replacement 2-power vectors (level 2^r, r >= 5, 3 <= f <= r)."""
    if r < 5 or not 3 <= f <= r:
        raise ValueError("need r >= 5 and 3 <= f <= r")
    n = 2 ** r
    if f == r:
        coeffs = (1,) + (0,) * (r - 1) + (-1,)
    elif f == r - 1:
        if r % 2 == 0:
            coeffs = (1, -1) + (0,) * (r - 1)
        else:
            coeffs = (-1, -1) + (0,) * (r - 2) + (2,)
    elif (r - f) % 2 == 0:
        coeffs = _E_vec(r, (r + f - 2) // 2)
    else:
        coeffs = _E_vec(r, (r - f + 3) // 2)
    return CuspDivisor(n, coeffs)


# ---------------------------------------------------------------------------
# Composite generators
# ---------------------------------------------------------------------------

def D_vector(L: OrderedLevel, i: int, j: int) -> CuspDivisor:
    """The two-prime degree-0 correction vector at level p_i^r_i * p_j^r_j."""
    if not 1 <= i < j <= L.t:
        raise ValueError("need 1 <= i < j <= t")
    return _two_prime_D(*L.base.factors[i - 1], *L.base.factors[j - 1])


@lru_cache(maxsize=CACHE_SIZE)
def _two_prime_D(pi: int, ri: int, pj: int, rj: int) -> CuspDivisor:
    """(g_j/G) B_i (x) A_j0 - (g_i/G) A_i0 (x) B_j, G = gcd(g_i, g_j): as A(p, r, 0)
    is (P_1), the two tensors sit on the supports of B_i and of B_j."""
    gi, gj = _gamma(pi, ri), _gamma(pj, rj)
    G = math.gcd(gi, gj)
    terms = {d: gj // G * c for d, c in base_vector_B(pi, ri).support}
    for d, c in base_vector_B(pj, rj).support:
        terms[d] = terms.get(d, 0) - gi // G * c
    return from_dict(pi ** ri * pj ** rj, terms)


@lru_cache(maxsize=CACHE_SIZE)
def _case(I, u: int, s: int, r_u: int, kind: str):
    """Yoo's case split for the generator of kind "Z", "Z1" or "Y2" at the
    exponent tuple I, with 2 at slot u (0 if N is odd) to the power r_u,
    s = u for ell = 2 and 0 for odd ell, as (parts, pair, H).  pair is the (i, j) of the
    two-prime correction D_vector(L, i, j), which fills slots i and j, or
    None.  parts holds (i, vector, f) for every other slot i: vector "A" is
    A_p(r, f), "B" is B_p(r, 1) (f is 1 there) and "B2" is B2(r, f) at the
    slot of 2.  H is _frak_H (Z) or _script_H (Y2).  Z1 is Z without the B2
    replacement on T_u."""
    slot, vector, pair = 0, "A", None  # at most one slot holds a B or B2
    if kind in ("Z", "Z1"):
        if not in_square(I):
            slot, vector = tuple_m(I), "B"
        elif kind == "Z" and in_T_u(I, r_u, u):
            slot, vector = u, "B2"
    elif not in_delta(I):
        raise ValueError("Y2 exists only for squarefree divisors > 1")
    elif in_F_set(I, s):
        slot, vector, pair = s, "B", (max(1, 3 - s), tuple_n(I))
    elif in_G_set(I, s):
        slot, vector = 1, "B"
    elif in_E_set(I):
        slot, vector = max(tuple_m(I), u), "B"
    else:
        pair = (tuple_m(I), tuple_k(I) if in_H_u(I, u) else tuple_n(I))
    parts = tuple((i, vector if i == slot else "A", f)
                  for i, f in enumerate(I, start=1) if not (pair and i in pair))
    H = _script_H(I, u, s) if kind == "Y2" else _frak_H(I, u, r_u)
    return parts, pair, H


def generator_factors(L: OrderedLevel, I, kind: str) -> tuple:
    """The tensor factors, at pairwise coprime levels, of the generator of
    kind "Z", "Z1" or "Y2" at the exponent tuple I of L: the base vector of
    each slot outside the D pair at its level p^r, then the D vector, if
    any, at its level p_i^r_i * p_j^r_j."""
    parts, pair, _ = _case(I, L.u, L.s, L.r_u, kind)
    factors = L.base.factors
    vecs = []
    for i, vector, f in parts:
        p, r = factors[i - 1]
        vecs.append(base_vector_B2(r, f) if vector == "B2" else
                    base_vector_B(p, r) if vector == "B" else base_vector_A(p, r, f))
    if pair:
        vecs.append(D_vector(L, *pair))
    return tuple(vecs)


def generator_terms(L: OrderedLevel, I, kind: str) -> dict:
    """The nonzero terms {d: c}, d ascending, of the generator of kind "Z",
    "Z1" or "Y2" at the exponent tuple I of L, from its factors' supports."""
    vecs = generator_factors(L, I, kind)
    terms = tensor_terms(tuple([v.n for v in vecs]), [v.support for v in vecs])
    return dict(sorted(terms.items()))


def generator_vector(L: OrderedLevel, I, kind: str) -> CuspDivisor:
    """The generator of kind "Z", "Z1" or "Y2" at the exponent tuple I of L."""
    return from_dict(L.base.value, generator_terms(L, I, kind))


# The (L, d) wrappers construct_Z, construct_Y and predicted_order: only the
# tests and the benchmark tracer (perfbench/spans.py) call them.
def _exponents(L: OrderedLevel, d: int) -> tuple:
    if d == 1 or L.base.value % d:
        raise ValueError("need a divisor 1 < d of N")
    return exponent_tuple(L.base, d)


def construct_Z(L: OrderedLevel, d: int) -> CuspDivisor:
    """Z(d) for a divisor 1 < d of N: tensors of A-vectors with one B
    (squarefree d, at slot m) or, on the exceptional 2-power set T_u, with B2
    at the slot of 2."""
    return generator_vector(L, _exponents(L, d), "Z")


def construct_Y(L: OrderedLevel, d: int) -> CuspDivisor:
    """Y2(d) for squarefree d > 1, relative to the ordering L."""
    return generator_vector(L, _exponents(L, d), "Y2")


# ---------------------------------------------------------------------------
# Predicted orders
# ---------------------------------------------------------------------------

def G_pair(L: OrderedLevel, i: int, j: int) -> int:
    (pi, ri), (pj, rj) = L.base.factors[i - 1], L.base.factors[j - 1]
    gi, gj = _gamma(pi, ri), _gamma(pj, rj)
    return (pi - 1) * (pj - 1) * math.gcd(gi, gj) // math.gcd(pi - 1, pj - 1)


def G_slot(p: int, r: int, f: int) -> int:
    if f == 0:
        return p ** (r - 1) * (p * p - 1)
    if f == 1:
        return 1
    if f == 2:
        return p * p - 1
    j = (r + 1 - f) // 2
    return p ** (r - 1 - j) * (p * p - 1)


def _frak_H(I, u: int, r_u: int) -> int:
    t = len(I)
    if I == A_tuple(1, t):
        return 2
    if u >= 1 and I == E_tuple(u, t):
        return 2
    if u >= 1:
        fu = I[u - 1]
        others_one = all(f == 1 for i, f in enumerate(I, start=1) if i != u)
        if 3 <= r_u <= 4 and fu == 3 and others_one:
            return 2
        if r_u >= 5 and fu == r_u + 1 - math.gcd(2, r_u) and others_one:
            return 2
    return 1


def _script_H(I, u: int, s: int) -> int:
    t = len(I)
    in_numer = in_F1_set(I, u) or in_G1_set(I, u) or I == A_tuple(1, t)
    in_denom = in_F_set(I, s) or in_G_set(I, s)
    return 2 if in_numer and not in_denom else 1


def generator_order(L: OrderedLevel, I, kind: str) -> int:
    """The closed-form order of the generator of kind "Z" or "Y2" at the
    exponent tuple I of L, numerator(G * H / 24), read off the case that
    builds the vector: G is G_pair(i, j) for a D pair times, over the other
    slots, p - 1 for a B and G_slot(p, r, f) for an A or B2."""
    parts, pair, H = _case(I, L.u, L.s, L.r_u, kind)
    G = G_pair(L, *pair) if pair else 1
    factors = L.base.factors
    for i, vector, f in parts:
        p, r = factors[i - 1]
        G *= p - 1 if vector == "B" else G_slot(p, r, f)
    GH = G * H
    return GH // math.gcd(GH, 24)


def predicted_order(L: OrderedLevel, d: int, kind: str) -> int:
    """The closed-form order of Z(d) (kind 'Z') or Y2(d) (kind 'Y2')."""
    if kind not in ("Z", "Y2"):
        raise ValueError(f"unknown kind {kind!r}")
    return generator_order(L, _exponents(L, d), kind)

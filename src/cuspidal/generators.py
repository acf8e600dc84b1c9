"""Canonical generators of C(N).

This module fixes the prime ordering for a target prime ell, the twisted
orderings on exponent tuples with the bijection iota between them (a
property of the shape (r_1, ..., r_t; u) alone, so divisor_orderings is
cached on it and returns exponent tuples, never divisors; their squarefree
block Delta depends on (t, u) alone, so delta_orderings is cached on that
and a Y2 table costs O(2^t), not O(sigma0(N))), the base
vectors A_p(r,f) / B_p(r,f) / B2(r,f) at prime-power levels, the two-prime
correction vectors D, the composite generators Z (one per divisor) and Y2
(one per squarefree divisor), and their closed-form predicted orders.

Generators are keyed by their exponent tuple I.  Yoo's case split depends
only on the shape (I, u, s, r_u, kind), so _case makes it once per shape,
in one pass over I: one base vector per prime slot (A, B or B2), at most
one two-prime D in place of two slots, and the H factor of the order.
generator_factors and generator_order read it; generator_terms multiplies
the factors' nonzero entries, generator_vector places the terms in a
divisor, and construct_Z, construct_Y and predicted_order wrap them for a
divisor d.  delta_orderings and divisor_orderings list the twisted orders
as products over the slots' ladders and sort nothing.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import pairwise, product
from operator import itemgetter
from typing import NamedTuple

from .divisors import (CuspDivisor, from_dict, orbit_divisor, pi1_pull,
                       pi2_pull, pi12_pull_div_p)
from .intarith import CACHE_SIZE, FactoredInteger, exponent_tuple, factor, valuation


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


def _gamma(p: int, r: int) -> int:
    return p ** (r - 1) * (p + 1)


def _admissible(factors, ell: int) -> bool:
    """v_ell(gamma(p, r)) never rises along the ordering and v_ell(p - 1) never
    falls outside slot s; a sequence is monotone when each adjacent pair is."""
    gv = [valuation(_gamma(p, r), ell) for p, r in factors]
    pv = [valuation(p - 1, ell) for p, _ in factors if p > 2 or ell % 2]
    return all(a >= b for a, b in pairwise(gv)) and all(a <= b for a, b in pairwise(pv))


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


def _m_n_k(I):
    """For I in Delta(t): its 1-based slots that hold 0, m, the first slot
    that holds 1, and n < k, the first two 0 slots after m (t + 1 if none)."""
    zeros = [i for i, f in enumerate(I, start=1) if not f]
    m = I.index(1) + 1
    n, k = (zeros[m - 1:] + [len(I) + 1] * 2)[:2]
    return zeros, m, n, k


def iota_delta(I, u: int) -> tuple:
    """The bijection on Delta(t) (t >= 2): the complement of I, but with 1 at
    max(m, u) when no 0 follows m (I in E), and with 1 at m and 0 at u when
    the one 0 after m is at u (I in H_u^1)."""
    _, m, n, k = _m_n_k(I)
    b = [1 - a for a in I]
    if n > len(I):
        b[max(m, u) - 1] = 1
    elif n == u and k > len(I):
        b[m - 1], b[u - 1] = 1, 0
    return tuple(b)


def _colex(ladders, u: int) -> list:
    """The product of the per-slot ladders in twisted colexicographic order:
    each slot's values in its ladder's order, the last slot most significant
    and slot u least."""
    t = len(ladders)
    slots = [j for j in range(t - 1, -1, -1) if j != u - 1] + [u - 1] * (u > 0)
    tuples = product(*[ladders[j] for j in slots])
    if t == 1:
        return list(tuples)
    return list(map(itemgetter(*[slots.index(j) for j in range(t)]), tuples))


@lru_cache(maxsize=CACHE_SIZE)
def delta_orderings(t: int, u: int) -> tuple:
    """(prec, tri) of the squarefree block Delta(t), 2 at slot u: the
    iota_delta preimages of Delta in the tri order, and that order, the
    exponent tuples of d_1, ..., d_{2^t - 1} and of delta_i = iota(d_i).
    They depend on (t, u) alone, not on the exponents of N.  At t = 1,
    Delta is the one tuple (1,), and iota maps it by the ladders to (0,)."""
    if t == 1:
        return ((1,),), ((0,),)
    preimage = {iota_delta(I, u): I for I in product((0, 1), repeat=t) if any(I)}
    tri = tuple(J for J in _colex([(0, 1)] * t, u) if any(J))
    return tuple(preimage[J] for J in tri), tri


@lru_cache(maxsize=CACHE_SIZE)
def divisor_orderings(exponents: tuple, u: int) -> tuple:
    """(prec, tri) for the shape (r_1, ..., r_t; u): the exponent tuples of
    the divisors d_1, d_2, ... > 1 in the order prec, and delta_i = iota(d_i).
    The squarefree block Delta comes first, delta_orderings(t, u), then the
    square block in the prec order; there iota acts slot by slot and maps
    each prec ladder onto its tri ladder, so the tri order lists the images.
    When t = 1, Delta is d_1 = p and every divisor is in the prec order."""
    prec, tri = map(list, delta_orderings(len(exponents), u))
    for I, J in zip(_colex([prec_ladder(r) for r in exponents], u),
                    _colex([tri_ladder(r) for r in exponents], u)):
        if max(I) >= 2:
            prec.append(I)
            tri.append(J)
    return tuple(prec), tuple(tri)


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
    return from_dict(n, {2 ** f: c for f, c in enumerate(coeffs)})


# ---------------------------------------------------------------------------
# Composite generators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def _two_prime_D(pi: int, ri: int, pj: int, rj: int) -> CuspDivisor:
    """The two-prime degree-0 correction vector D at level pi^ri * pj^rj,
    (g_j/G) B_i (x) A_j0 - (g_i/G) A_i0 (x) B_j, G = gcd(g_i, g_j): as A(p, r, 0)
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
    s = u for ell = 2 and 0 for odd ell, as (parts, pair, H, slot).  pair is
    the (i, j) of the two-prime correction D (_two_prime_D), which fills
    slots i and j, or None.  parts holds (i, vector, f) for every other slot
    i: vector "A" is A_p(r, f), "B" is B_p(r, 1) (f is 1 there) and "B2" is
    B2(r, f) at the slot of 2.  slot is the one slot with a B or B2, or 0.
    H is the H factor of the order.  Z1 is Z without the B2 replacement on
    T_u.  One pass over I: for Z, f_u and whether every other entry is 1;
    for Y2, the 0 slots and m, n, k."""
    slot, vector, pair = 0, "A", None
    if kind != "Y2":
        fu = I[u - 1] if u else 1  # so for odd N, others_one and fu <= 1 mean A(1)
        others_one = all(f == 1 for i, f in enumerate(I, start=1) if i != u)
        if max(I) <= 1:
            slot, vector = I.index(1) + 1, "B"
        elif kind == "Z" and others_one and 3 <= fu <= r_u and r_u >= 5:  # T_u
            slot, vector = u, "B2"
        # H = 2 on A(1) = (1, ..., 1), on E(u) and at one f_u when 2^3 | N
        H = 2 if others_one and (fu <= 1 or fu == 3 and 3 <= r_u <= 4 or
                                 r_u >= 5 and fu == r_u + 1 - math.gcd(2, r_u)) else 1
    elif not any(I) or max(I) > 1:
        raise ValueError("Y2 exists only for squarefree divisors > 1")
    else:
        zeros, m, n, k = _m_n_k(I)
        t = len(I)
        # F: I = E(z), z in I_s, which is {3..t} if s = 1, else {2..t} without s;
        # G: I = E(2) with s = 1, and E(2) is (1,) when t = 1
        F = s and len(zeros) == 1 and zeros[0] != s and zeros[0] >= (3 if s == 1 else 2)
        G = s == 1 and zeros == [2][:t - 1]
        if F:
            slot, vector, pair = s, "B", (max(1, 3 - s), n)
        elif G:
            slot, vector = 1, "B"
        elif n > t:  # E: the 1's run from m to t
            slot, vector = max(m, u), "B"
        else:  # a D pair, (m, k) on H_u (n = u, k <= t), else (m, n)
            pair = (m, k if n == u and k <= t else n)
        # H = 2 on A(1), on G1 (I = E(z), z >= 2 unless u = 1) and on F1
        # (zeros at u and at z in I_u), outside F and G
        numer = (len(zeros) <= 1 and (u == 1 or zeros != [1]) or
                 len(zeros) == 2 and u in zeros and sum(zeros) - u >= (3 if u == 1 else 2))
        H = 2 if numer and not (F or G) else 1
    parts = tuple((i, vector if i == slot else "A", f)
                  for i, f in enumerate(I, start=1) if not (pair and i in pair))
    return parts, pair, H, slot


def generator_factors(L: OrderedLevel, I, kind: str) -> tuple:
    """The tensor factors, at pairwise coprime levels, of the generator of
    kind "Z", "Z1" or "Y2" at the exponent tuple I of L: the base vector of
    each slot outside the D pair at its level p^r, then the D vector, if
    any, at its level p_i^r_i * p_j^r_j."""
    parts, pair, _, _ = _case(I, L.u, L.s, L.r_u, kind)
    factors = L.base.factors
    vecs = []
    for i, vector, f in parts:
        p, r = factors[i - 1]
        vecs.append(base_vector_B2(r, f) if vector == "B2" else
                    base_vector_B(p, r) if vector == "B" else base_vector_A(p, r, f))
    if pair:
        i, j = pair
        vecs.append(_two_prime_D(*factors[i - 1], *factors[j - 1]))
    return tuple(vecs)


def generator_terms(L: OrderedLevel, I, kind: str) -> list:
    """The nonzero terms (d, c), d ascending, of the generator of kind "Z",
    "Z1" or "Y2" at the exponent tuple I of L: products of its factors'
    support pairs, distinct as the factors sit at distinct primes of L."""
    terms = [(1, 1)]
    for v in generator_factors(L, I, kind):
        terms = [(a * d, b * c) for d, c in v.support for a, b in terms]
    terms.sort()
    return terms


def generator_vector(L: OrderedLevel, I, kind: str) -> CuspDivisor:
    """The generator of kind "Z", "Z1" or "Y2" at the exponent tuple I of L."""
    return from_dict(L.base.value, dict(generator_terms(L, I, kind)))


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


def generator_order(L: OrderedLevel, I, kind: str) -> int:
    """The closed-form order of the generator of kind "Z" or "Y2" at the
    exponent tuple I of L, numerator(G * H / 24), read off the case that
    builds the vector: G is G_pair(i, j) for a D pair times, over the other
    slots, p - 1 for a B and G_slot(p, r, f) for an A or B2."""
    parts, pair, H, _ = _case(I, L.u, L.s, L.r_u, kind)
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

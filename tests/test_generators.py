import math
from fractions import Fraction
from itertools import permutations, product

import pytest

from base_images import base_vector_image
import references
from cuspidal import generators
from cuspidal.divisors import orbit_divisor
from cuspidal.etalinalg import upsilon_apply
from cuspidal.generators import (_two_prime_D, base_vector_A, base_vector_B,
                                 base_vector_B2, construct_Y, construct_Z,
                                 default_level, divisor_orderings, iota_delta,
                                 order_primes, prec_ladder, predicted_order, tri_ladder)
from cuspidal.intarith import (divisor_of, divisors, factor, in_square, kappa, kappa_primes,
                               valuation)
from cuspidal.orderengine import profile
from references import D_vector, admissible_all_pairs, iota_r, radical, two_prime_D


def test_ladders():
    assert prec_ladder(1) == (1, 0)
    assert prec_ladder(4) == (1, 0, 2, 4, 3)
    assert tri_ladder(1) == (0, 1)
    assert tri_ladder(5) == (0, 1, 5, 4, 2, 3)
    assert tri_ladder(7) == (0, 1, 7, 6, 2, 5, 3, 4)
    assert iota_r(4) == {1: 0, 0: 1, 2: 4, 4: 3, 3: 2}


def test_admissible_matches_the_all_pairs_reference():
    """_admissible checks adjacent slots only; on every permutation of the
    prime factors of N <= 3000 (t <= 5) and every relevant ell it agrees with
    the check over all pairs of slots, and both outcomes occur."""
    outcomes = set()
    for n in range(6, 3001):
        fn = factor(n)
        if fn.t < 2:
            continue
        for ell in sorted({2, *kappa_primes(n)}):
            for perm in permutations(fn.factors):
                ok = generators._admissible(perm, ell)
                assert ok == admissible_all_pairs(perm, ell), (perm, ell)
                outcomes.add(ok)
    assert outcomes == {True, False}


def test_order_primes_deterministic():
    L = order_primes(15, 2)
    assert L.base.primes == (3, 5) and L.u == 0 and L.s == 0
    L = order_primes(30, 3)
    # gamma(2)=3 has the largest val_3
    assert L.base.primes[0] == 2


def _orderings(L):
    """divisor_orderings of the shape of L, as divisors of L.base."""
    return tuple(tuple(divisor_of(L.base, I) for I in Is)
                 for Is in divisor_orderings(L.base.exponents, L.u))


def test_orderings_are_permutations():
    for n in [36, 60, 360, 2 ** 6]:
        L = default_level(n)
        precs, deltas = _orderings(L)
        all_divs = set(divisors(n)) - {1}
        assert set(precs) == all_divs
        if L.base.t >= 2:
            assert set(deltas) == all_divs
        else:  # iota_r maps {1..r} onto {0, 2..r}: delta runs over 1, p^2, ..., p^r
            p = L.base.primes[0]
            assert set(deltas) == all_divs - {p} | {1}
        assert len(precs) == len(all_divs)


def _colex_key(I, u, ladders):
    """Ranks along each slot's ladder, the last slot most significant and the
    u-th slot least."""
    ranks = [ladder.index(f) for ladder, f in zip(ladders, I)]
    rest = [ranks[j] for j in reversed(range(len(I))) if j != u - 1]
    return tuple(rest + ([ranks[u - 1]] if u else []))


def _two_sort_orderings(rs, u):
    """Reference: prec and tri each sorted on its own, Delta first.  The
    squarefree part of prec is ordered by the tri key of its iota_delta image,
    read off the index-set predicates; for t = 1 the divisors > 1 follow
    prec_ladder and delta_i = iota_r(d_i)."""
    if len(rs) == 1:
        prec = [(f,) for f in prec_ladder(rs[0]) if f]
        return prec, [(iota_r(rs[0])[f],) for f, in prec]
    tri_l, prec_l = [tri_ladder(r) for r in rs], [prec_ladder(r) for r in rs]
    delta = [I for I in product((0, 1), repeat=len(rs)) if any(I)]
    square = [I for I in product(*[range(r + 1) for r in rs]) if in_square(I)]
    prec = (sorted(delta, key=lambda I: _colex_key(references.iota_delta(I, u), u, tri_l))
            + sorted(square, key=lambda I: _colex_key(I, u, prec_l)))
    tri = (sorted(delta, key=lambda I: _colex_key(I, u, tri_l))
           + sorted(square, key=lambda I: _colex_key(I, u, tri_l)))
    return prec, tri


ORDERING_LEVELS = ([default_level(n) for n in range(2, 800)]
                   + [order_primes(n, ell) for n in (30, 60, 210, 360, 2310, 5040, 30030)
                      for ell in (2, 3, 5, 7)])


def _small_shapes(tmax, rmax):
    """Every shape (r_1, ..., r_t; u) with 2 <= t <= tmax, 1 <= r_i <= rmax
    and 0 <= u <= t."""
    return [(rs, u) for t in range(2, tmax + 1)
            for rs in product(range(1, rmax + 1), repeat=t) for u in range(t + 1)]


def test_divisor_orderings_match_the_two_sort_definition():
    """On the shapes of ORDERING_LEVELS, and on every shape with t <= 4 and
    r_i <= 3, t <= 6 and r_i <= 2, and t = 1 with r <= 20, for every slot u
    of 2."""
    shapes = {(L.base.exponents, L.u) for L in ORDERING_LEVELS}
    shapes.update(_small_shapes(4, 3) + _small_shapes(6, 2))
    shapes.update(((r,), u) for r in range(1, 21) for u in (0, 1))
    for rs, u in sorted(shapes):
        prec, tri = _two_sort_orderings(rs, u)
        assert divisor_orderings.__wrapped__(rs, u) == (tuple(prec), tuple(tri)), (rs, u)


def test_delta_orderings_are_the_delta_block_of_divisor_orderings():
    """For every t <= 7 and every slot u of 2, delta_orderings(t, u) is the
    two-sort reference on the shape (1, ..., 1), and the first 2^t - 1
    entries of divisor_orderings on the shapes (1, ..., 1), (3, ..., 3) and
    (1, 2, ..., t): Delta depends on (t, u) alone."""
    for t in range(1, 8):
        for u in range(t + 1):
            prec, tri = generators.delta_orderings.__wrapped__(t, u)
            assert len(prec) == len(tri) == 2 ** t - 1
            ref_prec, ref_tri = _two_sort_orderings((1,) * t, u)
            assert (prec, tri) == (tuple(ref_prec), tuple(ref_tri)), (t, u)
            for rs in ((1,) * t, (3,) * t, tuple(range(1, t + 1))):
                full_prec, full_tri = divisor_orderings.__wrapped__(rs, u)
                assert (full_prec[:len(prec)], full_tri[:len(tri)]) == (prec, tri), (rs, u)


def test_iota_delta_matches_the_predicates():
    """On every I in Delta(t), 2 <= t <= 8, for every u: the one-pass
    iota_delta equals its predicate form, and is a bijection of Delta(t)."""
    for t in range(2, 9):
        delta = [I for I in product((0, 1), repeat=t) if any(I)]
        for u in range(t + 1):
            images = [iota_delta(I, u) for I in delta]
            assert images == [references.iota_delta(I, u) for I in delta], (t, u)
            assert sorted(images) == delta, (t, u)


def _case_keys(t_Z):
    """The _case keys (I, u, s, r_u, kind): for Y2 every I in Delta(t),
    t <= 7, every u and s in {0, u}; for Z and Z1, t <= t_Z, every u, every
    r_u <= 7 (0 when u = 0), every nonzero I with f_u <= r_u and each other
    entry 0, 1 or 2, which reaches T_u (r_u >= 5) and every f_u with H = 2."""
    for t in range(1, 8):
        for I in product((0, 1), repeat=t):
            if any(I):
                for u in range(t + 1):
                    for s in sorted({0, u}):
                        yield I, u, s, 0, "Y2"
    for t in range(1, t_Z + 1):
        for u in range(t + 1):
            for r_u in range(1, 8) if u else (0,):
                box = [range(r_u + 1) if i == u else range(3) for i in range(1, t + 1)]
                for I in product(*box):
                    if any(I):
                        yield I, u, u, r_u, "Z"
                        yield I, u, u, r_u, "Z1"


def _assert_case_matches_the_predicates(t_Z):
    hits = set()
    for key in _case_keys(t_Z):
        parts, pair, H, slot = generators._case.__wrapped__(*key)
        assert (parts, pair, H) == references.case(*key), key
        assert slot == next((i for i, vector, _ in parts if vector != "A"), 0), key
        hits.add((key[-1], H, slot > 0, pair is not None,
                  any(vector == "B2" for _, vector, _ in parts)))
    # the keys reach every (kind, H, B or B2 slot, D pair, B2) that occurs:
    # Y2 with H = 1 in F (slot and pair), G or E (slot) and on a pair, with
    # H = 2 in E or on a pair; Z and Z1 with each H with and without a B
    # slot, and Z with each H on T_u (B2)
    assert len(hits) == 15 and sum(kind == "Z" for kind, *_ in hits) == 6, hits


def test_case_matches_the_predicates():
    """The one-pass _case against its predicate form on every Y2 key with
    t <= 7 and every Z and Z1 key with t <= 4.  At t = 1, E(2) = (1,), so
    (1,) is in G at s = 1 and its Y2 has H = 1."""
    _assert_case_matches_the_predicates(4)
    assert [generators._case((1,), 1, 1, 0, "Y2")[2],
            generators._case((1,), 0, 0, 0, "Y2")[2]] == [1, 2]


@pytest.mark.slow
def test_case_matches_the_predicates_on_Z_keys_to_t_7():
    _assert_case_matches_the_predicates(7)


def test_iota_maps_prec_to_tri():
    # iota(d_i) = delta_i for the two independent sorts: iota_delta on the
    # squarefree block, iota_r slotwise on the rest (iota_r alone when t = 1)
    for L in ORDERING_LEVELS:
        rs = L.base.exponents
        for I, J in zip(*_two_sort_orderings(rs, L.u)):
            if L.base.t >= 2 and all(f <= 1 for f in I):
                assert iota_delta(I, L.u) == J
            else:
                assert tuple(iota_r(r)[f] for r, f in zip(rs, I)) == J


def test_ordering_anchors():
    # d_1 = rad N; squarefree block (size 2^t - 1) comes first
    for n in [60, 360, 90]:
        L = default_level(n)
        t = L.base.t
        divs, _ = _orderings(L)
        assert divs[0] == radical(L.base)
        sf = [d for d in divisors(n)
              if d > 1 and all(valuation(d, p) <= 1 for p in L.base.primes)]
        assert set(divs[: 2 ** t - 1]) == set(sf)


def test_A_closed_forms():
    # A(r,1) entries p^{max(r-2k,0)}
    for p in (2, 3, 5):
        for r in range(1, 7):
            A = base_vector_A(p, r, 1)
            assert A.coeffs == tuple(p ** max(r - 2 * k, 0) for k in range(r + 1))
    # f >= 3 closed forms
    for p in (2, 3):
        for r in range(3, 9):
            for f in range(3, r + 1):
                A = base_vector_A(p, r, f)
                if (r - f) % 2 == 0:
                    a = (r - f) // 2
                    exp = (p ** a,) + (0,) * (r - a - 1) + (-1,) * (a + 1)
                else:
                    a = (r + 1 - f) // 2
                    exp = (1,) * (a + 1) + (0,) * (r - a - 1) + (-(p ** a),)
                assert A.coeffs == exp


def test_base_vector_degrees():
    # A(r,0) has degree 1, A(r,1) degree p^{r-1}(p+1); the rest are degree 0
    for p in (2, 3):
        for r in range(1, 7):
            assert base_vector_A(p, r, 0).degree() == 1
            assert base_vector_A(p, r, 1).degree() == p ** (r - 1) * (p + 1)
            for f in range(2, r + 1):
                assert base_vector_A(p, r, f).degree() == 0
            assert base_vector_B(p, r).degree() == 0


def test_image_vectors():
    # Upsilon * A = g * (primitive image); kappa = g * G_slot for f != 1
    for p in (2, 3, 5):
        for r in range(1, 7):
            for f in range(r + 1):
                g, img = base_vector_image("A", p, r, f)
                V = upsilon_apply(p ** r, base_vector_A(p, r, f).coeffs)
                assert V == tuple(g * x for x in img)
            gB, imgB = base_vector_image("B", p, r, 1)
            assert gB == p ** (r - 1) * (p + 1)
            VB = upsilon_apply(p ** r, base_vector_B(p, r).coeffs)
            assert VB == tuple(gB * x for x in imgB)


def test_image_anchor_positions():
    # the image vector has entry +-1 at position iota_r(f), zeros after in tri order
    for p in (3, 5):
        for r in range(1, 7):
            ranks = {f: i for i, f in enumerate(tri_ladder(r))}
            for f in range(1, r + 1):
                _, img = base_vector_image("A", p, r, f)
                anchor = iota_r(r)[f]
                assert abs(img[anchor]) == 1
                for k in range(r + 1):
                    if ranks[k] > ranks[anchor]:
                        assert img[k] == 0


def test_D_vector_example():
    L = order_primes(15, 2)
    assert D_vector(L, 1, 2).coeffs == (1, -3, 2, 0)


def test_D_vector_degree_zero():
    for n, ell in [(15, 2), (30, 2), (105, 3)]:
        L = order_primes(n, ell)
        for i in range(1, L.base.t):
            assert D_vector(L, i, i + 1).degree() == 0


def test_B2_vectors():
    # examples from the 2-power tables
    assert base_vector_B2(7, 7).coeffs == (1, 0, 0, 0, 0, 0, 0, -1)
    assert base_vector_B2(7, 6).coeffs == (-1, -1, 0, 0, 0, 0, 0, 2)
    assert base_vector_B2(6, 5).coeffs == (1, -1, 0, 0, 0, 0, 0)
    for r in range(5, 10):
        for f in range(3, r + 1):
            assert base_vector_B2(r, f).degree() == 0


def test_prime_power_orders():
    # C(p^r) cyclic factor orders for odd p
    for p in (3, 5, 7):
        for r in range(1, 5):
            L = default_level(p ** r)
            for f in range(1, r + 1):
                o = predicted_order(L, p ** f, "Z")
                if f == 1:
                    assert o == Fraction(p - 1, 12).numerator
                elif f == 2:
                    assert o == Fraction(p * p - 1, 24).numerator
                else:
                    j = (r - f) // 2 if (r - f) % 2 == 0 else (r + 1 - f) // 2
                    assert o == p ** (r - 1 - j) * (p * p - 1) // 24


def test_Z_and_Y_profiles_match_predictions():
    for n in [36, 60, 64, 90, 100]:
        L0 = default_level(n)
        for d in divisors(n):
            if d == 1:
                continue
            if any(valuation(d, p) >= 2 for p in L0.base.primes):
                assert profile(construct_Z(L0, d)).order == \
                    predicted_order(L0, d, "Z")
    for n in [30, 60, 90]:
        for ell in (2, 3, 5):
            L = order_primes(n, ell)
            for d in divisors(n):
                if d > 1 and all(valuation(d, p) <= 1 for p in L.base.primes):
                    assert profile(construct_Y(L, d)).order == \
                        predicted_order(L, d, "Y2")


def test_Y_variants_degree_zero():
    L = order_primes(60, 2)
    for d in (2, 3, 5, 6, 10, 15, 30):
        assert construct_Y(L, d).degree() == 0
    with pytest.raises(ValueError):
        construct_Y(L, 4)


def test_two_prime_D_matches_its_dense_definition():
    """The D vector read off the supports of B_i and B_j equals the
    difference of the two tensor_joins that define it, on every ordered pair
    of prime powers p^r, q^s with p != q <= 13 and r, s <= 6."""
    powers = [(p, r) for p in (2, 3, 5, 7, 11, 13) for r in range(1, 7)]
    for (p, r), (q, s) in product(powers, repeat=2):
        if p != q:
            assert _two_prime_D.__wrapped__(p, r, q, s) == two_prime_D(p, r, q, s), (p, r, q, s)

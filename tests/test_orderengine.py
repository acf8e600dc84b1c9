import math
import random
from fractions import Fraction
from operator import mul

import pytest

from cuspidal import orderengine
from cuspidal.divisors import C_generator, from_dict, tensor_join
from cuspidal.etalinalg import eta_qexpansion, upsilon_apply
from cuspidal.intarith import degree_weights, divisors, factor, kappa, valuation
from cuspidal.orderengine import eta_certificate, profile, profile_to_json
from references import atkin_lehner, closed_order_CN, closed_order_Cd, tensor_profile

GENUS_ZERO = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25]


def test_level_11():
    pr = profile(C_generator(11, 11))
    assert pr.V == (12, -12)
    assert pr.gcd_value == 12
    assert pr.Vbar == (1, -1)
    assert pr.pw == {11: -1}
    assert pr.h == 2
    assert pr.order == 5


def test_pw_matches_valuation_sums():
    # Pw_p = sum of Vbar over the divisors with odd p-valuation; the ladder
    # adds exponents >= 3 and t up to 6
    rng = random.Random(11)
    for n in list(range(2, 501)) + [5040, 55440, 720720, 2 ** 20, 3 ** 12]:
        ds = divisors(n)
        for _ in range(3):
            c = [rng.randint(-5, 5) for _ in ds[1:]]
            D = from_dict(n, {**dict(zip(ds[1:], c)), 1: -sum(c)})
            pr = profile(D)
            if pr.Vbar is None:
                continue
            assert pr.pw == {p: sum(v for v, d in zip(pr.Vbar, ds) if valuation(d, p) % 2)
                             for p in factor(n).primes}, n
            assert list(pr.pw) == list(factor(n).primes)


def test_p_squared():
    # V(C_p) at level p^2 is p * (p, -p-1, 1)
    for p in (3, 5, 7):
        pr = profile(C_generator(p * p, p))
        assert pr.V == (p * p, -p * (p + 1), p)
        assert pr.gcd_value == p


def test_genus_zero_trivial():
    for n in GENUS_ZERO:
        for d in divisors(n):
            if d > 1:
                assert profile(C_generator(n, d)).order == 1


def test_order_scaling():
    # order(k*C) = order(C) / gcd(k, order(C))
    C = C_generator(11, 11)
    assert profile(5 * C).order == 1
    assert profile(2 * C).order == 5
    assert profile(10 * C).order == 1


def test_nonzero_degree_has_no_order():
    pr = profile(from_dict(11, {1: 1}))
    assert pr.degree == 1 and pr.order is None


def test_closed_forms_match_profiles():
    for n in range(2, 151):
        for d in divisors(n):
            if d == 1:
                continue
            g, h, o = closed_order_Cd(n, d)
            pr = profile(C_generator(n, d))
            assert (pr.gcd_value, pr.h, pr.order) == (g, h, o), (n, d)


def test_closed_CN_against_examples():
    # order of C_N at prime level is num((p-1)/12)
    for p in (11, 37, 67):
        assert closed_order_CN(p)[2] == Fraction(p - 1, 12).numerator
    assert closed_order_CN(1) == (0, 1, 1)


def test_atkin_lehner_keeps_every_order():
    """Each w_p, p | N, is a rational automorphism of X0(N), so it keeps the
    order of every degree-0 cuspidal class: five seeded random degree-0
    divisors per level 2 <= N < 400, each against its image under w_p for
    every p | N, 3940 pairs."""
    rng = random.Random("atkin-lehner")
    pairs = 0
    for n in range(2, 400):
        ds, w = divisors(n), degree_weights(n)
        for _ in range(5):
            c = [rng.randint(-5, 5) for _ in ds[1:]]
            D = from_dict(n, {**dict(zip(ds[1:], c)), 1: -sum(map(mul, c, w[1:]))})
            order = profile(D).order
            for p in factor(n).primes:
                assert profile(atkin_lehner(D, p)).order == order, (n, D, p)
                pairs += 1
    assert pairs == 3940


def test_eta_certificate():
    C = C_generator(11, 11)
    order, r = eta_certificate(C)
    assert (order, r) == (5, (12, -12))
    lead, _ = eta_qexpansion(11, r, 4)
    assert 24 * lead == sum(rd * d for rd, d in zip(r, divisors(11)))


def _coprime_levels(rng, k):
    while True:
        levels = [rng.randrange(2, 40) for _ in range(k)]
        if all(math.gcd(a, b) == 1 for i, a in enumerate(levels) for b in levels[i + 1:]):
            return levels


def test_tensor_profile_against_direct():
    """tensor_profile on 2 to 4 factors at pairwise coprime levels, among them
    zero vectors (Upsilon image 0, so GCD = 0) and factors of nonzero degree,
    equals profile() of the dense tensor in every field and in the key order
    of Pw, and its V is Upsilon applied to the dense tensor.  Two factors,
    the first of degree 0, also match the reference built from the two
    factor profiles."""
    rng = random.Random(99)
    seen = set()
    for done in range(180):
        vecs = []
        for m in _coprime_levels(rng, 2 + done % 3):
            ds = divisors(m)
            pick = rng.randrange(6)
            vecs.append(C_generator(m, rng.choice(ds[1:])) if pick < 2 else
                        from_dict(m, {}) if pick == 2 else
                        from_dict(m, {d: rng.randrange(-3, 4) for d in ds}))
        got = orderengine.tensor_profile(vecs)
        C = tensor_join(*vecs)
        want = profile(C)
        assert got == want and got.V == upsilon_apply(C.n, C.coeffs), vecs
        assert list(got.pw) == list(want.pw), vecs
        seen.add((len(vecs), got.gcd_value == 0, got.degree != 0))
        if len(vecs) == 2 and vecs[0].degree() == 0:
            ref = tensor_profile(*vecs)
            assert (ref.V, ref.gcd_value, ref.Vbar, ref.h, ref.order) == \
                   (want.V, want.gcd_value, want.Vbar, want.h, want.order), vecs
    assert {(k, z, nd) for k in (2, 3, 4) for z in (False, True)
            for nd in (False, True) if not (z and nd)} <= seen


def test_factor_profile_is_the_profile_at_the_factor_level():
    """The per-factor cache returns the factor's own OrderProfile, h and
    the order included, for base vectors, zero divisors and divisors of
    nonzero degree."""
    rng = random.Random(7)
    for m in (1, 2, 11, 12, 25, 35, 64, 210, 3 ** 5):
        ds = divisors(m)
        for D in (from_dict(m, {}), from_dict(m, {1: 1}),
                  from_dict(m, {d: rng.randrange(-3, 4) for d in ds})):
            assert orderengine._factor_profile(D.n, D.coeffs) == profile(D), (m, D)


def test_tensor_profile_requires_degree_zero():
    with pytest.raises(ValueError):
        tensor_profile(from_dict(3, {1: 1}), from_dict(5, {1: 1}))
    with pytest.raises(ValueError):
        tensor_profile(C_generator(6, 6), C_generator(10, 10))


def test_profile_json():
    obj = profile_to_json(profile(C_generator(11, 11)))
    assert obj == {"V": [12, -12], "gcd": 12, "Vbar": [1, -1],
                   "pw": {"11": -1}, "h": 2, "order": "5"}

import math
import random
from fractions import Fraction

import pytest

from cuspidal import orderengine
from cuspidal.divisors import C_generator, from_dict, tensor_join
from cuspidal.etalinalg import eta_qexpansion
from cuspidal.intarith import divisors, factor, kappa, valuation
from cuspidal.orderengine import eta_certificate, profile, profile_to_json
from references import closed_order_CN, closed_order_Cd, tensor_profile

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


def test_eta_certificate():
    C = C_generator(11, 11)
    order, r = eta_certificate(C)
    assert (order, r) == (5, (12, -12))
    lead, _ = eta_qexpansion(11, r, 4)
    assert 24 * lead == sum(rd * d for rd, d in zip(r, divisors(11)))


def test_tensor_profile_against_direct():
    rng = random.Random(99)
    done = 0
    while done < 60:
        n1, n2 = rng.randrange(2, 40), rng.randrange(2, 40)
        if math.gcd(n1, n2) != 1:
            continue
        C1 = C_generator(n1, rng.choice([d for d in divisors(n1) if d > 1]))
        C2 = from_dict(n2, {rng.choice(divisors(n2)): rng.randrange(-3, 4) or 1})
        tp = tensor_profile(C1, C2)
        direct = profile(tensor_join(C1, C2))
        assert orderengine.tensor_profile((C1, C2)) == direct
        assert tp.V == direct.V
        assert (tp.gcd_value, tp.h, tp.order) == \
               (direct.gcd_value, direct.h, direct.order)
        done += 1


def test_tensor_profile_requires_degree_zero():
    with pytest.raises(ValueError):
        tensor_profile(from_dict(3, {1: 1}), from_dict(5, {1: 1}))
    with pytest.raises(ValueError):
        tensor_profile(C_generator(6, 6), C_generator(10, 10))


def test_profile_json():
    obj = profile_to_json(profile(C_generator(11, 11)))
    assert obj == {"V": [12, -12], "gcd": 12, "Vbar": [1, -1],
                   "pw": {"11": -1}, "h": 2, "order": "5"}

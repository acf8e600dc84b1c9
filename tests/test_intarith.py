import itertools
import math
import random

import pytest
from sympy import factorint, multiplicity, primefactors, totient

from cuspidal.intarith import (FactoredInteger, decimal_str, degree_weights, divisor_exponents,
                               divisor_of, divisor_positions, divisors, exponent_tuple,
                               factor, in_square, in_T_u, kappa, kappa_primes, phi, z_of)
from references import (A_tuple, E_tuple, in_delta, in_E_set, in_F_set, in_F1_set,
                        in_G_set, in_G1_set, in_H_u, radical, tuple_k, tuple_m, tuple_n,
                        unlimited_str)


def test_factor_basic():
    f = factor(360)
    assert f.value == 360
    assert f.factors == ((2, 3), (3, 2), (5, 1))
    assert f.t == 3 and f.u == 1
    assert radical(f) == 30
    assert factor(1).t == 0


def test_factor_matches_sympy():
    for n in range(1, 20001):
        assert factor(n).factors == tuple(sorted(factorint(n).items())), n
    rng = random.Random(3)
    for _ in range(300):
        k = kappa(rng.randrange(1, 10 ** 6 + 1))
        assert factor(k).factors == tuple(sorted(factorint(k).items())), k


def test_factored_integer_rejects_bad_factors():
    with pytest.raises(ValueError):
        FactoredInteger(12, ((2, 2),))
    with pytest.raises(ValueError):
        FactoredInteger(4, ((2, 1), (2, 1)))


def test_divisors_and_phi():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert phi(1) == 1 and phi(12) == 4 and phi(97) == 96


def test_kappa():
    # kappa(N) = (N / rad N) * prod(p^2 - 1); divisible by 24 except small cases
    assert kappa(11) == 120
    assert kappa(4) == 6
    assert kappa(1) == 1
    for n in range(1, 200):
        assert (kappa(n) % 24 == 0) == (n not in (1, 2, 3, 4, 8))


# Primes N with (N - 1)/2 and (N + 1)/12 prime: kappa(N) = N^2 - 1 is 24 times
# those two primes, so trial division on kappa(N) itself runs to (N + 1)/12.
HARD_KAPPA_LEVELS = (10004627, 100027163, 1000010723)


def test_kappa_primes_are_the_primes_of_kappa():
    for n in range(1, 5001):
        assert kappa_primes(n) == factor(kappa(n)).primes, n
    for n in HARD_KAPPA_LEVELS:
        assert factor(n).primes == (n,)
        assert kappa_primes(n) == tuple(primefactors(kappa(n))) == \
            (2, 3, (n + 1) // 12, (n - 1) // 2), n


def test_degree_weights():
    w = degree_weights(36)
    assert len(w) == len(divisors(36))
    assert w[divisors(36).index(6)] == phi(z_of(36, 6)) == phi(6) == 2
    assert degree_weights(1) == (1,)


def test_exponent_tuples():
    N = factor(360)
    assert exponent_tuple(N, 12) == (2, 1, 0)
    assert divisor_of(N, (2, 1, 0)) == 12
    assert in_square((2, 1, 0)) and not in_delta((2, 1, 0))
    assert in_delta((1, 0, 1)) and not in_square((1, 0, 1))


def _brute_divisor_data(n):
    """(divisors, exponent tuples over the primes ascending, positions,
    degree weights) of n from their definitions, through sympy."""
    ds = sorted({e for d in range(1, math.isqrt(n) + 1) if n % d == 0 for e in (d, n // d)})
    primes = sorted(factorint(n))
    return (tuple(ds), tuple(tuple(multiplicity(p, d) for p in primes) for d in ds),
            {d: i for i, d in enumerate(ds)},
            tuple(totient(math.gcd(d, n // d)) for d in ds))


def test_divisor_exponents_match_exponent_tuple():
    """divisor_exponents against exponent_tuple, and the divisor data that
    factor(n) owns against its definitions, on n <= 500 and the ladder, both
    through factor(n) and through a FactoredInteger built by hand."""
    for n in range(1, 3001):
        N = factor(n)
        exps = divisor_exponents(n)
        assert exps == tuple(exponent_tuple(N, d) for d in divisors(n)), n
        assert tuple(divisor_of(N, I) for I in exps) == divisors(n), n
    for n in list(range(1, 501)) + [720, 840, 960, 2310, 5040, 30030, 55440, 720720,
                                    2 ** 20, 3 ** 12]:
        want = _brute_divisor_data(n)
        assert (divisors(n), divisor_exponents(n), divisor_positions(n),
                degree_weights(n)) == want, n
        by_hand = FactoredInteger(n, tuple(sorted(factorint(n).items())))
        assert (by_hand.divisors, by_hand.divisor_exponents, by_hand.divisor_positions,
                by_hand.degree_weights) == want, n


def test_m_n_k():
    # I = (0,1,1,0,1,0): m=2, n=4, k=6
    I = (0, 1, 1, 0, 1, 0)
    assert tuple_m(I) == 2 and tuple_n(I) == 4 and tuple_k(I) == 6
    # run of ones to the end: n = t+1
    assert tuple_n((0, 1, 1)) == 4
    assert in_E_set((0, 1, 1)) and in_E_set((1, 1))
    assert not in_E_set((1, 0, 1))


def test_named_tuples():
    assert A_tuple(2, 4) == (0, 1, 1, 1)
    assert E_tuple(3, 4) == (1, 1, 0, 1)


def test_special_sets():
    # H_u needs n(I) = u and another zero after
    assert in_H_u((1, 0, 1, 0), 2)
    assert not in_H_u((1, 0, 1, 1), 2)  # k = t+1 -> H_u^1 instead
    assert in_F_set(E_tuple(3, 3), 1)   # I_1 = {3..t}
    assert not in_F_set(E_tuple(2, 3), 1)
    assert in_G_set(E_tuple(2, 3), 1)
    assert not in_G_set(E_tuple(2, 3), 2)
    assert not in_F_set((1, 1, 0), 0)   # empty for odd levels


def test_T_u():
    # only for 2-adic exponent >= 5
    assert in_T_u((3, 1), 5, 1)
    assert in_T_u((5, 1), 5, 1)
    assert not in_T_u((2, 1), 5, 1)
    assert not in_T_u((3, 0), 5, 1)
    assert not in_T_u((3, 1), 4, 1)


# The index-set predicates as first written: one E_tuple / E_u_tuple compare
# per candidate position n, kept here as the definitions.
def _E_tuple(k, t):
    return tuple(0 if i == k else 1 for i in range(1, t + 1))


def _E_u_tuple(k, u, t):
    if k == u:
        raise ValueError("need k != u")
    return tuple(0 if i in (k, u) else 1 for i in range(1, t + 1))


def _I_set(u, t):
    if u == 1:
        return tuple(range(3, t + 1))
    return tuple(n for n in range(2, t + 1) if n != u)


def _in_F_set(I, u):
    if u == 0:
        return False
    t = len(I)
    return any(I == _E_tuple(n, t) for n in _I_set(u, t))


def _in_F1_set(I, u):
    if u == 0:
        return False
    t = len(I)
    return any(I == _E_u_tuple(n, u, t) for n in _I_set(u, t) if n != u)


def _in_G_set(I, u):
    return u == 1 and I == _E_tuple(2, len(I))


def _in_G1_set(I, u):
    t = len(I)
    lo = 1 if u == 1 else 2
    return any(I == _E_tuple(n, t) for n in range(lo, t + 1))


def test_index_sets_match_definitions():
    pairs = [(in_F_set, _in_F_set), (in_F1_set, _in_F1_set),
             (in_G_set, _in_G_set), (in_G1_set, _in_G1_set)]
    hits = [0] * len(pairs)
    for t in range(7):
        for I in itertools.product(range(4), repeat=t):
            for u in range(t + 1):
                for k, (fast, slow) in enumerate(pairs):
                    want = slow(I, u)
                    assert fast(I, u) == want, (fast.__name__, I, u)
                    hits[k] += want
    assert all(hits)


def test_decimal_str_matches_str_past_the_digit_limit():
    """decimal_str(n) is str(n) taken with no digit limit, across the split
    at 10^600, at the default limit 4300, and well past it."""
    rng = random.Random(11)
    values = [0, 1, 9, 10, 2 ** 1990, 2 ** 1991]
    for k in (599, 600, 601, 4299, 4300, 4301, 6176, 20000):
        values += [10 ** k - 1, 10 ** k, 10 ** k + 1, rng.randrange(10 ** k),
                   10 ** k * rng.randrange(1, 10 ** 9)]
    assert [decimal_str(n) for n in values] == [unlimited_str(n) for n in values]

import math
from collections import Counter

from cuspidal.cusps import enumerate_cusps, make_cusp, width
from cuspidal.intarith import degree_weights, divisors, phi, valuation, z_of
from references import (cusp_alpha_push as alpha_push,
                        cusp_atkin_lehner as atkin_lehner,
                        cusp_beta_push as beta_push)


def test_cusp_counts():
    for n in [1, 2, 6, 11, 12, 36, 60, 64, 100, 180]:
        cs = enumerate_cusps(n)
        expected = sum(phi(z_of(n, d)) for d in divisors(n))
        assert len(cs) == len(set(cs)) == expected
        levels = Counter(c.d for c in cs)
        assert degree_weights(n) == tuple(levels[d] for d in divisors(n)), n
        assert sum(degree_weights(n)) == len(cs), n


def test_canonical_representatives():
    for n in [12, 36, 90]:
        for c in enumerate_cusps(n):
            assert math.gcd(c.x, c.d) == 1
            assert make_cusp(n, c.d, c.x + 7 * c.z) == c


def test_widths_sum_to_index():
    # sum of widths = [SL2(Z) : Gamma_0(N)] = N prod (1 + 1/p)
    for n in [11, 12, 36, 64, 90]:
        idx = n * math.prod((p + 1) for p in set(
            p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p)))
        ) // math.prod(p for p in range(2, n + 1)
                       if n % p == 0 and all(p % q for q in range(2, p)))
        assert sum(width(c) for c in enumerate_cusps(n)) == idx


def test_normalize_examples():
    # infinity = 1/0 -> <1 : N> of width 1, zero = 0/1 -> <1 : 1> of width N;
    # at a prime level W_N swaps them
    inf, zero = make_cusp(11, 11, 1), make_cusp(11, 1, 1)
    assert make_cusp(11, 11, 0) == inf and make_cusp(11, 1, 12) == zero
    assert (width(inf), width(zero)) == (1, 11)
    assert atkin_lehner(inf, 11) == zero and atkin_lehner(zero, 11) == inf
    assert str(make_cusp(12, 2, 1)) == "1/2@12"


def test_atkin_lehner_involution():
    for n in [12, 36, 64, 90, 200]:
        for p in (2, 3, 5):
            if n % p:
                continue
            for c in enumerate_cusps(n):
                assert atkin_lehner(atkin_lehner(c, p), p) == c


def test_atkin_lehner_permutes_levels():
    n = 48
    for c in enumerate_cusps(n):
        w = atkin_lehner(c, 2)
        assert valuation(w.d, 2) == valuation(n, 2) - valuation(c.d, 2)


def test_degeneracy_pushforwards():
    # alpha/beta land at level N/p and are compatible with the fiber counts
    n, p = 72, 2
    for c in enumerate_cusps(n):
        assert alpha_push(c, p).n == n // p
        assert beta_push(c, p).n == n // p

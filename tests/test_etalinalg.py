import itertools
import math
import random
from fractions import Fraction

import pytest

from cuspidal.divisors import C_generator
from cuspidal.etalinalg import (_lambda24_block, _upsilon_block_entry,
                                eta_divisor, eta_qexpansion, format_qexpansion,
                                lambda24, ligozat_check, upsilon, upsilon_apply)
from cuspidal.intarith import divisors, factor, kappa, phi, z_of
from references import a_entry, upsilon_column_profile

LADDER = (5040, 30030, 55440, 720720, 2 ** 20, 3 ** 12)


def test_a_entries_integral():
    for n in [12, 36, 75, 128]:
        for d in divisors(n):
            for delta in divisors(n):
                assert a_entry(n, d, delta).denominator == 1


def test_lambda24_blocks_match_a_entry():
    # 24 Lambda(p^r) at (p^f, p^g) is p^(max(f, r - f) - |f - g|)
    for p in (2, 3, 5, 7, 11, 13):
        for r in range(1, 9):
            n = p ** r
            assert _lambda24_block(p, r) == [[a_entry(n, p ** f, p ** g) for g in range(r + 1)]
                                             for f in range(r + 1)], (p, r)


def test_lambda24_matches_a_entry():
    # the Kronecker product of the blocks is the dense a_N(d, delta) matrix
    for n in list(range(1, 1001)) + list(LADDER):
        ds = divisors(n)
        assert lambda24(n) == tuple(tuple(a_entry(n, d, delta) for delta in ds)
                                    for d in ds), n


def test_upsilon_small():
    assert upsilon(4) == ((2, -2, 0), (-1, 5, -1), (0, -2, 2))
    assert upsilon(2) == ((2, -1), (-1, 2))


def test_upsilon_lambda_identity():
    for n in range(1, 150):
        U, L = upsilon(n), lambda24(n)
        k = kappa(n)
        m = len(divisors(n))
        for i in range(m):
            for j in range(m):
                assert sum(U[i][a] * L[a][j] for a in range(m)) == (k if i == j else 0)


def _kronecker_upsilon(n):
    """Upsilon(N) as the dense Kronecker product of the per-prime blocks,
    rows and columns sorted by divisor."""
    fs = factor(n).factors
    exps = list(itertools.product(*(range(r + 1) for _, r in fs)))
    order = sorted(range(len(exps)), key=lambda a: math.prod(
        p ** e for (p, _), e in zip(fs, exps[a])))
    return [[math.prod(_upsilon_block_entry(p, r, i, j)
                       for (p, r), i, j in zip(fs, exps[a], exps[b]))
             for b in order] for a in order]


def test_upsilon_apply_matches_kronecker_product():
    rng = random.Random(4)
    for n in list(range(1, 2000)) + list(LADDER):
        U = _kronecker_upsilon(n)
        for _ in range(2):
            x = [rng.randint(-9, 9) for _ in U]
            assert upsilon_apply(n, x) == tuple(
                sum(e * v for e, v in zip(row, x)) for row in U), n


def _lambda24_column(n, delta):
    return [int(a_entry(n, d, delta)) for d in divisors(n)]


def test_upsilon_apply_inverts_lambda():
    # Upsilon * (24 Lambda) = kappa(N) * Id, one column at a time
    for n in (5040, 30030, 55440, 720720):
        ds = divisors(n)
        cols = range(len(ds)) if n < 10 ** 5 else random.Random(n).sample(range(len(ds)), 12)
        for j in cols:
            col = upsilon_apply(n, _lambda24_column(n, ds[j]))
            assert col == tuple(kappa(n) if i == j else 0 for i in range(len(ds))), (n, j)


def test_column_profiles():
    # column sums, weighted sums and gcds have closed forms
    for n in [12, 36, 64, 90, 180]:
        ds = divisors(n)
        primes = list(factor(n).primes)
        for d in ds:
            prof = upsilon_column_profile(n, d)
            z = z_of(n, d)
            assert prof["sum"] == phi(z) * math.prod(p - 1 for p in primes)
            assert prof["delta_weighted"] == (kappa(n) if d == n else 0)
            assert prof["codelta_weighted"] == (kappa(n) if d == 1 else 0)
            rad_z = math.prod(p for p in primes if z % p == 0)
            assert prof["gcd"] == z // max(rad_z, 1)


def test_ligozat():
    # Delta(tau)/Delta(11 tau) is the classic level-11 modular unit
    assert ligozat_check(11, (12, -12)) is True
    assert ligozat_check(11, (1, -1)) is False      # 24-conditions fail
    assert ligozat_check(11, (12, -11)) is False    # weight != 0
    assert ligozat_check(12, (0, 1, 0, 0, -1, 0)) is False  # parity


def test_eta_divisor():
    D = eta_divisor(11, (12, -12))
    assert dict(D.support) == {1: 5, 11: -5}
    assert D.coeffs == tuple(5 * c for c in C_generator(11, 11).coeffs)


def test_qexpansion_discriminant():
    # eta(tau)^24 = q prod (1-q^n)^24 = q - 24q^2 + 252q^3 - 1472q^4 + ...
    lead, series = eta_qexpansion(1, (24,), 6)
    assert lead == 1
    assert series[:5] == [1, -24, 252, -1472, 4830]


def test_qexpansion_leading_exponent():
    for n, r in [(11, (12, -12)), (20, (2, 0, -2, 2, 0, -2))]:
        lead, _ = eta_qexpansion(n, r, 4)
        assert lead == Fraction(sum(rd * d for rd, d in zip(r, divisors(n))), 24)


def _product_qexpansion(n, r, K):
    """prod_d prod_{m >= 1} (1 - q^(dm))^(r_d) mod q^K by definition: multiply
    or divide by one factor (1 - q^e) at a time."""
    series = [1] + [0] * (K - 1)
    for rd, d in zip(r, divisors(n)):
        for e in range(d, K, d):
            for _ in range(abs(rd)):
                if rd > 0:  # times (1 - q^e), top coefficient first
                    for i in range(K - 1, e - 1, -1):
                        series[i] -= series[i - e]
                else:  # over (1 - q^e), i.e. times 1 + q^e + q^(2e) + ...
                    for i in range(e, K):
                        series[i] += series[i - e]
    return series


def test_qexpansion_matches_the_product():
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randrange(1, 200)
        r = [rng.randrange(-6, 7) if rng.random() < 0.5 else 0 for _ in divisors(n)]
        K = rng.randrange(1, 61)
        assert eta_qexpansion(n, r, K)[1] == _product_qexpansion(n, r, K), (n, r, K)


def test_format_qexpansion():
    lead, series = eta_qexpansion(11, (12, -12), 4)
    s = format_qexpansion(lead, series)
    assert s.startswith("q^(-120/24) * (1 ")

"""The ten acceptance properties, one test per criterion."""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy

from cuspidal.cusps import enumerate_cusps
from cuspidal.divisors import (C_generator, alpha_pull, from_dict,
                               orbit_divisor, tensor_join)
from cuspidal.etalinalg import eta_qexpansion, lambda24, ligozat_check, upsilon
from cuspidal.generators import default_level, predicted_order
from cuspidal.intarith import divisors, factor, kappa, valuation
from cuspidal.orderengine import eta_certificate, profile
from cuspidal.structure import compute_group, snf_oracle, verify_certificates
from references import (_g_closed, atkin_lehner, beta_push, closed_order_Cd,
                        cusp_atkin_lehner as w_cusp, hecke, tensor_profile)


def test_criterion_1_mazur_orders():
    start = time.time()
    for p in sympy.primerange(5, 200):
        G = compute_group(p)
        n = Fraction(p - 1, 12).numerator
        assert G.group_order == n
        assert G.invariant_factors == ((n,) if n > 1 else ())
        if n > 1:
            lab, terms, o = G.cyclic_factors[0]
            assert o == n and terms() == [(1, 1), (p, -1)]  # (0) - (infinity)
    assert time.time() - start < 1.0


def test_criterion_2_matrix_identity():
    start = time.time()
    for n in range(1, 501):
        U, L = upsilon(n), lambda24(n)
        k = kappa(n)
        m = len(divisors(n))
        for i in range(m):
            for j in range(m):
                assert sum(U[i][a] * L[a][j] for a in range(m)) == \
                    (k if i == j else 0)
    assert time.time() - start < 30


def test_criterion_3_closed_form_vs_algorithm():
    start = time.time()
    for n in range(2, 301):
        for d in divisors(n):
            if d == 1:
                continue
            g, h, o = closed_order_Cd(n, d)
            pr = profile(C_generator(n, d))
            assert (pr.gcd_value, pr.h, pr.order) == (g, h, o), (n, d)
    assert time.time() - start < 120


def test_criterion_4_level_64_table():
    expected = {1: (2, -3, 4), 2: (2, 3, 4), 3: (4, -6, 1),
                4: (2, 3, 4), 5: (1, -6, 4), 6: (1, 0, 4)}
    for f in range(1, 7):
        pr = profile(C_generator(64, 2 ** f))
        assert (pr.gcd_value, pr.pw[2], pr.order) == expected[f]


def test_criterion_5_prime_power_structure():
    start = time.time()
    for p in (3, 5, 7, 11, 13):
        for r in range(1, 6):
            n = p ** r
            L = default_level(n)
            orders = []
            for f in range(1, r + 1):
                o = predicted_order(L, p ** f, "Z")
                if f == 1:
                    assert o == Fraction(p - 1, 12).numerator
                elif f == 2:
                    assert o == Fraction(p * p - 1, 24).numerator
                else:
                    j = (r - f) // 2 if (r - f) % 2 == 0 else (r + 1 - f) // 2
                    assert o == p ** (r - 1 - j) * (p * p - 1) // 24
                orders.append(o)
            G = compute_group(n)
            assert sorted(o for _, _, o in G.cyclic_factors) == \
                sorted(o for o in orders if o > 1)
            assert G.invariant_factors == snf_oracle(n).invariant_factors
    for r in range(5, 13):
        n = 2 ** r
        L = default_level(n)
        for f in range(3, r + 1):
            j = (r - f) // 2 if (r - f) % 2 == 0 else (r + 1 - f) // 2
            exp = r - 3 - j if f == r + 1 - math.gcd(2, r) else r - 4 - j
            assert predicted_order(L, 2 ** f, "Z") == 2 ** exp
        assert compute_group(n).invariant_factors == \
            snf_oracle(n).invariant_factors
    assert time.time() - start < 120


def test_criterion_6_oracle_equivalence():
    start = time.time()
    larger = [720, 840, 960, 2310, 5040, 30030, 55440]
    larger += [2 ** k for k in range(9, 21)] + [3 ** k for k in range(6, 13)]
    for n in [*range(1, 301), *larger]:
        G = compute_group(n)
        assert G.invariant_factors == snf_oracle(n).invariant_factors, n
        for lab, terms, o in G.cyclic_factors:
            pr = profile(from_dict(n, dict(terms())))
            # the claimed order is the full profile order or its ell-part
            assert pr.order % o == 0 and pr.order >= o, (n, lab)
    assert time.time() - start < 600


def test_criterion_7_certificate_suite():
    for n in range(1, 301):
        rep = verify_certificates(n)
        assert rep.passed, (n, rep.failures()[:3])


def test_criterion_8_eta_certificates():
    rng = random.Random(20240824)
    done = 0
    while done < 500:
        n = rng.randrange(2, 201)
        ds = divisors(n)
        coeffs = {d: rng.randrange(-3, 4) for d in rng.sample(ds, min(len(ds), 3))}
        D = from_dict(n, coeffs)
        coeffs[1] = coeffs.get(1, 0) - D.degree()
        D = from_dict(n, coeffs)
        if not any(D.coeffs):
            continue
        order, r = eta_certificate(D)  # asserts ligozat + eta_divisor == order * D
        assert order == profile(D).order
        assert ligozat_check(n, r)
        lead, _ = eta_qexpansion(n, r, 3)
        assert 24 * lead == sum(rd * d for rd, d in zip(r, ds))
        done += 1


def test_criterion_9_operator_identities():
    for n in range(2, 201):
        for p in factor(n).primes:
            r = valuation(n // p, p)
            for d in divisors(n):
                D = orbit_divisor(n, d)
                lhs = alpha_pull(beta_push(D, p), p)
                rhs = hecke(D, p)
                if r == 0:
                    rhs = rhs + atkin_lehner(D, p)
                assert lhs.coeffs == rhs.coeffs, (n, p, d)
    for n in [36, 64, 90, 150]:
        for p in factor(n).primes:
            for c in enumerate_cusps(n):
                assert w_cusp(w_cusp(c, p), p) == c
    rng = random.Random(77)
    done = 0
    while done < 200:
        n1, n2 = rng.randrange(2, 50), rng.randrange(2, 50)
        if math.gcd(n1, n2) != 1:
            continue
        C1 = C_generator(n1, rng.choice([d for d in divisors(n1) if d > 1]))
        C2 = from_dict(n2, {rng.choice(divisors(n2)): rng.randrange(-3, 4) or 1})
        tp = tensor_profile(C1, C2)
        direct = profile(tensor_join(C1, C2))
        assert tp.V == direct.V and tp.order == direct.order
        done += 1


def test_criterion_10_gcd_lemmas():
    # two odd primes: gcd(pq-1, p^2-1, q^2-1) in closed form
    for p in sympy.primerange(3, 100):
        for q in sympy.primerange(p + 1, 100):
            lhs = math.gcd(p * q - 1, p * p - 1, q * q - 1)
            rhs = math.gcd(p - 1, q - 1) * math.gcd(p + 1, q + 1)
            same = (valuation(p - 1, 2) == valuation(q - 1, 2)
                    and valuation(p + 1, 2) == valuation(q + 1, 2))
            assert lhs == (rhs if same else rhs // 2), (p, q)
    # t >= 3 squarefree: 2 * g(N) divides (p_i + 1) prod_{j != i} (p_j - 1)
    for n in range(2, 3000):
        fn = factor(n)
        if fn.t < 3 or any(r > 1 for r in fn.exponents):
            continue
        g = _g_closed(n)
        for p in fn.primes:
            s = (p + 1) * math.prod(q - 1 for q in fn.primes if q != p)
            assert s % (2 * g) == 0, (n, p)

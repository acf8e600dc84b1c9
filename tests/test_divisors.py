import math
import random

import pytest

from cuspidal import cusps as cuspmod
from cuspidal.divisors import (C_generator, CuspDivisor, alpha_pull, beta_pull,
                               from_dict, orbit_divisor, pi1_pull, pi12_pull,
                               pi12_pull_div_p, pi2_pull, tensor_join)
from cuspidal.intarith import divisors, phi, valuation, z_of
from references import (alpha_push, atkin_lehner, beta_push, cusp_alpha_push,
                        cusp_beta_push, hecke)


def test_divisor_arithmetic():
    D = from_dict(12, {1: 2, 6: -1})
    E = from_dict(12, {6: 1})
    assert dict((D + E).support) == {1: 2}
    assert dict((D - E).support) == {1: 2, 6: -2}
    assert dict((3 * D).support) == {1: 6, 6: -3}
    assert str(D) == "2*(1),-1*(6)"
    with pytest.raises(ValueError):
        from_dict(12, {5: 1})


def test_degrees():
    # deg (P_d) = phi(gcd(d, N/d)); C_d has degree 0
    for n in [12, 36, 360]:
        for d in divisors(n):
            assert orbit_divisor(n, d).degree() == phi(z_of(n, d))
            if d > 1:
                assert C_generator(n, d).degree() == 0


def test_pushforward_matches_pointwise_action():
    # the basis formulas agree with pushing every cusp of the orbit
    for n, p in [(36, 2), (36, 3), (48, 2), (90, 3)]:
        for d in divisors(n):
            for op_div, op_cusp in ((alpha_push, cusp_alpha_push),
                                    (beta_push, cusp_beta_push)):
                image = op_div(orbit_divisor(n, d), p)
                counts = {}
                for c in cuspmod.enumerate_cusps(n):
                    if c.d != d:
                        continue
                    counts[op_cusp(c, p).d] = counts.get(op_cusp(c, p).d, 0) + 1
                # each level-d' orbit downstairs is hit uniformly
                expected = {}
                for dd, cnt in counts.items():
                    orbit_size = phi(z_of(n // p, dd))
                    assert cnt % orbit_size == 0
                    expected[dd] = cnt // orbit_size
                assert dict(image.support) == expected


def test_atkin_lehner_involution_on_basis():
    for n, p in [(48, 2), (90, 3), (200, 5)]:
        for d in divisors(n):
            D = orbit_divisor(n, d)
            assert atkin_lehner(atkin_lehner(D, p), p).coeffs == D.coeffs


def test_pullback_degrees():
    # pulling back multiplies the degree by deg(map) = p (or p+1 when p is new)
    for n, p in [(36, 2), (25, 5), (11, 3)]:
        r = valuation(n, p)
        factor = p if r >= 1 else p + 1
        for d in divisors(n):
            D = orbit_divisor(n, d)
            assert alpha_pull(D, p).degree() == factor * D.degree()
            assert beta_pull(D, p).degree() == factor * D.degree()


def test_composition_lemma():
    # alpha^* o beta_* = T_p + w_p at val_p = 1, and T_p at val_p >= 2
    for n in range(2, 151):
        for p in (2, 3, 5, 7, 11, 13):
            if n % p:
                continue
            r = valuation(n // p, p)
            for d in divisors(n):
                D = orbit_divisor(n, d)
                lhs = alpha_pull(beta_push(D, p), p)
                rhs = hecke(D, p)
                if r == 0:
                    rhs = rhs + atkin_lehner(D, p)
                assert lhs.coeffs == rhs.coeffs


def test_pi12_divisible():
    for n, p in [(3, 3), (12, 2), (45, 3)]:
        for d in divisors(n):
            D = pi12_pull_div_p(orbit_divisor(n, d), p)
            assert p * D.coeffs[0] == pi12_pull(orbit_divisor(n, d), p).coeffs[0]


def test_pi1_on_P1():
    # pi_1(p^r, 1)^* (P_1) = sum_k p^{max(r-2k,0)} (P_{p^k})
    for p in (2, 3, 5):
        for r in range(1, 6):
            D = pi1_pull(orbit_divisor(1, 1), p, r)
            assert D.coeffs == tuple(p ** max(r - 2 * k, 0) for k in range(r + 1))


def _dict_tensor(*vecs):
    """The tensor product by definition: sum over one divisor per factor."""
    out = {1: 1}
    for v in vecs:
        nxt = {}
        for d1, c1 in out.items():
            for d2, c2 in v.support:
                nxt[d1 * d2] = nxt.get(d1 * d2, 0) + c1 * c2
        out = nxt
    return from_dict(math.prod(v.n for v in vecs), out)


def test_tensor_join_matches_dict_product():
    rng = random.Random(11)
    groups = [(1, 12), (4, 9), (8, 3, 25), (1, 7, 16, 9), (2, 3, 5, 7),
              (27, 4, 1, 11), (32, 5, 49)]
    for levels in groups:
        for _ in range(8):
            vecs = [CuspDivisor(m, tuple(rng.randrange(-4, 5) for _ in divisors(m)))
                    for m in levels]
            rng.shuffle(vecs)
            got = tensor_join(*vecs)
            assert got.n == math.prod(levels)
            assert got.coeffs == _dict_tensor(*vecs).coeffs
    unit = CuspDivisor(1, (1,))
    assert tensor_join() == unit
    v = C_generator(36, 6)
    assert tensor_join(unit, v) == tensor_join(v, unit) == v
    for levels in [(4, 6), (2, 3, 9), (5, 7, 11, 35), (3, 3)]:
        with pytest.raises(ValueError):
            tensor_join(*(orbit_divisor(m, 1) for m in levels))


def test_support_is_the_nonzero_coefficients_ascending():
    """support holds the nonzero (d, c) in ascending d, and caching it
    leaves equality and the hash as they were."""
    rng = random.Random(5)
    for m in (1, 2, 12, 36, 720, 2 ** 7, 3 * 5 * 7 * 11, 2 ** 4 * 3 ** 2 * 5 * 7):
        for _ in range(10):
            D = CuspDivisor(m, tuple(rng.choice((0, 0, 0, 1, -2, 5)) for _ in divisors(m)))
            want = [(d, c) for d, c in zip(divisors(m), D.coeffs) if c]
            assert list(D.support) == want
            E = CuspDivisor(m, D.coeffs)
            assert D == E and hash(D) == hash(E)
            # built from its terms, the divisor equals and hashes as the dense one
            F = from_dict(m, {**dict.fromkeys(divisors(m)[::3], 0), **dict(want)})
            assert F == D and hash(F) == hash(D)
            assert F.support == D.support and F.coeffs == D.coeffs and repr(F) == repr(D)
            assert from_dict(m, dict(want)) != CuspDivisor(m, tuple(c + 1 for c in D.coeffs))


def test_from_dict_rejects_non_divisors():
    assert from_dict(12, {12: 3, 1: -1}).coeffs == (-1, 0, 0, 0, 0, 3)
    for d in (5, 24, 36, 13, 0, -12):
        with pytest.raises(ValueError, match="does not divide 12"):
            from_dict(12, {1: 1, d: 1})

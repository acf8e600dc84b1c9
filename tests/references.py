"""Test-only references: operators, closed forms and dense formulas that
the package's main path does not call.  The tests check the package against
them: the Hecke and Atkin-Lehner compatibilities of the degeneracy maps, the
closed-form orders of the C_d and the tensor profiles against profile, the
entries a_N(d, delta) of 24 * Lambda(N) against lambda24, and the
tensor-local snf_oracle against its dense premise rows."""

import math
from fractions import Fraction
from operator import mul

from cuspidal.cusps import Cusp, make_cusp
from cuspidal.divisors import C_generator, CuspDivisor, _map_basis, _p_parts
from cuspidal.intarith import (FactoredInteger, divisors, factor,
                               kappa, valuation, z_of)
from cuspidal.etalinalg import _unit, ligozat_weights, upsilon_apply
from cuspidal.orderengine import OrderProfile, profile
from cuspidal.structure import invariant_factors_of_quotient


def radical(fn: FactoredInteger) -> int:
    """The product of the distinct primes of fn."""
    return math.prod(fn.primes) if fn.factors else 1


# ---------------------------------------------------------------------------
# Pushforwards, Atkin-Lehner and Hecke on the (P_d) basis
# ---------------------------------------------------------------------------

def zero_divisor(n) -> CuspDivisor:
    n = factor(n).value
    return CuspDivisor(n, (0,) * len(divisors(n)))


def alpha_push(D: CuspDivisor, p: int) -> CuspDivisor:
    """(alpha_p)_* : S2(Np) -> S2(N)."""
    n = D.n // p
    r = valuation(n, p)

    def rule(d):
        dp, f = _p_parts(d, p)
        if 2 * f <= r:
            return [(dp * p ** f, 1)]
        if f <= r - 1:
            return [(dp * p ** f, p)]
        if f == r:
            return [(dp * p ** r, p - 1)]
        return [(dp * p ** r, 1)]

    return _map_basis(D, n, rule)


def beta_push(D: CuspDivisor, p: int) -> CuspDivisor:
    """(beta_p)_* : S2(Np) -> S2(N)."""
    n = D.n // p
    r = valuation(n, p)

    def rule(d):
        dp, f = _p_parts(d, p)
        if f == 0:
            return [(dp, 1)]
        if f == 1 and r >= 1:
            return [(dp, p - 1)]
        if 2 * f < r + 2:
            return [(dp * p ** (f - 1), p)]
        return [(dp * p ** (f - 1), 1)]

    return _map_basis(D, n, rule)


def atkin_lehner(D: CuspDivisor, p: int) -> CuspDivisor:
    """w_p on S2(N): swaps the p-exponent f <-> r - f."""
    r = valuation(D.n, p)
    if r == 0:
        raise ValueError("p must divide the level")

    def rule(d):
        dp, f = _p_parts(d, p)
        return [(dp * p ** (r - f), 1)]

    return _map_basis(D, D.n, rule)


def hecke(D: CuspDivisor, p: int) -> CuspDivisor:
    """T_p on S2(N) (p prime; (p+1)-scaling when p does not divide N)."""
    r = valuation(D.n, p)
    if r == 0:
        return (p + 1) * D

    def rule(d):
        dp, f = _p_parts(d, p)
        if f == 0:
            return [(dp, p)]
        if f == r == 1:
            return [(dp, p - 1), (dp * p, 1)]
        if f == r:
            return [(dp * p ** (r - 1), 1), (dp * p ** r, 1)]
        if f == 1 and r >= 2:
            return [(dp, p * (p - 1))]
        if 2 * f <= r:
            return [(dp * p ** (f - 1), p * p)]
        if 2 * f == r + 1:
            return [(dp * p ** (f - 1), p)]
        return [(dp * p ** (f - 1), 1)]

    return _map_basis(D, D.n, rule)


# ---------------------------------------------------------------------------
# Degeneracy maps and Atkin-Lehner on single cusps
# ---------------------------------------------------------------------------

def cusp_alpha_push(c: Cusp, p: int) -> Cusp:
    """Pushforward along alpha_p : X0(Np) -> X0(N) (the identity map on tau)."""
    if c.n % p != 0:
        raise ValueError("p must divide the level")
    n = c.n // p
    r = valuation(n, p)
    f = valuation(c.d, p)
    if f <= r:
        return make_cusp(n, c.d, c.x)
    return make_cusp(n, c.d // p, p * c.x)


def cusp_beta_push(c: Cusp, p: int) -> Cusp:
    """Pushforward along beta_p : X0(Np) -> X0(N) (tau -> p*tau)."""
    if c.n % p != 0:
        raise ValueError("p must divide the level")
    n = c.n // p
    f = valuation(c.d, p)
    if f == 0:
        return make_cusp(n, c.d, p * c.x)
    return make_cusp(n, c.d // p, c.x)


def cusp_atkin_lehner(c: Cusp, p: int) -> Cusp:
    """The partial Atkin-Lehner involution w_p on cusps of X0(N), p | N."""
    n = c.n
    if n % p != 0:
        raise ValueError("p must divide the level")
    r = valuation(n, p)
    f = valuation(c.d, p)
    dp = c.d // p ** f
    d_new = dp * p ** (r - f)
    z_m = z_of(n // p ** r, dp)  # prime-to-p part of the new modulus
    z_p = p ** min(f, r - f)     # p-part (symmetric in f <-> r-f)
    # x_new = x mod z_m and -x mod z_p (CRT); pow(., -1, 1) is 0.
    x_new = c.x - 2 * c.x * z_m * pow(z_m, -1, z_p)
    return make_cusp(n, d_new, x_new)


# ---------------------------------------------------------------------------
# Tensor profiles and the closed forms for C_N and C_d
# ---------------------------------------------------------------------------

def tensor_profile(C1: CuspDivisor, C2: CuspDivisor) -> OrderProfile:
    """Profile of C1 (x) C2 from the two factor profiles (deg C1 = 0)."""
    if math.gcd(C1.n, C2.n) != 1:
        raise ValueError("levels must be coprime")
    if C1.degree() != 0:
        raise ValueError("the first factor must have degree 0")
    p1, p2 = profile(C1), profile(C2)
    n = C1.n * C2.n
    ds, ds1, ds2 = divisors(n), divisors(C1.n), divisors(C2.n)
    idx = {d1 * d2: (i, j) for i, d1 in enumerate(ds1) for j, d2 in enumerate(ds2)}
    V = tuple(p1.V[idx[d][0]] * p2.V[idx[d][1]] for d in ds)
    g = p1.gcd_value * p2.gcd_value
    if g == 0:
        return OrderProfile(n, V, 0, None, {}, 1, 1, 0)
    vbar = tuple(p1.Vbar[idx[d][0]] * p2.Vbar[idx[d][1]] for d in ds)
    s2 = sum(p2.Vbar)
    pw = {p: p1.pw[p] * s2 for p in factor(C1.n).primes}
    pw.update({p: 0 for p in factor(C2.n).primes})
    h = 2 if any(v % 2 for v in pw.values()) else 1
    deg = C1.degree() * C2.degree()
    order = Fraction(kappa(n) * h, 24 * g).numerator if deg == 0 else None
    return OrderProfile(n, V, g, vbar, pw, h, order, deg)


def _g_closed(n: int) -> int:
    """Closed form for GCD(C_N); 0 for n = 1 by convention (gcd identity)."""
    if n == 1:
        return 0
    fn = factor(n)
    exps = sorted(fn.exponents, reverse=True)
    if exps[0] == 1:  # squarefree
        t = fn.t
        g = n + (-1) ** (t - 1)
        for p in fn.primes:
            g = math.gcd(g, p * p - 1)
        return g
    if exps[0] == 2 and (len(exps) == 1 or exps[1] == 1):  # M * p^2, M squarefree
        p = next(p for p, r in fn.factors if r == 2)
        m = n // (p * p)
        return math.gcd(p, _g_closed(m)) if m > 1 else p
    return 1


def _h_closed(n: int) -> int:
    """Closed form for the factor h of C_N."""
    fn = factor(n)
    ps, rs = fn.primes, fn.exponents
    if fn.t == 1:
        p, r = fn.factors[0]
        if r == 1:
            return 2
        if p == 2 and r % 2 == 1:
            return 2
        return 1
    if fn.t == 2:
        if rs == (1, 1) and 2 not in ps:
            p, q = ps
            if (valuation(p - 1, 2) == valuation(q - 1, 2)
                    and valuation(p + 1, 2) == valuation(q + 1, 2)):
                return 2
            return 1
        if ps[0] == 2 and rs[0] == 2 and rs[1] == 1 and ps[1] % 4 == 1:
            return 2
    return 1


def _n_closed(n: int) -> int:
    """Closed form for the order of C_N."""
    fn = factor(n)
    exps = sorted(fn.exponents, reverse=True)
    k = kappa(n)
    if fn.t == 1:
        p, r = fn.factors[0]
        if r == 1:
            return (p - 1) // math.gcd(12, p - 1)
        if r == 2:
            return (p * p - 1) // math.gcd(24, p * p - 1)
        if p == 2 and r % 2 == 1:
            return 2 ** (r - 3)
        return Fraction(k, 24).numerator
    if exps[0] == 1:  # squarefree, t >= 2
        if fn.t == 2:
            p, q = fn.primes
            if p == 2:
                return (q * q - 1) // (8 * math.gcd(3, q + 1))
            return ((p * p - 1) * (q * q - 1)
                    // (12 * math.gcd(p - 1, q - 1) * math.gcd(p + 1, q + 1)))
        return Fraction(k, 24 * _g_closed(n)).numerator
    if exps[0] == 2 and (len(exps) == 1 or exps[1] == 1):  # M * p^2, M squarefree
        p = next(p for p, r in fn.factors if r == 2)
        m = n // (p * p)
        if p != 2 and _g_closed(m) % p == 0 and m > 1:
            return Fraction(k, 24 * p).numerator
        if p == 2:
            mf = factor(m)
            if not (mf.t == 1 and mf.exponents == (1,) and m % 4 == 1):
                return Fraction(k, 48).numerator
        return Fraction(k, 24).numerator
    return Fraction(k, 24).numerator


def closed_order_CN(n: int):
    """(g, h, order) of C_N = phi(1)*(P_1) - (P_N) by the closed-form theorems."""
    if n == 1:
        return (0, 1, 1)
    return (_g_closed(n), _h_closed(n), _n_closed(n))


def closed_order_Cd(n: int, d: int):
    """(g, h, order) of C_d at level N by the closed-form case split."""
    if d == 1 or n % d:
        raise ValueError("need a divisor 1 < d of N")
    if d == n:
        return closed_order_CN(n)
    z = math.gcd(d, n // d)
    fz = factor(z)
    if z == 1:
        g = _g_closed(d)
    elif fz.t == 1 and fz.exponents == (1,) and valuation(d, fz.primes[0]) == 1:
        p = fz.primes[0]
        g = math.gcd(p, _g_closed(d // p)) if d // p > 1 else p
    else:
        g = z // radical(fz)
    h = 1
    fn, fd = factor(n), factor(d)
    r2 = valuation(n, 2)
    if fn.t == 1 and fn.primes == (2,) and r2 >= 2:
        f = valuation(d, 2)
        if d == 2 or f % 2 == 0:
            h = 2
    elif (fn.t == 2 and r2 >= 2 and fn.value == 2 ** r2 * fd.primes[-1]
          and fd.t == 2 and fd.value == 2 * fd.primes[-1] and fd.primes[-1] % 4 == 1):
        h = 2
    elif d % 2 == 1 and n == 2 ** r2 * d and r2 >= 1:
        if fd.t == 1 and fd.exponents == (1,):
            h = 2
        elif fd.t == 2 and fd.exponents == (1, 1):
            p, q = fd.primes
            if (valuation(p - 1, 2) == valuation(q - 1, 2)
                    and valuation(p + 1, 2) == valuation(q + 1, 2)):
                h = 2
    order = Fraction(kappa(n) * h, 24 * g).numerator if g else 1
    return (g, h, order)


# ---------------------------------------------------------------------------
# Dense entries of 24 * Lambda(N) and the columns of Upsilon(N)
# ---------------------------------------------------------------------------

def a_entry(n: int, d: int, delta: int):
    """a_N(d, delta) = (N/z) * gcd(d, delta)^2 / (d * delta); 24 * Lambda entry.
    An int when it is integral, else a Fraction."""
    g = math.gcd(d, delta)
    num, den = n * g * g, z_of(n, d) * d * delta
    return num // den if num % den == 0 else Fraction(num, den)


def upsilon_column_profile(n: int, d: int) -> dict:
    """The column identities: plain/delta-weighted/(N/delta)-weighted sums and
    the gcd of the entries."""
    ds = divisors(n)
    col = upsilon_apply(n, _unit(n, d))
    return {
        "sum": sum(col),
        "delta_weighted": sum(c * delta for c, delta in zip(col, ds)),
        "codelta_weighted": sum(c * (n // delta) for c, delta in zip(col, ds)),
        "gcd": math.gcd(*col) if len(col) > 1 else abs(col[0]),
    }


# ---------------------------------------------------------------------------
# The dense oracle: its premise rows and their local Smith forms
# ---------------------------------------------------------------------------

def premise_vectors(n: int) -> dict:
    """{d: r_d} for d > 1, r_d = 24 * Upsilon(N) * C_d, built densely."""
    return {d: [24 * x for x in upsilon_apply(n, C_generator(n, d).coeffs)]
            for d in divisors(n)[1:]}


def dense_premise_rows(n: int) -> dict:
    """{d: (24 r_d | w . r_d)} for d > 1 over every Ligozat weight w of N,
    the weights d and N/d included: m = sigma0(N) + t + 2 columns."""
    weights = ligozat_weights(n)
    return {d: [24 * x for x in r] + [sum(map(mul, w, r)) for w in weights]
            for d, r in premise_vectors(n).items()}


def dense_oracle_invariants(n: int) -> tuple:
    """The invariant factors of C(N) as the subgroup of (Z/24 kappa)^m that
    the dense premise rows span, from the elimination of
    invariant_factors_of_quotient."""
    rows = list(dense_premise_rows(n).values())
    m, ncols = 24 * kappa(n), len(divisors(n)) + len(ligozat_weights(n))
    quotient = invariant_factors_of_quotient(rows, ncols, m)
    s = (1,) * (ncols - len(quotient)) + quotient
    return tuple(m // x for x in reversed(s) if x < m)

"""The order of a degree-0 rational cuspidal divisor class in J0(N).

The profile of C collects V = Upsilon * Phi(C), the gcd of its entries, the
normalized vector Vbar, the parity sums Pw_p over divisors with odd
p-valuation, the factor h in {1, 2}, and the exact order
numerator(kappa(N) * h / (24 * GCD)).  Closed-form evaluations for the
standard generators C_N and C_d are provided alongside for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .divisors import CuspDivisor
from .etalinalg import eta_divisor, ligozat_check, upsilon_apply
from .intarith import divisors, factor, kappa, odd_valuation_positions, valuation


@dataclass(frozen=True)
class OrderProfile:
    n: int
    V: tuple
    gcd_value: int
    Vbar: tuple | None
    pw: dict
    h: int
    order: int | None
    degree: int


def profile(C: CuspDivisor) -> OrderProfile:
    n = C.n
    V = upsilon_apply(n, C.coeffs)
    deg = C.degree()
    g = math.gcd(*V) if len(V) > 1 else abs(V[0])
    if g == 0:
        return OrderProfile(n, V, 0, None, {}, 1, 1 if deg == 0 else None, deg)
    vbar = tuple(v // g for v in V)
    pw = {p: sum(vbar[i] for i in odd) for p, odd in odd_valuation_positions(n)}
    h = 2 if any(v % 2 for v in pw.values()) else 1
    order = None
    if deg == 0:
        order = Fraction(kappa(n) * h, 24 * g).numerator
    return OrderProfile(n, V, g, vbar, pw, h, order, deg)


def eta_certificate(C: CuspDivisor) -> tuple:
    """The exponent vector r with div(g_r) = n * C, n the order of C."""
    prof = profile(C)
    if prof.degree != 0:
        raise ValueError("eta certificates require degree 0")
    n_order = prof.order
    k = kappa(C.n)
    r = []
    for v in prof.V:
        e = Fraction(24 * n_order * v, k)
        if e.denominator != 1:
            raise ArithmeticError("certificate exponents must be integral")
        r.append(int(e))
    r = tuple(r)
    if not ligozat_check(C.n, r)["pass"]:
        raise ArithmeticError(f"the eta quotient {r} fails the Ligozat conditions")
    if eta_divisor(C.n, r) != n_order * C:
        raise ArithmeticError(f"the eta quotient {r} does not have divisor {n_order} * C")
    return r


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


def profile_to_json(prof: OrderProfile) -> dict:
    return {
        "V": list(prof.V),
        "gcd": prof.gcd_value,
        "Vbar": list(prof.Vbar) if prof.Vbar is not None else None,
        "pw": {str(p): v for p, v in prof.pw.items()},
        "h": prof.h,
        "order": str(prof.order) if prof.order is not None else None,
    }


# ---------------------------------------------------------------------------
# Closed forms for C_N and C_d
# ---------------------------------------------------------------------------

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
        g = z // fz.radical()
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

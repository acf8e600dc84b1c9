"""Eta-quotient linear algebra: the vanishing-order matrix Lambda(N), its
integral companion Upsilon(N) with Upsilon * Lambda = (kappa(N)/24) * Id,
Ligozat's modularity conditions, and exact q-expansions from the integer
recurrence that log eta gives.

Matrix convention: rows are indexed by the output divisor, columns by the
input divisor, both ascending.  Lambda maps eta exponent vectors (S1) to
divisor coefficient vectors (S2); Upsilon maps the other way.

Upsilon(N) is the Kronecker product of one tridiagonal (r+1) x (r+1) block
per prime power p^r || N.  upsilon_apply uses that structure and applies
the blocks prime by prime, so the dense sigma0(N)^2 matrix is never built on
the profile path; upsilon(N) materialises it from upsilon_apply for the
callers that want the entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .divisors import CuspDivisor
from .intarith import (as_factored, divisor_exponents, divisor_positions,
                       divisors, odd_valuation_positions, z_of)


def a_entry(n: int, d: int, delta: int):
    """a_N(d, delta) = (N/z) * gcd(d, delta)^2 / (d * delta); 24 * Lambda entry.
    An int when it is integral, else a Fraction."""
    g = math.gcd(d, delta)
    num, den = n * g * g, z_of(n, d) * d * delta
    return num // den if num % den == 0 else Fraction(num, den)


@lru_cache(maxsize=None)
def lambda24(n: int) -> tuple:
    """24 * Lambda(N) as an integer matrix (rows d, columns delta)."""
    ds = divisors(n)
    rows = []
    for d in ds:
        row = []
        for delta in ds:
            e = a_entry(n, d, delta)
            if e.denominator != 1:
                raise ArithmeticError(f"24 * Lambda({n}) has a non-integral entry at ({d}, {delta})")
            row.append(int(e))
        rows.append(tuple(row))
    return tuple(rows)


def _upsilon_block_entry(p: int, r: int, i: int, j: int) -> int:
    """Entry (row i, col j) of the tridiagonal block for p^r (0 <= i, j <= r)."""
    m = min(j, r - j)
    if i == j:
        return p if j in (0, r) else p ** (m - 1) * (p * p + 1)
    if abs(i - j) == 1:
        return -(p ** m)
    return 0


@lru_cache(maxsize=None)
def _upsilon_axes(n: int) -> tuple:
    """One tuple of rows per prime power p^r || N, one row per divisor d:
    (a, i, b, j, c, k) with i, j, k the positions of d, d/p, d*p and a, b, c
    the entries (f, f), (f, f-1), (f, f+1) of the p-block, f = v_p(d).  At the
    ends of the block j or k is i with a zero coefficient."""
    ds, exps = divisors(n), divisor_exponents(n)
    pos = divisor_positions(n)
    axes = []
    for slot, (p, r) in enumerate(as_factored(n).factors):
        rows = []
        for i, (d, I) in enumerate(zip(ds, exps)):
            f = I[slot]
            b, j = (_upsilon_block_entry(p, r, f, f - 1), pos[d // p]) if f else (0, i)
            c, k = (_upsilon_block_entry(p, r, f, f + 1), pos[d * p]) if f < r else (0, i)
            rows.append((_upsilon_block_entry(p, r, f, f), i, b, j, c, k))
        axes.append(tuple(rows))
    return tuple(axes)


def upsilon_apply(n: int, vec) -> tuple:
    """Upsilon(N) times a coefficient vector over divisors of N, one prime
    power (tensor mode) at a time: O(sigma0(N) * t) operations."""
    x = vec
    for rows in _upsilon_axes(n):
        x = [a * x[i] + b * x[j] + c * x[k] for a, i, b, j, c, k in rows]
    return tuple(x)


def _unit(n: int, d: int) -> tuple:
    """The coefficient vector of the single divisor d of N."""
    j = divisor_positions(n)[d]
    return tuple(int(i == j) for i in range(len(divisors(n))))


@lru_cache(maxsize=None)
def upsilon(n: int) -> tuple:
    """Upsilon(N) as a matrix: rows delta (S1 index), columns d (S2 index),
    column d being upsilon_apply(N, e_d)."""
    return tuple(zip(*(upsilon_apply(n, _unit(n, d)) for d in divisors(n))))


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
# Ligozat conditions and eta divisors
# ---------------------------------------------------------------------------

def ligozat_check(n: int, r) -> dict:
    """Conditions for prod eta(delta tau)^{r_delta} to be a modular unit on
    X0(N); returns a per-condition report with an overall 'pass' flag."""
    ds = divisors(n)
    if len(r) != len(ds):
        raise ValueError(f"need {len(ds)} exponents at level {n}, not {len(r)}")
    integral = all(int(x) == x for x in r)
    report = {"integral": integral}
    if integral:
        r = [int(x) for x in r]
        report["weight0"] = sum(r) == 0
        report["delta_sum_24"] = sum(rd * d for rd, d in zip(r, ds)) % 24 == 0
        report["codelta_sum_24"] = sum(rd * (n // d) for rd, d in zip(r, ds)) % 24 == 0
        report["product_square"] = all(sum(r[i] for i in odd) % 2 == 0
                                       for _, odd in odd_valuation_positions(n))
    report["pass"] = all(report.values())
    return report


def eta_divisor(n: int, r) -> CuspDivisor:
    """div(g_r) = Lambda(N) * r as a divisor supported on the (P_d); the
    coefficients are exact rationals (integers for genuine modular units)."""
    coeffs = []
    for row in lambda24(n):
        s = sum(map(mul, row, r))
        coeffs.append(s // 24 if s % 24 == 0 else Fraction(s, 24))
    return CuspDivisor(n, tuple(coeffs))


# ---------------------------------------------------------------------------
# q-expansions
# ---------------------------------------------------------------------------

def eta_qexpansion(n: int, r, K: int = 20):
    """The formal expansion of prod eta(delta tau)^{r_delta}: returns
    (leading exponent as a Fraction with denominator dividing 24,
     list of the first K integer series coefficients).

    log prod (1 - q^m) = -sum sigma(m) q^m / m, so the series g satisfies
    k g[k] = sum_{j=1..k} b[j] g[k-j] with b[k] = -sum_{delta | k} r_delta
    delta sigma(k / delta): one exact O(K^2) pass."""
    ds = divisors(n)
    if len(r) != len(ds):
        raise ValueError(f"need {len(ds)} exponents at level {n}, not {len(r)}")
    lead = Fraction(sum(rd * d for rd, d in zip(r, ds)), 24)
    sigma = [0] * K
    for i in range(1, K):
        for j in range(i, K, i):
            sigma[j] += i
    b = [0] * K
    for rd, d in zip(r, ds):
        for m in range(1, (K - 1) // d + 1):
            b[d * m] -= rd * d * sigma[m]
    g = [1]
    for k in range(1, K):
        total = sum(map(mul, b[1:k + 1], reversed(g)))
        if total % k:
            raise ArithmeticError(f"q-expansion coefficient {k} of {r} is not integral")
        g.append(total // k)
    return lead, g


def format_qexpansion(lead: Fraction, series) -> str:
    terms = []
    for i, c in enumerate(series):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            q = "q" if i == 1 else f"q^{i}"
            terms.append(f"{'+' if c > 0 and terms else ''}{c} {q}".strip())
    body = " ".join(terms) if terms else "0"
    e24 = Fraction(lead * 24)
    return f"q^({e24.numerator}/24) * ({body})"

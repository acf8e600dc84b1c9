"""Eta-quotient linear algebra: the vanishing-order matrix Lambda(N), its
integral companion Upsilon(N) with Upsilon * Lambda = (kappa(N)/24) * Id,
Ligozat's modularity conditions, and exact q-expansions from the integer
recurrence that log eta gives.

Matrix convention: rows are indexed by the output divisor, columns by the
input divisor, both ascending.  Lambda maps eta exponent vectors (S1) to
divisor coefficient vectors (S2); Upsilon maps the other way.

Both matrices are Kronecker products of one (r+1) x (r+1) block per prime
power p^r || N.  lambda24 builds row d of 24 Lambda as the tensor_join of
the block rows at v_p(d), so only divisors.py knows the Kronecker layout.
The blocks of Upsilon are tridiagonal: upsilon_apply applies them prime by
prime, so the dense sigma0(N)^2 matrix is never built on the profile path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .divisors import CuspDivisor, tensor_join
from .intarith import CACHE_SIZE, divisor_exponents, divisor_positions, divisors, factor

QEXP_COEFF_BOUND = 10 ** 4300  # the least integer with more than 4300 decimal digits


def _lambda24_block(p: int, r: int) -> list:
    """24 * Lambda(p^r): entry (f, g) is p^(max(f, r - f) - |f - g|), whose
    exponent is never negative."""
    return [[p ** (max(f, r - f) - abs(f - g)) for g in range(r + 1)] for f in range(r + 1)]


@lru_cache(maxsize=CACHE_SIZE)
def lambda24(n: int) -> tuple:
    """24 * Lambda(N) as an integer matrix (rows d, columns delta): row d is
    the tensor_join of the rows v_p(d) of the blocks 24 * Lambda(p^r),
    p^r || N."""
    blocks = [[CuspDivisor(p ** r, tuple(row)) for row in _lambda24_block(p, r)]
              for p, r in factor(n).factors]
    return tuple(tensor_join(*(rows[f] for rows, f in zip(blocks, I))).coeffs
                 for I in divisor_exponents(n))


def _upsilon_block_entry(p: int, r: int, i: int, j: int) -> int:
    """Entry (row i, col j) of the tridiagonal block for p^r (0 <= i, j <= r)."""
    m = min(j, r - j)
    if i == j:
        return p if j in (0, r) else p ** (m - 1) * (p * p + 1)
    if abs(i - j) == 1:
        return -(p ** m)
    return 0


@lru_cache(maxsize=CACHE_SIZE)
def _upsilon_axes(n: int) -> tuple:
    """One tuple of rows per prime power p^r || N, one row per divisor d, in
    the order of divisors(N): (a, b, j, c, k) with j, k the positions of d/p
    and d*p and a, b, c the entries (f, f), (f, f-1), (f, f+1) of the
    p-block, f = v_p(d); a multiplies the entry at d itself.  At the ends of
    the block j or k is the position of d with a zero coefficient."""
    ds, exps = divisors(n), divisor_exponents(n)
    pos = divisor_positions(n)
    axes = []
    for slot, (p, r) in enumerate(factor(n).factors):
        rows = []
        for i, (d, I) in enumerate(zip(ds, exps)):
            f = I[slot]
            b, j = (_upsilon_block_entry(p, r, f, f - 1), pos[d // p]) if f else (0, i)
            c, k = (_upsilon_block_entry(p, r, f, f + 1), pos[d * p]) if f < r else (0, i)
            rows.append((_upsilon_block_entry(p, r, f, f), b, j, c, k))
        axes.append(tuple(rows))
    return tuple(axes)


def upsilon_apply(n: int, vec) -> tuple:
    """Upsilon(N) times a coefficient vector over divisors of N, one prime
    power (tensor mode) at a time: O(sigma0(N) * t) operations."""
    x = vec
    for rows in _upsilon_axes(n):
        x = [a * xi + b * x[j] + c * x[k] for xi, (a, b, j, c, k) in zip(x, rows)]
    return tuple(x)


def _unit(n: int, d: int) -> tuple:
    """The coefficient vector of the single divisor d of N."""
    j = divisor_positions(n)[d]
    return tuple(int(i == j) for i in range(len(divisors(n))))


# Only the tests and the benchmark tracer (perfbench/spans.py) call upsilon.
@lru_cache(maxsize=CACHE_SIZE)
def upsilon(n: int) -> tuple:
    """Upsilon(N) as a matrix: rows delta (S1 index), columns d (S2 index),
    column d being upsilon_apply(N, e_d)."""
    return tuple(zip(*(upsilon_apply(n, _unit(n, d)) for d in divisors(n))))


# ---------------------------------------------------------------------------
# Ligozat conditions and eta divisors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def ligozat_weights(n: int) -> tuple:
    """Ligozat's weights over the divisors d of N, ascending: d, N/d, and
    12 * [v_p(d) odd] for each prime p | N, primes ascending."""
    ds, exps = divisors(n), divisor_exponents(n)
    odd = tuple(tuple(12 * (I[j] % 2) for I in exps) for j in range(factor(n).t))
    return (ds, tuple(n // d for d in ds)) + odd


def ligozat_check(n: int, r) -> bool:
    """Ligozat's conditions for prod eta(delta tau)^{r_delta} to be a modular
    unit on X0(N): r is integral of weight 0 and every weighted sum of r is
    0 mod 24."""
    weights = ligozat_weights(n)
    if len(r) != len(weights[0]):
        raise ValueError(f"need {len(weights[0])} exponents at level {n}, not {len(r)}")
    return (all(int(x) == x for x in r) and sum(r) == 0
            and all(sum(map(mul, w, r)) % 24 == 0 for w in weights))


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

def eta_qexpansion(n: int, r, K: int):
    """The formal expansion of prod eta(delta tau)^{r_delta}: returns
    (leading exponent as a Fraction with denominator dividing 24,
     list of the first K integer series coefficients).

    log prod (1 - q^m) = -sum sigma(m) q^m / m, so the series g satisfies
    k g[k] = sum_{j=1..k} b[j] g[k-j] with b[k] = -sum_{delta | k} r_delta
    delta sigma(k / delta): one exact O(K^2) pass, stopped by ValueError at
    a coefficient of more than 4300 digits, past str()'s default limit."""
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
        if abs(g[k]) >= QEXP_COEFF_BOUND:
            raise ValueError(f"q-expansion coefficient {k} has more than 4300 digits")
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

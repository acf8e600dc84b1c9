"""The Smith-normal-form lattice oracle for C(N), independent of the generators.

snf_oracle reads C(N) off the vectors r_d = 24 * Upsilon * C_d, d > 1: by
Ligozat's conditions kappa(N) kills C(N), and C(N) is the subgroup of
(Z/24 kappa)^m, m = sigma0(N) + t, spanned by the rows (24 r_d | w . r_d),
w a parity weight.  No r_d is built: each block p^r || N of Upsilon is
diagonalized once (_local_block), the Ligozat sums come from Upsilon^T w
block by block (_ligozat_sums), and the rows, a diagonal plus t + 1 shared
columns, are eliminated modulo each ell^v || 24 kappa(N)
(_bordered_exponents), in O(sigma0(N) * t^2) per valuation level, and
_invariants merges the ell-power orders each one gives.

The module imports divisors, etalinalg and intarith, and nothing of Yoo's
generators, so that agreeing with compute_group is a check on them.
structure imports AbelianGroupStructure and _invariants from here.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .divisors import kron
from .etalinalg import _upsilon_block_entry, ligozat_weights
from .intarith import CACHE_SIZE, degree_weights, factor, kappa, kappa_primes, valuation


class AbelianGroupStructure(NamedTuple):
    n: int
    cyclic_factors: tuple  # (label, callable for the terms or None, order > 1)
    ell_primary: dict      # ell -> tuple of ell-power orders, descending
    invariant_factors: tuple  # ascending divisibility chain
    group_order: int
    orderings: dict        # ell -> tuple of primes


def _invariants(prim: dict, order: int, n=None):
    """(ell-primary table, each ell descending; invariant factors, ascending)
    of the cyclic groups in prim = {ell: [ell-power orders]}, and the one
    check of both routes: ArithmeticError naming n unless they multiply to order."""
    prim = {ell: tuple(sorted(v, reverse=True)) for ell, v in prim.items() if v}
    depth = max(map(len, prim.values()), default=0)
    invs = tuple(sorted(math.prod(v[i] for v in prim.values() if len(v) > i)
                        for i in range(depth)))
    if math.prod(invs) != order:
        raise ArithmeticError(f"the invariant factors {list(invs)} do not multiply to {order}: "
                              f"an order at N={n} has a prime factor outside {sorted(prim)}")
    return prim, invs


# ---------------------------------------------------------------------------
# The SNF lattice oracle
# ---------------------------------------------------------------------------

class _LocalBlock(NamedTuple):
    """The oracle's data for one block p^r || N, over the divisors p^f,
    f = 0..r: P * Upsilon(p^r) * Q = diag(diag) with P and Q unimodular,
    gamma = Q^T delta for delta the degree weights, omega = P^-T applied to 1
    and to the parity weight 12 [f odd], and adjoint = Upsilon(p^r)^T applied
    to 1, to the weights p^f and p^(r-f), and to the parity weight."""
    divisors: tuple
    degree: tuple
    diag: tuple
    gamma: tuple
    omega: tuple
    adjoint: tuple


def _transpose_apply(M, w) -> tuple:
    """M^T w for a matrix M given by its rows."""
    return tuple(sum(map(mul, col, w)) for col in zip(*M))


def _matmul(X, Y) -> list:
    return [[sum(map(mul, row, col)) for col in zip(*Y)] for row in X]


def _diagonalize(A):
    """(P, P^-1, Q, D) with P A Q = diag(D), P and Q unimodular, for a square
    integer matrix A: the entry of least absolute value moves to (k, k) and
    Euclid on its row and column repeats until both are clear."""
    n = len(A)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    A, P, Pinv, Q = ([list(row) for row in M] for M in (A, unit, unit, unit))
    for k in range(n):
        while nz := [(abs(A[i][j]), i, j) for i in range(k, n) for j in range(k, n) if A[i][j]]:
            _, i, j = min(nz)
            A[k], A[i], P[k], P[i] = A[i], A[k], P[i], P[k]
            for M, a, b in ((Pinv, k, i), (A, k, j), (Q, k, j)):
                for row in M:
                    row[a], row[b] = row[b], row[a]
            for i in range(k + 1, n):
                # row i -= c * row k, so P^-1 gains c * its column i in column k
                c = A[i][k] // A[k][k]
                A[i] = [x - c * y for x, y in zip(A[i], A[k])]
                P[i] = [x - c * y for x, y in zip(P[i], P[k])]
                for row in Pinv:
                    row[k] += c * row[i]
            for j in range(k + 1, n):
                c = A[k][j] // A[k][k]
                for row in A + Q:
                    row[j] -= c * row[k]
            if not any(A[k][k + 1:]) and not any(row[k] for row in A[k + 1:]):
                break
    return P, Pinv, Q, tuple(A[k][k] for k in range(n))


@lru_cache(maxsize=CACHE_SIZE)
def _local_block(p: int, r: int) -> _LocalBlock:
    """The _LocalBlock of p^r, shared by every level and every prime ell;
    ArithmeticError unless P * Upsilon(p^r) * Q = diag(D) and P * P^-1 = Id
    hold exactly."""
    U = [[_upsilon_block_entry(p, r, i, j) for j in range(r + 1)] for i in range(r + 1)]
    P, Pinv, Q, D = _diagonalize(U)
    unit = [[int(i == j) for j in range(r + 1)] for i in range(r + 1)]
    if (_matmul(_matmul(P, U), Q) != [[x * y for y in row] for x, row in zip(D, unit)]
            or _matmul(P, Pinv) != unit):
        raise ArithmeticError(f"the diagonalization of Upsilon({p}^{r}) does not hold")
    ones = (1,) * (r + 1)
    div, codiv, odd = ligozat_weights(p ** r)
    deg = degree_weights(p ** r)
    return _LocalBlock(div, deg, D, _transpose_apply(Q, deg),
                       (_transpose_apply(Pinv, ones), _transpose_apply(Pinv, odd)),
                       tuple(_transpose_apply(U, w) for w in (ones, div, codiv, odd)))


def _ligozat_sums(blocks) -> tuple:
    """(ds, sums): the divisors d > 1 of N in tensor order (the Kronecker
    order of the blocks, primes ascending), and for w = 1 and then each
    Ligozat weight of N the sums w . r_d over them, r_d = 24 Upsilon C_d.
    Each w is a pure tensor: 1, d or N/d in every block, or 12 [v_p(d) odd]
    in the block of p and 1 in the others.  So through the adjoint
    w . r_d = 24 (phi(gcd(d, N/d)) (Upsilon^T w)_1 - (Upsilon^T w)_d) with
    Upsilon^T w the tensor of the Upsilon(p^r)^T w_p: O(sigma0(N)) per w.
    The factor 24 makes every Ligozat sum 0 mod 24; the weight-0 sums, which
    must vanish, are the ones with content."""
    deg = kron(b.degree for b in blocks)[1:]
    t = len(blocks)
    picks = [(c,) * t for c in range(3)] + [tuple(3 * (i == k) for i in range(t))
                                            for k in range(t)]
    sums = []
    for pick in picks:
        u = kron(b.adjoint[c] for b, c in zip(blocks, pick))
        sums.append([24 * (f * u[0] - x) for f, x in zip(deg, u[1:])])
    return kron(b.divisors for b in blocks)[1:], sums


def _bordered_exponents(diag, B, ell: int, v: int) -> list:
    """The ell-valuations e < v of the pivots of the rows [diag | B] over
    Z/ell^v, ascending: row i has diag[i] in a column of its own and B[i] in
    columns that all rows share.  Each round takes the least valuation e
    left, read off a gcd.  It closes every row whose diagonal entry has
    valuation e by column operations, then pivots on the B entries of
    valuation e: a pivot clears its column from the other rows, and its
    row's own column takes the freed B slot.  A round costs
    O(len(diag) * len(B[i])^2)."""
    q = ell ** v
    rows = [(a % q, [x % q for x in b]) for a, b in zip(diag, B)]
    exps = []
    while (g := math.gcd(q, *(a for a, _ in rows), *(x for _, b in rows for x in b))) < q:
        e, m = valuation(g, ell), g * ell
        rest = []
        for a, b in rows:
            if a % m:
                exps.append(e)
            elif a or any(b):
                rest.append((a, b))
        rows = rest
        while hit := next(((i, c) for i, (_, b) in enumerate(rows)
                           for c, x in enumerate(b) if x % m), None):
            i, c = hit
            a0, b0 = rows.pop(i)
            inv = pow(b0[c] // g, -1, q)
            for a, b in rows:
                # b[c] / b0[c], defined mod q / g, times b0, a multiple of g
                if f := b[c] // g * inv % q:
                    b[:] = [(x - f * y) % q for x, y in zip(b, b0)]
                    b[c] = -f * a0 % q
            exps.append(e)
    return exps


def snf_oracle(n: int) -> AbelianGroupStructure:
    """C(N) = S2(N)^0 / Lambda(N) * U_N from r_d = 24 * Upsilon * C_d, d > 1,
    one prime of 24 kappa(N) at a time; independent of the generators.

    Upsilon * 24 Lambda = kappa * Id, so Lambda r_d = kappa C_d and the
    r_d / kappa span Lambda^-1(S2(N)^0).  Each r_d must meet Ligozat's
    conditions (else ArithmeticError; _ligozat_sums): then kappa kills C(N)
    and sum r_d = 0.  So c over d > 1 is a relation iff x = sum c_d r_d / kappa
    lies in U_N: x is integral iff sum c_d r_d = 0 mod kappa, has weight 0,
    and meets the congruence of each Ligozat weight w iff
    sum c_d (w . r_d) = 0 mod 24 kappa.  C(N) is thus the subgroup of
    (Z/24 kappa)^m spanned by the rows (24 r_d | w . r_d).

    Two of those columns are zero mod 24 kappa.  The weight (delta) is row N
    of 24 Lambda, so (delta) . r_d = (24 Lambda * 24 Upsilon * C_d)_N =
    24 kappa (C_d)_N; the weight (N/delta) is row 1, likewise.  The rows keep
    the t parity weights 12 [v_p(delta) odd] only: m = sigma0(N) + t.

    In transformed coordinates the rows are a diagonal cut by t + 1 columns.
    Upsilon, the C_d and every weight are tensors over the blocks p^r || N,
    and P_p Upsilon(p^r) Q_p = D_p (_local_block).  As x runs over the
    degree-0 lattice, that the C_d span, y = Q^-1 x runs over ker gamma,
    gamma = (x)Q_p^T delta_p; after the column operation (x)P_p^T on the
    first sigma0 columns the row of x is (576 D y | 24 omega_k . D y), with
    D = (x)D_p and omega_k = (x)P_p^-T w_{k,p} for the parity weights w_k.
    For ell^v || 24 kappa, some gamma_i0 is a unit mod ell (gamma is
    primitive, as delta_1 = 1), and e_j - (gamma_j / gamma_i0) e_i0, j != i0,
    is a basis of ker gamma over Z_(ell).  Its rows are 576 D_j in column j
    plus the column i0 and the t parity columns, which _bordered_exponents
    eliminates: each pivot of valuation e < v gives a cyclic factor
    ell^(v - e) of C(N), and the factors at each ell go to _invariants."""
    blocks = [_local_block(p, r) for p, r in factor(n).factors]
    ds, sums = _ligozat_sums(blocks)
    bad = [d for d, s0, *s in zip(ds, *sums) if s0 or any(x % 24 for x in s)]
    if bad:
        raise ArithmeticError(f"24 * Upsilon(C_{min(bad)}) is not an eta unit at N={n}, "
                              "so kappa(N) need not kill C(N)")
    D, gamma = kron(b.diag for b in blocks), kron(b.gamma for b in blocks)
    omega = [kron(b.omega[i == k] for i, b in enumerate(blocks))
             for k in range(len(blocks))]
    prim, k24 = {}, 24 * kappa(n)
    for ell in sorted({2, 3, *kappa_primes(n)}):  # the primes of 24 kappa(N)
        v = valuation(k24, ell)
        q = ell ** v
        i0 = next(i for i, g in enumerate(gamma) if g % ell)
        g0, d0, w0 = pow(gamma[i0], -1, q), D[i0], [w[i0] for w in omega]
        diag, B = [], []
        for j, (dj, gj) in enumerate(zip(D, gamma)):
            if j != i0:
                c = gj * g0 * d0 % q  # (gamma_j / gamma_i0) D_i0
                diag.append(576 * dj)
                B.append([-576 * c] + [24 * (w[j] * dj - c * x) for w, x in zip(omega, w0)])
        prim[ell] = [ell ** (v - e) for e in _bordered_exponents(diag, B, ell, v)]
    prim, invs = _invariants(prim, math.prod(map(math.prod, prim.values())), n)
    return AbelianGroupStructure(n, (), prim, invs, math.prod(invs), {})

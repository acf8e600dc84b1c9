"""Assembly of the rational cuspidal divisor class group C(N).

Two independent routes are implemented and cross-checked:

* compute_group: the canonical decomposition into cyclic pieces generated by
  Z(d) (non-squarefree d) and Y2(d) (squarefree d, per target prime ell), with
  closed-form orders; and
* snf_oracle: C(N) = S2(N)^0 / Lambda(N) * U_N computed from the vectors
  r_d = 24 * Upsilon * C_d, d > 1, knowing nothing about the generators.
  Ligozat's conditions on each r_d show that kappa(N) kills C(N); as the
  r_d / kappa span Lambda^-1(S2(N)^0), C(N) is the subgroup of
  (Z/24 kappa)^m, m = sigma0(N) + t, that the rows (24 r_d | w . r_d),
  w a parity weight, generate.  No r_d is built: Upsilon, the C_d and the
  weights are tensors over the blocks p^r || N.  Each block is diagonalized
  once per (p, r), the Ligozat sums come from Upsilon^T w block by block,
  and in the transformed coordinates the rows are a diagonal plus t + 1
  shared columns.  Its ell-part for each prime ell | 24 kappa(N) is read
  off an elimination of those rows modulo a power of ell, in
  O(sigma0(N) * t^2) per valuation level.  invariant_factors_of_quotient,
  the dense elimination, stays as the tests' reference.

The generators come from one walk, _blocks(N), over Yoo's table: one block
per prime ordering (the Z block on the default level, then B(p, r, 1) when
N = p^r, else one Y2 block per relevant ell), each with rows (d, I, label,
closed-form order) in ascending d, I the exponent tuple of d in the block's
prime ordering read off divisor_exponents(N), and two functools.cache
callables, vector(d) and profile(d), so each generator is built and
profiled at most once per walk; Y2 blocks of equal orderings share the
table and the two callables.  A generator is a tensor of prime-power base
vectors and at most one two-prime D vector, and profile(d) is the tensor of
their images under Upsilon (orderengine.tensor_profile): it builds no
vector and never applies Upsilon at N.  compute_group keeps the rows of
order > 1 (of ell-part > 1 for Y2) and builds only their vectors;
verify_certificates re-sorts each block by the rank of I in
divisor_orderings, which depends only on the shape (exponents, u) of the
block's level, profiles each generator and re-runs the split-off
hypotheses (unipotence of the normalized-profile matrices, the h and
parity side conditions) on the concrete level N.
crosscheck hands one walk to both, so each generator is built and profiled
at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from operator import mul
from typing import Callable, NamedTuple

from .divisors import C_generator, divisor_to_json, kron, pi1_pull, pi2_pull
from .etalinalg import _upsilon_block_entry, ligozat_weights
from .intarith import (E_tuple, degree_weights, divisor_exponents, divisor_of,
                       divisor_positions, divisors, factor, in_square, kappa,
                       valuation)
from .generators import (OrderedLevel, _case, default_level, divisor_orderings,
                         generator_factors, generator_order, generator_vector,
                         in_T_u, order_primes)
from .orderengine import profile, tensor_profile


# ---------------------------------------------------------------------------
# The local Smith normal form
# ---------------------------------------------------------------------------

# Only the tests and the benchmark tracer (perfbench/spans.py) call
# invariant_factors_of_quotient and _local_exponents: the dense reference
# for snf_oracle.
def _local_exponents(rows, ncols: int, ell: int, v: int) -> list:
    """The exponents e <= v of Z^ncols / (<rows> + ell^v Z^ncols), one per
    column, from an elimination over Z/ell^v.  Each pivot has the least
    ell-valuation e left: once no entry is a unit, every entry is divided by
    ell and e goes up by one.  A column that no row reaches gets v."""
    q = ell ** v
    A = [r for r in ([x % q for x in row] for row in rows) if any(r)]
    exps, e = [], 0
    while A:
        for i, row in enumerate(A):
            j = next((j for j, x in enumerate(row) if x % ell), None)
            if j is not None:
                break
        else:
            q //= ell
            e += 1
            A = [r for r in ([x // ell for x in row] for row in A) if any(r)]
            continue
        prow = A.pop(i)
        inv = pow(prow[j], -1, q)
        del prow[j]
        rest = []
        for row in A:
            # clear column j with the pivot row, then drop the column
            c = row.pop(j) * inv % q
            if c:
                row = [(a - c * b) % q for a, b in zip(row, prow)]
                if not any(row):
                    continue
            rest.append(row)
        A = rest
        exps.append(e)
    return exps + [v] * (ncols - len(exps))


def invariant_factors_of_quotient(rows, ncols: int, modulus: int):
    """Invariant factors (> 1, ascending divisibility) of
    Z^ncols / (<rows> + modulus * Z^ncols), for any rows and modulus >= 1.

    For each prime ell^v || modulus the ell-part is read off an elimination
    over Z/ell^v, where entries stay below ell^v (Cohen, GTM 138, section
    2.4, on normal forms modulo a multiple of the index).  When modulus kills
    Z^ncols / <rows> this is that group."""
    local = [ell ** e for ell, v in factor(modulus).factors
             for e in _local_exponents(rows, ncols, ell, v) if e]
    _, invs = _merge_invariants(local)
    if math.prod(invs) != math.prod(local):
        raise ArithmeticError(f"invariant factors {invs} do not multiply to the "
                              f"order {math.prod(local)} of the local parts")
    return invs


# ---------------------------------------------------------------------------
# Group structure containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianGroupStructure:
    n: int
    cyclic_factors: tuple  # (label, CuspDivisor or None, order > 1)
    ell_primary: dict      # ell -> tuple of ell-power orders, descending
    invariant_factors: tuple  # ascending divisibility chain
    group_order: int
    orderings: dict = field(default_factory=dict)  # ell -> tuple of primes


def _merge_invariants(orders):
    """ell-primary table and invariant factors from a list of cyclic orders."""
    prim = {}
    for o in orders:
        for p, e in factor(o).factors:
            prim.setdefault(p, []).append(p ** e)
    prim = {p: tuple(sorted(v, reverse=True)) for p, v in prim.items()}
    depth = max((len(v) for v in prim.values()), default=0)
    invs = []
    for i in range(depth):
        invs.append(math.prod(v[i] for v in prim.values() if len(v) > i))
    return prim, tuple(sorted(invs))


def cuspidal_equals_rational(n: int) -> bool:
    """True when the full cuspidal group is known to coincide with C(N):
    N = 4M or 8M with M odd squarefree."""
    for q in (4, 8):
        if n % q == 0:
            m = n // q
            fm = factor(m)
            if m % 2 == 1 and all(r == 1 for r in fm.exponents):
                return True
    return False


# ---------------------------------------------------------------------------
# The SNF lattice oracle
# ---------------------------------------------------------------------------

# Only the tests and the benchmark tracer (perfbench/spans.py) call eta_unit_lattice.
def eta_unit_lattice(n: int):
    """A basis of U_N: exponent vectors of rational modular units on X0(N).

    Start from the weight-0 basis e_1 - e_d, d > 1, and cut it down by one
    Ligozat congruence at a time, all modulo 24: sum r_d w_d for each of
    the weights w of ligozat_weights(N).  Euclid on the residues leaves one
    vector with a nonzero residue c; scaling it by 24 / gcd(c, 24) spans the
    sublattice where the congruence holds."""
    m = len(divisors(n))
    basis = [[1] + [-(j == i) for j in range(1, m)] for i in range(1, m)]
    for w in ligozat_weights(n):
        res = [sum(map(mul, w, b)) % 24 for b in basis]
        while len(nz := [i for i, c in enumerate(res) if c]) > 1:
            i = min(nz, key=res.__getitem__)
            for j in nz:
                if j != i:
                    q = res[j] // res[i]
                    basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
                    res[j] -= q * res[i]
        for i in nz:
            basis[i] = [24 // math.gcd(res[i], 24) * a for a in basis[i]]
    return tuple(map(tuple, basis))


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


@lru_cache(maxsize=None)
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
    ell^(v - e) of C(N)."""
    blocks = [_local_block(p, r) for p, r in factor(n).factors]
    ds, sums = _ligozat_sums(blocks)
    bad = [d for d, s0, *s in zip(ds, *sums) if s0 or any(x % 24 for x in s)]
    if bad:
        raise ArithmeticError(f"24 * Upsilon(C_{min(bad)}) is not an eta unit at N={n}, "
                              "so kappa(N) need not kill C(N)")
    D, gamma = kron(b.diag for b in blocks), kron(b.gamma for b in blocks)
    omega = [kron(b.omega[i == k] for i, b in enumerate(blocks))
             for k in range(len(blocks))]
    local = []
    for ell, v in factor(24 * kappa(n)).factors:
        q = ell ** v
        i0 = next(i for i, g in enumerate(gamma) if g % ell)
        g0, d0, w0 = pow(gamma[i0], -1, q), D[i0], [w[i0] for w in omega]
        diag, B = [], []
        for j, (dj, gj) in enumerate(zip(D, gamma)):
            if j != i0:
                c = gj * g0 * d0 % q  # (gamma_j / gamma_i0) D_i0
                diag.append(576 * dj)
                B.append([-576 * c] + [24 * (w[j] * dj - c * x) for w, x in zip(omega, w0)])
        local += [ell ** (v - e) for e in _bordered_exponents(diag, B, ell, v)]
    prim, invs = _merge_invariants(local)
    if math.prod(invs) != math.prod(local):
        raise ArithmeticError(f"invariant factors {invs} do not multiply to the "
                              f"order {math.prod(local)} of the local parts")
    return AbelianGroupStructure(n, (), prim, invs, math.prod(invs))


# ---------------------------------------------------------------------------
# The canonical decomposition: one table of generators
# ---------------------------------------------------------------------------

class _Block(NamedTuple):
    """The generators of one prime ordering: rows (d, I, label, closed-form
    order) in ascending d, I the exponent tuple of d in the prime order of
    level.  kind is "Z" for the non-squarefree block, "B" for B(p, r, 1) at
    N = p^r and "Y2" for the squarefree block of the target prime level.ell.
    vector(d) and profile(d), from _memo, are the generator at d and its
    profile, each made at most once per walk; profile(d) is read off the
    generator's tensor factors, without vector(d)."""
    kind: str
    level: OrderedLevel
    rows: tuple
    vector: Callable
    profile: Callable


def _memo(L: OrderedLevel, Is: dict, kind: str):
    """The cached pair vector(d), the generator of kind at the exponent tuple
    Is[d] of L, and profile(d), its profile from the Upsilon images of its
    tensor factors at their own levels, which never builds vector(d)."""
    return (cache(lambda d: generator_vector(L, Is[d], kind)),
            cache(lambda d: tensor_profile(generator_factors(L, Is[d], kind))))


def _relevant_ells(n: int):
    return tuple(sorted(set(factor(kappa(n)).primes) | {2}))


def _blocks(n: int):
    """Yoo's table for C(N): the Z block on the default level, then B(p, r, 1)
    when N = p^r, else one Y2 block per relevant ell on order_primes(N, ell).
    One builder makes every block from its level and the exponent tuples of
    its divisors, read off divisor_exponents(N) in the block's prime
    ordering: the B block is the Z generator at the tuple (1,).  Y2 blocks
    with equal (factors, s) share rows, vector and profile.  Orders of 1 are
    kept; vectors are built only on request."""
    fn = factor(n)
    if fn.t == 0:
        return
    L0 = default_level(n)
    nsf, sf = {}, {}
    for d, I in zip(divisors(n)[1:], divisor_exponents(n)[1:]):
        (nsf if in_square(I) else sf)[d] = I

    def block(kind, L, Is, label):
        gen = "Y2" if kind == "Y2" else "Z"
        rows = tuple((d, I, label(d, I), generator_order(L, I, gen)) for d, I in Is.items())
        return _Block(kind, L, rows, *_memo(L, Is, gen))

    if fn.t == 1:
        (p, r), = fn.factors
        label = lambda d, I: (f"B2({r},{I[0]})" if in_T_u(I, r, L0.u)
                              else f"B({p},{r},{I[0]})")
        yield block("Z", L0, nsf, label)
        yield block("B", L0, {p: (1,)}, label)
        return
    yield block("Z", L0, nsf, lambda d, I: f"Z({d})")
    tables = {}  # (factors, s) -> the first Y2 block of that ordering
    for ell in _relevant_ells(n):
        L = order_primes(n, ell)
        key = (L.base.factors, L.s)
        if key not in tables:
            perm = [fn.primes.index(q) for q in L.base.primes]
            tables[key] = block("Y2", L, {d: tuple(I[k] for k in perm) for d, I in sf.items()},
                                lambda d, I: f"Y2({d})")
        yield tables[key]._replace(level=L)


def compute_group(n, blocks=None) -> AbelianGroupStructure:
    """The decomposition of C(N) into explicit cyclic factors: one per row of
    the table of order > 1, each Y2 row taken with the ell-part of its order,
    and the prime ordering of each ell with such a row.  blocks, if given, is
    a walk of _blocks(N) whose vectors are shared with the caller."""
    factors, orderings = [], {}
    for blk in _blocks(n) if blocks is None else blocks:
        ell = blk.level.ell if blk.kind == "Y2" else None
        for d, _, label, order in blk.rows:
            if ell:
                order = ell ** valuation(order, ell)
            if order > 1:
                factors.append((label, blk.vector(d), order))
                if ell:
                    orderings[ell] = blk.level.base.primes
    orders = [o for _, _, o in factors]
    prim, invs = _merge_invariants(orders)
    return AbelianGroupStructure(n, tuple(factors), prim, invs, math.prod(orders),
                                 orderings)


def group_to_json(G: AbelianGroupStructure) -> dict:
    return {
        "N": G.n,
        "ordering": [{"ell": ell, "primes": list(ps)}
                     for ell, ps in sorted(G.orderings.items())],
        "generators": [
            {"label": lab,
             "divisor": divisor_to_json(vec),
             "order": str(o)}
            for lab, vec, o in G.cyclic_factors],
        "ell_primary": {str(ell): [str(o) for o in v] for ell, v in sorted(G.ell_primary.items())},
        "invariant_factors": [str(d) for d in G.invariant_factors],
        "group_order": str(G.group_order),
        "cuspidal_equals_rational_flag": cuspidal_equals_rational(G.n),
    }


# ---------------------------------------------------------------------------
# Runtime verification of the split-off criteria
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    n: int
    steps: list = field(default_factory=list)

    def record(self, criterion: str, detail: str, ok: bool):
        self.steps.append({"criterion": criterion, "detail": detail, "pass": ok})

    @property
    def passed(self) -> bool:
        return all(s["pass"] for s in self.steps)

    def failures(self):
        return [s for s in self.steps if not s["pass"]]


def _tri_rows(n, deltas, profs):
    """Vbar(C) of each profile read at delta_1, delta_2, ... (zeros if V = 0)."""
    col = divisor_positions(n)
    cols = [col[delta] for delta in deltas]
    return [[p.Vbar[c] for c in cols] if p.Vbar else [0] * len(cols) for p in profs]


def _check_unipotent(rep, n, rows, deltas, profs, label, modulus=None):
    """Lower-triangular unipotence of the matrix (Vbar(C_i)_{delta_j}) over
    the rows in prec order: diagonal a unit (mod modulus if given, else
    absolute value 1) and exact zeros to the right."""
    for i, ((d, *_), row) in enumerate(zip(rows, _tri_rows(n, deltas, profs))):
        ok = abs(row[i]) == 1 if modulus is None else row[i] % modulus != 0
        rep.record(label, f"diagonal at d={d}, delta={deltas[i]}", ok)
        rep.record(label, f"zero tail at d={d}", not any(row[i + 1:]))


def verify_certificates(n, blocks=None) -> CertificateReport:
    """Re-check every block of the table on N: closed-form orders against the
    profiles, and unipotence or the ell = 2 split conditions in the divisor
    orderings of the block's shape.  blocks, if given, is a walk of
    _blocks(N) whose vectors and profiles are shared with the caller."""
    rep = CertificateReport(n)
    if n == 1:
        rep.record("trivial", "N=1", True)
        return rep
    for blk in _blocks(n) if blocks is None else blocks:
        if blk.kind == "B":
            (d, _, _, order), = blk.rows
            rep.record("order/Z", f"d={d}", blk.profile(d).order == order)
            continue
        if not blk.rows:
            continue
        L = blk.level
        prec, tri = divisor_orderings(L.base.exponents, L.u)
        rank = {I: i for i, I in enumerate(prec)}
        rows = sorted(blk.rows, key=lambda row: rank[row[1]])
        # the rows are one stretch of prec (Delta for Y2, the rest for Z),
        # and the deltas from its first rank on are the columns
        deltas = [divisor_of(L.base, J) for J in tri[rank[rows[0][1]]:]]
        profs = [blk.profile(d) for d, *_ in rows]
        if blk.kind == "Z":
            # (a) the Z1 vectors are unipotent in absolute value; Z1 is Z
            # outside the exceptional 2-power set T_u.
            profs1 = [tensor_profile(generator_factors(L, I, "Z1"))
                      if in_T_u(I, L.r_u, L.u) else pz
                      for (_, I, _, _), pz in zip(rows, profs)]
            _check_unipotent(rep, n, rows, deltas, profs1, "nsf-unipotence")
            for (d, _, _, order), pz in zip(rows, profs):
                rep.record("order/Z", f"d={d}", pz.order == order)
            continue
        # (b)+(c) the squarefree block of the target prime ell
        ell = L.ell
        for (d, _, _, order), py in zip(rows, profs):
            rep.record(f"order/Y2/ell={ell}", f"d={d}", py.order == order)
        if ell % 2:
            _check_unipotent(rep, n, rows, deltas, profs,
                             f"sf-unipotence/ell={ell}", modulus=ell)
        else:
            _ell2_split_conditions(rep, L, rows, deltas, profs)
    # (d) 2-power relations through the genus-zero level 16
    r2 = valuation(n, 2)
    if n == 2 ** r2 and r2 >= 5:
        c16 = C_generator(16, 16)
        for tag, D in (("pi1", pi1_pull(c16, 2, r2 - 4)),
                       ("pi2", pi2_pull(c16, 2, r2 - 4))):
            rep.record("level16-relation", f"{tag} pullback to 2^{r2}",
                       profile(D).order == 1)
    return rep


def _ell2_split_conditions(rep, L, rows, deltas, profs):
    """Independence certificate for ell = 2: every squarefree generator after the first either
    has h = 1 with an odd anchor entry and zeros above it in its column, or
    an odd parity sum Pw_{p_h} vanishing on all earlier generators."""
    N, s = L.base, L.s
    t = N.t
    M = _tri_rows(N.value, deltas, profs)
    for j, (d, I, _, _) in enumerate(rows):
        h_closed = _case(I, L.u, s, L.r_u, "Y2")[2]  # the H of the closed-form Y2 order
        rep.record("ell2/h-table", f"d={d}", profs[j].h == h_closed)
        if j == 0:
            continue
        if h_closed == 1:
            diag_odd = M[j][j] % 2 == 1
            above = all(M[i][j] == 0 for i in range(j))
            rep.record("ell2/column", f"d={d}, anchor delta={deltas[j]}",
                       diag_odd and above)
        else:
            # the splitting index h != u from the parity lemma
            if s >= 1 and I == E_tuple(s, t):
                h_idx = max(1, 3 - s)
            else:
                h_idx = next(i for i, f in enumerate(I, start=1)
                             if f == 0 and i != s)
            p_h = N.primes[h_idx - 1]
            odd = profs[j].pw.get(p_h, 0) % 2 == 1
            before = all(profs[i].pw.get(p_h, 0) % 2 == 0 for i in range(j))
            rep.record("ell2/parity", f"d={d}, split at p={p_h}", odd and before)


# ---------------------------------------------------------------------------
# Cross-checking
# ---------------------------------------------------------------------------

def crosscheck(n) -> dict:
    """compute_group vs snf_oracle vs verify_certificates; full agreement
    expected for every N.  compute_group and verify_certificates share one
    walk of _blocks(N), so each generator is built and profiled once.  A
    generator whose closed-form order disagrees with its profile shows up
    as a failed order/... step of the certificates."""
    blocks = tuple(_blocks(n))
    G = compute_group(n, blocks)
    O = snf_oracle(n)
    cert = verify_certificates(n, blocks)
    mismatches = []
    if G.invariant_factors != O.invariant_factors:
        mismatches.append({"kind": "invariant_factors",
                           "computed": list(G.invariant_factors),
                           "oracle": list(O.invariant_factors)})
    if not cert.passed:
        mismatches.append({"kind": "certificates", "failures": cert.failures()})
    return {
        "N": n,
        "pass": not mismatches,
        "invariant_factors": [str(d) for d in G.invariant_factors],
        "group_order": str(G.group_order),
        "mismatches": mismatches,
    }

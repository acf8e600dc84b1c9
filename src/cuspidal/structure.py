"""Assembly of the rational cuspidal divisor class group C(N).

compute_group decomposes C(N) into cyclic pieces generated by Z(d)
(non-squarefree d) and Y2(d) (squarefree d, per target prime ell), with
closed-form orders.  verify_certificates re-checks its hypotheses on the
concrete level, and crosscheck holds it against snf_oracle (module oracle),
which shares no code with the generators.

The generators come from one walk, _blocks(N), over Yoo's table: the Z
block on the default level, then B(p, r, 1) when N = p^r, else one Y2 block
per relevant ell, ascending, on order_primes(N, ell).  Each block is plain
data, rows (d, I, label, closed-form order) in ascending d, I the exponent
tuple of d in the block's prime ordering read off divisor_exponents(N).  A
Y2 row depends on ell only through the ordering (factors, s), so the ell
with equal (factors, s) share one rows tuple, built once.  A generator is
a tensor of prime-power base vectors and at most one two-prime D vector
(generator_factors(L, I, kind)): its nonzero terms are products of the
factors' support pairs (generator_terms), and its profile combines the
profiles of its factors at their own levels (tensor_profile), never
applying Upsilon at N.  compute_group keeps the rows of order > 1
(of ell-part > 1 for Y2), each with a callable for its terms that only the
printers call, and hands their ell-parts to oracle._invariants, the merge
of both routes.  verify_certificates re-sorts each distinct table by the
rank of I in the divisor orderings of the block's level: the Z table in
divisor_orderings, which depends only on the shape (exponents, u), and a
Y2 table in delta_orderings, its squarefree block Delta alone, which
depends only on (t, u), so a Y2 table costs O(2^t) whatever sigma0(N) is.
It profiles each distinct generator once per call: each Z row, each Z1
row on T_u where Z1 differs from Z (f_u < r_u), the B row, and each Y2
generator keyed by (d, the prime of its B slot or 0, the primes of its D
pair or ()), which names it in any ordering, so a Y2 generator that
several tables share is profiled once.  It re-runs the split-off
hypotheses (unipotence of the normalized-profile matrices, the h and
parity side conditions) for every ell on the concrete level N.  Each
diagonal and column entry is one value read off the generator's factors,
and each zero tail the rank of one element, the profile's top in the slot
significance of the block (a Y2 top outside Delta comes after every
column), so the certificates build no tensor support.  crosscheck hands
one walk to both and builds no terms.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from operator import itemgetter, mul
from typing import NamedTuple

from .divisors import C_generator, divisor_to_json, pi1_pull, pi2_pull
from .etalinalg import ligozat_weights
from .intarith import (CACHE_SIZE, decimal_str, divisor_exponents, divisor_of, divisors,
                       factor, in_square, in_T_u, kappa_primes, valuation)
from .generators import (OrderedLevel, _case, default_level, delta_orderings,
                         divisor_orderings, generator_factors, generator_order,
                         generator_terms, order_primes)
from .oracle import AbelianGroupStructure, _invariants, snf_oracle
from .orderengine import profile, tensor_profile


# ---------------------------------------------------------------------------
# The dense reference for snf_oracle
# ---------------------------------------------------------------------------

# Only the tests and the benchmark tracer (perfbench/spans.py) call
# _local_exponents, invariant_factors_of_quotient and eta_unit_lattice.
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
    2.4, on normal forms modulo a multiple of the index), merged by
    _invariants.  When modulus kills Z^ncols / <rows> this is that group."""
    prim = {ell: [ell ** e for e in _local_exponents(rows, ncols, ell, v) if e]
            for ell, v in factor(modulus).factors}
    return _invariants(prim, math.prod(map(math.prod, prim.values())))[1]


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


# ---------------------------------------------------------------------------
# The canonical decomposition: one table of generators
# ---------------------------------------------------------------------------

class _Block(NamedTuple):
    """The generators of one prime ordering: rows (d, I, label, closed-form
    order) in ascending d, I the exponent tuple of d in the prime order of
    level.  kind is "Z" for the non-squarefree block, "B" for B(p, r, 1) at
    N = p^r and "Y2" for the squarefree block of the target prime level.ell."""
    kind: str
    level: OrderedLevel
    rows: tuple


@lru_cache(maxsize=CACHE_SIZE)
def _relevant_ells(n: int):
    """The primes of kappa(N) and 2: those of every closed-form order."""
    return tuple(sorted({2, *kappa_primes(n)}))


def _blocks(n: int):
    """Yoo's table for C(N): the Z block on the default level, then B(p, r, 1)
    when N = p^r, else one Y2 block per relevant ell, ascending, on
    order_primes(N, ell); the ell whose orderings have equal (factors, s)
    share one rows tuple.  One builder makes the rows from a level and the
    exponent tuples of its divisors, read off divisor_exponents(N) in the
    block's prime ordering: the B block is the Z generator at the tuple (1,).
    Orders of 1 are kept."""
    fn = factor(n)
    if fn.t == 0:
        return
    L0 = default_level(n)
    nsf, sf = {}, {}
    for d, I in zip(divisors(n)[1:], divisor_exponents(n)[1:]):
        (nsf if in_square(I) else sf)[d] = I

    def rows(L, Is, label, gen="Z"):
        return tuple((d, I, label(d, I), generator_order(L, I, gen)) for d, I in Is.items())

    if fn.t == 1:
        (p, r), = fn.factors
        label = lambda d, I: (f"B2({r},{I[0]})" if in_T_u(I, r, L0.u)
                              else f"B({p},{r},{I[0]})")
        yield _Block("Z", L0, rows(L0, nsf, label))
        yield _Block("B", L0, rows(L0, {p: (1,)}, label))
        return
    yield _Block("Z", L0, rows(L0, nsf, lambda d, I: f"Z({d})"))
    tables = {}  # (factors, s) -> the Y2 rows, which depend on ell through them only
    for ell in _relevant_ells(n):
        L = order_primes(n, ell)
        key = (L.base.factors, L.s)
        if key not in tables:
            perm = itemgetter(*[fn.primes.index(q) for q in L.base.primes])  # t >= 2
            tables[key] = rows(L, {d: perm(I) for d, I in sf.items()},
                               lambda d, I: f"Y2({d})", "Y2")
        yield _Block("Y2", L, tables[key])


def compute_group(n, blocks=None) -> AbelianGroupStructure:
    """C(N) as explicit cyclic factors (label, terms, order): one per row of
    the table of order > 1, and the prime ordering of each ell with such a
    row.  terms() builds the row divisor's nonzero terms (d, c), d ascending.
    A Y2 row's order is the ell-part ell^v of the class order of Y2(d), and
    the factor's generator is (class order / ell^v) * Y2(d): at N = 30, group
    prints "Y2(3): order 3", where order 30 --divisor "1*(1),-1*(3)" says 6.
    The part at ell holds the Y2 orders of its block and the ell-parts of the
    Z and B orders; an order with a prime outside kappa(N) fails the product
    check of _invariants.  blocks, if given, is a walk of _blocks(N)."""
    factors, orderings, prim = [], {}, {}
    for blk in _blocks(n) if blocks is None else blocks:
        ell = blk.level.ell if blk.kind == "Y2" else None
        gen = "Y2" if ell else "Z"
        for _, I, label, order in blk.rows:
            if ell:
                order = ell ** valuation(order, ell)
            if order == 1:
                continue
            factors.append((label, partial(generator_terms, blk.level, I, gen), order))
            if ell:
                orderings[ell] = blk.level.base.primes
                prim.setdefault(ell, []).append(order)
            else:  # a Z or B order, the only composite ones
                for p in _relevant_ells(n):
                    if order % p == 0:
                        prim.setdefault(p, []).append(p ** valuation(order, p))
    group_order = math.prod(o for _, _, o in factors)
    prim, invs = _invariants(prim, group_order, n)
    return AbelianGroupStructure(n, tuple(factors), prim, invs, group_order, orderings)


def cuspidal_equals_rational(n: int) -> bool:
    """True exactly when N = 4M or 8M with M odd and squarefree, the
    hypothesis under which the full cuspidal group is known to coincide
    with C(N).  It is not "every cusp is rational": that holds for
    N = 2^a M, a <= 3, M odd squarefree, so the flag is False at
    squarefree N and at N = 2M, where every cusp is rational too."""
    fn = factor(n)
    return fn.u == 1 and fn.exponents[0] in (2, 3) and all(r == 1 for r in fn.exponents[1:])


def group_to_json(G: AbelianGroupStructure) -> dict:
    return {
        "N": G.n,
        "ordering": [{"ell": ell, "primes": list(ps)}
                     for ell, ps in sorted(G.orderings.items())],
        "generators": [
            {"label": lab,
             "divisor": divisor_to_json(G.n, terms()),
             "order": decimal_str(o)}
            for lab, terms, o in G.cyclic_factors],
        "ell_primary": {str(ell): [decimal_str(o) for o in v]
                        for ell, v in sorted(G.ell_primary.items())},
        "invariant_factors": [decimal_str(d) for d in G.invariant_factors],
        "group_order": decimal_str(G.group_order),
        "cuspidal_equals_rational_flag": cuspidal_equals_rational(G.n),
    }


# ---------------------------------------------------------------------------
# Runtime verification of the split-off criteria
# ---------------------------------------------------------------------------

class CertificateReport:
    def __init__(self, n: int):
        self.n, self.steps = n, []

    def record(self, criterion: str, detail: str, ok: bool):
        self.steps.append({"criterion": criterion, "detail": detail, "pass": ok})

    @property
    def passed(self) -> bool:
        return all(s["pass"] for s in self.steps)

    def failures(self):
        return [s for s in self.steps if not s["pass"]]


def _check_unipotent(rep, rows, deltas, profs, reach, label, modulus=None):
    """Lower-triangular unipotence of the matrix (Vbar(C_i)_{delta_j}) over
    the rows in prec order: diagonal a unit (mod modulus if given, else
    absolute value 1), one value read off the factors, and exact zeros to
    the right, no nonzero entry of row i at a delta_j with j > i, so
    reach[i] <= i."""
    for i, ((d, *_), p) in enumerate(zip(rows, profs)):
        diag = p.value(deltas[i])
        ok = abs(diag) == 1 if modulus is None else diag % modulus != 0
        rep.record(label, f"diagonal at d={d}, delta={deltas[i]}", ok)
        rep.record(label, f"zero tail at d={d}", reach[i] <= i)


def verify_certificates(n, blocks=None) -> CertificateReport:
    """Re-check every block of the table on N: closed-form orders against the
    profiles, and unipotence or the ell = 2 split conditions in the divisor
    orderings of the block's shape.  The rows of one (kind, factors, s) are
    sorted once per call, each distinct generator is profiled once per call
    (a Y2 generator by its key (d, B prime or 0, D primes or ()), whatever
    table holds it), and every check still runs for every ell.  blocks, if
    given, is a walk of _blocks(N)."""
    rep = CertificateReport(n)
    if n == 1:
        rep.record("trivial", "N=1", True)
        return rep
    tables = {}  # (kind, factors, s) -> the sorted rows, deltas, profiles and reaches
    y2 = {}  # (d, prime of the B slot or 0, primes of the D pair or ()) -> profile
    for blk in _blocks(n) if blocks is None else blocks:
        L = blk.level
        if blk.kind == "B":
            (d, I, _, order), = blk.rows
            rep.record("order/Z", f"d={d}",
                       tensor_profile(generator_factors(L, I, "Z")).order == order)
            continue
        if not blk.rows:
            continue
        key = (blk.kind, L.base.factors, L.s)
        if key not in tables:
            # the rows are one stretch of prec, the rest after Delta for Z,
            # Delta itself for Y2, and the deltas from its first rank on are
            # the columns
            prec, tri = (divisor_orderings(L.base.exponents, L.u) if blk.kind == "Z" else
                         delta_orderings(L.base.t, L.u))
            rank = {I: i for i, I in enumerate(prec)}
            rows = sorted(blk.rows, key=lambda row: rank[row[1]])
            deltas = [divisor_of(L.base, J) for J in tri[rank[rows[0][1]]:]]
            if blk.kind == "Z":
                profs = [tensor_profile(generator_factors(L, I, "Z")) for _, I, _, _ in rows]
                # (a) reads the Z1 vectors; Z1 is Z outside the exceptional
                # 2-power set T_u, and at f_u = r_u on it, where B2(r, r) = A_2(r, r)
                unip = [tensor_profile(generator_factors(L, I, "Z1"))
                        if in_T_u(I, L.r_u, L.u) and I[L.u - 1] < L.r_u else pz
                        for (_, I, _, _), pz in zip(rows, profs)]
            else:
                # every slot outside the B slot and the D pair holds A_p(r, v_p(d)),
                # so the key names the generator in any ordering
                profs, ps = [], L.base.primes
                for d, I, _, _ in rows:
                    _, pair, _, slot = _case(I, L.u, L.s, L.r_u, "Y2")
                    gen_key = d, slot and ps[slot - 1], tuple([ps[i - 1] for i in pair or ()])
                    if gen_key not in y2:
                        y2[gen_key] = tensor_profile(generator_factors(L, I, "Y2"))
                    profs.append(y2[gen_key])
                unip = profs
            # reach: the last column each support reaches, the rank of its top
            # in the colex order of the slots, the last most significant and
            # slot u least.  The full tri order lists the squarefree divisors,
            # then the rest, each in that order, and a generator's top is
            # squarefree only when its whole support is (a prime-power factor
            # has one slot, and the image of a D vector lies on 1, p_i and
            # p_j).  So a Y2 top outside Delta comes after every column, and
            # a top of 1 reaches none.
            sig = {p: 0 if k == L.u else k for k, p in enumerate(L.base.primes, start=1)}
            col = {delta: j for j, delta in enumerate(deltas)}
            past = -1 if blk.kind == "Z" else len(deltas)
            reach = [col.get(top, -1 if top == 1 else past)
                     for top in (p.top(sig) for p in unip)]
            tables[key] = rows, deltas, profs, unip, reach
        rows, deltas, profs, unip, reach = tables[key]
        if blk.kind == "Z":
            # (a) the Z1 vectors are unipotent in absolute value
            _check_unipotent(rep, rows, deltas, unip, reach, "nsf-unipotence")
            for (d, _, _, order), pz in zip(rows, profs):
                rep.record("order/Z", f"d={d}", pz.order == order)
            continue
        # (b)+(c) the squarefree block of the target prime ell
        ell = L.ell
        for (d, _, _, order), py in zip(rows, profs):
            rep.record(f"order/Y2/ell={ell}", f"d={d}", py.order == order)
        if ell % 2:
            _check_unipotent(rep, rows, deltas, profs, reach,
                             f"sf-unipotence/ell={ell}", modulus=ell)
        else:
            _ell2_split_conditions(rep, L, rows, deltas, profs, reach)
    # (d) 2-power relations through the genus-zero level 16
    r2 = valuation(n, 2)
    if n == 2 ** r2 and r2 >= 5:
        c16 = C_generator(16, 16)
        for tag, D in (("pi1", pi1_pull(c16, 2, r2 - 4)),
                       ("pi2", pi2_pull(c16, 2, r2 - 4))):
            rep.record("level16-relation", f"{tag} pullback to 2^{r2}",
                       profile(D).order == 1)
    return rep


def _ell2_split_conditions(rep, L, rows, deltas, profs, reach):
    """Independence certificate for ell = 2: every squarefree generator after the first either
    has h = 1 with an odd anchor entry and zeros above it in its column, or
    an odd parity sum Pw_{p_h} vanishing on all earlier generators.  Row i
    is zero at every delta_j with j > reach[i], so a column reads only the
    rows that reach it."""
    N, s = L.base, L.s
    for j, (d, I, _, _) in enumerate(rows):
        h_closed = _case(I, L.u, s, L.r_u, "Y2")[2]  # the H of the closed-form Y2 order
        rep.record("ell2/h-table", f"d={d}", profs[j].h == h_closed)
        if j == 0:
            continue
        if h_closed == 1:
            # the anchor entry Vbar_delta_j and the column above it
            diag_odd = profs[j].value(deltas[j]) % 2 == 1
            above = all(profs[i].value(deltas[j]) == 0 for i in range(j) if reach[i] >= j)
            rep.record("ell2/column", f"d={d}, anchor delta={deltas[j]}",
                       diag_odd and above)
        else:
            # the splitting index h != u from the parity lemma
            if s >= 1 and I[s - 1] == 0 and I.count(0) == 1:  # I = E(s)
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
    walk of _blocks(N); each distinct generator is profiled once per call
    and none is built.  A generator whose closed-form order disagrees with
    its profile shows up as a failed order/... step of the certificates."""
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
        "invariant_factors": [decimal_str(d) for d in G.invariant_factors],
        "group_order": decimal_str(G.group_order),
        "mismatches": mismatches,
    }

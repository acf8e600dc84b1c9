"""Assembly of the rational cuspidal divisor class group C(N).

Two independent routes are implemented and cross-checked:

* compute_group: the canonical decomposition into cyclic pieces generated by
  Z(d) (non-squarefree d) and Y2(d) (squarefree d, per target prime ell), with
  closed-form orders; and
* snf_oracle: C(N) = S2(N)^0 / Lambda(N) * U_N computed directly from the
  eta-unit lattice, knowing nothing about the generators.  Its integer
  lattice code lives here too: a row Hermite normal form (HNF), kernel bases
  from it, and invariant factors by alternating row and column HNFs.

verify_certificates re-runs the split-off hypotheses (unipotence of the
normalized-profile matrices, the h and parity side conditions) on the
concrete level N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .divisors import C_generator, pi1_pull, pi2_pull
from .etalinalg import eta_divisor
from .intarith import (as_factored, divisors, exponent_tuple, factor,
                       in_delta, in_square, kappa, valuation)
from .generators import (base_vector_B, construct_Y, construct_Z,
                         default_level, divisor_orderings, in_F_set,
                         in_F1_set, in_G_set, in_G1_set, in_T_u, order_primes,
                         predicted_order)
from .orderengine import profile


# ---------------------------------------------------------------------------
# Integer lattice utilities
# ---------------------------------------------------------------------------

def hnf_with_transform(rows):
    """Row Hermite normal form with transform: returns (H, U), U * M = H with
    U unimodular, pivots positive, entries above pivots reduced."""
    H = [list(r) for r in rows]
    nr = len(H)
    nc = len(H[0]) if nr else 0
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]

    def subtract(i, j, q):
        if q:
            H[i] = [a - q * b for a, b in zip(H[i], H[j])]
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    row = 0
    for col in range(nc):
        while True:
            nz = [i for i in range(row, nr) if H[i][col]]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(H[i][col]))
            for i in nz:
                if i != i0:
                    subtract(i, i0, H[i][col] // H[i0][col])
        nz = [i for i in range(row, nr) if H[i][col]]
        if not nz:
            continue
        i0 = nz[0]
        H[row], H[i0] = H[i0], H[row]
        U[row], U[i0] = U[i0], U[row]
        if H[row][col] < 0:
            H[row] = [-a for a in H[row]]
            U[row] = [-a for a in U[row]]
        for i in range(row):
            subtract(i, row, H[i][col] // H[row][col])
        row += 1
    return [tuple(r) for r in H], [tuple(r) for r in U]


def hnf(rows):
    """Canonical HNF basis of the row lattice (zero rows dropped)."""
    H, _ = hnf_with_transform(rows)
    return tuple(r for r in H if any(r))


def kernel_basis(rows, moduli):
    """Basis of {v : rows[j] . v == 0 mod moduli[j]} (modulus 0 = exact)."""
    k = len(rows)
    n = len(rows[0])
    slack = [j for j in range(k) if moduli[j]]
    # Columns of the constraint map: n variables then one slack per modular row.
    M = [[rows[j][i] for j in range(k)] for i in range(n)]
    for j in slack:
        M.append([moduli[j] if jj == j else 0 for jj in range(k)])
    H, U = hnf_with_transform(M)
    out = []
    for h, u in zip(H, U):
        if not any(h):
            v = u[:n]
            if any(v):
                out.append(tuple(v))
    return tuple(out)


def invariant_factors_of_quotient(rows, ncols):
    """Invariant factors (> 1, ascending divisibility) of Z^ncols / <rows>;
    raises if the quotient is infinite.

    Row HNFs of the matrix and of its transpose alternate until it is
    diagonal (Cohen, GTM 138, section 2.4); pairwise gcd/lcm then turns the
    diagonal into a divisibility chain."""
    if ncols == 0:
        return ()
    if not rows:
        raise ArithmeticError("quotient is infinite (no relations)")
    M = hnf(rows)
    if len(M) < ncols:
        raise ArithmeticError("quotient is infinite (relation lattice not full rank)")
    while any(M[i][j] for i in range(ncols) for j in range(ncols) if i != j):
        M = hnf(zip(*M))
    diag = [M[i][i] for i in range(ncols)]
    for i in range(ncols):
        for j in range(i + 1, ncols):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(d for d in diag if d > 1)


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

def eta_unit_lattice(n: int):
    """HNF basis of U_N: exponent vectors of rational modular units on X0(N)."""
    ds = divisors(n)
    rows = [[1] * len(ds), [d % 24 for d in ds], [(n // d) % 24 for d in ds]]
    moduli = [0, 24, 24]
    for p in factor(n).primes:
        rows.append([valuation(d, p) % 2 for d in ds])
        moduli.append(2)
    return hnf(kernel_basis(rows, moduli))


def snf_oracle(n: int) -> AbelianGroupStructure:
    """C(N) = S2(N)^0 / Lambda(N) * U_N, via HNF kernel + Smith normal form.
    Independent of the generator constructions."""
    ds = divisors(n)
    if len(ds) == 1:
        return AbelianGroupStructure(n, (), {}, (), 1)
    rels = []
    for r in eta_unit_lattice(n):
        v = eta_divisor(n, r)
        if not all(isinstance(c, int) for c in v.coeffs):
            raise ArithmeticError(f"eta unit {r} has a non-integral divisor at N={n}")
        # Coordinates in the basis {C_d : d > 1} of S2(N)^0.
        rels.append(tuple(-c for c in v.coeffs[1:]))
    invs = invariant_factors_of_quotient(rels, len(ds) - 1)
    prim, invs2 = _merge_invariants(invs)
    if invs != invs2:
        raise ArithmeticError(f"invariant factors {invs} are not a divisibility chain")
    return AbelianGroupStructure(n, (), prim, invs, math.prod(invs))


# ---------------------------------------------------------------------------
# The canonical decomposition
# ---------------------------------------------------------------------------

def _relevant_ells(n: int):
    return tuple(sorted(set(factor(kappa(n)).primes) | {2}))


def _nsf_factors(n: int):
    """(label, vector, order) for the non-squarefree block, order-1 kept."""
    L0 = default_level(n)
    N = L0.base
    out = []
    for d in divisors(n):
        if d == 1:
            continue
        I = exponent_tuple(N, d)
        if not in_square(I):
            continue
        order = predicted_order(L0, d, "Z")
        vec = construct_Z(L0, d, "Z")
        if N.t == 1:
            p, r = N.factors[0]
            f = I[0]
            if p == 2 and in_T_u(I, N.exponents, L0.u):
                label = f"B2({r},{f})"
            else:
                label = f"B({p},{r},{f})"
        else:
            label = f"Z({d})"
        out.append((label, vec, order))
    return out


def _sf_factors(n: int):
    """(ell, label, vector, ell-power order) for the squarefree block, plus the
    per-ell prime orderings used; order-1 contributions skipped."""
    fn = factor(n)
    out = []
    orderings = {}
    if fn.t == 0:
        return out, orderings
    if fn.t == 1:
        p, r = fn.factors[0]
        L0 = default_level(n)
        order = predicted_order(L0, p, "Z")
        if order > 1:
            out.append((None, f"B({p},{r},1)", base_vector_B(p, r, 1), order))
        return out, orderings
    sf_divs = [d for d in divisors(n) if d > 1 and in_delta(exponent_tuple(fn, d))]
    for ell in _relevant_ells(n):
        L = order_primes(n, ell)
        contributed = False
        for d in sf_divs:
            full = predicted_order(L, d, "Y2")
            e = valuation(full, ell)
            if e:
                out.append((ell, f"Y2({d})", construct_Y(L, d, "Y2"), ell ** e))
                contributed = True
        if contributed:
            orderings[ell] = L.base.primes
    return out, orderings


def compute_group(n) -> AbelianGroupStructure:
    """The decomposition of C(N) into explicit cyclic factors."""
    n = as_factored(n).value
    if factor(n).t == 0:
        return AbelianGroupStructure(n, (), {}, (), 1)
    factors = [(lab, vec, o) for lab, vec, o in _nsf_factors(n) if o > 1]
    sf, orderings = _sf_factors(n)
    factors += [(lab, vec, o) for _, lab, vec, o in sf]
    prim, invs = _merge_invariants([o for _, _, o in factors])
    return AbelianGroupStructure(n, tuple(factors), prim, invs,
                                 math.prod(o for _, _, o in factors),
                                 orderings)


def compute_ell_primary(n, ell: int):
    """The ell-primary part: (label, vector, ell-power order) with order > 1."""
    n = as_factored(n).value
    out = []
    for lab, vec, o in _nsf_factors(n):
        e = valuation(o, ell)
        if e:
            out.append((lab, vec, ell ** e))
    for l, lab, vec, o in _sf_factors(n)[0]:
        if l is None:  # t = 1: one factor of full order; take its ell-part
            e = valuation(o, ell)
            if e:
                out.append((lab, vec, ell ** e))
        elif l == ell:
            out.append((lab, vec, o))
    return out


def group_to_json(G: AbelianGroupStructure) -> dict:
    return {
        "N": G.n,
        "ordering": [{"ell": ell, "primes": list(ps)}
                     for ell, ps in sorted(G.orderings.items())],
        "generators": [
            {"label": lab,
             "divisor": {"N": vec.n, "coeffs": {str(d): c for d, c in vec.as_dict().items()}},
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


def _vbar_at(prof, n, delta):
    return prof.Vbar[divisors(n).index(delta)] if prof.Vbar else 0


def _check_unipotent(rep, n, DO, vectors, start, stop, label, modulus=None):
    """Lower-triangular unipotence of the matrix (Vbar(C_i)_{delta_j}):
    diagonal a unit (mod modulus if given, else absolute value 1) and exact
    zeros to the right."""
    deltas = DO.tri_divisors()
    for i in range(start, stop):
        prof = profile(vectors[i])
        diag = _vbar_at(prof, n, deltas[i])
        ok = abs(diag) == 1 if modulus is None else diag % modulus != 0
        rep.record(label, f"diagonal at d={DO.prec_divisors()[i]}, delta={deltas[i]}", ok)
        tail_ok = all(_vbar_at(prof, n, deltas[j]) == 0 for j in range(i + 1, len(deltas)))
        rep.record(label, f"zero tail at d={DO.prec_divisors()[i]}", tail_ok)


def verify_certificates(n) -> CertificateReport:
    n = as_factored(n).value
    rep = CertificateReport(n)
    fn = factor(n)
    if fn.t == 0:
        rep.record("trivial", "N=1", True)
        return rep
    L0 = default_level(n)
    DO0 = divisor_orderings(L0)
    prec_divs = DO0.prec_divisors()
    m_sf = sum(1 for d in prec_divs if in_delta(exponent_tuple(L0.base, d)))
    # (a) the non-squarefree block: Z1 vectors are unipotent in absolute value.
    vecs_a = [construct_Z(L0, d, "Z1") for d in prec_divs]
    _check_unipotent(rep, n, DO0, vecs_a, m_sf, len(prec_divs), "nsf-unipotence")
    # order consistency of the actual Z vectors against the closed forms
    for d in prec_divs[m_sf:]:
        pz = profile(construct_Z(L0, d, "Z"))
        ok = pz.order == predicted_order(L0, d, "Z")
        rep.record("order/Z", f"d={d}", ok)
    if fn.t == 1:
        p, r = fn.factors[0]
        pz = profile(base_vector_B(p, r, 1))
        rep.record("order/Z", f"d={p}",
                   pz.order == predicted_order(L0, p, "Z"))
    # (b)+(c) the squarefree block, per target prime ell
    if fn.t >= 2:
        for ell in _relevant_ells(n):
            L = order_primes(n, ell)
            DO = divisor_orderings(L)
            divs = DO.prec_divisors()
            vecs = [construct_Y(L, d, "Y2") for d in divs[:m_sf]]
            profs = [profile(v) for v in vecs]
            for j, d in enumerate(divs[:m_sf]):
                rep.record(f"order/Y2/ell={ell}", f"d={d}",
                           profs[j].order == predicted_order(L, d, "Y2"))
            if ell % 2:
                _check_unipotent(rep, n, DO, vecs, 0, m_sf,
                                 f"sf-unipotence/ell={ell}", modulus=ell)
            else:
                _ell2_split_conditions(rep, L, DO, profs, m_sf)
    # (d) 2-power relations through the genus-zero level 16
    r2 = valuation(n, 2)
    if n == 2 ** r2 and r2 >= 5:
        c16 = C_generator(16, 16)
        for tag, D in (("pi1", pi1_pull(c16, 2, r2 - 4)),
                       ("pi2", pi2_pull(c16, 2, r2 - 4))):
            rep.record("level16-relation", f"{tag} pullback to 2^{r2}",
                       profile(D).order == 1)
    return rep


def _ell2_split_conditions(rep, L, DO, profs, m_sf):
    """Independence certificate for ell = 2: every squarefree generator after the first either
    has h = 1 with an odd anchor entry and zeros above it in its column, or
    an odd parity sum Pw_{p_h} vanishing on all earlier generators."""
    N, u, s = L.base, L.u, L.s
    t = N.t
    divs = DO.prec_divisors()
    deltas = DO.tri_divisors()
    from .intarith import A_tuple, E_tuple
    for j, d in enumerate(divs[:m_sf]):
        I = exponent_tuple(N, d)
        in_Hp = (in_F1_set(I, u) or in_G1_set(I, u)) and not (
            in_F_set(I, s) or in_G_set(I, s))
        in_H = in_Hp or I == A_tuple(1, t)
        rep.record("ell2/h-table", f"d={d}", profs[j].h == (2 if in_H else 1))
        if j == 0:
            continue
        if not in_H:
            anchor = deltas[j]
            diag_odd = _vbar_at(profs[j], N.value, anchor) % 2 == 1
            above = all(_vbar_at(profs[i], N.value, anchor) == 0 for i in range(j))
            rep.record("ell2/column", f"d={d}, anchor delta={anchor}",
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
    expected for every N."""
    n = as_factored(n).value
    G = compute_group(n)
    O = snf_oracle(n)
    cert = verify_certificates(n)
    mismatches = []
    if G.invariant_factors != O.invariant_factors:
        mismatches.append({"kind": "invariant_factors",
                           "computed": list(G.invariant_factors),
                           "oracle": list(O.invariant_factors)})
    for lab, vec, o in G.cyclic_factors:
        prof = profile(vec)
        if prof.order is None or prof.order % o:
            mismatches.append({"kind": "generator_order", "label": lab,
                               "claimed": o, "profile": prof.order})
    if not cert.passed:
        mismatches.append({"kind": "certificates", "failures": cert.failures()})
    return {
        "N": n,
        "pass": not mismatches,
        "invariant_factors": [str(d) for d in G.invariant_factors],
        "group_order": str(G.group_order),
        "mismatches": mismatches,
    }

import ast
import hashlib
import json
import math
import os
import random
from collections import Counter
from operator import mul

import pytest
from sympy import Matrix, Symbol, eye, zeros
from sympy.matrices.normalforms import smith_normal_form

from cuspidal import cli, etalinalg, generators, intarith, orderengine, structure
from cuspidal.divisors import kron
from cuspidal.etalinalg import (_lambda24_block, _upsilon_block_entry, eta_divisor,
                                ligozat_check, ligozat_weights)
from cuspidal.generators import (base_vector_B, construct_Y, construct_Z,
                                 predicted_order)
from cuspidal.intarith import divisor_exponents, divisors, factor, kappa, valuation
from cuspidal.orderengine import profile, tensor_profile
from cuspidal.structure import (AbelianGroupStructure, compute_group, crosscheck,
                                cuspidal_equals_rational, eta_unit_lattice,
                                group_to_json, invariant_factors_of_quotient,
                                snf_oracle, verify_certificates)
from references import dense_oracle_invariants, dense_premise_rows, premise_vectors

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GENUS_ZERO = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25]


def _sympy_invariant_factors(rows, ncols, modulus):
    """Reference: the invariant factors other than 1, ascending, of
    Z^ncols / (<rows> + modulus * Z^ncols), from sympy's Smith normal form of
    the rows stacked on modulus * Id.  Modulus 0 gives Z^ncols / <rows>, a
    factor 0 standing for Z."""
    stack = [list(r) for r in rows] + [[modulus * (i == j) for j in range(ncols)]
                                       for i in range(ncols)]
    S = smith_normal_form(Matrix(stack))
    return tuple(sorted(d for d in (abs(int(S[i, i])) for i in range(ncols)) if d != 1))


def test_invariant_factors():
    for rows, ncols, modulus, want in [
            ([(2, 0), (0, 6)], 2, 6, (2, 6)),
            ([(2, 0), (0, 6)], 2, 36, (2, 6)),
            ([(1, 0), (0, 1)], 2, 6, ()),
            ([(1, 0)], 2, 6, (6,)),
            ([(4,)], 1, 4, (4,)),
            ([(4,)], 1, 2, (2,)),
            ([(2, 0), (0, 9)], 2, 6, (6,)),
            ([(3, 0), (0, 0)], 2, 36, (3, 36)),
            ([], 2, 6, (6, 6)),
            ([(5, 7)], 2, 1, ())]:
        assert invariant_factors_of_quotient(rows, ncols, modulus) == want, rows
        assert _sympy_invariant_factors(rows, ncols, modulus) == want, rows


def test_invariant_factors_match_sympy_on_oracle_relations():
    """Today's relations Lambda * U_N, from the unit lattice and eta_divisor,
    have a quotient that kappa kills, and the same invariant factors as
    snf_oracle."""
    for n in range(2, 301):
        rels = [tuple(-c for c in eta_divisor(n, r).coeffs[1:])
                for r in eta_unit_lattice(n)]
        ncols = len(divisors(n)) - 1
        got = invariant_factors_of_quotient(rels, ncols, kappa(n))
        assert got == _sympy_invariant_factors(rels, ncols, 0), n
        assert got == snf_oracle(n).invariant_factors, n


def test_invariant_factors_match_sympy_on_random_matrices():
    rng = random.Random(7)
    pick = random.Random(8)  # the moduli; rng alone draws the matrices
    deficient = full = 0
    for trial in range(300):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 6)
        rows = [[rng.randrange(-30, 31) for _ in range(nc)] for _ in range(nr)]
        if trial % 3 == 0:
            # make the last column a combination of the others: rank < nc
            for r in rows:
                r[-1] = 2 * r[0] - (r[1] if nc > 2 else 0)
        if Matrix(rows).rank() < nc:
            deficient += 1
        else:
            full += 1
        modulus = pick.choice((1, 2, 3, 4, 8, 9, 12, 27, 64, 360)) * pick.randrange(1, 30)
        assert invariant_factors_of_quotient(rows, nc, modulus) == \
            _sympy_invariant_factors(rows, nc, modulus), (rows, modulus)
    assert full > 50 and deficient > 100


def test_upsilon_times_24_lambda_is_kappa_as_polynomials():
    """Upsilon(p^r) * 24 Lambda(p^r) = kappa(p^r) * Id in Z[p], for every
    r <= 20, so for every prime power up to 10^6 and for 2^20; the blocks
    are those that upsilon_apply and lambda24 use."""
    p = Symbol("p")
    for r in range(1, 21):
        U = Matrix(r + 1, r + 1, lambda i, j: _upsilon_block_entry(p, r, i, j))
        L = Matrix(_lambda24_block(p, r))
        kappa_pr = p ** (r - 1) * (p ** 2 - 1)
        assert (U * L - kappa_pr * eye(r + 1)).expand() == zeros(r + 1, r + 1), r


def test_snf_oracle_rejects_inconsistent_invariants(monkeypatch):
    monkeypatch.setattr(structure, "_merge_invariants", lambda orders: ({}, ()))
    with pytest.raises(ArithmeticError):
        snf_oracle(11)


def _weight_d_off_by_one(ds, sums):
    """Every weight-d sum plus one, so not 0 mod 24."""
    return ds, [sums[0], [x + 1 for x in sums[1]]] + sums[2:]


@pytest.mark.parametrize("patch", [
    # the oracle's Upsilon blocks become diag(1, 0, ..., 0)
    ("_upsilon_block_entry", lambda p, r, i, j: int(i == j == 0)),
    ("_ligozat_sums", lambda blocks, real=structure._ligozat_sums:
        _weight_d_off_by_one(*real(blocks))),
])
def test_snf_oracle_checks_that_kappa_kills_the_group(monkeypatch, capsys, patch):
    structure._local_block.cache_clear()
    monkeypatch.setattr(structure, *patch)
    try:
        with pytest.raises(ArithmeticError, match="24 \\* Upsilon\\(C_11\\) is not an eta unit"):
            snf_oracle(11)
        assert cli.main(["verify", "11"]) == 2
    finally:
        monkeypatch.undo()
        structure._local_block.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("error: 24 * Upsilon(C_11) is not an eta unit at N=11")
    assert "Traceback" not in err


@pytest.mark.parametrize("spoil", [
    lambda P, Pinv, Q, D: (P, Pinv, Q, (2,) + D[1:]),               # a wrong diagonal
    lambda P, Pinv, Q, D: (P, [row[::-1] for row in Pinv], Q, D),   # a wrong inverse
])
def test_local_block_checks_its_diagonalization(monkeypatch, spoil):
    real = structure._diagonalize
    monkeypatch.setattr(structure, "_diagonalize", lambda A: spoil(*real(A)))
    structure._local_block.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="diagonalization of Upsilon\\(11\\^1\\)"):
            snf_oracle(11)
    finally:
        monkeypatch.undo()
        structure._local_block.cache_clear()


def _parity_columns_dropped(monkeypatch):
    real = structure._local_block
    monkeypatch.setattr(structure, "_local_block", lambda p, r: (b := real(p, r))._replace(
        omega=(b.omega[0], (0,) * (r + 1))))


def _kappa_doubled(monkeypatch):
    real = structure.kappa
    monkeypatch.setattr(structure, "kappa", lambda n: 2 * real(n))


# Defects injected into the oracle, each with levels where crosscheck must
# then report the two routes' invariant factors as different.
ORACLE_DEFECTS = {
    "parity columns dropped": (_parity_columns_dropped, (15, 24, 32, 35, 64, 210)),
    "kappa doubled": (_kappa_doubled, (5, 12, 16, 35, 64, 210)),
}


@pytest.mark.parametrize("name", ORACLE_DEFECTS)
def test_crosscheck_catches_oracle_defects(monkeypatch, name):
    inject, levels = ORACLE_DEFECTS[name]
    inject(monkeypatch)
    for n in levels:
        rec = crosscheck(n)
        assert not rec["pass"], (name, n)
        assert [m["kind"] for m in rec["mismatches"]] == ["invariant_factors"], (name, n)


ROADMAP_LADDER = (720, 840, 960, 2310, 5040, 30030, 55440, 720720, 2 ** 20, 3 ** 12)


def test_snf_oracle_matches_the_dense_reference():
    """The tensor-local oracle against the elimination of the dense premise
    rows by _local_exponents, m = sigma0 + t + 2 columns."""
    for n in list(range(1, 301)) + list(ROADMAP_LADDER):
        assert snf_oracle(n).invariant_factors == dense_oracle_invariants(n), n


@pytest.mark.slow
def test_snf_oracle_matches_the_dense_reference_to_3000():
    """As above on 301..3000 and 300 uniform levels <= 10^6 (Random(0))."""
    rng = random.Random(0)
    for n in list(range(301, 3001)) + [rng.randint(1, 10 ** 6) for _ in range(300)]:
        assert snf_oracle(n).invariant_factors == dense_oracle_invariants(n), n


def test_snf_oracle_at_209_ell_5():
    """N = 209 = 11 * 19, ell = 5: the first pair where the degree
    functional's drop does not fall on the largest exponent.  The diagonal
    has 5-parts 5, 5, 25; C(209)_5 is Z/25 x Z/5, not (Z/5)^3."""
    n, ell, v = 209, 5, 2
    assert valuation(24 * kappa(n), ell) == v
    blocks = [structure._local_block(p, r) for p, r in factor(n).factors]
    D = kron(b.diag for b in blocks)
    assert sorted(ell ** valuation(x, ell) for x in D) == [1, 5, 5, 25]
    rows = list(dense_premise_rows(n).values())
    dense = sorted((ell ** (v - e) for e in structure._local_exponents(rows, len(rows[0]), ell, v)
                    if e < v), reverse=True)
    assert snf_oracle(n).ell_primary[ell] == tuple(dense) == (25, 5)


def test_bordered_elimination_matches_sympy():
    """Random rows [diag | B] modulo ell^v: the pivot valuations give the
    local Smith form of sympy and of _local_exponents.  A row with a diagonal
    entry divisible by ell and a unit in B forces a B pivot at level 0."""
    rng = random.Random(16)
    b_pivots = 0
    for _ in range(240):
        ell = rng.choice((2, 3, 5, 7))
        v = rng.randrange(1, 5)
        nrows, width = rng.randrange(1, 8), rng.randrange(1, 4)
        diag = [ell ** rng.randrange(0, v + 1) * rng.randrange(1, 50) for _ in range(nrows)]
        B = [[ell ** rng.randrange(0, v) * rng.randrange(-40, 41) for _ in range(width)]
             for _ in range(nrows)]
        b_pivots += any(a % ell == 0 and any(x % ell for x in b) for a, b in zip(diag, B))
        exps = structure._bordered_exponents(diag, B, ell, v)
        assert exps == sorted(exps) and all(e < v for e in exps)
        rows = [[a * (i == j) for j in range(nrows)] + b for i, (a, b) in enumerate(zip(diag, B))]
        ncols = nrows + width
        want = sorted(structure._local_exponents(rows, ncols, ell, v))
        assert sorted(exps + [v] * (ncols - len(exps))) == want, (diag, B, ell, v)
        quotient = tuple(sorted(ell ** e for e in want if e))
        assert quotient == _sympy_invariant_factors(rows, ncols, ell ** v), (diag, B, ell, v)
    assert b_pivots >= 50


def test_step0_weight_columns_vanish_mod_24_kappa():
    """(delta) . r_d = 24 kappa (C_d)_N and (N/delta) . r_d = 24 kappa (C_d)_1,
    so both columns of the dense premise rows vanish mod 24 kappa(N)."""
    for n in list(range(2, 1501)) + list(ROADMAP_LADDER):
        m, s0 = 24 * kappa(n), len(divisors(n))
        for d, row in dense_premise_rows(n).items():
            assert row[s0] % m == 0 and row[s0 + 1] % m == 0, (n, d)


def test_adjoint_sums_match_the_dense_ligozat_sums():
    """_ligozat_sums, read off Upsilon^T w block by block, equals sum(r_d)
    and each ligozat_weights(N) . r_d computed densely, for every d > 1."""
    for n in range(1, 301):
        blocks = [structure._local_block(p, r) for p, r in factor(n).factors]
        ds, sums = structure._ligozat_sums(blocks)
        assert sorted(ds) == list(divisors(n)[1:]), n
        got = dict(zip(ds, zip(*sums)))
        for d, r in premise_vectors(n).items():
            want = (sum(r),) + tuple(sum(map(mul, w, r)) for w in ligozat_weights(n))
            assert got[d] == want, (n, d)


def test_eta_unit_lattice_level_11():
    # U_11 = Z * (12, -12)
    assert eta_unit_lattice(11) == ((12, -12),)


def _ligozat_image_size(n):
    """The size of the image of the weight-0 lattice in (Z/24)^2 x (Z/2)^t
    under r -> (sum r_d d, sum r_d N/d, sum of r_d over v_p(d) odd for each p),
    by closing the images of its basis e_1 - e_d under addition."""
    moduli = (24, 24) + (2,) * factor(n).t
    gens = [((1 - d) % 24, (n - n // d) % 24) + tuple(f % 2 for f in I)
            for d, I in zip(divisors(n)[1:], divisor_exponents(n)[1:])]
    seen = {(0,) * len(moduli)}
    for g in gens:
        frontier = list(seen)
        while frontier:
            frontier = [y for y in (tuple((a + b) % m for a, b, m in zip(x, g, moduli))
                                    for x in frontier) if y not in seen]
            seen.update(frontier)
    return len(seen)


def test_eta_unit_lattice_is_the_ligozat_kernel():
    """Every basis vector is an eta unit, and the basis has index |image| in
    the weight-0 lattice, whose coordinates at d > 1 are all of Z^(sigma0 - 1)."""
    for n in list(range(2, 200)) + [720, 840]:
        basis = eta_unit_lattice(n)
        assert all(ligozat_check(n, r) for r in basis), n
        index = abs(Matrix([r[1:] for r in basis]).det())
        assert index == _ligozat_image_size(n), n


def test_snf_oracle_examples():
    assert snf_oracle(1).invariant_factors == ()
    assert snf_oracle(11).invariant_factors == (5,)
    assert snf_oracle(32).invariant_factors == (4,)
    for n in GENUS_ZERO:
        assert snf_oracle(n).invariant_factors == ()


def test_compute_group_examples():
    G = compute_group(11)
    assert G.invariant_factors == (5,) and G.group_order == 5
    lab, vec, o = G.cyclic_factors[0]
    assert o == 5 and vec.as_dict() == {1: 1, 11: -1}  # (0) - (infinity)
    assert compute_group(32).invariant_factors == (4,)
    assert compute_group(49).invariant_factors == (2,)
    assert compute_group(1).group_order == 1


def test_group_invariants_consistent():
    for n in [30, 64, 90, 210]:
        G = compute_group(n)
        assert math.prod(o for _, _, o in G.cyclic_factors) == G.group_order
        assert math.prod(G.invariant_factors) == G.group_order
        for i in range(len(G.invariant_factors) - 1):
            assert G.invariant_factors[i + 1] % G.invariant_factors[i] == 0
        for lab, vec, o in G.cyclic_factors:
            assert profile(vec).order % o == 0


def test_ell_primary():
    G = compute_group(11)
    assert G.ell_primary == {5: (5,)}
    assert [(lab, o) for lab, _, o in G.cyclic_factors] == [("B(11,1,1)", 5)]
    # 2^r pattern
    assert compute_group(64).ell_primary[2] == (4, 4, 2)


def test_ell_primary_pq():
    # odd pq: three squarefree contributions at d = p, q, pq for each ell
    G = compute_group(35)
    labels = {lab for lab, _, _ in G.cyclic_factors}
    assert labels <= {"Y2(5)", "Y2(7)", "Y2(35)"}
    O = snf_oracle(35)
    assert G.invariant_factors == O.invariant_factors == (2, 24)


def test_certificates_pass():
    for n in [1, 11, 36, 63, 64, 128, 210]:
        rep = verify_certificates(n)
        assert rep.passed, rep.failures()[:4]


def test_crosscheck_range():
    for n in range(1, 120):
        rec = crosscheck(n)
        assert rec["pass"], rec["mismatches"]


def test_crosscheck_matches_the_batch_reference():
    with open(os.path.join(REPO, "perfbench", "reference", "batch-720.jsonl")) as fh:
        lines = fh.read().splitlines()[:300]
    for n, line in enumerate(lines, start=1):
        assert json.dumps(crosscheck(n), sort_keys=True) == line, n


def test_group_matches_the_seed0_reference():
    """group_to_json on every 16th level (sorted) of the benchmark's seed-0
    sample, levels up to 10^6; the digest is the first 16 hex digits of the
    sha256 of the sorted-key JSON, as in perfbench/worker.py."""
    with open(os.path.join(REPO, "perfbench", "reference", "group-seed0.json")) as fh:
        digests = json.load(fh)["digests"]
    levels = sorted(map(int, digests))[::16]
    assert len(levels) == 250
    for n in levels:
        text = json.dumps(group_to_json(compute_group(n)), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digests[str(n)], n


ORACLE = ("snf_oracle", "invariant_factors_of_quotient", "eta_unit_lattice")


def test_oracle_is_independent_of_the_generators():
    """The oracle functions, and every structure.py function they reach,
    name nothing imported from cuspidal.generators and no generator walk.
    The package modules whose names they use import nothing from
    generators or structure."""
    with open(structure.__file__) as fh:
        tree = ast.parse(fh.read())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    origin = {alias.asname or alias.name: node.module for node in tree.body
              if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    forbidden = {"_blocks", "compute_group", "verify_certificates"}
    forbidden |= {name for name, module in origin.items() if module == "generators"}
    assert {"generator_factors", "generator_vector", "generator_order"} <= forbidden
    seen, todo, modules = set(), list(ORACLE), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        used = {n.id for n in ast.walk(funcs[name]) if isinstance(n, ast.Name)}
        assert not used & forbidden, (name, sorted(used & forbidden))
        todo += [u for u in used if u in funcs]
        modules |= {origin[u] for u in used if u in origin}
    assert {"_local_exponents", "_merge_invariants", "_local_block", "_diagonalize",
            "_matmul", "_transpose_apply", "_ligozat_sums", "_bordered_exponents"} <= seen
    assert modules == {"divisors", "etalinalg", "intarith"}
    for module in modules:
        with open(os.path.join(os.path.dirname(structure.__file__), f"{module}.py")) as fh:
            imports = {node.module for node in ast.walk(ast.parse(fh.read()))
                       if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert not imports & {"generators", "structure"}, (module, imports)


def test_crosscheck_leaves_lambda24_empty():
    """The oracle reads C(N) off the premise vectors: no dense 24 Lambda is
    built or cached on the verify path."""
    etalinalg.lambda24.cache_clear()
    assert crosscheck(5040)["pass"]
    assert etalinalg.lambda24.cache_info().currsize == 0


def test_ordering_independence_spotcheck():
    # invariant factors agree with the oracle regardless of per-ell orderings
    for n in [30, 60, 210]:
        assert compute_group(n).invariant_factors == snf_oracle(n).invariant_factors


def test_flag():
    assert cuspidal_equals_rational(4 * 15)
    assert cuspidal_equals_rational(8 * 21)
    assert not cuspidal_equals_rational(16 * 3)
    assert not cuspidal_equals_rational(4 * 9)
    assert not cuspidal_equals_rational(11)


def test_group_json_schema():
    obj = group_to_json(compute_group(11))
    assert obj["N"] == 11
    assert obj["invariant_factors"] == ["5"]
    assert obj["group_order"] == "5"
    assert obj["generators"][0]["order"] == "5"
    assert obj["cuspidal_equals_rational_flag"] is False
    assert set(obj) == {"N", "ordering", "generators", "ell_primary",
                        "invariant_factors", "group_order",
                        "cuspidal_equals_rational_flag"}


# Per-criterion step counts of verify_certificates on the certify ladder.
CERTIFICATE_COUNTS = {
    5040: {"ell2/column": 11, "ell2/h-table": 15, "ell2/parity": 3,
           "nsf-unipotence": 88, "order/Y2/ell=2": 15, "order/Y2/ell=3": 15,
           "order/Z": 44, "sf-unipotence/ell=3": 30},
    30030: {"ell2/column": 57, "ell2/h-table": 63, "ell2/parity": 5,
            "order/Y2/ell=2": 63, "order/Y2/ell=3": 63, "order/Y2/ell=5": 63,
            "order/Y2/ell=7": 63, "sf-unipotence/ell=3": 126,
            "sf-unipotence/ell=5": 126, "sf-unipotence/ell=7": 126},
    55440: {"ell2/column": 26, "ell2/h-table": 31, "ell2/parity": 4,
            "nsf-unipotence": 176, "order/Y2/ell=2": 31, "order/Y2/ell=3": 31,
            "order/Y2/ell=5": 31, "order/Z": 88, "sf-unipotence/ell=3": 62,
            "sf-unipotence/ell=5": 62},
    2 ** 20: {"level16-relation": 2, "nsf-unipotence": 38, "order/Z": 20},
    3 ** 12: {"nsf-unipotence": 22, "order/Z": 12},
}


def test_certificate_criterion_counts():
    for n, want in CERTIFICATE_COUNTS.items():
        rep = verify_certificates(n)
        assert rep.passed, rep.failures()[:4]
        assert Counter(s["criterion"] for s in rep.steps) == Counter(want), n


def _generator_divisor(label):
    """The divisor d a generator label stands for: Z(d), Y2(d), B(p,r,f) = p^f,
    B2(r,f) = 2^f."""
    args = [int(x) for x in label[label.index("(") + 1:-1].split(",")]
    if label.startswith("B2("):
        return 2 ** args[1]
    if label.startswith("B("):
        return args[0] ** args[2]
    return args[0]


def test_every_generator_has_a_passing_order_step():
    for n in range(2, 301):
        passed = {(s["criterion"], s["detail"])
                  for s in verify_certificates(n).steps if s["pass"]}
        for label, _, o in compute_group(n).cyclic_factors:
            if label.startswith("Y2("):
                criterion = f"order/Y2/ell={factor(o).primes[0]}"
            else:
                criterion = "order/Z"
            assert (criterion, f"d={_generator_divisor(label)}") in passed, (n, label)


LADDER = (5040, 30030, 55440, 720720, 2 ** 20, 3 ** 12)


def _table_levels():
    """N <= 2000, the certificate ladder and 200 seeded levels <= 10^6."""
    rng = random.Random("blocks-table")
    return list(range(1, 2001)) + list(LADDER) + [rng.randint(1, 10 ** 6) for _ in range(200)]


def test_blocks_match_the_per_divisor_wrappers():
    """Every row's exponent tuple, order and vector, read off the exponent
    table, equal what the (L, d) wrappers derive from d alone."""
    for n in _table_levels():
        for blk in structure._blocks(n):
            L = blk.level
            for d, I, _, order in blk.rows:
                assert I == intarith.exponent_tuple(L.base, d), (n, blk.kind, d)
                if blk.kind == "Y2":
                    want = predicted_order(L, d, "Y2"), construct_Y(L, d)
                elif blk.kind == "Z":
                    want = predicted_order(L, d, "Z"), construct_Z(L, d)
                else:
                    (p, r), = L.base.factors
                    want = predicted_order(L, p, "Z"), base_vector_B(p, r)
                assert (order, blk.vector(d)) == want, (n, blk.kind, L.ell, d)


def test_factor_route_profiles_match_the_dense_route():
    """Each generator's profile read off its tensor factors equals profile()
    of its dense vector in every field: every row of every block, and the
    Z1 rows on T_u that verify_certificates profiles."""
    for n in _table_levels() + [2310]:
        seen = set()
        for blk in structure._blocks(n):
            if blk.profile in seen:
                continue
            seen.add(blk.profile)
            L = blk.level
            for d, I, _, _ in blk.rows:
                kind = "Y2" if blk.kind == "Y2" else "Z"
                routes = [(kind, blk.profile(d))]
                if kind == "Z" and generators.in_T_u(I, L.r_u, L.u):
                    routes.append(("Z1", tensor_profile(generators.generator_factors(L, I, "Z1"))))
                for k, got in routes:
                    want = profile(generators.generator_vector(L, I, k))
                    assert got == want and list(got.pw) == list(want.pw), (n, k, L.ell, d)


def test_certificates_apply_upsilon_only_at_factor_levels(monkeypatch):
    """verify_certificates applies Upsilon at the levels of the generators'
    tensor factors, p^r or p_i^r_i * p_j^r_j, never at N."""
    levels = []

    def record(n, vec):
        levels.append(n)
        return etalinalg.upsilon_apply(n, vec)

    monkeypatch.setattr(orderengine, "upsilon_apply", record)
    for n in (5040, 30030, 55440, 720720):
        orderengine._upsilon_image.cache_clear()
        levels.clear()
        assert verify_certificates(n).passed
        assert levels and all(m < n and n % m == 0 and factor(m).t <= 2 for m in levels), n


def test_blocks_share_tables_exactly_when_orderings_agree():
    for n in _table_levels():
        y2 = [blk for blk in structure._blocks(n) if blk.kind == "Y2"]
        for a in y2:
            for b in y2:
                same = (a.level.base.factors, a.level.s) == (b.level.base.factors, b.level.s)
                assert (a.vector is b.vector) == same, (n, a.level.ell, b.level.ell)
                assert (a.profile is b.profile) == same, (n, a.level.ell, b.level.ell)
                assert (a.rows is b.rows) == same, (n, a.level.ell, b.level.ell)


def test_table_path_never_recomputes_exponent_tuples(monkeypatch):
    def refuse(N, d):
        raise AssertionError(f"exponent_tuple({N.value}, {d}) called")

    for module in (intarith, generators):
        monkeypatch.setattr(module, "exponent_tuple", refuse)
    for n in (5040, 720720, 2 ** 20):
        assert compute_group(n).group_order > 1
        assert verify_certificates(n).passed


def test_certificate_steps_match_the_pinned_digest():
    """The sha256 over json.dumps(verify_certificates(N).steps), N = 1..300
    and then the certificate ladder, each level's steps hashed in turn."""
    h = hashlib.sha256()
    for n in list(range(1, 301)) + list(LADDER):
        h.update(json.dumps(verify_certificates(n).steps).encode())
    assert h.hexdigest() == \
        "b76da7a395c2b17294f83cf6154c2a4f13e81ac600628c4d5e66edee9dd4c2bd"


def test_ladder_json_contract_matches_the_pinned_digest():
    """The sha256 over the sorted-key JSON of crosscheck(N) and then
    group_to_json(compute_group(N)), for each level of the benchmark ladder in
    turn: the verify --json and group --json records of those levels."""
    h = hashlib.sha256()
    for n in (840, 960, 2310, 5040, 30030, 55440, 720720, 2 ** 20, 3 ** 12):
        h.update(json.dumps(crosscheck(n), sort_keys=True).encode())
        h.update(json.dumps(group_to_json(compute_group(n)), sort_keys=True).encode())
    assert h.hexdigest() == \
        "6cf1905e12070f6ef16d692aa41c30f5f4f909135d61a314a505231db04c83eb"


def test_divisor_orderings_computed_once_per_shape():
    shapes = {(blk.level.base.exponents, blk.level.u)
              for n in range(1, 721) for blk in structure._blocks(n)
              if blk.kind != "B" and blk.rows}
    generators.divisor_orderings.cache_clear()
    for n in range(1, 721):
        assert crosscheck(n)["pass"], n
    assert generators.divisor_orderings.cache_info().misses == len(shapes) == 109

import ast
import hashlib
import importlib
import json
import math
import os
import pkgutil
import random
from collections import Counter
from operator import mul
from typing import Callable, NamedTuple

import pytest
from sympy import Matrix, Symbol, eye, zeros
from sympy.matrices.normalforms import smith_normal_form

import cuspidal
from cuspidal import cli, etalinalg, generators, intarith, oracle, orderengine, structure
from cuspidal.divisors import CuspDivisor, from_dict, kron, tensor_join
from cuspidal.etalinalg import (_lambda24_block, _upsilon_block_entry, eta_divisor,
                                ligozat_check, ligozat_weights)
from cuspidal.generators import (base_vector_B, construct_Y, construct_Z,
                                 predicted_order)
from cuspidal.intarith import divisor_exponents, divisors, factor, kappa, valuation
from cuspidal.orderengine import profile, tensor_profile
from cuspidal.structure import (compute_group, crosscheck, cuspidal_equals_rational,
                                eta_unit_lattice, group_to_json,
                                invariant_factors_of_quotient, snf_oracle,
                                verify_certificates)
from references import (dense_oracle_invariants, dense_premise_rows, in_E_set, in_F_set,
                        in_G_set, in_H_u, last_column, premise_vectors, unlimited_str)

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
    """snf_oracle's ell-parts go through the shared product check of
    _invariants: handed an order they do not multiply to, it raises, naming N."""
    real = oracle._invariants
    monkeypatch.setattr(oracle, "_invariants", lambda prim, order, n: real(prim, 2 * order, n))
    with pytest.raises(ArithmeticError, match="do not multiply to 10: .* at N=11 .* outside \\[5\\]"):
        snf_oracle(11)


def test_invariants_merge_the_ell_primary_parts():
    assert oracle._invariants({2: [4, 8], 3: [9, 3], 5: []}, 864) == \
        ({2: (8, 4), 3: (9, 3)}, (12, 72))
    assert oracle._invariants({}, 1) == ({}, ())
    with pytest.raises(ArithmeticError, match="do not multiply to 4320: an order at N=35 "
                                              "has a prime factor outside \\[2, 3\\]"):
        oracle._invariants({2: [8, 4], 3: [9, 3]}, 4320, 35)


def test_compute_group_rejects_an_order_outside_the_primes_of_kappa(monkeypatch):
    """A closed-form order with a prime that kappa(N) lacks cannot be the
    order of an element of C(N): compute_group raises, naming N."""
    real = structure.generator_order
    monkeypatch.setattr(structure, "generator_order", lambda L, I, kind: 11 * real(L, I, kind))
    with pytest.raises(ArithmeticError, match="at N=12 has a prime factor outside"):
        compute_group(12)


def _weight_d_off_by_one(ds, sums):
    """Every weight-d sum plus one, so not 0 mod 24."""
    return ds, [sums[0], [x + 1 for x in sums[1]]] + sums[2:]


@pytest.mark.parametrize("patch", [
    # the oracle's Upsilon blocks become diag(1, 0, ..., 0)
    ("_upsilon_block_entry", lambda p, r, i, j: int(i == j == 0)),
    ("_ligozat_sums", lambda blocks, real=oracle._ligozat_sums:
        _weight_d_off_by_one(*real(blocks))),
])
def test_snf_oracle_checks_that_kappa_kills_the_group(monkeypatch, capsys, patch):
    oracle._local_block.cache_clear()
    monkeypatch.setattr(oracle, *patch)
    try:
        with pytest.raises(ArithmeticError, match="24 \\* Upsilon\\(C_11\\) is not an eta unit"):
            snf_oracle(11)
        assert cli.main(["verify", "11"]) == 2
    finally:
        monkeypatch.undo()
        oracle._local_block.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("error: 24 * Upsilon(C_11) is not an eta unit at N=11")
    assert "Traceback" not in err


@pytest.mark.parametrize("spoil", [
    lambda P, Pinv, Q, D: (P, Pinv, Q, (2,) + D[1:]),               # a wrong diagonal
    lambda P, Pinv, Q, D: (P, [row[::-1] for row in Pinv], Q, D),   # a wrong inverse
])
def test_local_block_checks_its_diagonalization(monkeypatch, spoil):
    real = oracle._diagonalize
    monkeypatch.setattr(oracle, "_diagonalize", lambda A: spoil(*real(A)))
    oracle._local_block.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="diagonalization of Upsilon\\(11\\^1\\)"):
            snf_oracle(11)
    finally:
        monkeypatch.undo()
        oracle._local_block.cache_clear()


def _parity_columns_dropped(monkeypatch):
    real = oracle._local_block
    monkeypatch.setattr(oracle, "_local_block", lambda p, r: (b := real(p, r))._replace(
        omega=(b.omega[0], (0,) * (r + 1))))


def _kappa_doubled(monkeypatch):
    real = oracle.kappa
    monkeypatch.setattr(oracle, "kappa", lambda n: 2 * real(n))


def _modulus_12_kappa(monkeypatch):
    """kappa(N) / 2 when it is even, so the oracle works modulo 12 kappa."""
    real = oracle.kappa
    monkeypatch.setattr(oracle, "kappa", lambda n: real(n) // 2 if real(n) % 2 == 0 else real(n))


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
    blocks = [oracle._local_block(p, r) for p, r in factor(n).factors]
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
        exps = oracle._bordered_exponents(diag, B, ell, v)
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
        blocks = [oracle._local_block(p, r) for p, r in factor(n).factors]
        ds, sums = oracle._ligozat_sums(blocks)
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
    lab, terms, o = G.cyclic_factors[0]
    assert o == 5 and terms() == [(1, 1), (11, -1)]  # (0) - (infinity)
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
        for lab, terms, o in G.cyclic_factors:
            assert profile(from_dict(n, dict(terms()))).order % o == 0


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


def test_crosscheck_on_a_uniform_sample():
    """150 uniform levels <= 10^6 (Random(5)), where about half of the Y2
    rows repeat a generator of another ell."""
    rng = random.Random(5)
    for n in [rng.randint(1, 10 ** 6) for _ in range(150)]:
        rec = crosscheck(n)
        assert rec["pass"], (n, rec["mismatches"])


def test_crosscheck_at_levels_with_a_hard_kappa():
    """Primes N above MAX_LEVEL with (N - 1)/2 and (N + 1)/12 prime, so that
    kappa(N) = 24 * (N - 1)/2 * (N + 1)/12: trial division on kappa(N)
    would run to (N + 1)/12, and it is never factored."""
    for n in (10004627, 100027163, 1000010723):
        rec = crosscheck(n)
        # C(N) is cyclic of order numerator((N - 1)/12), here (N - 1)/2
        assert rec["pass"] and rec["invariant_factors"] == [str((n - 1) // 2)], n


def test_group_order_prints_past_the_digit_limit():
    """|C(232792560)| has 6176 digits, past the 4300 that str() accepts by
    default on Python >= 3.11: group_to_json and crosscheck print it, and
    every order they print, as str() does with no limit."""
    n = 232792560
    G = compute_group(n)
    out, rec = group_to_json(G), crosscheck(n)
    assert rec["pass"], rec["mismatches"]
    assert len(unlimited_str(G.group_order)) == 6176
    assert out["group_order"] == rec["group_order"] == unlimited_str(G.group_order)
    assert out["invariant_factors"] == rec["invariant_factors"] == \
        list(map(unlimited_str, G.invariant_factors))
    assert [g["order"] for g in out["generators"]] == \
        [unlimited_str(o) for _, _, o in G.cyclic_factors]
    assert out["ell_primary"] == {str(ell): list(map(unlimited_str, v))
                                  for ell, v in sorted(G.ell_primary.items())}


def test_group_factors_only_n_and_p_plus_minus_1(monkeypatch):
    """compute_group and group_to_json hand factor only N and p - 1, p + 1
    for the primes p | N: not kappa(N), not a cyclic order and not the level
    of a generator's tensor factor.  Every call is seen, cache hit or not."""
    seen = []
    real = intarith.factor
    for info in pkgutil.iter_modules(cuspidal.__path__):
        module = importlib.import_module(f"cuspidal.{info.name}")
        if getattr(module, "factor", None) is real:
            monkeypatch.setattr(module, "factor", lambda n: seen.append(n) or real(n))
    rng = random.Random(30)
    for n in [rng.randint(1, 10 ** 6) for _ in range(1000)] + list(ROADMAP_LADDER):
        seen.clear()
        group_to_json(compute_group(n))
        allowed = {n} | {p + e for p in real(n).primes for e in (-1, 1)}
        assert seen and set(seen) <= allowed, (n, sorted(set(seen) - allowed))


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


def _package_imports(module: str) -> set:
    """The package modules that a module of the package imports, at top
    level or inside a function, in relative or absolute form."""
    with open(os.path.join(os.path.dirname(oracle.__file__), f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"cuspidal.{base}".rstrip(".")
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("cuspidal.")}


def test_oracle_is_independent_of_the_generators():
    """Every package module that oracle reaches through imports, directly
    or not, is divisors, etalinalg or intarith: never generators,
    orderengine or structure, which implement Yoo's theory."""
    reached, todo = set(), ["oracle"]
    while todo:
        new = _package_imports(todo.pop()) - reached
        reached |= new
        todo += new
    assert reached == {"divisors", "etalinalg", "intarith"}
    assert structure.snf_oracle is oracle.snf_oracle


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


def test_flag_is_4M_or_8M_with_M_odd_squarefree():
    """The flag encodes that hypothesis only: it is False at squarefree N and
    at N = 2M, though every cusp is rational there."""
    for n in range(1, 1001):
        m, r2 = n >> valuation(n, 2), valuation(n, 2)
        want = r2 in (2, 3) and all(r == 1 for r in factor(m).exponents)
        assert cuspidal_equals_rational(n) == want, n
    assert not any(map(cuspidal_equals_rational, (2, 6, 35, 210, 2 * 3 * 5 * 7 * 11)))


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
    4620: {"ell2/column": 26, "ell2/h-table": 31, "ell2/parity": 4,
           "nsf-unipotence": 32, "order/Y2/ell=2": 31, "order/Y2/ell=3": 31,
           "order/Y2/ell=5": 31, "order/Z": 16, "sf-unipotence/ell=3": 62,
           "sf-unipotence/ell=5": 62},
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


def _basis_rows(n):
    """(invariant factors, P, generators) of compute_group(N), in the
    coordinates (-c_d)_{d > 1} of a degree-0 divisor sum c_d (P_d): P the
    eta divisors of the basis of eta_unit_lattice(N), and each printed
    generator scaled by its class order over its printed order, the factor's
    generator (a Y2 row prints the ell-part of its order)."""
    G = compute_group(n)
    P = [[-c for c in eta_divisor(n, r).coeffs[1:]] for r in eta_unit_lattice(n)]
    gens = []
    for label, terms, order in G.cyclic_factors:
        D = from_dict(n, dict(terms()))
        scale, rest = divmod(profile(D).order, order)
        assert rest == 0, (n, label)
        gens.append([-scale * c for c in D.coeffs[1:]])
    return G.invariant_factors, P, gens


def _quotient(n, rows):
    """Z^(sigma0(N) - 1) / (<rows> + 24 kappa(N)): the rows span their group
    exactly when it is ()."""
    return invariant_factors_of_quotient(rows, len(divisors(n)) - 1, 24 * kappa(n))


def _assert_printed_basis(levels):
    """(a) the quotient by P is C(N), and (b) P and the printed generators
    span: as each printed order is exact and they multiply to |C(N)|, the
    cyclic factors are a direct sum, Yoo's decomposition."""
    for n in levels:
        invs, P, gens = _basis_rows(n)
        assert _quotient(n, P) == invs, n
        assert _quotient(n, P + gens) == (), n


def test_printed_generators_are_a_basis():
    _assert_printed_basis([*range(1, 501), 720, 840, 960, 2310, 5040, 2 ** 20, 3 ** 12])


@pytest.mark.slow
def test_printed_generators_are_a_basis_to_1500():
    _assert_printed_basis([*range(501, 1501), 30030, 55440])


def test_basis_check_fails_on_a_repeated_generator():
    """With the last printed generator replaced by a copy of the first, (b)
    fails at every level <= 500 with two or more cyclic factors."""
    spoiled = 0
    for n in range(1, 501):
        _, P, gens = _basis_rows(n)
        if len(gens) >= 2:
            spoiled += 1
            assert _quotient(n, P + gens[:-1] + gens[:1]) != (), n
    assert spoiled == 390


LADDER =(5040, 30030, 55440, 720720, 2 ** 20, 3 ** 12)


def _table_levels():
    """N <= 2000, the certificate ladder and 200 seeded levels <= 10^6."""
    rng = random.Random("blocks-table")
    return list(range(1, 2001)) + list(LADDER) + [rng.randint(1, 10 ** 6) for _ in range(200)]


def test_blocks_match_the_per_divisor_wrappers():
    """Every row's exponent tuple, order and vector, read off the exponent
    table, equal what the (L, d) wrappers derive from d alone.  The vector is
    the tensor_join of the row's factors, which checks that their levels are
    coprime and places the terms through from_dict, and generator_terms,
    which multiplies the supports with neither, gives its terms."""
    for n in _table_levels():
        for blk in structure._blocks(n):
            L = blk.level
            gen = "Y2" if blk.kind == "Y2" else "Z"
            for d, I, _, order in blk.rows:
                assert I == intarith.exponent_tuple(L.base, d), (n, blk.kind, d)
                if blk.kind == "Y2":
                    want = predicted_order(L, d, "Y2"), construct_Y(L, d)
                elif blk.kind == "Z":
                    want = predicted_order(L, d, "Z"), construct_Z(L, d)
                else:
                    (p, r), = L.base.factors
                    want = predicted_order(L, p, "Z"), base_vector_B(p, r)
                joined = tensor_join(*generators.generator_factors(L, I, gen))
                assert (order, joined) == want, (n, blk.kind, L.ell, d)
                assert generators.generator_terms(L, I, gen) == list(joined.support), \
                    (n, blk.kind, L.ell, d)


def _assert_factor_route_matches_the_dense_route(n):
    """Each generator's profile at N read off its tensor factors equals
    profile() of its dense vector in every field and in the key order of
    Pw, and its V is Upsilon(N) times that vector: every row of every
    block, and the Z1 rows on T_u that verify_certificates profiles.  A
    block of the kind and (factors, s) of one already seen has its rows."""
    seen = set()
    for blk in structure._blocks(n):
        L = blk.level
        key = (blk.kind, L.base.factors, L.s)
        if key in seen:
            continue
        seen.add(key)
        kind = "Y2" if blk.kind == "Y2" else "Z"
        for d, I, _, _ in blk.rows:
            routes = [(kind, tensor_profile(generators.generator_factors(L, I, kind)))]
            if kind == "Z" and intarith.in_T_u(I, L.r_u, L.u):
                routes.append(("Z1", tensor_profile(generators.generator_factors(L, I, "Z1"))))
            for k, got in routes:
                vec = generators.generator_vector(L, I, k)
                want = profile(vec)
                assert got == want and got.V == etalinalg.upsilon_apply(n, vec.coeffs), \
                    (n, k, L.ell, d)
                assert list(got.pw) == list(want.pw), (n, k, L.ell, d)


def test_factor_route_profiles_match_the_dense_route():
    for n in _table_levels() + [2310]:
        _assert_factor_route_matches_the_dense_route(n)


@pytest.mark.slow
def test_factor_route_profiles_match_the_dense_route_to_3000():
    """As above on every N <= 3000 and 300 uniform levels <= 10^6 (Random(0))."""
    rng = random.Random(0)
    for n in list(range(1, 3001)) + [rng.randint(1, 10 ** 6) for _ in range(300)]:
        _assert_factor_route_matches_the_dense_route(n)


def test_every_cache_shares_one_bound():
    """Every functools cache that a package module defines, whether keyed by
    a level, a prime power or a shape, holds at most intarith.CACHE_SIZE
    entries, however many levels a sweep visits; the level's divisor data
    lives on factor's FactoredInteger, intarith's one cache."""
    caches = {}  # "module.name": maxsize
    for info in pkgutil.iter_modules(cuspidal.__path__):
        module = importlib.import_module(f"cuspidal.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = obj.cache_info().maxsize
    assert {"oracle._local_block", "generators._case",
            "orderengine._factor_profile"} <= set(caches)
    assert set(caches.values()) == {intarith.CACHE_SIZE}, caches
    assert [name for name in caches if name.startswith("intarith.")] == ["intarith.factor"]


def _spoil_factor(spoil):
    """An injector that passes the profile of every tensor factor through
    spoil before tensor_profile reads it."""
    def inject(monkeypatch):
        real = orderengine._factor_profile
        monkeypatch.setattr(orderengine, "_factor_profile",
                            lambda m, coeffs: spoil(real(m, coeffs)))
    return inject


def _wbar_entry_off_by_one(f):
    """One unit of Wbar moved from d = 1 to d = m, so the support total,
    which tensor_profile reads off the factor, is unchanged."""
    if not f.support:
        return f
    wbar = {**f.support}
    for d, step in ((f.n, 1), (1, -1)):
        wbar[d] = wbar.get(d, 0) + step
    return f._replace(support={d: x for d, x in sorted(wbar.items()) if x})


def _gcd_doubled(f):
    return f._replace(gcd_value=2 * f.gcd_value)


def _parity_sum_flipped(f):
    if not f.pw:
        return f
    (p, s), *rest = f.pw.items()
    return f._replace(pw={p: s + 1, **dict(rest)})


def _extra_support_term_at_N(f):
    """Each factor's Wbar gains the term 1 at d = m, its own level, unless it
    holds m already, and m becomes its top in every significance, so each
    Vbar at N has a nonzero entry at d = N, a delta that comes late in the
    divisor orderings."""
    return f._replace(support={f.n: 1, **f.support}, tops=dict.fromkeys(f.tops, f.n))


def _patch_everywhere(monkeypatch, name, fn, modules):
    for module in modules:
        monkeypatch.setattr(module, name, fn)


def _branch(L, I, kind):
    """The _case branch of the generator of kind "Z" (Z and B blocks) or
    "Y2" at the exponent tuple I of L, as named in BRANCH_KEYS."""
    if kind != "Y2":
        return ("B" if not intarith.in_square(I) else
                "B2" if intarith.in_T_u(I, L.r_u, L.u) else "A")
    return next((name for name, hit in (
        ("F", in_F_set(I, L.s)), ("G", in_G_set(I, L.s)),
        ("E", in_E_set(I)), ("H_u", in_H_u(I, L.u))) if hit), "pair")


def _order_scaled_on_branch(branch):
    """An injector: the closed-form order of the generators of this _case
    branch alone, times the block's ell for Y2 and times 2 for Z and B."""
    real = generators.generator_order

    def order(L, I, kind):
        o = real(L, I, kind)
        if _branch(L, I, kind) != branch:
            return o
        return o * (L.ell if kind == "Y2" else 2)

    return lambda monkeypatch: _patch_everywhere(monkeypatch, "generator_order", order,
                                                 (generators, structure))


def _Y2_order_tripled_on_D_pairs(monkeypatch):
    """The closed-form order of every Y2 generator with a two-prime D
    vector, times 3."""
    real = generators.generator_order

    def order(L, I, kind):
        o = real(L, I, kind)
        return 3 * o if kind == "Y2" and generators._case(I, L.u, L.s, L.r_u, kind)[1] else o

    _patch_everywhere(monkeypatch, "generator_order", order, (generators, structure))


def _first_two_primes_swapped(monkeypatch):
    """order_primes with its first two primes swapped, built by _make_level,
    so that _admissible never sees it."""
    real = generators.order_primes

    def swapped(n, ell):
        fs = real(n, ell).base.factors
        return generators._make_level(fs[1::-1] + fs[2:], ell)

    _patch_everywhere(monkeypatch, "order_primes", swapped, (generators, structure))


def _first_two_primes_swapped_for_ell_5(monkeypatch):
    """As above for ell = 5 only, at levels where ell = 3 and ell = 5 share
    an ordering without the defect: a Y2 table is shared by value, so ell = 5
    gets its own table and its own certificates."""
    real = generators.order_primes

    def swapped(n, ell):
        L = real(n, ell)
        fs = L.base.factors
        return generators._make_level(fs[1::-1] + fs[2:], ell) if ell == 5 else L

    _patch_everywhere(monkeypatch, "order_primes", swapped, (generators, structure))


def _certificate_T_u_flipped(monkeypatch):
    """The T_u test of the certificates and labels negated when 2^5 | N, so
    the B2 generators are held to the unipotence of Z1.  The generators keep
    the true T_u: flipped there, _case asks for B2(r, f) outside 3 <= f <= r,
    which raises ValueError."""
    real = intarith.in_T_u
    monkeypatch.setattr(structure, "in_T_u", lambda I, r_u, u: real(I, r_u, u) != (r_u >= 5))


def _kappa_doubled_everywhere(monkeypatch):
    real = intarith.kappa
    _patch_everywhere(monkeypatch, "kappa", lambda n: 2 * real(n),
                      (intarith, oracle, orderengine))


def _upsilon_corner_off_by_one(monkeypatch):
    """The entry (r, r) of every block Upsilon(p^r), r >= 2, plus one."""
    real = etalinalg._upsilon_block_entry
    _patch_everywhere(monkeypatch, "_upsilon_block_entry",
                      lambda p, r, i, j: real(p, r, i, j) + (r >= 2 and i == j == r),
                      (etalinalg, oracle))


def _parity_weights_zeroed(monkeypatch):
    """Ligozat's parity weights 12 [v_p(d) odd] all zero."""
    real = etalinalg.ligozat_weights

    def weights(n):
        w = real(n)
        return w[:2] + tuple((0,) * len(row) for row in w[2:])

    _patch_everywhere(monkeypatch, "ligozat_weights", weights,
                      (etalinalg, oracle, orderengine, structure))


class _Defect(NamedTuple):
    """A defect to inject and fixed levels where crosscheck must then report
    exactly the mismatch kinds, its failed certificate criteria (the
    "/ell=..." suffix dropped) among criteria, or raise an ArithmeticError
    that matches raises instead."""
    inject: Callable
    levels: tuple
    kinds: tuple = ()
    criteria: frozenset = frozenset()
    raises: str = ""


_ORACLE = ("invariant_factors",)
_CERTIFICATES = ("certificates",)
_BOTH = ("invariant_factors", "certificates")

# Defects injected into the oracle, into the factor profiles that
# tensor_profile combines (one per identity it relies on, and an entry at N
# in the data the certificates read off them), into Yoo's route (a
# closed-form order, a prime ordering, the T_u test, the closed-form order
# of one _case branch at its smallest tier-1 witness), and into the premises
# both routes share (kappa, Upsilon, the parity weights), patched in every
# module that binds the name.
DEFECTS = {
    "parity columns dropped": _Defect(_parity_columns_dropped, (15, 24, 32, 35, 64, 210), _ORACLE),
    "kappa doubled": _Defect(_kappa_doubled, (5, 12, 16, 35, 64, 210), _ORACLE),
    "wrong modulus 12 kappa": _Defect(_modulus_12_kappa, (14, 15, 24, 32, 35, 210), _ORACLE),
    "one Wbar entry off by one": _Defect(
        _spoil_factor(_wbar_entry_off_by_one), (12, 30, 60, 210, 720), _CERTIFICATES,
        {"nsf-unipotence", "sf-unipotence", "ell2/column"}),
    "gcd doubled": _Defect(_spoil_factor(_gcd_doubled), (15, 20, 60, 210, 720),
                           _CERTIFICATES, {"order/Z", "order/Y2"}),
    "parity sum flipped": _Defect(
        _spoil_factor(_parity_sum_flipped), (12, 30, 60, 210, 720), _CERTIFICATES,
        {"ell2/h-table", "ell2/parity", "order/Z", "order/Y2"}),
    "extra support term at N": _Defect(
        _spoil_factor(_extra_support_term_at_N), (12, 30, 60, 210, 720), _CERTIFICATES,
        {"nsf-unipotence", "sf-unipotence", "ell2/column"}),
    "Y2 order tripled on D pairs": _Defect(_Y2_order_tripled_on_D_pairs, (6, 10, 15),
                                           _BOTH, {"order/Y2"}),
    "first two primes swapped": _Defect(
        _first_two_primes_swapped, (15, 21, 30, 35), _BOTH,
        {"sf-unipotence", "ell2/column", "ell2/parity"}),
    "first two primes swapped for ell = 5": _Defect(
        _first_two_primes_swapped_for_ell_5, (55, 93, 99, 155), _BOTH, {"sf-unipotence"}),
    "certificate T_u flipped": _Defect(_certificate_T_u_flipped, (32, 64, 96),
                                       _CERTIFICATES, {"nsf-unipotence"}),
    # 2, 4 and the primes p = 3 (mod 4) pass with kappa doubled
    "kappa doubled everywhere": _Defect(
        _kappa_doubled_everywhere, (5, 6, 12, 32), _BOTH,
        {"order/Z", "order/Y2", "level16-relation"}),
    "Upsilon corner off by one": _Defect(_upsilon_corner_off_by_one, (4, 9, 12),
                                         raises="is not an eta unit"),
    "parity weights zeroed": _Defect(
        _parity_weights_zeroed, (15, 17, 20, 32), _BOTH,
        {"ell2/h-table", "ell2/parity", "order/Z", "order/Y2"}),
    "B order doubled": _Defect(_order_scaled_on_branch("B"), (2,), _BOTH, {"order/Z"}),
    "A order doubled": _Defect(_order_scaled_on_branch("A"), (4,), _BOTH, {"order/Z"}),
    "B2 order doubled": _Defect(_order_scaled_on_branch("B2"), (32,), _BOTH, {"order/Z"}),
    "E order times ell": _Defect(_order_scaled_on_branch("E"), (6,), _BOTH, {"order/Y2"}),
    "F order times ell": _Defect(_order_scaled_on_branch("F"), (30,), _BOTH, {"order/Y2"}),
    "G order times ell": _Defect(_order_scaled_on_branch("G"), (20,), _BOTH, {"order/Y2"}),
    "H_u order times ell": _Defect(_order_scaled_on_branch("H_u"), (60,), _BOTH,
                                   {"order/Y2"}),
    "pair order times ell": _Defect(_order_scaled_on_branch("pair"), (6,), _BOTH,
                                    {"order/Y2"}),
}


def _clear_level_caches():
    """The caches a defect in kappa, Upsilon or the Ligozat weights can
    fill with wrong entries."""
    for cached in (oracle._local_block, orderengine._factor_profile,
                   etalinalg._upsilon_axes, etalinalg.upsilon):
        cached.cache_clear()


@pytest.mark.parametrize("name", DEFECTS)
def test_crosscheck_catches_injected_defects(monkeypatch, name):
    defect = DEFECTS[name]
    _clear_level_caches()
    defect.inject(monkeypatch)
    try:
        for n in defect.levels:
            if defect.raises:
                with pytest.raises(ArithmeticError, match=defect.raises):
                    crosscheck(n)
                continue
            rec = crosscheck(n)
            assert [m["kind"] for m in rec["mismatches"]] == list(defect.kinds), (name, n)
            failed = {s["criterion"].split("/ell=")[0] for m in rec["mismatches"]
                      if m["kind"] == "certificates" for s in m["failures"]}
            assert failed <= defect.criteria, (name, n, failed)
    finally:
        monkeypatch.undo()
        _clear_level_caches()


def test_certificates_apply_upsilon_only_at_factor_levels(monkeypatch):
    """verify_certificates applies Upsilon at the levels of the generators'
    tensor factors, p^r or p_i^r_i * p_j^r_j, never at N."""
    levels = []

    def record(n, vec):
        levels.append(n)
        return etalinalg.upsilon_apply(n, vec)

    monkeypatch.setattr(orderengine, "upsilon_apply", record)
    for n in (5040, 30030, 55440, 720720):
        orderengine._factor_profile.cache_clear()
        levels.clear()
        assert verify_certificates(n).passed
        assert levels and all(m < n and n % m == 0 and factor(m).t <= 2 for m in levels), n


def test_certificates_read_no_dense_Vbar(monkeypatch):
    """verify_certificates reads each profile's support, never the
    sigma0(N)-long Vbar or V built from it."""
    def refuse(prof):
        raise AssertionError(f"dense Vbar read at level {prof.n}")

    monkeypatch.setattr(orderengine.OrderProfile, "Vbar", property(refuse))
    for n in LADDER:
        assert verify_certificates(n).passed, n


def test_certificates_build_no_tensor_support(monkeypatch):
    """verify_certificates reads every diagonal, column entry and zero tail
    off the tensor factors: it passes with orderengine.tensor_terms refusing
    to run, on N <= 720 and the certificate ladder, with the pinned
    criterion counts."""
    def refuse(levels, supports):
        raise AssertionError(f"a tensor support at the levels {levels} was built")

    monkeypatch.setattr(orderengine, "tensor_terms", refuse)
    for n in list(range(1, 721)) + list(LADDER):
        rep = verify_certificates(n)
        assert rep.passed, n
        if n in CERTIFICATE_COUNTS:
            assert Counter(s["criterion"] for s in rep.steps) == \
                Counter(CERTIFICATE_COUNTS[n]), n


def test_certificate_entries_match_the_full_support_scan(monkeypatch):
    """Every row of N <= 1500 and the certificate ladder: each diagonal and
    each ell = 2 column entry read off the factors is the entry of the full
    tensor support, and the rank of each profile's top, which the zero
    tails and the column checks read, is the last column that the support
    reaches, references.last_column."""
    real_unipotent = structure._check_unipotent
    real_ell2 = structure._ell2_split_conditions
    rows_seen = Counter()

    def check_reach(n, deltas, profs, reach):
        rank = {delta: j for j, delta in enumerate(deltas)}
        supports = [p.support for p in profs]
        assert reach == [last_column(support, rank) for support in supports], n
        return supports

    def unipotent(rep, rows, deltas, profs, reach, label, modulus=None):
        supports = check_reach(rep.n, deltas, profs, reach)
        for i, (p, support) in enumerate(zip(profs, supports)):
            assert p.value(deltas[i]) == support.get(deltas[i], 0), (rep.n, label, i)
        rows_seen["unipotent"] += len(profs)
        real_unipotent(rep, rows, deltas, profs, reach, label, modulus)

    def ell2(rep, L, rows, deltas, profs, reach):
        supports = check_reach(rep.n, deltas, profs, reach)
        for j, delta in enumerate(deltas[:len(rows)]):
            for p, support in zip(profs[:j + 1], supports):
                assert p.value(delta) == support.get(delta, 0), (rep.n, j)
        rows_seen["ell2"] += len(profs)
        real_ell2(rep, L, rows, deltas, profs, reach)

    monkeypatch.setattr(structure, "_check_unipotent", unipotent)
    monkeypatch.setattr(structure, "_ell2_split_conditions", ell2)
    for n in list(range(1, 1501)) + list(LADDER):
        assert verify_certificates(n).passed, n
    assert rows_seen["unipotent"] and rows_seen["ell2"]


def test_crosscheck_witnesses_the_H_u_branch_at_s_4():
    """4620 = 2^2*3*5*7*11 is the smallest level with Y2 generators in the
    H_u branch of _case at s = 4, with H = 1 (d = 11, 33) and H = 2
    (d = 231), a branch no other tier-1 level reaches.  Its certificate
    steps per criterion are pinned in CERTIFICATE_COUNTS."""
    n = 4620
    assert crosscheck(n)["pass"]
    witnesses = {}
    for blk in structure._blocks(n):
        L = blk.level
        if blk.kind != "Y2" or L.s != 4:
            continue
        for d, I, _, _ in blk.rows:
            # _case's last branch, a D pair (m, k), taken on H_u
            if not (in_F_set(I, L.s) or in_G_set(I, L.s)
                    or in_E_set(I)) and in_H_u(I, L.u):
                witnesses[d] = generators._case(I, L.u, L.s, L.r_u, "Y2")[2]
    assert witnesses == {11: 1, 33: 1, 231: 2}


# (block kind, _case branch, H, s) of every generator row of _blocks(N) over
# N <= 720, ROADMAP_LADDER, 4620 and 3000 uniform levels <= 10^6 (Random(0)).
# The branches are A and B2 (on T_u) for Z, B for the block B(p, r, 1) at
# N = p^r, and F, G, E, H_u (a D pair (m, k)) and pair (a D pair (m, n)) for Y2.
BRANCH_KEYS = {(kind, branch, H, s) for kind, branch, H, ss in (
    ("B", "B", 2, (0, 1)),
    ("Z", "A", 1, (0, 1)), ("Z", "A", 2, (1,)), ("Z", "B2", 1, (1,)), ("Z", "B2", 2, (1,)),
    ("Y2", "E", 1, range(7)), ("Y2", "E", 2, range(7)),
    ("Y2", "F", 1, range(1, 7)), ("Y2", "G", 1, (1,)),
    ("Y2", "H_u", 1, (0, 2, 3, 4)), ("Y2", "H_u", 2, (0, 2, 3, 4)),
    ("Y2", "pair", 1, range(7)), ("Y2", "pair", 2, range(7))) for s in ss}


def _branch_keys(n):
    """The BRANCH_KEYS keys of the rows of _blocks(N), read off the exponent
    tuples as _case reads them, without building or profiling a generator."""
    keys = set()
    for blk in structure._blocks(n):
        L = blk.level
        gen = "Y2" if blk.kind == "Y2" else "Z"
        for _, I, _, _ in blk.rows:
            H = generators._case(I, L.u, L.s, L.r_u, gen)[2]
            keys.add((blk.kind, _branch(L, I, gen), H, L.s))
    return keys


def test_tier1_crosschecks_witness_every_generator_branch():
    """The levels tier-1 crosschecks (N <= 720 and ROADMAP_LADDER in
    test_divisor_orderings_computed_once_per_shape and the ladder digest,
    4620 in the H_u witness test) reach every key of BRANCH_KEYS."""
    assert len(BRANCH_KEYS) == 50
    levels = list(range(1, 721)) + list(ROADMAP_LADDER) + [4620]
    assert set().union(*map(_branch_keys, levels)) == BRANCH_KEYS


@pytest.mark.slow
def test_branch_keys_are_those_of_a_wide_sample():
    """BRANCH_KEYS is exactly the set the wide sample reaches."""
    rng = random.Random(0)
    levels = list(range(1, 721)) + list(ROADMAP_LADDER) + [4620]
    levels += [rng.randint(1, 10 ** 6) for _ in range(3000)]
    assert set().union(*map(_branch_keys, levels)) == BRANCH_KEYS


def test_crosscheck_builds_no_generator(monkeypatch):
    """crosscheck reads only the orders: it passes with the block term
    builder and generator_vector both refusing to run, while group_to_json,
    which prints the generators, cannot."""
    def refuse(L, I, kind):
        raise AssertionError(f"the {kind} generator at {I} was built")

    monkeypatch.setattr(structure, "generator_terms", refuse)
    monkeypatch.setattr(generators, "generator_vector", refuse)
    for n in (4620, 5040, 30030, 55440, 720720, 2 ** 20, 3 ** 12):
        assert crosscheck(n)["pass"], n
    with pytest.raises(AssertionError, match="was built"):
        group_to_json(compute_group(5040))


def test_blocks_share_tables_exactly_when_orderings_agree():
    """Y2 blocks of one (factors, s) hold one rows tuple, built once, and
    blocks of different (factors, s) hold different rows; one block per
    relevant ell, in ascending ell, each on its own order_primes(N, ell).
    Blocks are plain data, (kind, level, rows)."""
    assert structure._Block._fields == ("kind", "level", "rows")
    for n in _table_levels():
        y2 = [blk for blk in structure._blocks(n) if blk.kind == "Y2"]
        if y2:
            assert [b.level.ell for b in y2] == list(structure._relevant_ells(n)), n
        for a in y2:
            assert a.level == generators.order_primes(n, a.level.ell), (n, a.level.ell)
            for b in y2:
                same = (a.level.base.factors, a.level.s) == (b.level.base.factors, b.level.s)
                assert (a.rows is b.rows) == same, (n, a.level.ell, b.level.ell)
    for n in DEFECTS["first two primes swapped for ell = 5"].levels:
        rows = {blk.level.ell: blk.rows for blk in structure._blocks(n) if blk.kind == "Y2"}
        assert rows[3] is rows[5], n


def test_table_path_never_recomputes_exponent_tuples(monkeypatch):
    def refuse(N, d):
        raise AssertionError(f"exponent_tuple({N.value}, {d}) called")

    for module in (intarith, generators):
        monkeypatch.setattr(module, "exponent_tuple", refuse)
    for n in (5040, 720720, 2 ** 20):
        assert compute_group(n).group_order > 1
        assert verify_certificates(n).passed


def test_certificate_steps_match_the_pinned_digest():
    """The sha256 over json.dumps(verify_certificates(N).steps), N = 1..1500
    and then the certificate ladder, each level's steps hashed in turn:
    every criterion, detail and pass of every step."""
    h = hashlib.sha256()
    for n in list(range(1, 1501)) + list(LADDER):
        h.update(json.dumps(verify_certificates(n).steps).encode())
    assert h.hexdigest() == \
        "0f5af02f13fba5138076291ecf56c2c69c17a217cc9697aff0903dba5a1468a8"


@pytest.mark.slow
def test_certificate_steps_at_the_largest_levels_match_the_pinned_digests():
    """As above at 6983776800 (sigma0 = 2304) and 963761198400 (sigma0 =
    6720, the most divisors of any N <= 10^12), where the tensor supports
    are largest, one digest per level."""
    for n, want in (
            (6983776800, "8d4e065973a033692165955211c7323ec34efa8605518ffc5e31fddc31bd880f"),
            (963761198400, "899a55c875a362d4b79bc35b3122085d0dfbdfc7b4194c8169c92db1ef962e81")):
        steps = verify_certificates(n).steps
        assert hashlib.sha256(json.dumps(steps).encode()).hexdigest() == want, n


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


@pytest.mark.slow
def test_group_and_crosscheck_json_match_the_pinned_digests():
    """The behaviour contract on a wide range.  Group: the sha256 over
    json.dumps(group_to_json(compute_group(N))) for N = 1..3000 and then 3000
    levels drawn by one random.Random(3).randint(1, 10**6), each hashed in
    turn.  Crosscheck: the sha256 over the sorted-key JSON of crosscheck(N)
    for N = 1..1500 and then the first 600 of those drawn levels."""
    rng = random.Random(3)
    drawn = [rng.randint(1, 10 ** 6) for _ in range(3000)]
    h = hashlib.sha256()
    for n in [*range(1, 3001), *drawn]:
        h.update(json.dumps(group_to_json(compute_group(n))).encode())
    assert h.hexdigest() == \
        "52f498d0226e0829b60b0a959c0fb93082f8fbb72f047b79be761cffda4e7b46"
    h = hashlib.sha256()
    for n in [*range(1, 1501), *drawn[:600]]:
        h.update(json.dumps(crosscheck(n), sort_keys=True).encode())
    assert h.hexdigest() == \
        "3449ff0bb0f8ece8499b3697ef441cc38bdf1c5548b659759f297d30c33892b9"


def test_divisor_orderings_computed_once_per_shape():
    shapes = {(blk.level.base.exponents, blk.level.u)
              for n in range(1, 721) for blk in structure._blocks(n)
              if blk.kind != "B" and blk.rows}
    generators.divisor_orderings.cache_clear()
    for n in range(1, 721):
        assert crosscheck(n)["pass"], n
    assert generators.divisor_orderings.cache_info().misses == len(shapes) == 109


def _guard_levels():
    return list(range(1, 721)) + list(ROADMAP_LADDER)


def test_generator_orders_computed_once_per_distinct_table(monkeypatch):
    """_blocks(N) runs generator_order once per Z or B row and once per row
    of each distinct Y2 table, one per (factors, s) of order_primes(N, ell)
    over the relevant ell: 2^t - 1 squarefree divisors d > 1 each."""
    calls = Counter()
    real = structure.generator_order

    def count(L, I, kind):
        calls[kind] += 1
        return real(L, I, kind)

    monkeypatch.setattr(structure, "generator_order", count)
    for n in _guard_levels():
        calls.clear()
        list(structure._blocks(n))
        fn = factor(n)
        nsf = sum(1 for I in divisor_exponents(n)[1:] if intarith.in_square(I))
        tables = {(L.base.factors, L.s) for L in (generators.order_primes(n, ell)
                                                  for ell in structure._relevant_ells(n))}
        want = Counter()
        if fn.t == 1:
            want["Z"] = nsf + 1
        elif fn.t:
            want["Z"] = nsf
            want["Y2"] = len(tables) * (2 ** fn.t - 1)
        assert calls == want, n


def _factor_multiset(vecs):
    """The tensor factors of a generator as sorted (level, coeffs) pairs: the
    generator whatever the slot order of its prime ordering, and counting
    them hashes no CuspDivisor."""
    return tuple(sorted([(v.n, v.coeffs) for v in vecs]))


def test_certificates_profile_each_distinct_generator_once_per_level(monkeypatch):
    """verify_certificates calls tensor_profile once per Z row, once more per
    Z1 row on T_u where Z1 differs from Z (f_u < r_u), once for the B row
    and once per distinct Y2 generator of the level, however many distinct
    Y2 tables hold it: each profiled factor set is a generator of the walk,
    profiled once.  No divisor is hashed, so it runs with
    CuspDivisor.__hash__ refusing.  Over N <= 720 that is 6846 calls, where
    one per row of each distinct table was 8289."""
    calls = Counter()
    real = structure.tensor_profile

    def record(vecs):
        calls[_factor_multiset(vecs)] += 1
        return real(vecs)

    def refuse(D):
        raise AssertionError(f"a divisor at level {D.n} was hashed")

    monkeypatch.setattr(structure, "tensor_profile", record)
    total = 0
    for i, n in enumerate(_guard_levels()):  # N = 1..720, then the ladder
        blocks = tuple(structure._blocks(n))
        want, y2 = Counter(), set()
        for blk in blocks:
            L = blk.level
            for _, I, _, _ in blk.rows:
                if blk.kind == "Y2":
                    y2.add(_factor_multiset(generators.generator_factors(L, I, "Y2")))
                    continue
                z = _factor_multiset(generators.generator_factors(L, I, "Z"))
                want[z] += 1
                if blk.kind == "Z" and intarith.in_T_u(I, L.r_u, L.u):
                    # Z1 is profiled only where it differs from Z: not at f_u = r_u
                    z1 = _factor_multiset(generators.generator_factors(L, I, "Z1"))
                    if z1 != z:
                        want[z1] += 1
        want.update(y2)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(CuspDivisor, "__hash__", refuse)
            assert verify_certificates(n, blocks).passed, n
        assert calls == want, n
        total += sum(calls.values()) if i < 720 else 0
    assert total == 6846

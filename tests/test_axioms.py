"""Identity checkers: verdicts, counterexamples, determinism, the scan engine."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnlie import (
    CheckReport,
    DerivationMatrix,
    ElementVector,
    IdentityId,
    InputError,
    ProductTensor,
    SkewBracket,
    basis_vectors,
    binary_sweep_corpus,
    bracket_apply,
    build_tower,
    check_identity,
    derivation_bracket,
    extend_bracket,
    formal_derivative,
    make_tensor_trunc,
    make_truncated_poly,
    multiply,
    poly_derivation,
    random_system,
    run_suite,
    sampled_verdict,
    ternary_sweep_corpus,
)
from tpnlie import axioms
from tpnlie.corpus import _PREMISES, _reports
from tpnlie.files import dumps_system

I = IdentityId


def e(dim, i):
    return ElementVector.basis(dim, i)


@pytest.fixture(scope="module")
def corrupted_w4(w4):
    """W4 with the (1, 2) bracket entry corrupted from e3 to e2."""
    entries = dict(w4.brackets["b1"].entries)
    entries[(1, 2)] = e(4, 2)
    return w4.with_bracket("bad", SkewBracket(4, 2, entries))


# ---------------------------------------------------------------------------
# COMM / ASSOC


def test_w4_product_commutative_associative(w4):
    comm = check_identity(I.COMM, product=w4.product)
    assoc = check_identity(I.ASSOC, product=w4.product)
    assert comm.passed and comm.tuples_checked == 4**3
    assert assoc.passed and assoc.tuples_checked == 4**4


def test_zero_product_commutative_associative():
    comm = check_identity(I.COMM, product=ProductTensor.zero(3))
    assoc = check_identity(I.ASSOC, product=ProductTensor.zero(3))
    assert comm.passed and assoc.passed


def test_constructed_asymmetry_fails_comm():
    cube = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    cube[0][1][0] = Fraction(1)  # c[0][1][0] = 1 but c[1][0][0] = 0
    p = ProductTensor(2, cube)
    comm = check_identity(I.COMM, product=p)
    assert not comm.passed
    assert comm.counterexample == (0, 1, 0)
    assert comm.residual.coords == (Fraction(1), Fraction(0))


def test_nonassociative_product_fails_assoc():
    # e1*e1 = e0 with e0 nilpotent-free mixing is not associative here
    cube = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    cube[1][1][0] = Fraction(1)
    cube[0][1][1] = cube[1][0][1] = Fraction(1)
    p = ProductTensor(2, cube)
    assoc = check_identity(I.ASSOC, product=p)
    assert not assoc.passed


# ---------------------------------------------------------------------------
# NL (fundamental identity)


def test_w4_bracket_satisfies_filippov(w4):
    report = check_identity(I.NL, bracket=w4.brackets["b1"])
    assert report.passed
    assert report.tuples_checked == 4**3


def test_zero_bracket_satisfies_filippov():
    assert check_identity(I.NL, bracket=SkewBracket.zero(3, 3)).passed


def test_top_wedge_bracket_satisfies_filippov():
    # arity == dim: a single stored entry, both identity sides collapse
    b = SkewBracket(3, 3, {(0, 1, 2): ElementVector((1, 2, 3))})
    assert check_identity(I.NL, bracket=b).passed


def _first_failure_oracle(residual, shape):
    """Brute-force lex scan with an independently written residual."""
    for idx in iproduct(*(range(s) for s in shape)):
        value = residual(idx)
        if not value.is_zero():
            return idx, value
    return None


def test_corrupted_bracket_fails_filippov_at_lex_first(w4, corrupted_w4):
    bad = corrupted_w4.brackets["bad"]
    report = check_identity(I.NL, bracket=bad)
    assert not report.passed

    def nl_residual(idx):
        y1, y2, x1 = (e(4, i) for i in idx)
        lhs = bracket_apply(bad, (bracket_apply(bad, (y1, y2)), x1))
        rhs = bracket_apply(bad, (bracket_apply(bad, (y1, x1)), y2)) - bracket_apply(
            bad, (bracket_apply(bad, (y2, x1)), y1)
        )
        return lhs - rhs

    oracle = _first_failure_oracle(nl_residual, (4, 4, 4))
    assert oracle is not None
    assert report.counterexample == oracle[0] == (0, 1, 2)
    assert report.residual == oracle[1]
    assert report.residual.coords == (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    # rank of (0,1,2) in lex order, plus one
    assert report.tuples_checked == 0 * 16 + 1 * 4 + 2 + 1


# ---------------------------------------------------------------------------
# TP (transposed Leibniz)


def test_w4_transposed_leibniz(w4):
    report = check_identity(I.TP, product=w4.product, bracket=w4.brackets["b1"])
    assert report.passed
    assert report.tuples_checked == 4**3


def test_zero_bracket_transposed_leibniz(w4):
    assert check_identity(I.TP, product=w4.product, bracket=SkewBracket.zero(4, 2)).passed


def test_scaled_entry_breaks_transposed_leibniz(w4):
    entries = dict(w4.brackets["b1"].entries)
    entries[(1, 2)] = entries[(1, 2)].scaled(2)
    scaled = SkewBracket(4, 2, entries)
    report = check_identity(I.TP, product=w4.product, bracket=scaled)
    assert not report.passed

    p = w4.product

    def tp_residual(idx):
        h, x1, x2 = (e(4, i) for i in idx)
        lhs = multiply(p, h, bracket_apply(scaled, (x1, x2))).scaled(2)
        rhs = bracket_apply(scaled, (multiply(p, h, x1), x2)) + bracket_apply(
            scaled, (x1, multiply(p, h, x2))
        )
        return lhs - rhs

    oracle = _first_failure_oracle(tp_residual, (4, 4, 4))
    assert report.counterexample == oracle[0]
    assert report.residual == oracle[1]


def test_corrupted_bracket_fails_tp_at_lex_first(w4, corrupted_w4):
    report = check_identity(I.TP, product=w4.product, bracket=corrupted_w4.brackets["bad"])
    assert not report.passed
    # h = t: 2t[1, t^2] = 4 t^3 but [t*1, t^2] + [1, t*t^2] = t^2 + 3 t^3
    assert report.counterexample == (1, 0, 2)
    assert report.residual.coords == (
        Fraction(0),
        Fraction(0),
        Fraction(-1),
        Fraction(1),
    )


# ---------------------------------------------------------------------------
# NP1..NP4, STRONG, SCALE


def test_w4_np_identities_pass(w4):
    for which in (I.NP1, I.NP2, I.NP3, I.NP4):
        assert check_identity(which, product=w4.product, bracket=w4.brackets["b1"]).passed


def test_zero_bracket_np_identities(w4):
    zero = SkewBracket.zero(4, 3)
    for which in (I.NP1, I.NP2, I.NP3, I.NP4):
        assert check_identity(which, product=w4.product, bracket=zero).passed


def test_corrupted_bracket_fails_np4(w4, corrupted_w4):
    report = check_identity(I.NP4, product=w4.product, bracket=corrupted_w4.brackets["bad"])
    assert not report.passed
    assert report.counterexample == (0, 1, 0, 2)


def test_w4_strong_and_scale(w4):
    # at arity 2 the strong condition follows from transposed Leibniz
    assert check_identity(I.STRONG, product=w4.product, bracket=w4.brackets["b1"]).passed
    assert check_identity(I.SCALE, product=w4.product, bracket=w4.brackets["b1"]).passed


def test_corrupted_bracket_fails_scale(w4, corrupted_w4):
    report = check_identity(I.SCALE, product=w4.product, bracket=corrupted_w4.brackets["bad"])
    assert not report.passed
    assert report.counterexample == (1, 0, 1, 1)


def test_tuple_counts_match_quantifier_spaces(w4):
    b = w4.brackets["b1"]
    euler = w4.derivations["euler"]
    expected = {
        I.NL: 4**3,
        I.TP: 4**3,
        I.NP1: 4**3,
        I.NP2: 4**4,
        I.NP3: 4**4,
        I.NP4: 4**4,
        I.STRONG: 4**4,
        I.SCALE: 4**4,
        I.DER_MUL: 4**2,
        I.DER_BRK: 6,
        I.LEM1: 4**3,
        I.LEM2: 4**3,
        I.COMM: 4**3,
        I.ASSOC: 4**4,
    }
    for ident, count in expected.items():
        report = check_identity(ident, product=w4.product, bracket=b, derivation=euler)
        assert report.passed and report.tuples_checked == count, ident


# ---------------------------------------------------------------------------
# DER_MUL / DER_BRK


def test_euler_is_a_derivation(w4):
    euler = w4.derivations["euler"]
    dm = check_identity(I.DER_MUL, product=w4.product, derivation=euler)
    db = check_identity(I.DER_BRK, bracket=w4.brackets["b1"], derivation=euler)
    assert dm.passed and dm.tuples_checked == 16
    assert db.passed and db.tuples_checked == 6


def test_zero_map_is_a_derivation(w4):
    from tpnlie import DerivationMatrix

    zero = DerivationMatrix.zero(4)
    dm = check_identity(I.DER_MUL, product=w4.product, derivation=zero)
    db = check_identity(I.DER_BRK, bracket=w4.brackets["b1"], derivation=zero)
    assert dm.passed and db.passed


def test_formal_derivative_fails_product_leibniz():
    # D(e_1 * e_{m-1}) = D(0) = 0 but Leibniz gives m * e_{m-1}
    for m in range(2, 7):
        system = make_truncated_poly(m)
        report = check_identity(
            I.DER_MUL, product=system.product, derivation=formal_derivative(m)
        )
        assert not report.passed
        assert report.counterexample == (1, m - 1)
        expected = [Fraction(0)] * m
        expected[m - 1] = Fraction(-m)
        assert list(report.residual.coords) == expected


# ---------------------------------------------------------------------------
# LEM1 / LEM2


def test_lemma_identities_hold_for_euler(w4):
    b, euler = w4.brackets["b1"], w4.derivations["euler"]
    for which in (I.LEM1, I.LEM2):
        assert check_identity(which, product=w4.product, bracket=b, derivation=euler).passed


def test_lemma_identities_negative_control(w4):
    # Observed: both lemma identities still hold on (W4, b1) for the formal
    # derivative even though it fails DER_MUL and DER_BRK.  The derivation
    # hypotheses are sufficient, not necessary, so this records behavior
    # rather than asserting failure.
    dd = formal_derivative(4)
    b = w4.brackets["b1"]
    dm = check_identity(I.DER_MUL, product=w4.product, derivation=dd)
    db = check_identity(I.DER_BRK, bracket=b, derivation=dd)
    assert not dm.passed and not db.passed
    for which in (I.LEM1, I.LEM2):
        report = check_identity(which, product=w4.product, bracket=b, derivation=dd)
        assert report.passed


def test_lemma_identities_can_fail_for_arbitrary_maps(w4):
    # A generic non-derivation does break them, so the checkers are not vacuous.
    from tpnlie import DerivationMatrix

    arbitrary = DerivationMatrix(4, [[1, 0, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 2, 0, 1]])
    b = w4.brackets["b1"]
    results = {
        which: check_identity(which, product=w4.product, bracket=b, derivation=arbitrary).passed
        for which in (I.LEM1, I.LEM2)
    }
    assert not all(results.values())


# ---------------------------------------------------------------------------
# run_suite


def test_run_suite_full_canonical_order(w4):
    reports = run_suite(w4, "b1", "euler")
    assert [r.identity for r in reports] == list(I)
    assert len(reports) == 14
    assert all(r.passed for r in reports)


def test_run_suite_empty_ids(w4):
    assert run_suite(w4, "b1", "euler", ids=set()) == []
    assert run_suite(w4, "b1", "euler", ids=[]) == []


def test_run_suite_subset_keeps_canonical_order(w4):
    reports = run_suite(w4, "b1", "euler", ids={I.COMM, I.NL, I.DER_BRK})
    assert [r.identity for r in reports] == [I.NL, I.DER_BRK, I.COMM]


@pytest.mark.parametrize(
    "ids, message",
    [
        ("NL", "ids must be a list, got str"),
        (I.NL, "ids must be a list, got IdentityId"),
        (5, "ids must be a list, got int"),
        ([["NL"]], r"ids: not an identity id: \['NL'\]"),
        (["NL"], "ids: not an identity id: 'NL'"),
    ],
    ids=["str", "identity-id", "int", "unhashable-element", "str-element"],
)
def test_run_suite_rejects_ids_that_are_not_a_list_of_identity_ids(w4, ids, message):
    # A string would be read by character, and each element is checked
    # before it is hashed.
    with pytest.raises(InputError, match=message):
        run_suite(w4, "b1", None, ids)


def test_run_suite_unknown_bracket(w4):
    with pytest.raises(InputError):
        run_suite(w4, "nope")
    # an unhashable name is an unknown name, not a bare TypeError
    with pytest.raises(InputError, match=r"unknown bracket \['b1'\]"):
        run_suite(w4, ["b1"])
    with pytest.raises(InputError, match=r"unknown derivation \['euler'\]"):
        run_suite(w4, "b1", ["euler"])


def test_run_suite_derivation_id_without_derivation(w4):
    with pytest.raises(InputError):
        run_suite(w4, "b1", None, ids={I.DER_BRK})


def test_run_suite_without_derivation_skips_derivation_ids(w4):
    reports = run_suite(w4, "b1")
    assert len(reports) == 10
    assert all(
        r.identity not in {I.DER_MUL, I.DER_BRK, I.LEM1, I.LEM2} for r in reports
    )


# ---------------------------------------------------------------------------
# determinism, and the canonical-orbit scan against the full-cube oracle


def test_reports_identical_across_repeated_runs(w4, corrupted_w4):
    for name in ("b1", "bad"):
        system = corrupted_w4
        first = run_suite(system, name, "euler")
        second = run_suite(system, name, "euler")
        assert first == second  # elapsed excluded from equality


def full_cube_report(identity, product=None, bracket=None, derivation=None):
    """Reference oracle: scan all d**length tuples in lex order, using no symmetry.

    Every tuple goes through the public ops on ElementVectors (the ops record
    ``sampled_verdict`` uses), so the oracle shares only the transcription of
    each residual with the engine, never its kernel.  COMM and ASSOC tuples
    end in the coordinate of the residual that the leading indices give.
    DER_BRK reports on strictly increasing tuples, so its failing tuple is
    looked up among those, which also checks that the first failure of the
    cube is one.
    """
    definition = axioms._DEFS[identity]
    d = next(obj.dim for obj in (product, bracket, derivation) if obj is not None)
    n = bracket.arity if bracket is not None else 0
    ops = axioms._public_ops(product, bracket, derivation, d, n)
    basis = basis_vectors(d)
    length = sum(size for size, _ in definition.blocks(n)) + definition.coordinate
    head = None
    for rank, idx in enumerate(iproduct(range(d), repeat=length)):
        if definition.coordinate:
            if idx[:-1] != head:
                head = idx[:-1]
                full = definition.residual(ops, tuple(basis[t] for t in head))
            k = idx[-1]
            res = basis[k].scaled(full.coords[k])
        else:
            res = definition.residual(ops, tuple(basis[t] for t in idx))
        if not res.is_zero():
            if definition.increasing_only:
                checked = list(combinations(range(d), length)).index(idx) + 1
            else:
                checked = rank + 1
            return CheckReport(identity, "fail", checked, idx, res)
    total = comb(d, length) if definition.increasing_only else d**length
    return CheckReport(identity, "pass", total, None, None)


def _compare_with_oracle(product, bracket, derivation):
    """Whole-report equality for every applicable identity; returns the reports."""
    reports = []
    for ident in I:
        if derivation is None and axioms._DEFS[ident].ders:
            continue
        engine = check_identity(ident, product=product, bracket=bracket, derivation=derivation)
        oracle = full_cube_report(ident, product, bracket, derivation)
        assert engine == oracle, ident.name
        reports.append(engine)
    return reports


def test_canonical_scan_matches_full_cube_on_corpus(corrupted_w4):
    instances = binary_sweep_corpus(5, 10) + ternary_sweep_corpus(5, 4)
    reports = []
    for inst in instances:
        reports += _compare_with_oracle(inst.system.product, inst.bracket, inst.derivation)
    bad = corrupted_w4.brackets["bad"]
    reports += _compare_with_oracle(corrupted_w4.product, bad, corrupted_w4.derivation("euler"))
    assert sum(not r.passed for r in reports) >= 5


def test_canonical_scan_matches_full_cube_on_failing_random_draws():
    failing = 0
    for arity, dim in ((2, 3), (2, 4), (3, 4), (3, 5)):
        for seed in range(3):
            density = (Fraction(1, 4), Fraction(1, 2), 1)[seed]
            system = random_system(dim, arity, density, seed=100 + seed)
            reports = _compare_with_oracle(
                system.product, system.bracket("b"), system.derivation("d")
            )
            failing += sum(not r.passed for r in reports)
    assert failing >= 100


# Integral and non-integral constants mix in one system, as the kernel keeps
# the first as ints and the second as Fractions.
_small = st.one_of(
    st.integers(-2, 2).map(Fraction),
    st.builds(Fraction, st.integers(-3, 3), st.integers(2, 3)),
)


@st.composite
def _random_components(draw):
    """An arbitrary product tensor, a random skew bracket and a dense random D."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 3))
    vec = st.lists(_small, min_size=d, max_size=d)
    square = st.lists(vec, min_size=d, max_size=d)
    cube = draw(st.lists(square, min_size=d, max_size=d))
    keys = list(combinations(range(d), n))
    entries = draw(st.dictionaries(st.sampled_from(keys), vec)) if keys else {}
    matrix = draw(square)
    return (
        ProductTensor(d, cube),
        SkewBracket(d, n, entries),
        DerivationMatrix(d, matrix),
    )


@settings(max_examples=60, deadline=None)
@given(_random_components(), st.sampled_from(list(I)))
def test_canonical_scan_matches_full_cube_on_random_inputs(components, ident):
    p, b, D = components
    report = check_identity(ident, product=p, bracket=b, derivation=D)
    assert report == full_cube_report(ident, p, b, D)
    # A failing identity is nonzero at all but a thin set of random points.
    assert sampled_verdict(ident, p, b, D, samples=10) == report.status


def _lower_unitriangular(d, rng):
    return [[1 if i == j else rng.randint(-2, 2) if i > j else 0 for j in range(d)] for i in range(d)]


def _inverse_lower_unitriangular(L):
    inv = []
    for i, row in enumerate(L):
        inv.append([int(i == j) - sum(row[k] * inv[k][j] for k in range(i)) for j in range(len(L))])
    return inv


def _rebased(product, bracket, derivation, seed):
    """The same algebra in the basis of the columns of P = A * B^T.

    A and B are random integer lower-unitriangular matrices, so P is
    unimodular: the constants stay integers, nearly all of them nonzero,
    and every identity keeps its verdict.
    """
    d = product.dim
    rng = random.Random(seed)
    A, B = _lower_unitriangular(d, rng), _lower_unitriangular(d, rng)
    Ai, Bi = _inverse_lower_unitriangular(A), _inverse_lower_unitriangular(B)
    P = [[sum(a * b for a, b in zip(row, col)) for col in B] for row in A]
    inv = [[sum(a * b for a, b in zip(col, row)) for row in zip(*Ai)] for col in zip(*Bi)]
    new = [ElementVector(tuple(col)) for col in zip(*P)]

    def coords(v):  # v in the new basis
        return tuple(sum(a * c for a, c in zip(row, v.coords)) for row in inv)

    cube = [[coords(multiply(product, x, y)) for y in new] for x in new]
    entries = {
        key: coords(bracket_apply(bracket, [new[t] for t in key]))
        for key in combinations(range(d), bracket.arity)
    }
    images = [coords(derivation.apply(x)) for x in new]
    return (
        ProductTensor(d, cube),
        SkewBracket(d, bracket.arity, entries),
        DerivationMatrix(d, list(zip(*images))),
    )


def _dense_extension(a, b, seed):
    """The arity-3 extension of make_tensor_trunc(a, b) by d2, rebased."""
    t = make_tensor_trunc(a, b)
    extension = extend_bracket(t.product, t.bracket("b_d1"), t.derivation("d2"))
    return _rebased(t.product, extension, t.derivation("d2"), seed)


def test_kernel_matches_full_cube_on_dense_passing_and_late_failing_inputs():
    # Every constant is nonzero, so no tuple is skipped, and a late failure
    # evaluates the kernel's ops on many tuples before the counterexample.
    p, b, D = _dense_extension(2, 2, seed=1)
    values = [b.entries.get(key, ElementVector.zero(4)) for key in combinations(range(4), 3)]
    constants = [c for cell in chain(*p.c) for c in cell] + [c for v in values for c in v.coords]
    assert all(constants)
    assert all(r.passed for r in _compare_with_oracle(p, b, D))

    entries = dict(b.entries)
    x, y, *rest = entries[max(entries)].coords
    entries[max(entries)] = (x, y + 1, *rest)
    reports = _compare_with_oracle(p, SkewBracket(4, 3, entries), D)
    np2 = next(r for r in reports if r.identity is I.NP2)
    # NP2 passes the whole h = e_0 slab of the cube before it fails.
    assert not np2.passed and np2.tuples_checked > 4**5

    # e_3 * e_2 != e_2 * e_3: a kernel that confused x*y with y*x would miss it.
    cube = [[list(cell) for cell in row] for row in p.c]
    cube[3][2][3] += 1
    skewed = ProductTensor(4, cube)
    for ident in (I.TP, I.NP4, I.STRONG, I.SCALE, I.COMM, I.ASSOC):
        report = check_identity(ident, product=skewed, bracket=b)
        assert not report.passed and report == full_cube_report(ident, skewed, b), ident.name


def test_kernel_tables_follow_the_component_across_interleaved_checks(w4):
    # Each component keeps its kernel tables for every later check of that
    # object, and an equal copy builds its own.  Checks that come back to a
    # component, switch to an equal copy of it or to a bracket that differs
    # in one constant must all report what the full cube does.
    A = _rebased(w4.product, w4.brackets["b1"], w4.derivation("euler"), seed=4)
    system = random_system(4, 2, 1, seed=7)
    B = (system.product, system.bracket("b"), system.derivation("d"))
    entries = dict(B[1].entries)
    x, *rest = entries[max(entries)].coords
    entries[max(entries)] = (x + 1, *rest)
    B1 = (B[0], SkewBracket(4, 2, entries), B[2])
    A_copy = (
        ProductTensor(4, A[0].c), SkewBracket(4, 2, dict(A[1].entries)), DerivationMatrix(4, A[2].m)
    )
    assert A_copy == A and all(u is not v for u, v in zip(A_copy, A))
    mixed = (A[0], B1[1], A[2])

    oracle = {}
    for name, (p, b, D) in [("A", A), ("B", B), ("A", A), ("B1", B1), ("A", A_copy),
                            ("B", B), ("mixed", mixed), ("B1", B1), ("A", A)]:
        if name not in oracle:
            oracle[name] = [full_cube_report(i, p, b, D) for i in I]
        assert [check_identity(i, p, b, D) for i in I] == oracle[name], name
    assert all(r.passed for r in oracle["A"]) and not all(r.passed for r in oracle["B"])
    assert oracle["B1"] != oracle["B"] and oracle["mixed"] not in (oracle["A"], oracle["B1"])


def test_check_memory_stays_bounded_on_a_dense_passing_system():
    # A check holds its tables and one tuple's terms, nothing per tuple: with
    # cold tables (a fresh system each) these scans peak at 20 to 50 KB
    # (Python 3.11, more when their block tables are not yet cached), and at
    # about 400 KB each when inner terms were memoised across tuples.
    for ident, tuples in ((I.NP2, 6**6), (I.STRONG, 6**5), (I.SCALE, 6**5)):
        p, b, _ = _dense_extension(2, 3, seed=5)
        tracemalloc.start()
        try:
            report = check_identity(ident, product=p, bracket=b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.tuples_checked == tuples, ident.name
        assert peak < 128 * 1024, (ident.name, peak)


# ---------------------------------------------------------------------------
# the weight-graded scan: skipped tuples have residual zero


@st.composite
def _graded_components(draw):
    """A product homogeneous for drawn integer weights, a bracket and D whose
    constants each shift the weight by one of one or two drawn shifts, and in
    some draws one more constant that may break homogeneity."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 3))
    w = draw(st.lists(st.integers(-2, 3), min_size=d, max_size=d))
    shifts_b, shifts_d = (draw(st.sets(st.integers(-2, 2), min_size=1, max_size=2)) for _ in "bd")

    def constant(homogeneous):
        return draw(_small) if homogeneous else Fraction(0)

    cube = [[[constant(w[k] == w[i] + w[j]) for k in range(d)] for j in range(d)] for i in range(d)]
    entries = {
        key: [constant(w[k] - sum(w[i] for i in key) in shifts_b) for k in range(d)]
        for key in combinations(range(d), n)
    }
    matrix = [[constant(w[k] - w[j] in shifts_d) for j in range(d)] for k in range(d)]
    if draw(st.booleans()):
        where = draw(st.sampled_from(["product", "bracket", "derivation"] if entries else
                                     ["product", "derivation"]))
        i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        value = Fraction(draw(st.sampled_from([-2, -1, 1, 3])))
        if where == "product":
            cube[i][j][k] = value
        elif where == "bracket":
            entries[draw(st.sampled_from(sorted(entries)))][k] = value
        else:
            matrix[k][j] = value
    return ProductTensor(d, cube), SkewBracket(d, n, entries), DerivationMatrix(d, matrix)


@settings(max_examples=80, deadline=None)
@given(_graded_components(), st.sampled_from(list(I)))
def test_graded_scan_matches_full_cube_on_graded_inputs(components, ident):
    p, b, D = components
    assert check_identity(ident, product=p, bracket=b, derivation=D) == full_cube_report(
        ident, p, b, D
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(3, 5),
    st.sets(st.integers(-1, 2), min_size=2, max_size=3),
    st.sets(st.integers(-1, 2), min_size=1, max_size=3),
    st.data(),
    st.sampled_from(list(I)),
)
def test_shift_sets_match_full_cube_on_truncated_polynomials(m, shifts_b, shifts_d, data, ident):
    # Q[t]/(t^m) is graded by degree alone, so a bracket (and a map D) whose
    # constants raise degree by two or more amounts joins no grading and is
    # checked through its set of shifts; every shift must count, or a
    # failing tuple reached through one of them would be skipped.
    base = make_truncated_poly(m)

    def constant(homogeneous):
        return data.draw(_small) if homogeneous else Fraction(0)

    entries = {
        key: [constant(k - sum(key) in shifts_b) for k in range(m)]
        for key in combinations(range(m), 2)
    }
    matrix = [[constant(k - j in shifts_d) for j in range(m)] for k in range(m)]
    b, D = SkewBracket(m, 2, entries), DerivationMatrix(m, matrix)
    assert check_identity(ident, base.product, b, D) == full_cube_report(ident, base.product, b, D)


def _relabeled(product, bracket, derivation, perm):
    """The same algebra with basis vector t renamed perm[t]."""
    d = product.dim
    new = [e(d, t) for t in perm]

    def coords(v):
        return tuple(v.coords[t] for t in perm)

    cube = [[coords(multiply(product, x, y)) for y in new] for x in new]
    entries = {
        key: coords(bracket_apply(bracket, [new[t] for t in key]))
        for key in combinations(range(d), bracket.arity)
    }
    images = [coords(derivation.apply(x)) for x in new]
    return (
        ProductTensor(d, cube),
        SkewBracket(d, bracket.arity, entries),
        DerivationMatrix(d, list(zip(*images))),
    )


@pytest.fixture()
def evaluated(monkeypatch):
    """A counter of residual evaluations, over every identity."""
    calls = [0]

    def counting(residual):
        def wrapped(ops, elems):
            calls[0] += 1
            return residual(ops, elems)

        return wrapped

    monkeypatch.setattr(axioms, "_DEFS", {
        i: dataclasses.replace(definition, residual=counting(definition.residual))
        for i, definition in axioms._DEFS.items()
    })
    return calls


def test_der_brk_rank_counts_the_skipped_increasing_tuples(w4, evaluated):
    # Reversed, Q[t]/(t^4) has weights 3, 2, 1, 0, so (0, 1) and (0, 2) are
    # skipped.  D maps t^3 to itself and kills the rest: homogeneous, yet it
    # fails the Leibniz rule over the Euler bracket first at (1, 2).
    p, b, _ = _relabeled(w4.product, w4.brackets["b1"], w4.derivation("euler"), (3, 2, 1, 0))
    D = DerivationMatrix(4, [[1, 0, 0, 0]] + [[0] * 4] * 3)
    report = check_identity(I.DER_BRK, product=p, bracket=b, derivation=D)
    assert report == full_cube_report(I.DER_BRK, p, b, D)
    assert report.counterexample == (1, 2) and report.tuples_checked == 4
    evaluated[0] = 0
    check_identity(I.DER_BRK, product=p, bracket=b, derivation=D)
    assert evaluated[0] == 2


def test_mixed_derivation_is_skipped_through_its_set_of_shifts(evaluated):
    # D = (t + t^2) d/dt on Q[t]/(t^5) raises degree by 0 and by 1, so D and
    # its bracket fit no grading of the product's that keeps the weights
    # apart; with shifts {0, 1} the scan still skips every tuple whose degree
    # sum lands past t^4, and nothing else moves.
    base = make_truncated_poly(5)
    D = poly_derivation(5, [1, 1])
    b = derivation_bracket(base.product, D)
    for ident in I:
        evaluated[0] = 0
        report = check_identity(ident, base.product, b, D)
        if ident in (I.NP2, I.DER_MUL):
            assert report.passed and evaluated[0] == {I.NP2: 24, I.DER_MUL: 15}[ident]
        assert report == full_cube_report(ident, base.product, b, D), ident.name


def test_weights_are_eliminated_once_per_component(monkeypatch):
    # A component's weights depend on nothing else, so a suite of 14 checks
    # over one product, bracket and D eliminates each at most once, and a
    # second run over the same objects not at all.
    eliminated, inserted = [], [0]
    weights, insert = axioms._weights, axioms._insert

    def counting_weights(vectors, d):
        eliminated.append(d)
        return weights(vectors, d)

    def counting_insert(echelon, row):
        inserted[0] += 1
        insert(echelon, row)

    monkeypatch.setattr(axioms, "_weights", counting_weights)
    monkeypatch.setattr(axioms, "_insert", counting_insert)
    # A fresh system: the cached one may carry kept data from earlier tests.
    system = make_tensor_trunc.__wrapped__(2, 3)
    assert len(run_suite(system, "b_d1", "d2")) == 14
    assert 1 <= len(eliminated) <= 3
    inserted[0] = 0
    assert all(r.passed for r in run_suite(system, "b_d1", "d2"))
    assert inserted[0] == 0


def test_shift_sets_are_built_once_and_never_when_ungraded(monkeypatch):
    # A component's set of shifts under given weights depends on nothing
    # else: a second suite over the same objects builds none, nor any table
    # or point.  A dense component fits no grading and pays for no shift set:
    # the hunter's premise chain on dense random systems builds none.
    built = Counter()
    kept = axioms._kept

    def counting_kept(component, key, new):
        def counted():
            built[key if isinstance(key, str) else "shifts"] += 1
            return new()

        return kept(component, key, counted)

    monkeypatch.setattr(axioms, "_kept", counting_kept)
    system = make_tensor_trunc.__wrapped__(2, 3)  # fresh, not the cached one
    run_suite(system, "b_d1", "d2")
    assert built["point"] == 3 and built["shifts"] >= 3
    built.clear()
    assert all(r.passed for r in run_suite(system, "b_d1", "d2"))
    assert not built

    for seed in range(10):
        dense = random_system(5, 3, 1, seed)
        assert not _reports(dense, _PREMISES)[-1].passed
    assert built["point"] >= 20 and built["shifts"] == 0
    for kind, component in (("product", dense.product), ("derivation", dense.derivation("d"))):
        assert set(vars(component)["_derived"]) - {"table"} == {"point"}, kind


def test_grading_state_does_not_depend_on_check_order():
    # The systems share one product, and a bracket is graded under the
    # product's weights in some checks, under D's in others and under its
    # own in NL, so a shift set served under the wrong weights tuple, or a
    # run list or level list served under the wrong key, would move a
    # report.  The last system fails 9 of the 14 identities; its D scales
    # s*t (e_3) by 1, not by the 2 that D(s)*t + s*D(t) gives.
    t = make_tensor_trunc(2, 3)
    p, b, d1, d2 = t.product, t.bracket("b_d1"), t.derivation("d1"), t.derivation("d2")
    entries = dict(b.entries)
    entries[max(entries)] = entries[max(entries)].scaled(2)
    scaling = (0, 1, 1, 1, 2, 2)
    not_a_derivation = DerivationMatrix(6, [[c if j == k else 0 for j in range(6)]
                                            for k, c in enumerate(scaling)])
    systems = {"d1": (b, d1), "d2": (b, d2), "level 1": (extend_bracket(p, b, d2), d2),
               "failing": (SkewBracket(6, 2, entries), not_a_derivation)}
    checks = [(name, ident) for name in systems for ident in I]
    oracle = {(name, i): full_cube_report(i, p, *systems[name]) for name, i in checks}
    cold = {}
    for name, i in checks:
        axioms._walk.cache_clear()
        fresh = [dataclasses.replace(c) for c in (p, *systems[name])]
        cold[name, i] = check_identity(i, *fresh)
    assert cold == oracle
    for order in (checks[::-1], random.Random(15).sample(checks, len(checks))):
        assert {(name, i): check_identity(i, p, *systems[name]) for name, i in order} == oracle


def test_derived_state_is_invisible():
    # What checks keep on a component is private: it moves no comparison,
    # hash, repr or saved byte, and a copy starts without it.
    system = make_tensor_trunc(2, 3)
    components = (system.product, system.bracket("b_d1"), system.derivation("d2"))
    fresh = [dataclasses.replace(c) for c in components]
    saved = dumps_system(system)
    run_suite(system, "b_d1", "d2")

    def hashed(x):
        try:
            return hash(x)
        except TypeError as exc:  # a bracket holds a mapping proxy
            return str(exc)

    for component, copy in zip(components, fresh):
        assert "_derived" in vars(component) and "_derived" not in vars(copy)
        assert component == copy and hashed(component) == hashed(copy)
        assert repr(component) == repr(copy)
        assert "_derived" not in vars(dataclasses.replace(component))
    assert dumps_system(system) == saved


def test_interleaved_towers_reuse_their_products_state(monkeypatch):
    # The benchmark's two towers alternate two products.  A second round
    # builds no table, point or shift set for either product or its D; it
    # eliminates weights once for each new extension bracket, in NL.
    towers = [(make_tensor_trunc(2, 2), ["d2", "d2"]), (make_tensor_trunc(2, 3), ["d2"])]
    built, eliminated = [], [0]
    kept, weights = axioms._kept, axioms._weights

    def counting_kept(component, key, new):
        def counted():
            built.append((component, key))
            return new()

        return kept(component, key, counted)

    def counting_weights(vectors, d):
        eliminated[0] += 1
        return weights(vectors, d)

    monkeypatch.setattr(axioms, "_kept", counting_kept)
    monkeypatch.setattr(axioms, "_weights", counting_weights)
    for _ in range(2):
        built.clear()
        eliminated[0] = 0
        steps = [build_tower(system, "b_d1", ders) for system, ders in towers]
    reused = [c for system, _ in towers for c in (system.product, system.derivation("d2"))]
    assert not [key for c, key in built if any(c is r for r in reused)]
    assert all(isinstance(c, SkewBracket) for c, _ in built)
    assert eliminated[0] == sum(map(len, steps)) == 3


def _check_sweep(instances):
    # Every identity each instance of a sweep corpus supports.
    for inst in instances:
        for ident in I:
            if inst.derivation is not None or not axioms._DEFS[ident].ders:
                check_identity(ident, inst.system.product, inst.bracket, inst.derivation)


def test_run_list_cache_holds_a_sweep_pass():
    # One sweep pass uses more block tables than an undersized cache holds,
    # and then every pass would build most of them again.
    instances = binary_sweep_corpus(0, 112)
    axioms._walk.cache_clear()
    for _ in range(2):
        _check_sweep(instances)
    info = axioms._walk.cache_info()
    assert info.misses == info.currsize >= 300  # one miss per key


def test_walk_tables_are_tuples_all_through(monkeypatch):
    # Nothing can write to what ``_walk`` returns: every table of a sweep
    # corpus build and two passes over its checks is a tuple of (head, tails)
    # pairs, a head a tuple and its tails a tuple of tuples.
    walk, tables = axioms._walk, {}

    def recording_walk(*key):
        tables[key] = walk(*key)
        return tables[key]

    monkeypatch.setattr(axioms, "_walk", recording_walk)
    walk.cache_clear()
    instances = binary_sweep_corpus(0, 112)
    for _ in range(2):
        _check_sweep(instances)
    assert len(tables) >= 300 and any(tables.values())
    for table in tables.values():
        assert type(table) is tuple
        for head, tails in table:
            assert type(head) is tuple and type(tails) is tuple and tails
            assert all(type(tail) is tuple for tail in tails)


def test_derivation_table_is_built_whole_once_and_never_written(w4):
    # D is the identity map, so DER_MUL fails at (e_0, e_0) after reading
    # D's column 0 alone; the whole table is there all the same, and later
    # checks of D neither rebuild nor change it.
    D = DerivationMatrix(4, [[int(i == j) for j in range(4)] for i in range(4)])
    report = check_identity(I.DER_MUL, product=w4.product, derivation=D)
    assert report.counterexample == (0, 0)
    table = vars(D)["_derived"]["table"]
    assert table == [((j, 1),) for j in range(4)]
    snapshot = list(table)
    for ident in (I.DER_MUL, I.DER_BRK, I.LEM1, I.LEM2):
        check_identity(ident, product=w4.product, bracket=w4.bracket("b1"), derivation=D)
    assert vars(D)["_derived"]["table"] is table and table == snapshot


def _plain(left, right, sign):
    total = {k: left.get(k, 0) + sign * right.get(k, 0) for k in {*left, *right}}
    return {k: v for k, v in total.items() if v}


@pytest.mark.parametrize(
    "left, right",
    [
        ({}, {0: 1, 2: Fraction(1, 2)}),
        ({0: Fraction(3, 2)}, {}),
        ({}, {}),
        ({0: 1, 1: Fraction(-3, 2)}, {0: 1, 1: Fraction(-3, 2)}),
        ({0: 2, 1: Fraction(1, 3)}, {0: -2, 1: Fraction(2, 3), 3: 5}),
    ],
    ids=["empty-left", "empty-right", "both-empty", "equal", "mixed"],
)
def test_kernel_vector_arithmetic_matches_plain_dicts(left, right):
    x, y = axioms._Vec(left), axioms._Vec(right)
    for value, expected in ((x + y, _plain(left, right, 1)), (x - y, _plain(left, right, -1)),
                            (-x, _plain({}, left, -1)), (-y, _plain({}, right, -1))):
        assert type(value) is axioms._Vec and value == expected and 0 not in value.values()
    assert x == left and y == right  # the operands are never written


def test_kernel_ops_return_an_empty_vector_on_a_zero_argument(w4):
    ops = axioms._kernel_ops(
        axioms._DEFS[I.LEM1], w4.product, w4.bracket("b1"), w4.derivation("euler"), 4, 2
    )
    zero, e0, e1 = axioms._Vec(), axioms._Vec({0: 1}), axioms._Vec({1: 1})
    values = [ops.mul(zero, e1), ops.mul(e1, zero), ops.brk((zero, e1)), ops.brk((e1, zero)),
              ops.der(zero),
              # and on a value that cancels: [e_1, e_1] = 0, and D(e_0) = 0 for Euler's D
              ops.brk((e1, e1)), ops.der(e0)]
    assert all(type(value) is axioms._Vec and value == {} for value in values)


def test_graded_scan_skips_what_it_measured_skipping(evaluated):
    # Residual evaluations on the benchmark's towers and sweep, and none
    # skipped on dense systems: a silent fallback to full enumeration, or
    # pruning that stops working, fails here.
    evaluated[0] = 0
    for shape, derivations in (((2, 2), ["d2", "d2"]), ((2, 3), ["d2"])):
        build_tower(make_tensor_trunc(*shape), "b_d1", derivations)
    assert evaluated[0] <= 51

    for seed, most in ((0, 16_750), (1, 18_884)):
        instances = binary_sweep_corpus(seed, 112)
        evaluated[0] = 0
        _check_sweep(instances)
        assert evaluated[0] <= most, seed

    # The zero product fits every grading, and the dense bracket and D then
    # have more than d shifts each: ungraded again, not a blown-up target set.
    system = random_system(4, 3, 1, seed=3)
    b, D = system.bracket("b"), system.derivation("d")
    zero = ProductTensor(4, [[[0] * 4] * 4] * 4)
    cases = [(system.product, i) for i in I] + [(zero, i) for i in I if i not in (I.COMM, I.ASSOC)]
    for p, ident in cases:
        evaluated[0] = 0
        report = check_identity(ident, p, b, D)
        definition = axioms._DEFS[ident]
        runs = [
            combinations(range(4), size) if skew else iproduct(range(4), repeat=size)
            for size, skew in definition.blocks(3)
        ]
        canonical = [tuple(chain(*run)) for run in iproduct(*runs)]
        if report.passed:
            assert evaluated[0] == len(canonical), ident.name
        else:
            head = report.counterexample[: len(canonical[0])]
            assert evaluated[0] == canonical.index(head) + 1, ident.name


# ---------------------------------------------------------------------------
# sampled verdicts (random-tuple cross check)


def test_sampled_verdict_agrees_on_pass_and_fail(w4, corrupted_w4):
    good, bad = w4.brackets["b1"], corrupted_w4.brackets["bad"]
    assert sampled_verdict(I.NL, bracket=good, samples=25, seed=1) == "pass"
    assert sampled_verdict(I.NL, bracket=bad, samples=25, seed=1) == "fail"
    assert sampled_verdict(I.TP, product=w4.product, bracket=bad, samples=25, seed=2) == "fail"
    assert sampled_verdict(I.COMM, product=w4.product, samples=25, seed=3) == "pass"


def test_sampled_verdict_requires_components(w4):
    with pytest.raises(InputError):
        sampled_verdict(I.TP, bracket=w4.brackets["b1"])


# ---------------------------------------------------------------------------
# the input boundary check_identity and sampled_verdict share


@pytest.mark.parametrize("check", [check_identity, sampled_verdict])
def test_boundary_rejects_what_is_not_an_identity_id(w4, check):
    for identity in ("NL", None, 0):
        with pytest.raises(InputError, match="not an identity id"):
            check(identity, bracket=w4.brackets["b1"])


@pytest.mark.parametrize("check", [check_identity, sampled_verdict])
def test_boundary_rejects_swapped_components(w4, check):
    b = w4.brackets["b1"]
    with pytest.raises(InputError, match="NL: the bracket must be a SkewBracket"):
        check(I.NL, bracket=w4.product)
    with pytest.raises(InputError, match="TP: the product must be a ProductTensor"):
        check(I.TP, product=b, bracket=b)
    with pytest.raises(InputError, match="the derivation must be a DerivationMatrix"):
        check(I.DER_MUL, product=w4.product, derivation=w4.product)
    # A component the identity does not use must still have its type.
    with pytest.raises(InputError, match="COMM: the bracket must be a SkewBracket"):
        check(I.COMM, product=w4.product, bracket=w4.product)


@pytest.mark.parametrize("check", [check_identity, sampled_verdict])
def test_boundary_names_disagreeing_dimensions(w4, check):
    with pytest.raises(InputError, match=r"DER_MUL: .* disagree \(product 4, derivation 3\)"):
        check(I.DER_MUL, product=w4.product, derivation=DerivationMatrix.zero(3))
    with pytest.raises(InputError, match=r"TP: .* disagree \(product 3, bracket 4\)"):
        check(I.TP, product=ProductTensor.zero(3), bracket=w4.brackets["b1"])


@pytest.mark.parametrize("samples", [0, -1, True, 2.0, "5"])
def test_sampled_verdict_requires_a_positive_sample_count(corrupted_w4, samples):
    # samples=0 used to return "pass" on this failing bracket, having evaluated nothing.
    with pytest.raises(InputError, match="samples must be an integer >= 1"):
        sampled_verdict(I.NL, bracket=corrupted_w4.brackets["bad"], samples=samples)
    assert sampled_verdict(I.NL, bracket=corrupted_w4.brackets["bad"], samples=1) == "fail"


# ---------------------------------------------------------------------------
# random systems pass through the checkers without crashing


def test_random_system_verdicts_are_recorded_not_asserted():
    system = random_system(3, 2, 1, seed=42)
    reports = run_suite(system, "b", "d")
    assert len(reports) == 14
    assert all(r.status in ("pass", "fail") for r in reports)

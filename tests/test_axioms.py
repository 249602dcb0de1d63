"""Identity checkers: verdicts, counterexamples, determinism, the scan engine."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct
from math import comb
from types import SimpleNamespace

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
    check_identity,
    formal_derivative,
    make_truncated_poly,
    multiply,
    random_system,
    run_suite,
    sampled_verdict,
    ternary_sweep_corpus,
)
from tpnlie import axioms

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
    b = SkewBracket(3, 3, {(0, 1, 2): ElementVector.from_coords((1, 2, 3))})
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


def test_run_suite_subset_keeps_canonical_order(w4):
    reports = run_suite(w4, "b1", "euler", ids={I.COMM, I.NL, I.DER_BRK})
    assert [r.identity for r in reports] == [I.NL, I.DER_BRK, I.COMM]


def test_run_suite_unknown_bracket(w4):
    with pytest.raises(InputError):
        run_suite(w4, "nope")


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


def public_ops(product, bracket, derivation, d):
    """The residuals' ops through the public, validating core functions."""
    return SimpleNamespace(
        mul=lambda x, y: multiply(product, x, y),
        brk=lambda args: bracket_apply(bracket, args),
        der=lambda x: derivation.apply(x),
        zero=ElementVector.zero(d),
        n=bracket.arity if bracket is not None else 0,
    )


def full_cube_report(identity, product=None, bracket=None, derivation=None):
    """Reference oracle: scan all d**length tuples in lex order, using no symmetry.

    Every tuple goes through the public ops on ElementVectors, so the oracle
    shares only the transcription of each residual with the engine, never
    its kernel.  COMM and ASSOC tuples end in the coordinate of the residual
    that the leading indices give.  DER_BRK reports on strictly increasing
    tuples, so its failing tuple is looked up among those, which also checks
    that the first failure of the cube is one.
    """
    definition = axioms._DEFS[identity]
    d = next(obj.dim for obj in (product, bracket, derivation) if obj is not None)
    ops = public_ops(product, bracket, derivation, d)
    basis = basis_vectors(d)
    length = sum(size for size, _ in definition.blocks(ops.n))
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
        if derivation is None and axioms._DEFS[ident].needs_derivation:
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

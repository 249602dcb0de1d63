"""Instance families, random systems, sweep corpora, and the hunter."""

from __future__ import annotations

from fractions import Fraction

import pytest

from tpnlie import (
    ElementVector,
    IdentityId,
    InputError,
    binary_sweep_corpus,
    check_identity,
    formal_derivative,
    hunt_counterexample,
    make_tensor_trunc,
    make_truncated_poly,
    make_zero_bracket_system,
    poly_derivation,
    random_system,
    run_suite,
    ternary_sweep_corpus,
)

I = IdentityId


def e(dim, i):
    return ElementVector.basis(dim, i)


# ---------------------------------------------------------------------------
# constructive families


def test_truncated_poly_smallest_case():
    system = make_truncated_poly(2)
    assert system.dim == 2
    assert system.basis_labels == ("1", "t")
    assert system.brackets["b1"].entries == {(0, 1): e(2, 1)}


def test_truncated_poly_rejects_small_m():
    with pytest.raises(InputError):
        make_truncated_poly(1)


def test_truncated_poly_products_pass_comm_assoc():
    for m in range(2, 9):
        system = make_truncated_poly(m)
        assert check_identity(I.COMM, product=system.product).passed
        assert check_identity(I.ASSOC, product=system.product).passed


def test_euler_is_a_derivation_for_all_m():
    for m in range(2, 9):
        system = make_truncated_poly(m)
        euler = system.derivations["euler"]
        dm = check_identity(I.DER_MUL, product=system.product, derivation=euler)
        db = check_identity(I.DER_BRK, bracket=system.brackets["b1"], derivation=euler)
        assert dm.passed and db.passed, m


def test_poly_derivation_passes_product_leibniz():
    derivation = poly_derivation(5, [Fraction(1, 2), -2, 0])
    system = make_truncated_poly(5)
    assert check_identity(I.DER_MUL, product=system.product, derivation=derivation).passed


def test_poly_derivation_euler_special_case():
    assert poly_derivation(4, [1]) == make_truncated_poly(4).derivations["euler"]


def test_formal_derivative_matrix_shape():
    dd = formal_derivative(3)
    assert dd.column(0).is_zero()
    assert dd.column(1) == e(3, 0)
    assert dd.column(2) == e(3, 1).scaled(2)


def test_tensor_trunc_basis_order():
    system = make_tensor_trunc(2, 3)
    assert system.basis_labels == ("1", "s", "t", "s*t", "t^2", "s*t^2")
    assert system.dim == 6


def test_tensor_trunc_products_pass_comm_assoc():
    for a, b in ((2, 2), (2, 3), (3, 2), (3, 3)):
        system = make_tensor_trunc(a, b)
        assert check_identity(I.COMM, product=system.product).passed
        assert check_identity(I.ASSOC, product=system.product).passed


def test_tensor_second_derivation_respects_first_bracket(tp22):
    # d1 and d2 commute, so d2 is a derivation of the bracket built from d1
    d2 = tp22.derivations["d2"]
    dm = check_identity(I.DER_MUL, product=tp22.product, derivation=d2)
    db = check_identity(I.DER_BRK, bracket=tp22.brackets["b_d1"], derivation=d2)
    assert dm.passed and db.passed


def test_tensor_rejects_bad_shapes():
    with pytest.raises(InputError):
        make_tensor_trunc(1, 3)


def test_zero_bracket_system_passes_suite(w4):
    system = make_zero_bracket_system(w4.product, 3)
    reports = run_suite(system, "zero")
    assert all(r.passed for r in reports)


def test_zero_bracket_system_arity_above_dim(w4):
    system = make_zero_bracket_system(w4.product, 5)
    assert system.brackets["zero"].entries == {}
    assert system.brackets["zero"].arity == 5


def test_zero_bracket_extension_stays_zero(w4):
    from tpnlie import extend_bracket

    system = make_zero_bracket_system(w4.product, 3)
    ext = extend_bracket(system.product, system.brackets["zero"], w4.derivations["euler"])
    assert ext.entries == {}


# ---------------------------------------------------------------------------
# random systems


def test_random_system_deterministic():
    a = random_system(3, 2, Fraction(1, 2), seed=99)
    b = random_system(3, 2, Fraction(1, 2), seed=99)
    assert a.product == b.product
    assert a.brackets["b"] == b.brackets["b"]
    assert a.derivations["d"] == b.derivations["d"]


def test_random_system_seed_changes_output():
    a = random_system(3, 2, 1, seed=1)
    b = random_system(3, 2, 1, seed=2)
    assert a.product != b.product or a.brackets["b"] != b.brackets["b"]


def test_random_system_density_zero_gives_zero_bracket():
    system = random_system(4, 2, 0, seed=5)
    assert system.brackets["b"].entries == {}


def test_random_system_density_one_fills_bracket():
    system = random_system(4, 2, 1, seed=5)
    # every increasing pair present unless its random value vanished entirely
    assert len(system.brackets["b"].entries) >= 4


def test_random_system_product_is_symmetric():
    system = random_system(4, 2, 1, seed=8)
    c = system.product.c
    for i in range(4):
        for j in range(4):
            assert c[i][j] == c[j][i]


def test_random_system_dim_guard():
    with pytest.raises(InputError):
        random_system(13, 2, 1, seed=0)


def test_random_system_rejects_bad_density():
    with pytest.raises(InputError):
        random_system(3, 2, "3/2", seed=0)


# ---------------------------------------------------------------------------
# sweep corpora


def test_binary_corpus_is_deterministic_and_sized():
    a = binary_sweep_corpus(0, 24)
    b = binary_sweep_corpus(0, 24)
    assert len(a) == 24
    assert [i.label for i in a] == [i.label for i in b]
    assert all(x.system.product == y.system.product for x, y in zip(a, b))


def test_binary_corpus_instances_satisfy_hypotheses():
    for inst in binary_sweep_corpus(3, 18):
        p, b = inst.system.product, inst.bracket
        for ident in (I.COMM, I.ASSOC, I.NL, I.TP):
            assert check_identity(ident, product=p, bracket=b).passed, inst.label


def test_ternary_corpus_arities():
    corpus = ternary_sweep_corpus(1, 12)
    assert len(corpus) == 12
    assert all(inst.bracket.arity == 3 for inst in corpus)


# ---------------------------------------------------------------------------
# hunter


def test_hunt_rejects_arity_two():
    with pytest.raises(InputError):
        hunt_counterexample(4, 2, 10, seed=0)


def test_hunt_rejects_non_integer_arguments():
    # a string seed used to reach `"x" * 6364136223846793005` (MemoryError)
    for dim, trials, seed in (
        (4, "10", 0), (4, 2.5, 0), (4, True, 0), (4, 10, "x"), (4, 10, 1.0), (True, 10, 0),
    ):
        with pytest.raises(InputError, match="must be an integer"):
            hunt_counterexample(dim, 3, trials, seed)


def test_hunt_zero_trials_returns_none():
    assert hunt_counterexample(4, 3, 0, seed=0) is None


def test_hunt_small_budget_completes():
    finding = hunt_counterexample(4, 3, 200, seed=11)
    if finding is None:
        return
    # hygiene: premises re-verify and the failure reports really fail
    system = finding.system
    p, b = system.product, system.bracket(finding.bracket_name)
    d = system.derivation(finding.derivation_name)
    for ident in (I.COMM, I.ASSOC, I.NL, I.TP):
        assert check_identity(ident, product=p, bracket=b).passed
    for ident in (I.DER_MUL, I.DER_BRK):
        assert check_identity(ident, product=p, bracket=b, derivation=d).passed
    assert not check_identity(I.STRONG, product=p, bracket=b).passed
    assert finding.failure_reports
    for report in finding.failure_reports:
        assert not report.passed

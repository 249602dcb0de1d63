"""Bracket constructions: bootstrap, arity extension, towers."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest

from tpnlie import (
    DerivationMatrix,
    ElementVector,
    IdentityId,
    InputError,
    SkewBracket,
    bracket_apply,
    build_tower,
    check_identity,
    derivation_bracket,
    extend_bracket,
    make_tensor_trunc,
)

I = IdentityId


def e(dim, i):
    return ElementVector.basis(dim, i)


# ---------------------------------------------------------------------------
# derivation_bracket


def test_bootstrap_matches_degree_rule(w4):
    # Euler on Q[t]/(t^4): [e_i, e_j] = (j - i) e_{i+j}, truncated
    b = derivation_bracket(w4.product, w4.derivations["euler"])
    expected = {}
    for i, j in combinations(range(4), 2):
        if i + j < 4:
            expected[(i, j)] = e(4, i + j).scaled(j - i)
    assert b.entries == expected
    assert b == w4.brackets["b1"]


def test_bootstrap_zero_derivation(w4):
    b = derivation_bracket(w4.product, DerivationMatrix.zero(4))
    assert b.entries == {}


def test_bootstrap_on_nilpotent_square_algebra(tp22):
    # d1 = diag(0,1,0,1) on basis (1, s, t, s*t):
    # [e0,e1] = e1, [e0,e3] = e3, [e1,e2] = -e3, everything else zero
    d1 = tp22.derivations["d1"]
    assert [d1.m[k][k] for k in range(4)] == [0, 1, 0, 1]
    b = derivation_bracket(tp22.product, d1)
    assert b.entries == {
        (0, 1): e(4, 1),
        (0, 3): e(4, 3),
        (1, 2): -e(4, 3),
    }


def test_bootstrap_dimension_mismatch(w4):
    with pytest.raises(InputError):
        derivation_bracket(w4.product, DerivationMatrix.zero(3))


# ---------------------------------------------------------------------------
# extend_bracket


def test_extension_of_tp22(tp22):
    ext = extend_bracket(tp22.product, tp22.brackets["b_d1"], tp22.derivations["d2"])
    assert ext.arity == 3
    # exactly one nonzero increasing triple: mu(1, s, t) = s*t
    assert ext.entries == {(0, 1, 2): e(4, 3)}


def test_extension_by_zero_derivation(tp22):
    ext = extend_bracket(tp22.product, tp22.brackets["b_d1"], DerivationMatrix.zero(4))
    assert ext.entries == {}


def test_extension_of_zero_bracket(tp22):
    ext = extend_bracket(tp22.product, SkewBracket.zero(4, 2), tp22.derivations["d2"])
    assert ext.entries == {}


def test_extension_well_formed(tp22):
    ext = extend_bracket(tp22.product, tp22.brackets["b_d1"], tp22.derivations["d2"])
    for key, value in ext.entries.items():
        assert len(key) == 3
        assert all(a < b for a, b in zip(key, key[1:]))
        assert value.dim == 4 and not value.is_zero()


def test_self_extension_collapses(w4):
    # extending the Euler bracket by the Euler derivation cancels exactly:
    # sum of +/- i(k-j) - j(k-i) + k(j-i) = 0 on every monomial triple
    ext = extend_bracket(w4.product, w4.brackets["b1"], w4.derivations["euler"])
    assert ext.entries == {}
    for idx in iproduct(range(4), repeat=3):
        args = tuple(e(4, i) for i in idx)
        assert bracket_apply(ext, args).is_zero()


def _monomial_exponents(a, b):
    # index -> (s-degree, t-degree) for the tensor truncation basis order
    return {j * a + i: (i, j) for j in range(b) for i in range(a)}


def test_extension_matches_determinant_oracle():
    # Independent oracle on Q[s]/(s^2) (x) Q[t]/(t^3): building with s*d/ds
    # and extending with t*d/dt sends a monomial triple to
    # det[[i2-i1, i3-i1], [j2-j1, j3-j1]] times the monomial product.
    system = make_tensor_trunc(2, 3)
    ext = extend_bracket(system.product, system.brackets["b_d1"], system.derivations["d2"])
    exps = _monomial_exponents(2, 3)
    expected = {}
    for key in combinations(range(6), 3):
        (i1, j1), (i2, j2), (i3, j3) = (exps[k] for k in key)
        det = (i2 - i1) * (j3 - j1) - (i3 - i1) * (j2 - j1)
        si, tj = i1 + i2 + i3, j1 + j2 + j3
        if det and si < 2 and tj < 3:
            expected[key] = e(6, tj * 2 + si).scaled(det)
    assert ext.entries == expected


def test_extension_linear_in_derivation(tp22):
    scale = Fraction(3, 2)
    d2 = tp22.derivations["d2"]
    base = extend_bracket(tp22.product, tp22.brackets["b_d1"], d2)
    scaled_d2 = DerivationMatrix(4, [[scale * v for v in row] for row in d2.m])
    scaled = extend_bracket(tp22.product, tp22.brackets["b_d1"], scaled_d2)
    assert set(scaled.entries) == set(base.entries)
    for key, value in base.entries.items():
        assert scaled.entries[key] == value.scaled(scale)


def test_extension_dimension_mismatch(tp22):
    with pytest.raises(InputError):
        extend_bracket(tp22.product, tp22.brackets["b_d1"], DerivationMatrix.zero(3))


def test_extension_theorem_property(tp22):
    # strong transposed Poisson + two-sided derivation in, same out at n+1
    p = tp22.product
    b = tp22.brackets["b_d1"]
    d2 = tp22.derivations["d2"]
    for ident in (I.NL, I.TP, I.STRONG):
        assert check_identity(ident, product=p, bracket=b).passed
    for ident in (I.DER_MUL, I.DER_BRK):
        assert check_identity(ident, product=p, bracket=b, derivation=d2).passed
    ext = extend_bracket(p, b, d2)
    for ident in (I.NL, I.TP, I.STRONG):
        assert check_identity(ident, product=p, bracket=ext).passed


# ---------------------------------------------------------------------------
# build_tower


def test_tower_single_verified_step(tp22):
    steps = build_tower(tp22, "b_d1", ["d2"])
    assert len(steps) == 1
    step = steps[0]
    assert step.bracket.arity == 3
    assert step.bracket.entries == {(0, 1, 2): e(4, 3)}
    assert [r.identity for r in step.reports] == [
        I.NL, I.TP, I.NP1, I.NP2, I.NP3, I.NP4, I.STRONG, I.SCALE,
    ]
    assert step.all_passed


def test_tower_two_steps_rechecks_next_derivation(tp22):
    steps = build_tower(tp22, "b_d1", ["d2", "d2"])
    assert len(steps) == 2
    first, second = steps
    # step 1 additionally validates d2 against the new arity-3 bracket
    assert [r.identity for r in first.reports[-2:]] == [I.DER_MUL, I.DER_BRK]
    assert first.all_passed
    # the depth-2 bracket from this seed collapses to zero (and still passes)
    assert second.bracket.arity == 4
    assert second.bracket.entries == {}
    assert second.all_passed


def test_tower_zero_seed(w4):
    system = w4.with_bracket("zero", SkewBracket.zero(4, 2))
    steps = build_tower(system, "zero", ["euler", "euler"])
    assert all(step.bracket.entries == {} for step in steps)
    assert all(step.all_passed for step in steps)


def test_tower_collapsing_seed(w4):
    steps = build_tower(w4, "b1", ["euler"])
    assert steps[0].bracket.entries == {}
    assert steps[0].all_passed


def test_tower_without_verification(tp22):
    steps = build_tower(tp22, "b_d1", ["d2"], verify=False)
    assert steps[0].reports == ()


def test_tower_continues_past_failures():
    # a seed violating the hypotheses still extends; failures are findings
    system = make_tensor_trunc(2, 2)
    broken = SkewBracket(
        4, 2, {(0, 1): e(4, 1) + e(4, 2), (2, 3): e(4, 0)}
    )
    system = system.with_bracket("broken", broken)
    steps = build_tower(system, "broken", ["d2", "d1"])
    assert len(steps) == 2  # did not stop at the first failing level


def test_tower_unknown_names(tp22):
    with pytest.raises(InputError):
        build_tower(tp22, "nope", ["d2"])
    with pytest.raises(InputError):
        build_tower(tp22, "b_d1", ["nope"])


@pytest.mark.parametrize(
    "names, message",
    [
        ("euler", "derivation_names must be a list, got str"),
        (5, "derivation_names must be a list, got int"),
        ([["euler"]], r"unknown derivation \['euler'\] \(available: euler\)"),
    ],
    ids=["str", "int", "unhashable-element"],
)
def test_tower_rejects_names_that_are_not_a_list_of_strings(w4, names, message):
    # A string would be read by character ("unknown derivation 'e'").
    with pytest.raises(InputError, match=message):
        build_tower(w4, "b1", names)

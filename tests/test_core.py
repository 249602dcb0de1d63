"""Core arithmetic: rationals, canonicalization, products, bracket application."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpnlie import (
    AlgebraSystem,
    DerivationMatrix,
    ElementVector,
    InputError,
    ProductTensor,
    SkewBracket,
    basis_vectors,
    bracket_apply,
    canonicalize,
    multiply,
    rat,
)


def e(dim, i):
    return ElementVector.basis(dim, i)


def vec(*coords):
    return ElementVector(coords)


# ---------------------------------------------------------------------------
# rationals


def test_rat_parses_canonical_strings():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-5") == Fraction(-5)
    assert rat(7) == Fraction(7)


def test_rat_rejects_zero_denominator():
    with pytest.raises(InputError):
        rat("1/0")


def test_rat_rejects_garbage_and_floats():
    with pytest.raises(InputError):
        rat("one half")
    with pytest.raises(InputError):
        rat(0.5)


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_single_transposition():
    assert canonicalize((2, 1), 4) == ((1, 2), -1)


def test_canonicalize_repeated_index():
    assert canonicalize((0, 3, 3), 4) == ((0, 3, 3), 0)


def test_canonicalize_even_cycle():
    assert canonicalize((2, 0, 1), 4) == ((0, 1, 2), 1)


def test_canonicalize_out_of_range():
    with pytest.raises(InputError):
        canonicalize((0, 4), 4)
    with pytest.raises(InputError):
        canonicalize((-1, 2), 4)


def _inversion_parity(seq):
    inv = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -1 if inv % 2 else 1


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6))
def test_canonicalize_matches_inversion_count(indices):
    sorted_tuple, sign = canonicalize(indices, 6)
    assert sorted_tuple == tuple(sorted(indices))
    if len(set(indices)) < len(indices):
        assert sign == 0
    else:
        assert sign == _inversion_parity(indices)


# ---------------------------------------------------------------------------
# multiply


def test_multiply_truncated_poly(w4):
    # t * t^2 = t^3
    assert multiply(w4.product, e(4, 1), e(4, 2)) == e(4, 3)


def test_multiply_zero_absorbs(w4):
    z = ElementVector.zero(4)
    x = vec(1, "1/2", -3, 2)
    assert multiply(w4.product, x, z) == z
    assert multiply(w4.product, z, x) == z


def test_multiply_nilpotent_square(tp22):
    # s * s = 0 in Q[s,t]/(s^2,t^2); basis order is 1, s, t, s*t
    assert tp22.basis_labels == ("1", "s", "t", "s*t")
    assert multiply(tp22.product, e(4, 1), e(4, 1)).is_zero()


@pytest.mark.parametrize(
    "op, message",
    [
        (lambda w4: multiply(w4.product, vec(1, 2), vec(3, 4)), "multiply: expected dimension 4, got 2"),
        (lambda w4: multiply(w4.product, e(4, 0), vec(3, 4)), "multiply: expected dimension 4, got 2"),
        (
            lambda w4: bracket_apply(w4.brackets["b1"], [e(4, 0), e(3, 1)]),
            "bracket_apply: expected dimension 4, got 3",
        ),
        (
            lambda w4: w4.derivation("euler").apply(e(3, 0)),
            "DerivationMatrix.apply: expected dimension 4, got 3",
        ),
        (lambda w4: e(4, 0) + e(2, 0), "vector sum: expected dimension 4, got 2"),
        (lambda w4: e(2, 0) - e(5, 0), "vector difference: expected dimension 2, got 5"),
        (
            lambda w4: multiply(w4.product, [1, 0], [0, 1]),
            "multiply: expected an ElementVector, got list",
        ),
        (
            lambda w4: multiply(w4.product, e(4, 0), (0, 1, 0, 0)),
            "multiply: expected an ElementVector, got tuple",
        ),
        (
            lambda w4: bracket_apply(w4.brackets["b1"], [e(4, 0), 1]),
            "bracket_apply: expected an ElementVector, got int",
        ),
        (
            lambda w4: bracket_apply(w4.brackets["b1"], 5),
            "bracket_apply arguments must be a list, got int",
        ),
        (
            lambda w4: bracket_apply(w4.brackets["b1"], "ab"),
            "bracket_apply arguments must be a list, got str",
        ),
        (
            lambda w4: w4.derivation("euler").apply((1, 0)),
            "DerivationMatrix.apply: expected an ElementVector, got tuple",
        ),
        (lambda w4: e(4, 0) + [1, 0, 0, 0], "vector sum: expected an ElementVector, got list"),
        (lambda w4: e(4, 0) - 3, "vector difference: expected an ElementVector, got int"),
    ],
    ids=["multiply-x", "multiply-y", "bracket_apply", "derivation-apply", "sum", "difference",
         "multiply-list", "multiply-tuple", "bracket_apply-int-argument", "bracket_apply-int",
         "bracket_apply-str", "derivation-apply-tuple", "sum-list", "difference-int"],
)
def test_public_ops_name_both_dimensions(w4, op, message):
    with pytest.raises(InputError) as info:
        op(w4)
    assert str(info.value) == message


def _random_vec(dim, rng):
    return ElementVector(
        tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim))
    )


def test_multiply_commutative_and_associative_on_random_triples(w4, tp22):
    # The tensor invariants transfer to the bilinear map on 20+ random triples.
    rng = random.Random(7)
    for system in (w4, tp22):
        p = system.product
        for _ in range(20):
            x, y, z = (_random_vec(system.dim, rng) for _ in range(3))
            assert multiply(p, x, y) == multiply(p, y, x)
            lhs = multiply(p, multiply(p, x, y), z)
            rhs = multiply(p, x, multiply(p, y, z))
            assert lhs == rhs


def test_multiply_bilinear(w4):
    rng = random.Random(11)
    p = w4.product
    for _ in range(10):
        a, b = Fraction(rng.randint(-5, 5), 2), Fraction(rng.randint(-5, 5), 3)
        x, xp, y = (_random_vec(4, rng) for _ in range(3))
        combo = x.scaled(a) + xp.scaled(b)
        assert multiply(p, combo, y) == multiply(p, x, y).scaled(a) + multiply(p, xp, y).scaled(b)


# ---------------------------------------------------------------------------
# SkewBracket and bracket_apply


def test_bracket_entries_match_degree_rule(w4):
    # Independent oracle: [e_i, e_j] = (j - i) e_{i+j}, zero once i + j >= 4.
    b = w4.brackets["b1"]
    for i in range(4):
        for j in range(i + 1, 4):
            expected = (
                e(4, i + j).scaled(j - i) if i + j < 4 else ElementVector.zero(4)
            )
            assert bracket_apply(b, (e(4, i), e(4, j))) == expected


def test_bracket_apply_lookup(w4):
    assert bracket_apply(w4.brackets["b1"], (e(4, 1), e(4, 2))) == e(4, 3)


def test_bracket_equal_arguments_vanish(w4):
    b = w4.brackets["b1"]
    rng = random.Random(3)
    for _ in range(10):
        x = _random_vec(4, rng)
        assert bracket_apply(b, (x, x)).is_zero()


def test_bracket_swap_negates(w4):
    b = w4.brackets["b1"]
    rng = random.Random(5)
    for _ in range(10):
        x, y = _random_vec(4, rng), _random_vec(4, rng)
        assert bracket_apply(b, (x, y)) == -bracket_apply(b, (y, x))


def test_bracket_permutation_equivariance():
    # arity-3 bracket with a couple of entries; every permutation of the
    # arguments multiplies the value by the permutation sign
    entries = {
        (0, 1, 2): vec(0, 0, 0, 1),
        (0, 1, 3): vec(0, 0, 2, 0),
        (1, 2, 3): vec("1/2", 0, 0, 0),
    }
    b = SkewBracket(4, 3, entries)
    rng = random.Random(13)
    args = tuple(_random_vec(4, rng) for _ in range(3))
    base = bracket_apply(b, args)
    for perm in permutations(range(3)):
        sign = _inversion_parity(perm)
        permuted = bracket_apply(b, tuple(args[k] for k in perm))
        assert permuted == (base if sign > 0 else -base)


def test_bracket_multilinear(w4):
    b = w4.brackets["b1"]
    rng = random.Random(17)
    for _ in range(10):
        a1, a2 = Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4))
        x, xp, y = (_random_vec(4, rng) for _ in range(3))
        combo = x.scaled(a1) + xp.scaled(a2)
        lhs = bracket_apply(b, (combo, y))
        rhs = bracket_apply(b, (x, y)).scaled(a1) + bracket_apply(b, (xp, y)).scaled(a2)
        assert lhs == rhs


def test_bracket_rejects_bad_keys():
    with pytest.raises(InputError):
        SkewBracket(4, 2, {(2, 1): vec(1, 0, 0, 0)})
    with pytest.raises(InputError):
        SkewBracket(4, 2, {(1, 1): vec(1, 0, 0, 0)})
    with pytest.raises(InputError):
        SkewBracket(4, 2, {(0, 4): vec(1, 0, 0, 0)})
    with pytest.raises(InputError):
        SkewBracket(4, 2, {(0, 1): vec(1, 0)})
    # True == 1 as a dict key, but it would be saved as `true`, which no
    # file can load back
    with pytest.raises(InputError, match="integer indices"):
        SkewBracket(3, 2, {(True, 2): vec(1, 0, 0)})
    # keys of mixed types cannot be sorted; the bad one is named instead
    with pytest.raises(InputError, match="integer indices"):
        SkewBracket(3, 2, {(0, "a"): vec(1, 0, 0), (0, 1): vec(1, 0, 0)})
    with pytest.raises(InputError, match="tuple of 2 indices"):
        SkewBracket(3, 2, {5: vec(1, 0, 0), (0, 1): vec(1, 0, 0)})
    # a list of (key, value) pairs where the mapping belongs
    with pytest.raises(InputError, match="bracket entries must be a mapping, got list"):
        SkewBracket(2, 2, [((0, 1), (1, 0))])


def test_bracket_drops_zero_values():
    b = SkewBracket(3, 2, {(0, 1): ElementVector.zero(3), (0, 2): vec(0, 1, 0)})
    assert set(b.entries) == {(0, 2)}


def test_bracket_arity_above_dimension_is_identically_zero():
    b = SkewBracket(2, 5, {})
    assert b.entries == {}
    args = tuple(basis_vectors(2)[0] for _ in range(5))
    assert bracket_apply(b, args).is_zero()


def test_bracket_apply_arity_mismatch(w4):
    with pytest.raises(InputError):
        bracket_apply(w4.brackets["b1"], (e(4, 0),))


@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
        min_size=4,
        max_size=4,
    ),
    st.permutations(range(2)),
)
def test_bracket_scaling_commutes_with_apply(coords, perm):
    b = SkewBracket(4, 2, {(0, 1): ElementVector(coords)})
    x, y = basis_vectors(4)[0], basis_vectors(4)[1]
    args = (x, y) if list(perm) == [0, 1] else (y, x)
    result = bracket_apply(b, args)
    expected = ElementVector(coords)
    if list(perm) != [0, 1]:
        expected = -expected
    assert result == expected


# ---------------------------------------------------------------------------
# DerivationMatrix and AlgebraSystem


def test_derivation_apply_and_column(w4):
    euler = w4.derivations["euler"]
    assert euler.column(2) == e(4, 2).scaled(2)
    assert euler.apply(vec(1, 1, 1, 1)) == vec(0, 1, 2, 3)


def test_derivation_shape_validation():
    with pytest.raises(InputError):
        DerivationMatrix(2, ((Fraction(0),),))


def test_system_dimension_consistency(w4):
    with pytest.raises(InputError):
        AlgebraSystem(3, w4.product, {})


def test_system_unknown_names(w4):
    with pytest.raises(InputError):
        w4.bracket("nope")
    with pytest.raises(InputError):
        w4.derivation("nope")


def test_with_bracket_rejects_duplicates(w4):
    with pytest.raises(InputError):
        w4.with_bracket("b1", w4.brackets["b1"])
    grown = w4.with_bracket("copy", w4.brackets["b1"])
    assert set(grown.brackets) == {"b1", "copy"}
    assert set(w4.brackets) == {"b1"}  # original untouched


@pytest.mark.parametrize(
    "build",
    [
        lambda: ProductTensor(1, (((0.5,),),)),
        lambda: ProductTensor(1, (((True,),),)),
        lambda: ProductTensor(True, (((1,),),)),
        lambda: ProductTensor(1, 5),
        lambda: DerivationMatrix(1, ((0.5,),)),
        lambda: DerivationMatrix(2, ((1, False), (0, 1))),
        lambda: SkewBracket(2, 2, {(0, 1): ElementVector((0.5, 0.0))}),
        lambda: SkewBracket(2, 2, {(0, 1): (1, True)}),
        lambda: SkewBracket(2, 2, {(0, 1): 1}),
        lambda: ElementVector((1.5, 0, 0, 0)),
        lambda: ElementVector([Fraction(1), True]),
        lambda: ProductTensor(1, [["1"]]),
        lambda: DerivationMatrix(2, ["12", "34"]),
        lambda: DerivationMatrix(2, [{1: 0, 0: 1}, (0, 1)]),
        lambda: SkewBracket(2, 2, {(0, 1): "10"}),
        lambda: ElementVector(b"\x01\x02"),
        lambda: ElementVector({1, 2}),
        lambda: ElementVector(()),
    ],
    ids=[
        "product-float", "product-bool", "product-bool-dim", "product-scalar",
        "derivation-float", "derivation-bool", "bracket-float-vector", "bracket-bool",
        "bracket-scalar", "vector-float", "vector-bool", "product-str-row",
        "derivation-str-rows", "derivation-dict-row", "bracket-str-value", "vector-bytes",
        "vector-set", "vector-empty",
    ],
)
def test_constructors_reject_inexact_or_malformed_constants(build):
    # A float or bool cannot be saved and loaded back as the same rational.
    # At any nesting level, a string or bytes would be read by character and
    # a set or dict in hash or key order; a vector has dimension >= 1.
    with pytest.raises(InputError):
        build()


def test_constructors_store_tuples_of_fractions():
    half = Fraction(1, 2)
    p = ProductTensor(1, [[["1/2"]]])
    assert p.c == (((half,),),) and type(p.c[0][0][0]) is Fraction
    m = DerivationMatrix(2, [[1, 0], ["0", half]])
    assert m.m == ((1, 0), (0, half)) and isinstance(m.m[0], tuple)
    assert all(type(v) is Fraction for row in m.m for v in row)
    b = SkewBracket(2, 2, {(0, 1): ElementVector((1, 0))})
    assert all(type(c) is Fraction for c in b.entries[(0, 1)].coords)
    # A list of Fractions must become a tuple too: hashable, and equal after
    # a save and a load.
    listed = SkewBracket(3, 2, {(0, 2): ElementVector([Fraction(0), Fraction(0), Fraction(1)])})
    value = listed.entries[(0, 2)]
    assert value.coords == (0, 0, 1) and type(value.coords) is tuple
    assert hash(value) == hash(ElementVector((Fraction(0), Fraction(0), Fraction(1))))
    vector = ElementVector([Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    assert vector == ElementVector((1, 0, 0, 0)) and hash(vector) == hash(vector)
    assert all(type(c) is Fraction for c in ElementVector((1, "1/2")).coords)


def test_system_requires_string_names(w4):
    b, euler = w4.brackets["b1"], w4.derivations["euler"]
    with pytest.raises(InputError, match="bracket name 1 must be a string"):
        AlgebraSystem(4, w4.product, {1: b})
    with pytest.raises(InputError, match="derivation name"):
        AlgebraSystem(4, w4.product, {"b": b}, {("d",): euler})
    with pytest.raises(InputError, match="is a ProductTensor, not a SkewBracket"):
        AlgebraSystem(4, w4.product, {"b": w4.product})
    # lists where a mapping or a list of labels belongs name the argument
    with pytest.raises(InputError, match="brackets must be a mapping, got list"):
        AlgebraSystem(4, w4.product, [("b", b)])
    with pytest.raises(InputError, match="derivations must be a mapping, got list"):
        AlgebraSystem(4, w4.product, {"b": b}, [("d", euler)])
    with pytest.raises(InputError, match="basis_labels must be a list, got int"):
        AlgebraSystem(4, w4.product, {"b": b}, basis_labels=5)
    with pytest.raises(InputError, match="basis_labels must be a list, got str"):
        AlgebraSystem(4, w4.product, {"b": b}, basis_labels="1tuv")


def test_product_shape_validation():
    zero = Fraction(0)
    with pytest.raises(InputError):
        ProductTensor(2, (((zero,),),))  # wrong nesting for dim 2

"""Argument rules at the public entry points: every count, index and seed is
an int (never a bool) in range, components are checked for type and shared
dimension, and validated objects stay read-only."""

from __future__ import annotations

import os
import re

import pytest

from tpnlie import (
    AlgebraSystem,
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
    canonicalize,
    check_identity,
    derivation_bracket,
    extend_bracket,
    finding_to_dict,
    formal_derivative,
    hunt_counterexample,
    make_tensor_trunc,
    make_truncated_poly,
    make_zero_bracket_system,
    poly_derivation,
    random_system,
    rat,
    report_to_dict,
    run_suite,
    sampled_verdict,
    save_finding,
    save_system,
    system_to_dict,
    tensor_diagonal_derivation,
    ternary_sweep_corpus,
)

W4 = make_truncated_poly(4)
P, B, D = W4.product, W4.brackets["b1"], W4.derivations["euler"]
D3, P3 = DerivationMatrix.zero(3), ProductTensor.zero(3)

# (entry point, call with the bad value in place of one argument, the name
# the message must give, an out-of-range value of the right type or None
# when the argument has no range)
ENTRY_POINTS = [
    ("zero-vector", ElementVector.zero, "dimension", 0),
    ("basis-vectors", basis_vectors, "dimension", 0),
    ("basis-dim", lambda v: ElementVector.basis(v, 0), "dimension", 0),
    ("basis-index", lambda v: ElementVector.basis(4, v), "basis index", 4),
    ("column", lambda v: D.column(v), "column index", 4),
    ("canonicalize-dim", lambda v: canonicalize((0, 1), v), "dimension", 0),
    ("canonicalize-index", lambda v: canonicalize((0, v), 4), "index", 4),
    ("canonicalize-indices", lambda v: canonicalize(v, 4), "indices", None),
    ("product-dim", lambda v: ProductTensor(v, [[[0]]]), "dimension", 0),
    ("product-zero", ProductTensor.zero, "dimension", 0),
    ("derivation-dim", lambda v: DerivationMatrix(v, [[0]]), "dimension", 0),
    ("derivation-zero", DerivationMatrix.zero, "dimension", 0),
    ("bracket-dim", lambda v: SkewBracket(v, 2, {}), "dimension", 0),
    ("bracket-arity", lambda v: SkewBracket(4, v, {}), "bracket arity", 1),
    ("bracket-zero-dim", lambda v: SkewBracket.zero(v, 2), "dimension", 0),
    ("bracket-zero-arity", lambda v: SkewBracket.zero(4, v), "bracket arity", 1),
    ("bracket-key", lambda v: SkewBracket(4, 2, {(0, v): (1, 0, 0, 0)}), "bracket key", 4),
    ("system-dim", lambda v: AlgebraSystem(v, P, {}), "dimension", 0),
    ("trunc-poly", make_truncated_poly, "truncation degree m", 1),
    ("poly-derivation-m", lambda v: poly_derivation(v, [1]), "truncation degree m", 1),
    ("poly-derivation-coeffs", lambda v: poly_derivation(4, v), "coeffs", 1),
    ("formal-derivative", formal_derivative, "truncation degree m", 1),
    ("tensor-a", lambda v: make_tensor_trunc(v, 2), "truncation degree a", 1),
    ("tensor-b", lambda v: make_tensor_trunc(2, v), "truncation degree b", 1),
    ("diagonal-a", lambda v: tensor_diagonal_derivation(v, 2, 1, 1), "truncation degree a", 1),
    ("diagonal-b", lambda v: tensor_diagonal_derivation(2, v, 1, 1), "truncation degree b", 1),
    ("zero-bracket-product", lambda v: make_zero_bracket_system(v, 3), "product", None),
    ("zero-bracket-arity", lambda v: make_zero_bracket_system(P, v), "bracket arity", 1),
    ("random-dim", lambda v: random_system(v, 2, 1, 0), "random_system dimension", 13),
    ("random-arity", lambda v: random_system(3, v, 1, 0), "bracket arity", 1),
    ("random-seed", lambda v: random_system(3, 2, 1, v), "seed", None),
    ("binary-seed", lambda v: binary_sweep_corpus(v, 6), "seed", None),
    ("binary-count", lambda v: binary_sweep_corpus(0, v), "count", -1),
    ("ternary-seed", lambda v: ternary_sweep_corpus(v, 2), "seed", None),
    ("ternary-count", lambda v: ternary_sweep_corpus(0, v), "count", -1),
    ("hunt-dim", lambda v: hunt_counterexample(v, 3, 0, 0), "hunt dim", 13),
    ("hunt-arity", lambda v: hunt_counterexample(4, v, 0, 0), "hunt arity", 2),
    ("hunt-trials", lambda v: hunt_counterexample(4, 3, v, 0), "hunt trials", -1),
    ("hunt-seed", lambda v: hunt_counterexample(4, 3, 0, v), "hunt seed", None),
    (
        "sampled-samples",
        lambda v: sampled_verdict(IdentityId.NL, bracket=B, samples=v),
        "samples",
        0,
    ),
    ("sampled-seed", lambda v: sampled_verdict(IdentityId.NL, bracket=B, seed=v), "seed", None),
    # for a component, "out of range" is a map of another dimension
    ("derivation-bracket", lambda v: derivation_bracket(v, D), "product", P3),
    ("extend-bracket", lambda v: extend_bracket(P, B, v), "derivation", D3),
    ("run-suite-system", lambda v: run_suite(v, "b1"), "system", None),
    ("build-tower-system", lambda v: build_tower(v, "b1", ["euler"]), "system", None),
    # the writers: a wrong object is an input error, never a bare AttributeError
    ("system-to-dict", system_to_dict, "system", None),
    ("save-system", lambda v: save_system(v, os.devnull), "system", None),
    ("report-to-dict", report_to_dict, "report", None),
    ("finding-to-dict", finding_to_dict, "finding", None),
    ("save-finding", lambda v: save_finding(v, os.devnull), "finding", None),
]

BAD_VALUES = {"bool": True, "float": 1.0, "str": "x", "none": None}


def _cases():
    for name, call, what, out_of_range in ENTRY_POINTS:
        values = dict(BAD_VALUES)
        if out_of_range is not None:
            values["out-of-range"] = out_of_range
        for kind, value in values.items():
            yield pytest.param(call, what, value, id=f"{name}-{kind}")


@pytest.mark.parametrize("call, what, value", _cases())
def test_entry_points_reject_bad_arguments_naming_them(call, what, value):
    with pytest.raises(InputError, match=re.escape(what)):
        call(value)


# (entry point, call with an ordered argument in place, its items, the name
# the message must give)
ORDERED = [
    ("bracket-apply", lambda v: bracket_apply(B, v), basis_vectors(4)[1:3],
     "bracket_apply arguments"),
    ("canonicalize", lambda v: canonicalize(v, 4), (3, 1), "indices"),
    ("basis-labels", lambda v: AlgebraSystem(3, P3, {}, basis_labels=v), "xyz", "basis_labels"),
    ("poly-derivation", lambda v: poly_derivation(3, v), (2, 1), "coeffs"),
    ("build-tower", lambda v: build_tower(W4, "b1", v), ("euler",), "derivation_names"),
]

UNORDERED = {
    "set": set,
    "frozenset": frozenset,
    "dict": dict.fromkeys,
    "dict-keys": lambda items: dict.fromkeys(items).keys(),
    "dict-values": lambda items: dict(enumerate(items)).values(),
}


@pytest.mark.parametrize("kind", UNORDERED)
@pytest.mark.parametrize(
    "call, items, what", [pytest.param(*row[1:], id=row[0]) for row in ORDERED]
)
def test_ordered_arguments_refuse_sets_and_mappings(call, items, what, kind):
    # Their iteration order is not one the caller wrote down: a set of two
    # bracket arguments could flip the sign of the value, and a dict of
    # coefficients would be read by its keys.
    value = UNORDERED[kind](items)
    message = f"{what} must be a list, got {type(value).__name__}"
    with pytest.raises(InputError, match=re.escape(message)):
        call(value)
    call(list(items))


def _nested(depth):
    node = 1
    for _ in range(depth):
        node = [node]
    return node


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_system(10**5000, 2, 1, 0),
        lambda: check_identity(10**5000, bracket=B),
        lambda: SkewBracket(4, 2, {tuple(range(5000)): (1, 0, 0, 0)}),
        lambda: rat("x" * 5000),
        lambda: rat(_nested(5000)),
        lambda: W4.bracket("b" * 5000),
    ],
    ids=["int-past-digit-limit", "identity-past-digit-limit", "long-key", "long-string",
         "list-past-recursion-limit", "long-name"],
)
def test_messages_echo_a_bounded_prefix_of_the_value(call):
    # The first two and the list are echoed by type alone: str() refuses
    # ints past 4300 digits, and repr() lists nested past the recursion limit.
    with pytest.raises(InputError) as info:
        call()
    assert len(str(info.value)) <= 300


def test_constructions_reject_swapped_components():
    with pytest.raises(InputError, match="the product must be a ProductTensor, got a SkewBracket"):
        derivation_bracket(B, D)
    with pytest.raises(
        InputError, match="the bracket must be a SkewBracket, got a DerivationMatrix"
    ):
        extend_bracket(P, D, D)


def test_validated_mappings_are_read_only():
    bracket = SkewBracket(4, 2, {(0, 1): (0, 1, 0, 0)})
    for mapping in (bracket.entries, W4.brackets, W4.derivations):
        with pytest.raises(TypeError):
            mapping[next(iter(mapping))] = None
    assert check_identity(IdentityId.NL, bracket=bracket).passed
    # a proxy still compares equal by content
    assert bracket.entries == {(0, 1): ElementVector((0, 1, 0, 0))}
    assert bracket == SkewBracket(4, 2, {(0, 1): (0, 1, 0, 0)})


@pytest.mark.parametrize("name", [[1], {}, 1, None], ids=["list", "dict", "int", "none"])
@pytest.mark.parametrize(
    "kind, existing, add",
    [
        ("bracket", "b1", lambda name: W4.with_bracket(name, SkewBracket.zero(4, 2))),
        ("derivation", "euler", lambda name: W4.with_derivation(name, DerivationMatrix.zero(4))),
    ],
    ids=["with-bracket", "with-derivation"],
)
def test_added_parts_need_string_names(kind, existing, add, name):
    # The rule construction applies, checked before the duplicate test, so an
    # unhashable name is an input error, not a bare TypeError.
    with pytest.raises(InputError, match=re.escape(f"{kind} name {name!r} must be a string")):
        add(name)
    with pytest.raises(InputError, match=f"{kind} '{existing}' already exists"):
        add(existing)

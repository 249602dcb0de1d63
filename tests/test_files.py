"""Persistence: canonical JSON, exact round trips, validation errors."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnlie import (
    AlgebraSystem,
    DerivationMatrix,
    ElementVector,
    IdentityId,
    InputError,
    ProductTensor,
    SkewBracket,
    check_identity,
    load_system,
    make_truncated_poly,
    random_system,
    report_to_dict,
    save_system,
    system_from_dict,
    system_to_dict,
)
from tpnlie.files import dumps_system

FIXTURES = Path(__file__).parent / "fixtures"


def test_round_trip_w4(tmp_path, w4):
    path = tmp_path / "w4.json"
    save_system(w4, path)
    loaded = load_system(path)
    assert loaded == w4


def test_round_trip_tp22(tmp_path, tp22):
    path = tmp_path / "tp22.json"
    save_system(tp22, path)
    assert load_system(path) == tp22


def test_round_trip_random_systems(tmp_path):
    for seed in range(6):
        system = random_system(3, 2, Fraction(1, 2), seed=seed)
        path = tmp_path / f"r{seed}.json"
        save_system(system, path)
        assert load_system(path) == system


def test_round_trip_preserves_rationals(tmp_path):
    system = make_truncated_poly(3)
    doc = system_to_dict(system)
    doc["derivations"]["half"] = [
        ["0", "0", "0"],
        ["0", "1/2", "0"],
        ["0", "0", "-7/3"],
    ]
    rebuilt = system_from_dict(doc)
    assert rebuilt.derivations["half"].m[1][1] == Fraction(1, 2)
    assert rebuilt.derivations["half"].m[2][2] == Fraction(-7, 3)
    path = tmp_path / "sys.json"
    save_system(rebuilt, path)
    assert load_system(path) == rebuilt


# ---------------------------------------------------------------------------
# anything the constructors accept survives save -> load


_exact = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=4),
    st.fractions(-3, 3, max_denominator=4).map(str),
)


def _seq(elements, size):
    # Lists and tuples alike: what the constructors store must not depend on it.
    items = st.lists(elements, min_size=size, max_size=size)
    return st.one_of(items, items.map(tuple))


@st.composite
def _constructed_systems(draw):
    d = draw(st.integers(1, 3))
    product = ProductTensor(d, draw(_seq(_seq(_seq(_exact, d), d), d)))
    brackets = {}
    for name in draw(st.lists(st.text(max_size=3), max_size=2, unique=True)):
        n = draw(st.integers(2, 3))
        keys = list(combinations(range(d), n))
        value = _seq(_exact, d) | _seq(_exact, d).map(ElementVector)
        entries = draw(st.dictionaries(st.sampled_from(keys), value)) if keys else {}
        brackets[name] = SkewBracket(d, n, entries)
    derivations = {
        name: DerivationMatrix(d, draw(_seq(_seq(_exact, d), d)))
        for name in draw(st.lists(st.text(max_size=3), max_size=2, unique=True))
    }
    labels = draw(st.none() | _seq(st.text(max_size=3), d))
    return AlgebraSystem(d, product, brackets, derivations, labels)


@settings(max_examples=80, deadline=None)
@given(_constructed_systems())
def test_constructed_systems_survive_save_and_load(tmp_path_factory, system):
    path = tmp_path_factory.getbasetemp() / "constructed.json"
    save_system(system, path)
    first = path.read_bytes()
    loaded = load_system(path)
    assert loaded == system
    save_system(loaded, path)
    assert path.read_bytes() == first


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 3),
    st.sampled_from(["product", "derivation", "bracket", "vector"]),
    st.floats() | st.booleans(),
)
def test_constructors_reject_floats_and_bools_anywhere(d, where, bad):
    value = [0] * (d - 1) + [bad]
    zeros = [[0] * d] * (d - 1)
    build = {
        "product": lambda: ProductTensor(d, [zeros + [value]] * d),
        "derivation": lambda: DerivationMatrix(d, zeros + [value]),
        "bracket": lambda: SkewBracket(d, 2, {(0, 1): value}),
        "vector": lambda: SkewBracket(d, 2, {(0, 1): ElementVector(tuple(value))}),
    }[where]
    with pytest.raises(InputError):
        build()


@settings(max_examples=40, deadline=None)
@given(st.integers() | st.none() | st.binary() | st.tuples(st.text()), st.booleans())
def test_system_rejects_names_that_are_not_strings(name, as_derivation):
    product = ProductTensor.zero(2)
    if as_derivation:
        with pytest.raises(InputError, match="derivation name"):
            AlgebraSystem(2, product, {}, {name: DerivationMatrix.zero(2)})
    else:
        with pytest.raises(InputError, match="bracket name"):
            AlgebraSystem(2, product, {name: SkewBracket.zero(2, 2)})


def test_save_is_byte_deterministic(tmp_path, tp22):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_system(tp22, a)
    save_system(tp22, b)
    assert a.read_bytes() == b.read_bytes()


def test_committed_fixtures_match_generators(w4, tp22):
    assert (FIXTURES / "w4.json").read_text() == dumps_system(w4)
    assert (FIXTURES / "tp22.json").read_text() == dumps_system(tp22)
    assert load_system(FIXTURES / "w4.json") == w4
    assert load_system(FIXTURES / "tp22.json") == tp22


def _base_doc():
    return json.loads(dumps_system(make_truncated_poly(2)))


def test_load_rejects_zero_denominator():
    doc = _base_doc()
    doc["product"][0][0][0] = "1/0"
    with pytest.raises(InputError, match=r"product\[0\]\[0\]\[0\]"):
        system_from_dict(doc)


def test_load_rejects_non_increasing_indices():
    doc = _base_doc()
    doc["brackets"]["b1"]["entries"][0]["indices"] = [1, 0]
    with pytest.raises(InputError, match="not strictly increasing"):
        system_from_dict(doc)


def test_load_rejects_repeated_indices():
    doc = _base_doc()
    doc["brackets"]["b1"]["entries"][0]["indices"] = [1, 1]
    with pytest.raises(InputError, match="not strictly increasing"):
        system_from_dict(doc)


def test_load_rejects_out_of_range_indices():
    doc = _base_doc()
    doc["brackets"]["b1"]["entries"][0]["indices"] = [0, 2]
    with pytest.raises(InputError, match="outside"):
        system_from_dict(doc)


def test_load_rejects_duplicate_entries():
    doc = _base_doc()
    entry = doc["brackets"]["b1"]["entries"][0]
    doc["brackets"]["b1"]["entries"].append(dict(entry))
    with pytest.raises(InputError, match="duplicate"):
        system_from_dict(doc)


def test_load_rejects_wrong_value_length():
    doc = _base_doc()
    doc["brackets"]["b1"]["entries"][0]["value"] = ["1"]
    with pytest.raises(InputError, match="value"):
        system_from_dict(doc)


def test_load_rejects_null_basis():
    # An explicit null is not an absent basis: saving would drop the key.
    doc = _base_doc()
    doc["basis"] = None
    with pytest.raises(InputError, match="'basis' must be a list of 2 strings"):
        system_from_dict(doc)


def test_load_rejects_bad_dimension():
    with pytest.raises(InputError, match="dimension"):
        system_from_dict({"dimension": 0, "product": []})
    with pytest.raises(InputError, match="dimension"):
        system_from_dict({"dimension": "4", "product": []})


def test_load_rejects_wrong_product_shape():
    doc = _base_doc()
    doc["product"] = [[["1"]]]
    with pytest.raises(InputError, match="product"):
        system_from_dict(doc)


def test_load_rejects_bad_derivation_shape():
    doc = _base_doc()
    doc["derivations"]["euler"] = [["0", "0"]]
    with pytest.raises(InputError, match="derivations"):
        system_from_dict(doc)


def test_load_rejects_float_entries():
    doc = _base_doc()
    doc["product"][0][0][0] = 0.5
    with pytest.raises(InputError, match="rational"):
        system_from_dict(doc)


@pytest.mark.parametrize("text", ["0.5", "1e3", "1_000", " 1/2 ", "2/4", "+1", "-0"])
def test_load_rejects_non_canonical_rationals(text):
    doc = _base_doc()
    doc["product"][0][0][1] = text
    # Python 3.10 cannot parse "1_000" at all, later versions read it as 1000;
    # either way the file is refused at this location.
    with pytest.raises(InputError, match=r"product\[0\]\[0\]\[1\]: .*" + re.escape(repr(text))):
        system_from_dict(doc)


def test_load_names_each_cell_of_a_repeated_string(tmp_path, w4):
    # Each distinct string is parsed once per process, yet a refused one
    # names the cell it is in on every load, and an accepted one loads
    # the same rational every time.
    cells = {
        "product[1][2][3]": lambda doc: doc["product"][1][2],
        "derivations['euler'][0][3]": lambda doc: doc["derivations"]["euler"][0],
    }
    path = tmp_path / "w4.json"
    for where, row in cells.items():
        doc = json.loads((FIXTURES / "w4.json").read_text())
        row(doc)[3] = "2/4"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError) as info:
            load_system(path)
        assert f"{where}: '2/4' is not a canonical rational (write '1/2')" in str(info.value)
        assert [other for other in cells if other in str(info.value)] == [where]

    doc = json.loads((FIXTURES / "w4.json").read_text())
    for row in cells.values():
        row(doc)[3] = "1/2"
    path.write_text(json.dumps(doc))
    cube = [[list(cell) for cell in plane] for plane in w4.product.c]
    cube[1][2][3] = Fraction(1, 2)
    matrix = [list(r) for r in w4.derivations["euler"].m]
    matrix[0][3] = Fraction(1, 2)
    expected = AlgebraSystem(
        4, ProductTensor(4, cube), w4.brackets, {"euler": DerivationMatrix(4, matrix)},
        w4.basis_labels,
    )
    assert load_system(path) == expected
    assert load_system(path) == expected


def test_load_accepts_json_integers():
    doc = _base_doc()
    doc["product"] = [[[int(c) for c in row] for row in plane] for plane in doc["product"]]
    assert system_from_dict(doc) == system_from_dict(_base_doc())


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 2,\n  "product": [[[,]]]}\n')
    with pytest.raises(InputError, match="line 2"):
        load_system(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_system(tmp_path / "absent.json")


def test_report_serialization_pass_and_fail(w4):
    good = check_identity(IdentityId.NL, bracket=w4.brackets["b1"])
    assert report_to_dict(good) == {
        "identity": "NL",
        "status": "pass",
        "tuples_checked": 64,
        "counterexample": None,
        "residual": None,
    }
    comm = check_identity(IdentityId.COMM, product=w4.product)
    assert report_to_dict(comm)["identity"] == "COMM"

    from tpnlie import SkewBracket, ElementVector

    entries = dict(w4.brackets["b1"].entries)
    entries[(1, 2)] = ElementVector.basis(4, 2)
    bad = SkewBracket(4, 2, entries)
    report = check_identity(IdentityId.NL, bracket=bad)
    doc = report_to_dict(report)
    assert doc["status"] == "fail"
    assert doc["counterexample"] == [0, 1, 2]
    assert doc["residual"] == ["0", "0", "1", "0"]

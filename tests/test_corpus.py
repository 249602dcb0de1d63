"""Instance families, random systems, sweep corpora, and the hunter."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from tpnlie import (
    CheckReport,
    ElementVector,
    IdentityId,
    InputError,
    binary_sweep_corpus,
    check_identity,
    corpus,
    extend_bracket,
    finding_to_dict,
    formal_derivative,
    hunt_counterexample,
    make_tensor_trunc,
    make_truncated_poly,
    make_zero_bracket_system,
    poly_derivation,
    random_system,
    run_suite,
    save_finding,
    tensor_diagonal_derivation,
    ternary_sweep_corpus,
)
from tpnlie.files import dumps_system

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


def test_family_builders_share_one_system_per_arguments():
    assert make_truncated_poly(4) is make_truncated_poly(4)
    assert make_tensor_trunc(2, 3) is make_tensor_trunc(2, 3)
    assert make_tensor_trunc(2, 3) is not make_tensor_trunc(3, 2)


@pytest.mark.parametrize(
    "build, args",
    [
        (make_truncated_poly, (3.0,)),
        (make_truncated_poly, (Fraction(3),)),
        (make_tensor_trunc, (2, 2.0)),
        (make_tensor_trunc, (True, 2)),
    ],
)
def test_family_cache_does_not_let_invalid_arguments_through(build, args):
    # 3.0, Fraction(3) and (2, 2.0) hash and compare equal to cached int keys.
    make_truncated_poly(3)
    make_tensor_trunc(2, 2)
    with pytest.raises(InputError, match="must be an integer"):
        build(*args)


def test_cached_family_systems_equal_fresh_builds():
    for build, args in [(make_truncated_poly, (m,)) for m in range(2, 8)] + [
        (make_tensor_trunc, shape) for shape in ((2, 2), (2, 3), (3, 2))
    ]:
        cached, fresh = build(*args), build.__wrapped__(*args)
        assert cached is not fresh
        assert cached == fresh and dumps_system(cached) == dumps_system(fresh), args


def test_family_cache_is_bounded_and_holds_a_sweep_pass():
    make_truncated_poly.cache_clear()
    make_tensor_trunc.cache_clear()
    binary_sweep_corpus(0, 112)
    ternary_sweep_corpus(0, 24)
    for build, keys in ((make_truncated_poly, 6), (make_tensor_trunc, 3)):
        info = build.cache_info()
        assert info.misses == info.currsize == keys and keys <= info.maxsize < 10
    for m in range(2, 20):
        make_truncated_poly(m)
    assert make_truncated_poly.cache_info().currsize == make_truncated_poly.cache_info().maxsize


def test_sweep_instances_on_one_family_share_its_product():
    shared = set()
    for inst in binary_sweep_corpus(0, 112):
        family, _, _ = inst.label.partition("#")
        if family.startswith("tensor"):
            a, b = map(int, family[len("tensor("):-1].split(","))
            base = make_tensor_trunc(a, b)
        elif not family.startswith("random"):
            base = make_truncated_poly(inst.system.dim)
        else:
            continue
        assert inst.system.product is base.product, inst.label
        shared.add(id(base.product))
    assert len(shared) == 6 + 3


def test_zero_bracket_system_passes_suite(w4):
    system = make_zero_bracket_system(w4.product, 3)
    reports = run_suite(system, "zero")
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("arity", [1, "x", True, 2.0])
def test_zero_bracket_system_rejects_bad_arity(w4, arity):
    with pytest.raises(InputError, match="bracket arity must be an integer in 2..10000"):
        make_zero_bracket_system(w4.product, arity)


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


# Moving, adding or dropping one random draw, or changing one construction,
# changes this digest: update it only for a deliberate change of the streams.
CORPUS_STREAMS_SHA256 = "e8b68d9eca49c909ab57c983e70274a7612af73b3c485e2d219c75683730a9ac"


def test_corpus_streams_are_pinned():
    digest = hashlib.sha256()

    def put(text):
        digest.update(text.encode() + b"\0")

    for inst in binary_sweep_corpus(0, 112) + ternary_sweep_corpus(0, 24):
        put(inst.label)
        put(str(inst.derivation_name))
        put(dumps_system(inst.system))
    for dim, arity, density, seed in iproduct((1, 3, 5), (2, 3), ("0", "1/3", "1"), (0, 9)):
        put(dumps_system(random_system(dim, arity, density, seed)))
    assert digest.hexdigest() == CORPUS_STREAMS_SHA256


# The bytes of the shipped families and of their diagonal maps, built fresh
# (``__wrapped__``, so the bounded caches are left alone): update it only for a
# deliberate change of a family.
FAMILY_BYTES_SHA256 = "c18e9662f5c5f19cbb5ee6fcc4f35f888281a26c11dd70fda35bf4370deae5e9"


def test_family_bytes_are_pinned():
    digest = hashlib.sha256()

    def put(text):
        digest.update(text.encode() + b"\0")

    for m in range(2, 13):
        put(dumps_system(make_truncated_poly.__wrapped__(m)))
    for a, b in iproduct(range(2, 6), repeat=2):
        put(dumps_system(make_tensor_trunc.__wrapped__(a, b)))
        for alpha, beta in ((1, 0), (0, 1), ("1/2", -3), (-2, "5/3")):
            put(repr(tensor_diagonal_derivation(a, b, alpha, beta).m))
    assert digest.hexdigest() == FAMILY_BYTES_SHA256


def test_small_draw_is_randint():
    # The draw helper must consume the words rng.randint(-3, 3) consumes,
    # including the redraw of a rejected 7, on every Python the tests run on.
    seeds = range(300)
    assert sum(random.Random(seed).getrandbits(3) == 7 for seed in seeds) > 10
    for seed in seeds:
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            value = corpus._small(ours)
            assert type(value) is Fraction and value == theirs.randint(-3, 3)
        assert ours.getstate() == theirs.getstate()


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


def _reference_hunt(dim, arity, trials, seed):
    # The hunter as a plain loop over whole random systems.
    check = corpus.check_identity
    for trial in range(trials):
        child = corpus._trial_seed(seed, trial)
        system = random_system(dim, arity, corpus._HUNT_DENSITIES[trial % 4], child)
        p, b, d = system.product, system.bracket("b"), system.derivation("d")
        if not corpus._reports(system, corpus._PREMISES)[-1].passed:
            continue
        if check(I.STRONG, product=p, bracket=b).passed:
            continue
        extension = extend_bracket(p, b, d)
        if all([check(i, product=p, bracket=extension).passed for i in (I.NL, I.TP)]):  # both run
            continue
        corpus._reports(system, corpus._PREMISES)
        check(I.STRONG, product=p, bracket=b)
        return


def test_hunter_makes_the_checks_of_the_plain_loop(monkeypatch):
    # Deferring the bracket past DER_MUL must not change one check: at dim 1
    # many trials reach STRONG and at dim 2 one fails ASSOC, so the deferred
    # path runs to its end.
    seen = []

    def recorded(*args, **kwargs):
        report = check_identity(*args, **kwargs)
        seen.append((report.identity, report.status, report.tuples_checked, report.counterexample))
        return report

    monkeypatch.setattr(corpus, "check_identity", recorded)
    runs = list(iproduct((1, 2), range(3)))
    for dim, seed in runs:
        assert hunt_counterexample(dim, 3, 200, seed) is None
    hunted, seen[:] = list(seen), []
    for dim, seed in runs:
        _reference_hunt(dim, 3, 200, seed)
    assert hunted == seen
    assert sum(call[0] == I.STRONG for call in hunted) == 146
    assert (I.ASSOC, "fail") in {call[:2] for call in hunted}


def test_hunter_returns_the_finding_of_its_rerun_checks(monkeypatch, tmp_path):
    # No random draw reaches the hunter's tail, so its one trial is fed the
    # first ternary sweep instance, which meets every premise.  That instance
    # passes STRONG, as all 24 do, so STRONG and NL on the extension are
    # scripted to fail.
    inst = ternary_sweep_corpus(0, 1)[0]
    p, b, d = inst.system.product, inst.bracket, inst.derivation
    extension = extend_bracket(p, b, d)
    monkeypatch.setattr(corpus, "_random_parts", lambda *args: (p, dict(b.entries), d))
    seen = []

    def scripted(ident, **components):
        report = check_identity(ident, **components)
        bracket = components.get("bracket")
        if ident is I.STRONG or (ident is I.NL and bracket == extension):
            report = CheckReport(ident, "fail", 1, (0,), ElementVector.basis(4, 0))
        seen.append((ident, bracket, report))
        return report

    monkeypatch.setattr(corpus, "check_identity", scripted)
    finding = hunt_counterexample(4, 3, 1, 0)
    assert finding is not None and finding.trial == 0
    assert finding.seed == corpus._trial_seed(0, 0)
    assert finding.system.product is p and finding.system.derivation("d") is d
    assert finding.system.bracket("b") == b and finding.extension == extension
    premises = corpus._PREMISES
    assert [(ident, bracket) for ident, bracket, _ in seen] == [
        (I.DER_MUL, None),
        *((ident, b) for ident in premises[1:]),
        (I.STRONG, b),
        (I.NL, extension),
        (I.TP, extension),
        *((ident, b) for ident in premises),
        (I.STRONG, b),
    ]
    rerun = [report for _, _, report in seen[-len(premises) - 1 :]]
    assert finding.premise_reports == tuple(rerun[:-1]) and all(r.passed for r in rerun[:-1])
    assert finding.strong_report is rerun[-1]
    nl = seen[len(premises) + 1][2]
    assert finding.failure_reports[0] is nl and all(not r.passed for r in finding.failure_reports)

    bundle = finding_to_dict(finding)
    assert bundle["strong_report"]["status"] == "fail"
    assert [r["identity"] for r in bundle["premise_reports"]] == [i.name for i in premises]
    assert bundle["extension"]["arity"] == 4
    save_finding(finding, tmp_path / "finding.json")
    assert json.loads((tmp_path / "finding.json").read_text()) == bundle

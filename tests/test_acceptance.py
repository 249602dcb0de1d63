"""Acceptance gate: every exit criterion, at its stated tolerance.

All tolerances are exact (rational equality, zero residuals); the only
numeric bounds are wall-clock budgets.  Each test prints one PASS line when
its criterion holds (run pytest with -s to see them); any assertion failure
is a build-failing bug, not a flake, because every computation here is a
deterministic function of fixed seeds.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest

from tpnlie import (
    ElementVector,
    IdentityId,
    InputError,
    SkewBracket,
    binary_sweep_corpus,
    bracket_apply,
    check_identity,
    extend_bracket,
    formal_derivative,
    hunt_counterexample,
    load_system,
    make_truncated_poly,
    make_zero_bracket_system,
    random_system,
    report_to_dict,
    run_suite,
    sampled_verdict,
    save_system,
    ternary_sweep_corpus,
)
from tpnlie.files import dumps_system

I = IdentityId
FIXTURES = Path(__file__).parent / "fixtures"

HYPOTHESES = (I.COMM, I.ASSOC, I.NL, I.TP)
NP_IDS = (I.NP1, I.NP2, I.NP3, I.NP4)
DERIVATION_HYPS = (I.DER_MUL, I.DER_BRK)
LEMMAS = (I.LEM1, I.LEM2)


def _announce(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# shared corpus scan (computed once; criteria 3 and 4 both read it)


@pytest.fixture(scope="session")
def sweep_reports():
    corpus = binary_sweep_corpus(0, 112) + ternary_sweep_corpus(0, 24)
    results = []
    for inst in corpus:
        p, b, d = inst.system.product, inst.bracket, inst.derivation
        reports = {}
        for ident in HYPOTHESES + NP_IDS + (I.STRONG, I.SCALE):
            reports[ident] = check_identity(ident, product=p, bracket=b)
        if d is not None:
            for ident in DERIVATION_HYPS + LEMMAS:
                reports[ident] = check_identity(ident, product=p, bracket=b, derivation=d)
        results.append((inst, reports))
    return results


def test_truncated_polynomial_base_suite(w4):
    # the m = 4 truncation with the Euler derivation clears the entire
    # identity catalog, exactly, inside one second
    start = time.perf_counter()
    reports = run_suite(w4, "b1", "euler")
    elapsed = time.perf_counter() - start
    assert [r.identity for r in reports] == list(I)
    assert len(reports) == 14
    failures = [r.identity.name for r in reports if not r.passed]
    assert not failures, failures
    assert elapsed < 1.0, f"base suite took {elapsed:.2f}s"
    _announce(
        "truncated-polynomial base suite",
        f"14 identities pass on Q[t]/(t^4) in {elapsed:.2f}s",
    )


def test_extension_end_to_end(tp22):
    # extend the bootstrapped bracket by the commuting diagonal derivation:
    # exactly one stored triple, and the full arity-3 identity set holds
    start = time.perf_counter()
    ext = extend_bracket(tp22.product, tp22.brackets["b_d1"], tp22.derivations["d2"])
    assert ext.entries == {(0, 1, 2): ElementVector.basis(4, 3)}
    system = tp22.with_bracket("mu3", ext)
    wanted = {I.NL, I.TP, I.STRONG, I.SCALE, *NP_IDS}
    reports = {r.identity: r for r in run_suite(system, "mu3", ids=wanted)}
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in reports.values())
    assert reports[I.NL].tuples_checked == 4**5 == 1024
    assert reports[I.TP].tuples_checked == 4**4
    assert elapsed < 5.0, f"end-to-end extension took {elapsed:.2f}s"
    _announce(
        "extension end-to-end",
        f"mu3 = {{(0,1,2) -> s*t}}, NL over 1024 tuples, all exact, {elapsed:.2f}s",
    )


def test_implication_sweeps(sweep_reports):
    # instances passing the hypotheses never violate the implied identities
    hyp_pass = [
        (inst, reports)
        for inst, reports in sweep_reports
        if all(reports[i].passed for i in HYPOTHESES)
    ]
    assert len(hyp_pass) >= 100, f"only {len(hyp_pass)} instances pass the hypotheses"
    for inst, reports in hyp_pass:
        for ident in NP_IDS:
            assert reports[ident].passed, (inst.label, ident.name)

    strong_pass = [
        (inst, reports) for inst, reports in hyp_pass if reports[I.STRONG].passed
    ]
    assert len(strong_pass) >= 100
    for inst, reports in strong_pass:
        assert reports[I.SCALE].passed, inst.label

    lemma_ready = [
        (inst, reports)
        for inst, reports in hyp_pass
        if inst.derivation is not None
        and all(reports[i].passed for i in DERIVATION_HYPS)
    ]
    assert len(lemma_ready) >= 100
    for inst, reports in lemma_ready:
        for ident in LEMMAS:
            assert reports[ident].passed, (inst.label, ident.name)

    _announce(
        "implication sweeps",
        f"{len(hyp_pass)} -> NP1..NP4, {len(strong_pass)} -> SCALE, "
        f"{len(lemma_ready)} -> LEM1/LEM2, zero violations",
    )


def test_binary_strong_is_automatic(sweep_reports):
    # every arity-2 transposed Poisson instance satisfies the strong condition
    binary = [
        (inst, reports)
        for inst, reports in sweep_reports
        if inst.bracket.arity == 2 and all(reports[i].passed for i in HYPOTHESES)
    ]
    assert len(binary) >= 100, f"only {len(binary)} qualifying arity-2 instances"
    violations = [inst.label for inst, reports in binary if not reports[I.STRONG].passed]
    assert not violations, violations
    _announce(
        "binary strong condition",
        f"STRONG holds on {len(binary)}/{len(binary)} arity-2 instances",
    )


def test_random_tuple_cross_check(w4, tp22):
    # the exhaustive basis verdict agrees with evaluation on 50 seeded random
    # rational tuples, for every identity and every fixture, pass or fail
    corrupted_entries = dict(w4.brackets["b1"].entries)
    corrupted_entries[(1, 2)] = ElementVector.basis(4, 2)
    fixtures = {
        "w4": (w4, "b1", "euler"),
        "tp22": (tp22, "b_d1", "d2"),
        "tp22-ext": (
            tp22.with_bracket(
                "mu3",
                extend_bracket(tp22.product, tp22.brackets["b_d1"], tp22.derivations["d2"]),
            ),
            "mu3",
            "d2",
        ),
        "zero3": (
            make_zero_bracket_system(w4.product, 3).with_derivation(
                "euler", w4.derivations["euler"]
            ),
            "zero",
            "euler",
        ),
        "corrupted": (
            w4.with_bracket("bad", SkewBracket(4, 2, corrupted_entries)),
            "bad",
            "euler",
        ),
        "random": (random_system(3, 2, 1, seed=42), "b", "d"),
    }
    agreements = 0
    for fname, (system, bname, dname) in fixtures.items():
        p = system.product
        b = system.bracket(bname)
        d = system.derivation(dname)
        for ident in I:
            basis_status = check_identity(
                ident, product=p, bracket=b, derivation=d
            ).status
            sampled = sampled_verdict(
                ident, product=p, bracket=b, derivation=d,
                samples=50, seed=1000 + agreements,
            )
            assert basis_status == sampled, (fname, ident.name, basis_status, sampled)
            agreements += 1
    _announce(
        "random-tuple cross check",
        f"{agreements} identity-fixture pairs, 100% basis/random agreement",
    )


def test_degenerate_and_collapse_cases(w4):
    # zero brackets clear the whole catalog at every arity from 2 to 6
    base = make_truncated_poly(2)
    for arity in range(2, 7):
        system = make_zero_bracket_system(base.product, arity).with_derivation(
            "euler", base.derivations["euler"]
        )
        reports = run_suite(system, "zero", "euler")
        assert len(reports) == 14
        assert all(r.passed for r in reports), arity
    spot = make_zero_bracket_system(w4.product, 3).with_derivation(
        "euler", w4.derivations["euler"]
    )
    assert all(r.passed for r in run_suite(spot, "zero", "euler"))

    # extending the Euler bracket by its own derivation cancels exactly
    ext = extend_bracket(w4.product, w4.brackets["b1"], w4.derivations["euler"])
    assert ext.entries == {}
    for idx in iproduct(range(4), repeat=3):
        args = tuple(ElementVector.basis(4, i) for i in idx)
        assert bracket_apply(ext, args).is_zero()
    _announce(
        "degenerate and collapse cases",
        "zero brackets pass at arities 2..6; Euler self-extension is exactly zero",
    )


def test_negative_controls(w4):
    # one corrupted structure constant flips NL and TP, deterministically
    entries = dict(w4.brackets["b1"].entries)
    entries[(1, 2)] = ElementVector.basis(4, 2)
    bad = SkewBracket(4, 2, entries)

    nl = check_identity(I.NL, bracket=bad)
    assert not nl.passed
    assert nl.counterexample == (0, 1, 2)
    assert nl.residual.coords == (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    again = check_identity(I.NL, bracket=bad)
    assert again == nl

    tp = check_identity(I.TP, product=w4.product, bracket=bad)
    assert not tp.passed
    assert tp.counterexample == (1, 0, 2)
    assert tp.residual.coords == (Fraction(0), Fraction(0), Fraction(-1), Fraction(1))

    # the formal derivative fails the product Leibniz rule at (1, m-1):
    # D(e_1 e_{m-1}) = D(0) = 0 while the Leibniz side gives m e_{m-1}
    for m in range(2, 7):
        system = make_truncated_poly(m)
        report = check_identity(
            I.DER_MUL, product=system.product, derivation=formal_derivative(m)
        )
        assert not report.passed
        assert report.counterexample == (1, m - 1), m
        expected = [Fraction(0)] * m
        expected[m - 1] = Fraction(-m)
        assert list(report.residual.coords) == expected, m
    _announce(
        "negative controls",
        "corruption flips NL at (0,1,2) and TP at (1,0,2); "
        "formal derivative fails DER_MUL at (1, m-1) for m in 2..6",
    )


def test_determinism_and_round_trip(tmp_path, w4, tp22):
    # generating is byte-deterministic and matches the committed fixtures
    assert dumps_system(w4) == (FIXTURES / "w4.json").read_text()
    assert dumps_system(tp22) == (FIXTURES / "tp22.json").read_text()
    rnd = random_system(3, 2, Fraction(1, 2), seed=7)
    assert dumps_system(rnd) == dumps_system(random_system(3, 2, Fraction(1, 2), seed=7))

    # save -> load is the identity, rational for rational
    for name, system in (("w4", w4), ("tp22", tp22), ("rnd", rnd)):
        path = tmp_path / f"{name}.json"
        save_system(system, path)
        assert load_system(path) == system

    # reports are identical across repeated runs, pass or fail
    entries = dict(w4.brackets["b1"].entries)
    entries[(1, 2)] = ElementVector.basis(4, 2)
    both = w4.with_bracket("bad", SkewBracket(4, 2, entries))
    for bracket_name in ("b1", "bad"):
        first = run_suite(both, bracket_name, "euler")
        repeat = run_suite(both, bracket_name, "euler")
        assert first == repeat
        assert [report_to_dict(r) for r in first] == [report_to_dict(r) for r in repeat]
    _announce(
        "determinism and round trip",
        "byte-stable generation, exact round trips, repeated runs give identical reports",
    )


def test_hunter_hygiene():
    with pytest.raises(InputError):
        hunt_counterexample(5, 2, 10, seed=0)

    start = time.perf_counter()
    finding = hunt_counterexample(5, 3, 10_000, seed=2026)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"hunt took {elapsed:.1f}s"
    if finding is not None:
        # integrity: the premises must re-verify from scratch
        system = finding.system
        p = system.product
        b = system.bracket(finding.bracket_name)
        d = system.derivation(finding.derivation_name)
        for ident in HYPOTHESES:
            assert check_identity(ident, product=p, bracket=b).passed
        for ident in DERIVATION_HYPS:
            assert check_identity(ident, product=p, bracket=b, derivation=d).passed
        assert not check_identity(I.STRONG, product=p, bracket=b).passed
        outcome = f"finding at trial {finding.trial} re-verified"
    else:
        outcome = "no finding in 10000 trials"
    _announce("hunter hygiene", f"arity-2 rejected; {outcome} in {elapsed:.1f}s")

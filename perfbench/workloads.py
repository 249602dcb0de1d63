"""The four benchmark workloads: inputs made from the seed, timed items, and
the per-item correctness gate.

A pass is an ordered list of items.  Each item has a ``run`` callable, the
only part that is timed, which drives the public API of ``tpnlie``, and a
``check`` callable that turns the raw result into the item's contractual
bytes, its work counts and the invariant violations found in it.  Every
call into the library goes through a module attribute at call time (for
example ``axioms.check_identity``), so the tracer can wrap exactly what
callers resolve.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any, Callable

from tpnlie import axioms, cli, construct, corpus, files
from tpnlie.axioms import IdentityId

I = IdentityId
HYPOTHESES = (I.COMM, I.ASSOC, I.NL, I.TP)
NP_IDS = (I.NP1, I.NP2, I.NP3, I.NP4)
SWEEP_IDS = HYPOTHESES + NP_IDS + (I.STRONG, I.SCALE)
DERIVATION_HYPS = (I.DER_MUL, I.DER_BRK)
LEMMAS = (I.LEM1, I.LEM2)
PREMISES = DERIVATION_HYPS + HYPOTHESES

SWEEP_COUNT = 112
TOWERS = (((2, 2), ("d2", "d2")), ((2, 3), ("d2",)))
HUNT_DIM, HUNT_ARITY = 5, 3
HUNT_CALLS, HUNT_TRIALS = 10, 200
CLI_ITEMS = 100


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "Checked"]


@dataclass
class Checked:
    units: int  # instances, levels, trials or invocations done by the item
    tuples: int  # sum of the contractual tuples_checked
    payload: bytes  # the contractual outputs the digest covers
    problems: list[str]


@dataclass
class Plan:
    """What one workload runs for one seed: the items of a pass, in order,
    how many leading items the traced run repeats, and the systems the
    core-op microbenchmarks use."""

    workload: str
    seed: int
    items: list[Item]
    trace_items: int
    op_system: tuple[Any, Any, Any]  # (product, bracket, derivation)
    # The hunter returns no report for a rejected trial, so its verified
    # tuples are summed from what corpus.check_identity returns instead.
    counts_tuples_by_hook: bool = False


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _system_bytes(system) -> bytes:
    return (json.dumps(files.system_to_dict(system), indent=2) + "\n").encode()


def _reports_json(reports) -> list[dict]:
    return [files.report_to_dict(r) for r in reports]


# ---------------------------------------------------------------------------
# sweep: the arity-2 half of the acceptance corpus, with the acceptance checks


def _sweep_invariants(label, arity, by_id) -> list[str]:
    # The implication theorems the acceptance sweep asserts; they hold for
    # any seed, so they gate seeds that have no stored digest.
    problems = []
    passed = {ident: r.passed for ident, r in by_id.items()}
    if all(passed[i] for i in HYPOTHESES):
        problems += [f"{label}: hypotheses pass but {i.name} fails" for i in NP_IDS if not passed[i]]
        if passed[I.STRONG] and not passed[I.SCALE]:
            problems.append(f"{label}: STRONG passes but SCALE fails")
        if arity == 2 and not passed[I.STRONG]:
            problems.append(f"{label}: arity-2 STRONG fails")
        if I.DER_MUL in passed and passed[I.DER_MUL] and passed[I.DER_BRK]:
            problems += [f"{label}: derivation passes but {i.name} fails" for i in LEMMAS if not passed[i]]
    return problems


def sweep_plan(seed: int, workdir: Path) -> Plan:
    state: dict = {}

    def build():
        state["corpus"] = corpus.binary_sweep_corpus(seed, SWEEP_COUNT)
        return state["corpus"]

    def check_build(instances):
        payload = b"".join(inst.label.encode() + b"\n" + _system_bytes(inst.system) for inst in instances)
        problems = [] if len(instances) == SWEEP_COUNT else [f"corpus has {len(instances)} instances"]
        return Checked(0, 0, payload, problems)

    def instance_item(k: int) -> Item:
        def run():
            inst = state["corpus"][k]
            p, b, d = inst.system.product, inst.bracket, inst.derivation
            reports = [axioms.check_identity(i, product=p, bracket=b) for i in SWEEP_IDS]
            if d is not None:
                reports += [
                    axioms.check_identity(i, product=p, bracket=b, derivation=d)
                    for i in DERIVATION_HYPS + LEMMAS
                ]
            return inst, reports

        def check(result):
            inst, reports = result
            by_id = {r.identity: r for r in reports}
            body = _reports_json(reports)
            payload = _canon({"label": inst.label, "reports": body})
            problems = _sweep_invariants(inst.label, inst.bracket.arity, by_id)
            return Checked(1, sum(r.tuples_checked for r in reports), payload, problems)

        return Item(f"instance{k}", run, check)

    items = [Item("corpus", build, check_build)]
    items += [instance_item(k) for k in range(SWEEP_COUNT)]
    # The largest instance of the corpus feeds the core-op microbenchmarks.
    widest = max(build(), key=lambda inst: inst.system.dim)
    state.clear()
    ops = (widest.system.product, widest.bracket, widest.system.derivation("d"))
    return Plan("sweep", seed, items, trace_items=1 + SWEEP_COUNT // 2, op_system=ops)


# ---------------------------------------------------------------------------
# tower: deterministic, ignores the seed


def _tuple_length(ident: IdentityId, n: int) -> int:
    return {
        I.NL: 2 * n - 1, I.TP: n + 1, I.NP1: n + 1, I.NP2: 2 * n, I.NP3: 2 * n,
        I.NP4: n + 2, I.STRONG: n + 2, I.SCALE: n + 2, I.DER_MUL: 2,
    }[ident]


def _tower_invariants(label, dim, steps, seed_arity) -> list[str]:
    problems = []
    for level, step in enumerate(steps, start=1):
        n = seed_arity + level
        for r in step.reports:
            if r.identity is I.DER_BRK:
                expected = comb(dim, n)
            else:
                expected = dim ** _tuple_length(r.identity, n)
            if not r.passed or r.tuples_checked != expected:
                problems.append(
                    f"{label} level {level} {r.identity.name}: {r.status} "
                    f"with {r.tuples_checked} tuples, expected pass with {expected}"
                )
    return problems


def tower_plan(seed: int, workdir: Path) -> Plan:
    # One item builds both towers: per-level times come from the traced
    # run, and the untraced item_ms is the pass time per level.
    systems = [(corpus.make_tensor_trunc(*shape), derivations) for shape, derivations in TOWERS]

    def run():
        return [construct.build_tower(system, "b_d1", list(ders)) for system, ders in systems]

    def check(towers):
        payload, problems, levels, tuples = b"", [], 0, 0
        for (system, ders), steps in zip(systems, towers):
            label = f"tp{system.dim}"
            grown = system
            for k, step in enumerate(steps, start=1):
                grown = grown.with_bracket(f"b_d1_level{k}", step.bracket)
            payload += _canon([_reports_json(step.reports) for step in steps]) + _system_bytes(grown)
            problems += _tower_invariants(label, system.dim, steps, system.bracket("b_d1").arity)
            if len(steps) != len(ders):
                problems.append(f"{label}: {len(steps)} levels, expected {len(ders)}")
            levels += len(steps)
            tuples += sum(r.tuples_checked for step in steps for r in step.reports)
        return Checked(levels, tuples, payload, problems)

    tp23 = systems[-1][0]
    level1 = construct.extend_bracket(tp23.product, tp23.bracket("b_d1"), tp23.derivation("d2"))
    ops = (tp23.product, level1, tp23.derivation("d2"))
    return Plan("tower", seed, [Item("towers", run, check)], trace_items=1, op_system=ops)


# ---------------------------------------------------------------------------
# hunt: the failing, generation-bound traffic


def hunt_seed(seed: int, call: int) -> int:
    return seed * 1000 + call


def _hunt_invariants(label, finding) -> list[str]:
    if finding is None:
        return []
    system = finding.system
    p = system.product
    b = system.bracket(finding.bracket_name)
    d = system.derivation(finding.derivation_name)
    problems = [
        f"{label}: finding premise {i.name} does not re-verify"
        for i in PREMISES
        if not axioms.check_identity(i, product=p, bracket=b, derivation=d).passed
    ]
    if axioms.check_identity(I.STRONG, product=p, bracket=b).passed:
        problems.append(f"{label}: finding passes STRONG")
    return problems


def hunt_plan(seed: int, workdir: Path) -> Plan:
    def hunt_item(call: int) -> Item:
        call_seed = hunt_seed(seed, call)

        def run():
            return corpus.hunt_counterexample(HUNT_DIM, HUNT_ARITY, HUNT_TRIALS, call_seed)

        def check(finding):
            body = None if finding is None else files.finding_to_dict(finding)
            # tuples: counted by the runner's hook, see Plan.counts_tuples_by_hook
            return Checked(HUNT_TRIALS, 0, _canon(body), _hunt_invariants(f"call{call}", finding))

        return Item(f"call{call}", run, check)

    sample = corpus.random_system(HUNT_DIM, HUNT_ARITY, "1/2", hunt_seed(seed, 0))
    ops = (sample.product, sample.bracket("b"), sample.derivation("d"))
    items = [hunt_item(c) for c in range(HUNT_CALLS)]
    return Plan("hunt", seed, items, trace_items=len(items), op_system=ops,
                counts_tuples_by_hook=True)


# ---------------------------------------------------------------------------
# cli: in-process gen + check sessions on dense random files


def cli_arguments(seed: int) -> list[tuple[int, int, int]]:
    """(dim, arity, gen seed) per item: arity 2 at d 5-7 and, every fourth
    item, arity 3 at d 5-6.

    Dimensions rotate in a fixed order, so only the gen seeds depend on the
    workload seed: the mix of sizes, which sets most of a pass's cost, is
    the same for every seed.  One arity-3 item in four keeps a pass near
    30 s, since an arity-3 item at d = 6 costs about a second.
    """
    rng = random.Random(seed)
    shapes = {2: [(5, 2), (6, 2), (7, 2)], 3: [(5, 3), (6, 3)]}
    out = []
    for k in range(CLI_ITEMS):
        rotation = shapes[3 if k % 4 == 2 else 2]
        dim, arity = rotation[0]
        rotation.append(rotation.pop(0))
        out.append((dim, arity, rng.getrandbits(32)))
    return out


def _cli_call(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_plan(seed: int, workdir: Path) -> Plan:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "item.json"

    def cli_item(k, dim, arity, gen_seed) -> Item:
        gen = ["gen", "--family", "random", "--dim", str(dim), "--arity", str(arity),
               "--density", "1", "--seed", str(gen_seed), "-o", str(path)]
        check_argv = ["check", str(path), "--bracket", "b", "--derivation", "d",
                      "--suite", "all", "--format", "json"]

        def run():
            gen_code, gen_out = _cli_call(gen)
            check_code, check_out = _cli_call(check_argv)
            return gen_code, gen_out, check_code, check_out, path.read_bytes()

        def check(result):
            gen_code, gen_out, check_code, check_out, written = result
            problems = []
            try:
                reports = json.loads(check_out)
            except ValueError:
                reports = None
            if not isinstance(reports, list):
                reports = []
                problems.append(f"item{k}: check stdout is not a JSON report list")
            any_fail = any(r.get("status") == "fail" for r in reports)
            if gen_code != 0:
                problems.append(f"item{k}: gen exited {gen_code}")
            if check_code != (1 if any_fail else 0):
                problems.append(f"item{k}: check exited {check_code} with any_fail={any_fail}")
            if len(reports) != len(IdentityId):
                problems.append(f"item{k}: {len(reports)} reports, expected {len(IdentityId)}")
            stdout = (gen_out + check_out).replace(str(path), "<file>")
            payload = _canon([gen_code, check_code, stdout]) + written
            tuples = sum(r.get("tuples_checked", 0) for r in reports)
            return Checked(1, tuples, payload, problems)

        return Item(f"item{k}", run, check)

    args = cli_arguments(seed)
    items = [cli_item(k, *a) for k, a in enumerate(args)]
    dim, arity, gen_seed = args[2]
    sample = corpus.random_system(dim, arity, 1, gen_seed)
    ops = (sample.product, sample.bracket("b"), sample.derivation("d"))
    return Plan("cli", seed, items, trace_items=CLI_ITEMS // 2, op_system=ops)


PLANS = {"sweep": sweep_plan, "tower": tower_plan, "hunt": hunt_plan, "cli": cli_plan}

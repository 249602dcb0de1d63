"""Fast checks of the benchmark itself: the correctness gate fires, tracing
does not change the work, the output follows BENCHMARK.json, and the
tracer survives targets that no longer exist."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _trimmed(plan, count):
    plan.items = plan.items[:count]
    plan.trace_items = count
    return plan


def test_corrupted_digest_counts_as_failure():
    plan = _trimmed(workloads.hunt_plan(1, ROOT), 2)
    clean = run.run_items(plan, plan.items)
    assert [o.problems for o in clean] == [[], []]
    stored = run.load_digests("hunt", 1)
    if stored is not None:
        assert [o.digest for o in clean] == stored[:2]

    corrupted = [clean[0].digest[::-1], clean[1].digest]
    outcomes = run.run_items(plan, plan.items, corrupted)
    attempted, failed, problems = run.summarize([outcomes])
    assert failed / attempted > 0
    assert "digest" in problems[0]


def test_invariant_violation_counts_as_failure(tmp_path):
    plan = _trimmed(workloads.cli_plan(3, tmp_path), 1)
    item = plan.items[0]
    original_check = item.check

    def lying_check(result):
        gen_code, gen_out, check_code, check_out, written = result
        return original_check((gen_code, gen_out, 1 - check_code, check_out, written))

    item.check = lying_check
    attempted, failed, _ = run.summarize([run.run_items(plan, plan.items)])
    assert (attempted, failed) == (1, 1)


def test_traced_and_untraced_runs_do_the_same_work(tmp_path):
    plans = [
        _trimmed(workloads.hunt_plan(2, tmp_path), 2),
        _trimmed(workloads.cli_plan(2, tmp_path / "cli"), 2),
        _trimmed(workloads.sweep_plan(2, tmp_path), 4),
    ]
    for plan in plans:
        metrics, (untraced, traced), _ = run.traced_run(plan, None, side_dir=tmp_path)
        assert [o.problems for o in traced] == [[]] * len(traced), plan.workload
        assert [(o.digest, o.tuples, o.units) for o in untraced] == [
            (o.digest, o.tuples, o.units) for o in traced
        ]
        assert metrics["axioms.checks"] > 0
        for m in CONTRACT["per_layer"]:
            assert m["name"] in metrics, (plan.workload, m["name"])
        for name in metrics:
            assert NAME.fullmatch(name), name
        side = json.loads((tmp_path / f"{plan.workload}-seed2.json").read_text())
        assert side["spans"] and side["metrics"]["axioms.checks"] == metrics["axioms.checks"]
    # The tracer put every wrapped attribute back.
    for module_name, path, _, _ in TARGETS:
        owner = sys.modules[module_name]
        for part in path.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), (module_name, path)


def test_hunt_funnel_counts_rejections():
    plan = _trimmed(workloads.hunt_plan(4, ROOT), 1)
    with Tracer() as tracer:
        run.run_items(plan, plan.items)
    m = tracer.metrics()
    assert m["corpus.hunt.trials"] == workloads.HUNT_TRIALS
    rejected = sum(m[f"corpus.hunt.first_fail.{p}"] for p in ("DER_MUL", "COMM", "DER_BRK", "ASSOC", "TP", "NL"))
    assert rejected + m["corpus.hunt.strong_pass"] + m["corpus.hunt.strong_fail"] == m["corpus.hunt.trials"]


def test_tracer_skips_targets_that_are_gone():
    targets = (
        ("tpnlie.no_such_module", "multiply", "core.multiply", False),
        ("tpnlie.axioms", "no_such_function", "core.bracket_apply", False),
        ("tpnlie.core", "NoSuchClass.apply", "core.derivation_apply", False),
    )
    with Tracer(targets) as tracer:
        assert tracer._patches == []
    m = tracer.metrics()
    assert m["core.multiply.calls"] == m["core.bracket_apply.calls"] == 0
    assert m["axioms.us_per_tuple"] == 0.0


def test_metric_names_and_spec_match_the_contract():
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    names = end_to_end | {m["name"] for m in CONTRACT["per_layer"]}
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert "setup_s" in end_to_end
    assert {w["name"] for w in CONTRACT["workloads"]} == set(spec.WORKLOADS) == set(workloads.PLANS)
    assert set(spec.END_TO_END) == end_to_end
    layer_names = set(Tracer().metrics()) | {m["name"] for m in CONTRACT["per_layer"]}
    for layer, metric, workload, effect in spec.PREDICTIONS:
        assert layer in layer_names or layer.startswith("construct.level_s.L"), layer
        assert metric in end_to_end and workload in spec.WORKLOADS and effect in ("moves", "none")


def test_end_to_end_result_line(capsys):
    assert run.main(["--workload", "hunt", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_scale_multiplies_times_and_divides_rates():
    probe = run.SpeedProbe()
    probe.sample(3)
    assert probe.slices == 3 and probe.scale() > 0
    outcome = run.Outcome("x", seconds=2.0, units=4, tuples=8, digest="", problems=[])
    raw = run.end_to_end_metrics([[outcome]], [1.0])
    scaled = run.end_to_end_metrics([[outcome]], [0.5])
    assert scaled["wall_s"] == raw["wall_s"] / 2 == 1.0
    assert scaled["items_per_s"] == raw["items_per_s"] * 2 == 4.0
    assert scaled["item_ms.p90"] == raw["item_ms.p90"] / 2 == 250.0


def test_calibration_time_is_not_counted_in_items():
    plan = _trimmed(workloads.hunt_plan(5, ROOT), 2)
    speed = run.SpeedProbe(interval=0.002)
    start = time.perf_counter()
    with speed:
        outcomes = run.run_items(plan, plan.items, speed=speed)
    elapsed = time.perf_counter() - start
    assert speed.slices > 10
    # Item times and calibration time are disjoint parts of the elapsed time.
    assert sum(o.seconds for o in outcomes) + speed.seconds <= elapsed
    assert [o.digest for o in outcomes] == [o.digest for o in run.run_items(plan, plan.items)]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0], [8.0] * 10, "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0], [13.0] * 10, "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0], [10.05] * 10, "lower", "unchanged"),
        ([5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0], [10.0] * 10, "lower", "unresolved"),
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0], [12.0] * 10, "higher", "better"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1)["verdict"] == expected

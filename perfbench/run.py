"""tpnlie benchmark: time to an exact verdict, end to end and per module.

Run from the root of a checkout (it builds nothing: ``src/`` is imported
in place):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, with times rescaled to a
reference machine speed that a calibration slice tracks during the run
(see SpeedProbe; the raw values are kept in the record); ``--trace 1`` runs the
core-op microbenchmarks and a prefix of one pass twice, untraced and then
traced, and reports the per-module metrics and the tracing overhead.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units come from the
``end_to_end`` and ``per_layer`` lists of BENCHMARK.json.  ``--out FILE``
appends the full record (every metric, sample counts, fail_ratio) to a JSON
lines file, and ``--compare PARENT CHANGE`` compares two such files.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product as iproduct
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 9
# Reference machine speed: a calibration slice takes this long.  End-to-end
# times are reported at this speed (see SpeedProbe).
REFERENCE_SLICE_S = 0.001


def _import_library():
    if not (SRC / "tpnlie" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'tpnlie'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import tpnlie

    if Path(tpnlie.__file__).resolve().parent != (SRC / "tpnlie").resolve():
        sys.exit(f"error: imported tpnlie from {tpnlie.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# running items


@dataclass
class Outcome:
    label: str
    seconds: float
    units: int
    tuples: int
    digest: str
    problems: list[str]


_CAL_VALUES = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]


def _calibration_slice() -> Fraction:
    # Fixed stdlib-only work with the library's instruction mix (Fraction
    # arithmetic, tuple keys, dict lookups).  It shares no code with tpnlie,
    # so a change to the library cannot move the reference it is scaled by.
    acc = Fraction(0)
    table: dict = {}
    values = _CAL_VALUES
    for i in range(300):
        acc += values[i % 21] * values[i * 8 % 21]
        key = (i % 5, i % 7)
        table[key] = table.get(key, 0) + 1
    return acc


class SpeedProbe:
    """Measures how fast the machine runs a fixed calibration slice.

    On a shared machine the speed of the CPU drifts by tens of percent over
    seconds to minutes, and every workload slows down with it.  Used as a
    context manager, the probe runs one slice every ``interval`` seconds
    from a SIGALRM handler, so its samples are spread evenly over the
    measured time; ``sample`` runs slices directly.  ``scale`` converts a
    time measured alongside the slices to the reference speed, at which a
    slice takes REFERENCE_SLICE_S.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.seconds = 0.0
        self.slices = 0
        self._previous = None
        self._sampling = False

    def sample(self, slices: int = 1) -> None:
        start = perf_counter()
        for _ in range(slices):
            _calibration_slice()
        self.seconds += perf_counter() - start
        self.slices += slices

    def _tick(self, *_signal) -> None:
        if not self._sampling:  # a late tick must not nest inside a slice
            self._sampling = True
            self.sample()
            self._sampling = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        return self.seconds, self.slices

    def scale(self, since: tuple[float, int] = (0.0, 0)) -> float:
        """The factor for times measured since ``since``, a ``mark()``."""
        seconds, slices = since
        return REFERENCE_SLICE_S * (self.slices - slices) / (self.seconds - seconds)


def run_items(plan, items, expected=None, speed: SpeedProbe | None = None) -> list[Outcome]:
    """Run items in order, time each ``run`` call, and gate each result.

    ``expected`` is the stored digest list for this seed, or None when the
    seed has none; invariants are checked either way.  An item that raises
    or fails its gate stays in the results with its problems listed.  Time
    spent in ``speed``'s calibration slices is not counted in an item.
    """
    from tracer import TupleCounter
    from workloads import digest

    outcomes = []
    for index, item in enumerate(items):
        counter = TupleCounter() if plan.counts_tuples_by_hook else None
        calibrating = speed.seconds if speed is not None else 0.0
        start = perf_counter()
        try:
            if counter is None:
                raw = item.run()
            else:
                with counter:
                    raw = item.run()
            seconds = perf_counter() - start
            if speed is not None:
                seconds -= speed.seconds - calibrating
            checked = item.check(raw)
        except Exception as exc:  # a crashing item is a failed item, not a crashed benchmark
            traceback.print_exc()
            outcomes.append(Outcome(item.label, perf_counter() - start, 0, 0, "", [f"{item.label}: {exc!r}"]))
            continue
        tuples = counter.tuples if counter is not None else checked.tuples
        got = digest(checked.payload)
        problems = list(checked.problems)
        if expected is not None and index < len(expected) and expected[index] != got:
            problems.append(f"{item.label}: output digest {got} != stored {expected[index]}")
        outcomes.append(Outcome(item.label, seconds, checked.units, tuples, got, problems))
    return outcomes


def measure(plan, seconds: float, expected) -> tuple[list[list[Outcome]], list[float]]:
    """Whole passes, at least one; another only if at least half of it
    should end within ``seconds``.  Returns the passes and the speed scale
    measured during each."""
    passes, scales = [], []
    speed = SpeedProbe()
    start = perf_counter()
    with speed:
        while True:
            mark = speed.mark()
            passes.append(run_items(plan, plan.items, expected, speed))
            speed.sample()  # at least one slice per pass, however short
            scales.append(speed.scale(mark))
            typical = (perf_counter() - start) / len(passes)
            if perf_counter() - start + typical / 2 > seconds:
                return passes, scales


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 10..90 step 10) of the values, inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def end_to_end_metrics(passes, scales) -> dict:
    """End-to-end metrics of the passes, with each pass's times multiplied
    (and its rates divided) by its speed scale; scales of 1 give raw values."""
    # A pass's time is the sum of its timed calls: the correctness gate and
    # the calibration slices are not part of it.
    wall = [scale * sum(o.seconds for o in outs) for outs, scale in zip(passes, scales)]
    items_rate = [sum(o.units for o in outs) / t for t, outs in zip(wall, passes)]
    tuples_rate = [sum(o.tuples for o in outs) / t for t, outs in zip(wall, passes)]
    # item_ms: each timed call's time divided by the items it holds.
    per_item = [scale * o.seconds * 1e3 / o.units for outs, scale in zip(passes, scales) for o in outs if o.units]
    return {
        "wall_s": statistics.median(wall),
        "items_per_s": statistics.median(items_rate),
        "tuples_per_s": statistics.median(tuples_rate),
        "item_ms.p50": quantile(per_item, 50),
        "item_ms.p90": quantile(per_item, 90),
    }


def setup_times(workload: str, seed: int, probes: int, speed: SpeedProbe) -> list[float]:
    """Wall times of fresh interpreters that import tpnlie and build the
    workload's inputs, then exit; calibration slices run around each one."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(probes):
        speed.sample(10)
        start = perf_counter()
        # No timeout: with one, subprocess polls the child on a 50 ms grid,
        # which would quantize the measurement.
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
        speed.sample(10)
    return times


# ---------------------------------------------------------------------------
# core-op microbenchmarks (untraced functions, on the workload's own systems)


def _ns_per_call(fn, args_list, budget: float = 0.03, batches: int = 5) -> float:
    loops = 1
    while True:
        start = perf_counter()
        for _ in range(loops):
            for args in args_list:
                fn(*args)
        if perf_counter() - start >= budget / 4:
            break
        loops *= 2
    samples = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(loops):
            for args in args_list:
                fn(*args)
        samples.append((perf_counter() - start) / (loops * len(args_list)))
    return statistics.median(samples) * 1e9


def op_nanoseconds(product, bracket, derivation, seed: int) -> dict[str, float]:
    from tpnlie import core

    d, n = product.dim, bracket.arity
    basis = core.basis_vectors(d)
    rng = random.Random(seed)
    nonzero = [v for v in range(-9, 10) if v]
    dense = [
        core.ElementVector(tuple(Fraction(rng.choice(nonzero), rng.choice((1, 2, 3))) for _ in range(d)))
        for _ in range(8)
    ]
    apply = core.DerivationMatrix.apply
    cases = {
        "multiply.ns_basis": (core.multiply, [(product, basis[i], basis[j]) for i in range(d) for j in range(d)]),
        "multiply.ns_dense": (core.multiply, [(product, dense[k], dense[k - 1]) for k in range(8)]),
        "bracket_apply.ns_basis": (
            core.bracket_apply,
            [(bracket, tuple(basis[t] for t in idx)) for idx in islice(iproduct(range(d), repeat=n), 256)],
        ),
        "bracket_apply.ns_dense": (
            core.bracket_apply,
            [(bracket, tuple(dense[(k + j) % 8] for j in range(n))) for k in range(8)],
        ),
        "derivation_apply.ns_basis": (apply, [(derivation, v) for v in basis]),
        "derivation_apply.ns_dense": (apply, [(derivation, v) for v in dense]),
    }
    return {f"core.{name}": _ns_per_call(fn, args) for name, (fn, args) in cases.items()}


# ---------------------------------------------------------------------------
# modes


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_digests(workload: str, seed: int):
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    by_seed = table.get(workload, {})
    return by_seed.get("*", by_seed.get(str(seed)))


def summarize(outcomes_lists) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for outcomes in outcomes_lists:
        for o in outcomes:
            attempted += 1
            if o.problems:
                failed += 1
                problems += o.problems
    return attempted, failed, problems


def traced_run(plan, expected, side_dir: Path = WORK / "trace") -> tuple[dict, list, dict]:
    """Core-op microbenchmarks, then the plan's trace prefix untraced and
    traced; per-layer metrics come from the traced half."""
    from tracer import Tracer

    ops = op_nanoseconds(*plan.op_system, plan.seed)
    prefix = plan.items[: plan.trace_items]
    start = perf_counter()
    untraced = run_items(plan, prefix, expected)
    untraced_s = perf_counter() - start
    tracer = Tracer()
    with tracer:
        start = perf_counter()
        traced = run_items(plan, prefix, expected)
        traced_s = perf_counter() - start
    for a, b in zip(untraced, traced):
        if (a.digest, a.tuples, a.units) != (b.digest, b.tuples, b.units):
            b.problems.append(f"{b.label}: traced run did different work than the untraced run")
    metrics = {**ops, **tracer.metrics()}
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    side = side_dir / f"{plan.workload}-seed{plan.seed}.json"
    tracer.write(side, {"workload": plan.workload, "seed": plan.seed, "items": len(prefix), "metrics": metrics})
    return metrics, [untraced, traced], {"trace_items": len(prefix), "side_file": side.name}


def make_plan(workload: str, seed: int):
    from workloads import PLANS

    return PLANS[workload](seed, WORK / "tmp" / workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "tower", "hunt", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON lines file")
    parser.add_argument("--record", action="store_true", help="store this seed's output digests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare_files

        print(compare_files(*args.compare, load_contract()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    _import_library()
    plan = make_plan(args.workload, args.seed)
    if args.setup_probe:
        return 0
    contract = load_contract()

    if args.record:
        return record(plan)

    expected = load_digests(args.workload, args.seed)
    if args.trace:
        metrics, runs, samples = traced_run(plan, expected)
        wanted = contract["per_layer"]
    else:
        # Set-up probes before and after the passes, so that the median
        # spans the run rather than one moment of it.
        # Set-up probes run before and after the passes, so that their
        # median spans the run rather than one moment of it.
        setup_speed = SpeedProbe()
        setup = setup_times(args.workload, args.seed, SETUP_PROBES // 2, setup_speed)
        passes, scales = measure(plan, args.seconds, expected)
        setup += setup_times(args.workload, args.seed, SETUP_PROBES - len(setup), setup_speed)
        raw = end_to_end_metrics(passes, [1.0] * len(passes))
        raw["setup_s"] = statistics.median(setup)
        metrics = end_to_end_metrics(passes, scales)
        metrics["setup_s"] = raw["setup_s"] * setup_speed.scale()
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = {
            "passes": len(passes),
            "item_ms": sum(1 for outs in passes for o in outs if o.units),
            "raw": raw,
            "speed_scale": {"passes": scales, "setup": setup_speed.scale()},
        }
        runs = passes
        wanted = contract["end_to_end"]
    attempted, failed, problems = summarize(runs)
    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    record_line = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digests": "stored" if expected is not None else "none (invariants only)",
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "samples": samples, "metrics": metrics,
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record_line) + "\n")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(json.dumps(record_line))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def record(plan) -> int:
    """Run one pass and store its per-item digests (seed-independent
    workloads are stored under "*").  Refuses when an invariant fails."""
    outcomes = run_items(plan, plan.items)
    problems = [p for o in outcomes for p in o.problems]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    key = "*" if plan.workload == "tower" else str(plan.seed)
    table.setdefault(plan.workload, {})[key] = [o.digest for o in outcomes]
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"stored {len(outcomes)} digests for {plan.workload} seed {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

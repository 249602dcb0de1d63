"""Span tracing at the module boundaries of ``tpnlie``, from outside the library.

The tracer replaces the module attributes that callers resolve (such as
``tpnlie.axioms.bracket_apply`` or ``tpnlie.cli.load_system``) with timing
wrappers and restores them on ``uninstall``.  Boundary calls are kept as
spans in memory (name, start, end, parent); the core ops are called millions
of times, so they are only aggregated (calls, total and self time).  Self
time is a span's duration minus the time of the traced calls nested in it.

A target that no longer exists is skipped, and its metrics read 0 calls:
a later change that removes or stops calling a wrapped function must not
crash the traced run.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

CORE_OPS = ("multiply", "bracket_apply", "derivation_apply")
# (module, attribute path, span name, kept as spans).  Every binding a
# caller resolves is listed: ``axioms`` calls its own ``multiply``, ``cli``
# calls its own ``load_system``, and so on.
TARGETS = (
    ("tpnlie.axioms", "multiply", "core.multiply", False),
    ("tpnlie.axioms", "bracket_apply", "core.bracket_apply", False),
    ("tpnlie.construct", "multiply", "core.multiply", False),
    ("tpnlie.core", "multiply", "core.multiply", False),
    ("tpnlie.core", "bracket_apply", "core.bracket_apply", False),
    ("tpnlie.core", "DerivationMatrix.apply", "core.derivation_apply", False),
    ("tpnlie.axioms", "check_identity", "axioms.check_identity", True),
    ("tpnlie.construct", "check_identity", "axioms.check_identity", True),
    ("tpnlie.corpus", "check_identity", "axioms.check_identity", True),
    ("tpnlie.axioms", "run_suite", "axioms.run_suite", True),
    ("tpnlie.cli", "run_suite", "axioms.run_suite", True),
    ("tpnlie.construct", "extend_bracket", "construct.extend_bracket", True),
    ("tpnlie.corpus", "extend_bracket", "construct.extend_bracket", True),
    ("tpnlie.cli", "extend_bracket", "construct.extend_bracket", True),
    ("tpnlie.construct", "derivation_bracket", "construct.derivation_bracket", True),
    ("tpnlie.corpus", "derivation_bracket", "construct.derivation_bracket", True),
    ("tpnlie.construct", "build_tower", "construct.build_tower", True),
    ("tpnlie.cli", "build_tower", "construct.build_tower", True),
    ("tpnlie.corpus", "random_system", "corpus.random_system", True),
    ("tpnlie.cli", "random_system", "corpus.random_system", True),
    ("tpnlie.corpus", "binary_sweep_corpus", "corpus.binary_sweep_corpus", True),
    ("tpnlie.corpus", "hunt_counterexample", "corpus.hunt_counterexample", True),
    ("tpnlie.cli", "hunt_counterexample", "corpus.hunt_counterexample", True),
    ("tpnlie.files", "load_system", "files.load_system", True),
    ("tpnlie.cli", "load_system", "files.load_system", True),
    ("tpnlie.files", "save_system", "files.save_system", True),
    ("tpnlie.cli", "save_system", "files.save_system", True),
    ("tpnlie.cli", "main", "cli.main", True),
)
MODULES = ("core", "axioms", "construct", "corpus", "files", "cli")
IDENTITY_NAMES = (
    "NL", "TP", "NP1", "NP2", "NP3", "NP4", "STRONG", "SCALE",
    "DER_MUL", "DER_BRK", "LEM1", "LEM2", "COMM", "ASSOC",
)
HUNT_PREMISES = ("DER_MUL", "COMM", "DER_BRK", "ASSOC", "TP", "NL")


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent span
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # per-identity and funnel counters
        self.id_time: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span id or -1, child time]
        self._patches: list[tuple[object, str, object]] = []
        # A hunt trial starts with random_system and its premise checks run
        # until STRONG; checks after that are on the extension.
        self._hunt_premises = True

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, path, name, keep in self.targets:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, keep))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, original, name: str, keep: bool):
        stack = self._stack
        spans = self.spans
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [-1, 0.0]
            if keep:
                frame[0] = len(spans)
                spans.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if keep:
                    spans[frame[0]] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result, elapsed)
            return result

        traced.__wrapped__ = original
        return traced

    # -- observers: counts taken from arguments and results at the boundary --

    def _in(self, name: str) -> bool:
        return any(frame[0] >= 0 and self.spans[frame[0]][0] == name for frame in self._stack)

    def _observe_axioms_check_identity(self, args, kwargs, report, elapsed):
        ident = report.identity.name
        self.counts[f"axioms.{ident}.checks"] += 1
        self.counts[f"axioms.{ident}.tuples_checked"] += report.tuples_checked
        self.id_time[ident] += elapsed
        if not report.passed:
            self.counts["axioms.checks_failed"] += 1
        if self._in("corpus.hunt_counterexample"):
            if ident == "STRONG":
                self._hunt_premises = False
                self.counts["corpus.hunt.strong_pass" if report.passed else "corpus.hunt.strong_fail"] += 1
            elif self._hunt_premises and ident in HUNT_PREMISES and not report.passed:
                self.counts[f"corpus.hunt.first_fail.{ident}"] += 1

    def _observe_corpus_random_system(self, args, kwargs, system, elapsed):
        self._hunt_premises = True

    def _observe_construct_extend_bracket(self, args, kwargs, bracket, elapsed):
        self.counts["construct.entries_stored"] += len(bracket.entries)
        if self._in("corpus.hunt_counterexample"):
            self.counts["corpus.hunt.extensions"] += 1

    def _observe_corpus_hunt_counterexample(self, args, kwargs, finding, elapsed):
        trials = args[2] if len(args) > 2 else kwargs.get("trials", 0)
        self.counts["corpus.hunt.trials"] += trials
        self._hunt_premises = True
        self.counts["corpus.hunt.findings"] += finding is not None

    def _observe_files_load_system(self, args, kwargs, system, elapsed):
        self.counts["files.bytes_read"] += _size(args[0] if args else kwargs.get("path"))

    def _observe_files_save_system(self, args, kwargs, result, elapsed):
        self.counts["files.bytes_written"] += _size(args[1] if len(args) > 1 else kwargs.get("path"))

    def _observe_cli_main(self, args, kwargs, code, elapsed):
        self.counts[f"cli.exit.{code}"] += 1

    # -- derived metrics ----------------------------------------------------

    def level_seconds(self) -> dict[int, float]:
        """Time per tower level: from the start of the k-th extension inside a
        build_tower span to the start of the next one (or the span's end)."""
        levels: defaultdict = defaultdict(float)
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if name == "construct.extend_bracket" and parent >= 0:
                children[parent].append(start)
        for span_id, starts in children.items():
            name, _, tower_end, _ = self.spans[span_id]
            if name != "construct.build_tower":
                continue
            starts.sort()
            for k, start in enumerate(starts):
                stop = starts[k + 1] if k + 1 < len(starts) else tower_end
                levels[k + 1] += stop - start
        return dict(levels)

    def metrics(self) -> dict[str, float]:
        m: dict[str, float] = {}
        core_self = 0.0
        for op in CORE_OPS:
            name = f"core.{op}"
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.s"] = self.total[name]
            core_self += self.self_time[name]
        m["core.self_s"] = core_self
        checks = self.calls["axioms.check_identity"]
        tuples = sum(self.counts[f"axioms.{i}.tuples_checked"] for i in IDENTITY_NAMES)
        m["axioms.checks"] = checks
        m["axioms.checks_failed"] = self.counts["axioms.checks_failed"]
        m["axioms.tuples_checked"] = tuples
        m["axioms.check_s"] = self.total["axioms.check_identity"]
        m["axioms.us_per_tuple"] = _ratio(self.total["axioms.check_identity"] * 1e6, tuples)
        m["axioms.self_s"] = self.self_time["axioms.check_identity"] + self.self_time["axioms.run_suite"]
        for ident in IDENTITY_NAMES:
            n = self.counts[f"axioms.{ident}.tuples_checked"]
            m[f"axioms.{ident}.checks"] = self.counts[f"axioms.{ident}.checks"]
            m[f"axioms.{ident}.tuples_checked"] = n
            m[f"axioms.{ident}.check_s"] = self.id_time[ident]
            m[f"axioms.{ident}.us_per_tuple"] = _ratio(self.id_time[ident] * 1e6, n)
        for op in ("extend_bracket", "derivation_bracket", "build_tower"):
            m[f"construct.{op}.calls"] = self.calls[f"construct.{op}"]
            m[f"construct.{op}.s"] = self.total[f"construct.{op}"]
        m["construct.entries_stored"] = self.counts["construct.entries_stored"]
        m["construct.self_s"] = sum(
            self.self_time[f"construct.{op}"] for op in ("extend_bracket", "derivation_bracket", "build_tower")
        )
        for k, seconds in sorted(self.level_seconds().items()):
            m[f"construct.level_s.L{k}"] = seconds
        m["corpus.random_system.calls"] = self.calls["corpus.random_system"]
        m["corpus.random_system.s"] = self.total["corpus.random_system"]
        m["corpus.sweep_build_s"] = self.total["corpus.binary_sweep_corpus"]
        m["corpus.hunt.calls"] = self.calls["corpus.hunt_counterexample"]
        m["corpus.hunt.s"] = self.total["corpus.hunt_counterexample"]
        m["corpus.self_s"] = sum(
            self.self_time[f"corpus.{op}"]
            for op in ("random_system", "binary_sweep_corpus", "hunt_counterexample")
        )
        for key in ("trials", "findings", "strong_pass", "strong_fail", "extensions"):
            m[f"corpus.hunt.{key}"] = self.counts[f"corpus.hunt.{key}"]
        for premise in HUNT_PREMISES:
            m[f"corpus.hunt.first_fail.{premise}"] = self.counts[f"corpus.hunt.first_fail.{premise}"]
        for op in ("load_system", "save_system"):
            m[f"files.{op}.calls"] = self.calls[f"files.{op}"]
            m[f"files.{op}.s"] = self.total[f"files.{op}"]
        m["files.bytes_read"] = self.counts["files.bytes_read"]
        m["files.bytes_written"] = self.counts["files.bytes_written"]
        m["files.self_s"] = self.self_time["files.load_system"] + self.self_time["files.save_system"]
        m["cli.main.calls"] = self.calls["cli.main"]
        m["cli.main.s"] = self.total["cli.main"]
        m["cli.self_s"] = self.self_time["cli.main"]
        for code in range(4):
            m[f"cli.exit.{code}"] = self.counts[f"cli.exit.{code}"]
        return m

    def write(self, path: Path, extra: dict) -> None:
        """The side file: spans, aggregates and derived metrics, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "aggregates": {
                name: {"calls": self.calls[name], "total_s": self.total[name], "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": [list(s) for s in self.spans],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        os.replace(tmp, path)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class TupleCounter:
    """Sums ``tuples_checked`` of the reports ``tpnlie.corpus.check_identity``
    returns, without timing anything.  The hunter returns no reports for the
    trials it rejects, so this is how the hunt workload sees its verified
    tuples; it counts nothing if the hunter stops calling that attribute."""

    def __init__(self):
        self.tuples = 0
        self._patch = None

    def __enter__(self) -> "TupleCounter":
        found = _resolve("tpnlie.corpus", "check_identity")
        if found is not None:
            owner, attr, original = found

            def counted(*args, **kwargs):
                report = original(*args, **kwargs)
                self.tuples += report.tuples_checked
                return report

            self._patch = (owner, attr, original)
            setattr(owner, attr, counted)
        return self

    def __exit__(self, *exc) -> None:
        if self._patch is not None:
            owner, attr, original = self._patch
            setattr(owner, attr, original)
            self._patch = None

"""What each workload is, why it was chosen, and which end-to-end metric each
per-layer metric should move on which workload.

BENCHMARK.json holds only the keys its format allows (a one-line ``why``
per workload, metric names, units and bounds); the longer definitions and
the layer -> metric -> workload predictions live here, and
``python3 perfbench/spec.py`` prints them.  Reference times were measured
on Python 3.11 on a 2-core virtual machine whose speed drifts by up to
about 45 % over minutes (see the note above END_TO_END).
"""

from __future__ import annotations

WORKLOADS = {
    "sweep": {
        "definition": (
            "binary_sweep_corpus(seed, 112), the arity-2 half of the acceptance corpus. "
            "Each instance gets the acceptance checks: COMM, ASSOC, NL, TP, NP1-4, STRONG "
            "and SCALE, plus DER_MUL, DER_BRK, LEM1 and LEM2 when it has a derivation. "
            "Building the corpus, which runs its own filter checks, is timed as part of "
            "each pass. Items are instances; one pass per run."
        ),
        "why": (
            "Breadth. Many small passing instances (d = 2..7) and about 1.5k check_identity "
            "calls, so fixed per-check costs and arity-2 scans show here. About 22 s of "
            "checks and 0.15 s of corpus building per pass."
        ),
    },
    "tower": {
        "definition": (
            'build_tower(make_tensor_trunc(2, 2), "b_d1", ["d2", "d2"]) then '
            'build_tower(make_tensor_trunc(2, 3), "b_d1", ["d2"]). Deterministic: the seed '
            "is ignored. Items are levels (3 per pass). Both towers are one timed call, so "
            "item_ms is the pass time per level, one sample per pass; the traced run gives "
            "the time of each level (construct.level_s.L<k>)."
        ),
        "why": (
            "Depth. 26 checks over 301 620 contractual tuples. The tp23 level scans a nonzero "
            "arity-3 bracket (kernel-bound; NP2 and NP3 scan 46 656 tuples each). The tp22 "
            "level-2 bracket is all zero at arity 4, so its 65 536-tuple NP2/NP3 scans are "
            "pure enumeration cost. About 10 s per pass."
        ),
    },
    "hunt": {
        "definition": (
            "10 calls hunt_counterexample(5, 3, 200, seed * 1000 + k) per pass, k = 0..9, "
            "2000 trials in all. Items are trials; item_ms is each call's time per trial. "
            "Verified tuples are counted from the reports corpus.check_identity returns, "
            "because the hunter returns no report for a rejected trial."
        ),
        "why": (
            "The failing, generation-bound traffic: about half its time is in random_system "
            "and every trial dies at its first premise, DER_MUL, after one tuple. Scan-engine "
            "and kernel changes should leave it unchanged. About 1.2 s per 2000 trials."
        ),
    },
    "cli": {
        "definition": (
            "100 items per pass, run in-process through cli.main with stdout captured. Each "
            "item is gen --family random --density 1 (arity 2 at d 5-7, and arity 3 at d 5-6 "
            "for every fourth item; dimensions in a fixed rotation, gen seeds drawn from the "
            "workload seed) followed by check --bracket b --derivation d --suite all --format "
            "json on the written file. Density 1 makes every bracket entry nonzero, so the "
            "failing tuple of each check depends only on the shape, not on a random sparsity "
            "pattern, and the seeds change the rationals but not the scan depths."
        ),
        "why": (
            "The only workload that reads and writes files, and the only one on dense "
            "rational inputs: failing dense scans run deep in lex order and use the core ops "
            "differently from the sparse basis cases. load_system is measured so that the "
            "cost of input hardening shows. About 27 s per pass; load_system takes 1-2 ms "
            "of each item."
        ),
    },
}

# Every end-to-end metric, reported per workload by --trace 0.  Times are
# given at a reference machine speed: the run measures how long a fixed
# stdlib-only calibration slice takes (one slice every 50 ms of the passes,
# from a timer signal, and 10 slices before and after each set-up probe),
# multiplies each time by 1 ms / (measured slice time) and divides each rate
# by the same factor.  On a shared 2-core virtual machine the CPU speed
# drifted by 20-45 % between runs; the factor follows it, and over 10 seeds
# it cut the inter-quartile spread of hunt wall_s from 26 % to 3 % and of
# tower wall_s from 23 % to 6 %.  The raw values and the factors are in the
# --out record.
END_TO_END = {
    "setup_s": "median of 9 fresh interpreters that import tpnlie and build the inputs, "
               "4 before and 5 after the passes, with calibration slices around each",
    "wall_s": "median time of one workload pass (sum of its timed calls)",
    "items_per_s": "items (instances, levels, trials or cli items) per second, median over passes",
    "tuples_per_s": "contractual tuples_checked per second, median over passes",
    "item_ms.p50": "median of each timed call's time per item",
    "item_ms.p90": "90th percentile of the same samples (sample count in the record)",
    "peak_rss_mb": "peak resident set size of the benchmark process (not rescaled)",
}
# fail_ratio = failed / attempted is the result line's own pair of counts; it
# is 0 at a correct commit, so it is not listed as a bounded metric.

# (per-layer metric, end-to-end metric, workload, expected effect of a change
# to that layer).  "moves" means an optimisation of the layer should move the
# end-to-end metric on that workload; "none" means it should not.
PREDICTIONS = [
    ("core.multiply.ns_basis", "tuples_per_s", "tower", "moves"),
    ("core.bracket_apply.ns_basis", "tuples_per_s", "tower", "moves"),
    ("core.derivation_apply.ns_basis", "tuples_per_s", "tower", "moves"),
    ("core.multiply.ns_dense", "item_ms.p50", "cli", "moves"),
    ("core.bracket_apply.ns_dense", "item_ms.p50", "cli", "moves"),
    ("core.derivation_apply.ns_dense", "item_ms.p90", "cli", "moves"),
    ("core.self_s", "items_per_s", "hunt", "none"),
    ("core.bracket_apply.calls", "items_per_s", "hunt", "none"),
    ("axioms.NP2.us_per_tuple", "wall_s", "tower", "moves"),
    ("axioms.NP3.us_per_tuple", "wall_s", "tower", "moves"),
    ("axioms.NL.us_per_tuple", "wall_s", "sweep", "moves"),
    ("axioms.NP2.us_per_tuple", "wall_s", "sweep", "moves"),
    ("axioms.self_s", "items_per_s", "hunt", "moves"),
    ("axioms.DER_MUL.check_s", "items_per_s", "hunt", "moves"),
    ("construct.extend_bracket.s", "wall_s", "tower", "moves"),
    ("construct.level_s.L2", "wall_s", "tower", "moves"),
    ("construct.entries_stored", "wall_s", "tower", "moves"),
    ("corpus.random_system.s", "items_per_s", "hunt", "moves"),
    ("corpus.hunt.first_fail.DER_MUL", "items_per_s", "hunt", "moves"),
    ("corpus.random_system.s", "wall_s", "tower", "none"),
    ("corpus.sweep_build_s", "wall_s", "sweep", "moves"),
    ("files.load_system.s", "item_ms.p50", "cli", "moves"),
    ("files.bytes_read", "item_ms.p50", "cli", "moves"),
    ("files.save_system.s", "item_ms.p50", "cli", "moves"),
    ("cli.main.s", "item_ms.p50", "cli", "moves"),
]


def main() -> None:
    for name, spec in WORKLOADS.items():
        print(f"{name}\n  definition: {spec['definition']}\n  why: {spec['why']}")
    print("\nend-to-end metrics")
    for name, text in END_TO_END.items():
        print(f"  {name}: {text}")
    print("\npredictions (layer metric -> end-to-end metric on workload)")
    for layer, metric, workload, effect in PREDICTIONS:
        print(f"  {layer:34} -> {metric:13} {workload:6} {effect}")


if __name__ == "__main__":
    main()

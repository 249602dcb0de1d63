"""Compare two result sets written by ``run.py --out``: parent first, change second.

For each workload and end-to-end metric the verdict follows the rule the
benchmark is held to:

* ``unresolved``: the parent's inter-quartile spread, as a share of its
  median, exceeds the metric's bound, and not every change run reads
  better than every parent run;
* ``better``: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  inter-quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unchanged``: otherwise.

Per-layer metrics have no bound; their medians are listed side by side.
Runs are paired by seed order.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups[(rec["workload"], rec["trace"])].append(rec)
    for records in groups.values():
        records.sort(key=lambda r: r["seed"])
    return groups


def spread(values: list[float]) -> float:
    """Inter-quartile distance, as ``statistics.quantiles(values, n=4)`` gives it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_spread = spread(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    rel_spread = p_spread / abs(p_med) if p_med else float("inf")
    worse_share = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if rel_spread > bound and not every_better:
        label = "unresolved"
    elif every_better or (wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_spread):
        label = "better"
    elif worse_share > bound:
        label = "worse"
    else:
        label = "unchanged"
    return {
        "verdict": label, "parent_median": p_med, "change_median": c_med,
        "parent_spread": rel_spread, "wins": wins, "pairs": len(pairs),
    }


def compare_records(parent, change, contract) -> list[dict]:
    rows = []
    for key in sorted(parent.keys() & change.keys()):
        workload, trace = key
        metrics = contract["end_to_end"] if trace == 0 else contract["per_layer"]
        for m in metrics:
            a = [r["metrics"][m["name"]] for r in parent[key] if m["name"] in r["metrics"]]
            b = [r["metrics"][m["name"]] for r in change[key] if m["name"] in r["metrics"]]
            if not a or not b:
                rows.append({"workload": workload, "metric": m["name"], "verdict": "absent"})
                continue
            if trace == 0:
                row = verdict(a, b, m["better"], m["bound"])
            else:
                row = {"verdict": "-", "parent_median": statistics.median(a),
                       "change_median": statistics.median(b)}
            rows.append({"workload": workload, "metric": m["name"], "unit": m["unit"], **row})
    return rows


def compare_files(parent_path, change_path, contract) -> str:
    rows = compare_records(load(parent_path), load(change_path), contract)
    lines = [f"{'workload':8} {'metric':38} {'parent':>14} {'change':>14}  verdict"]
    for r in rows:
        if r["verdict"] == "absent":
            lines.append(f"{r['workload']:8} {r['metric']:38} {'':>14} {'':>14}  absent")
            continue
        extra = ""
        if "wins" in r:
            extra = f" (wins {r['wins']}/{r['pairs']}, parent spread {r['parent_spread']:.1%})"
        lines.append(
            f"{r['workload']:8} {r['metric']:38} {r['parent_median']:>14.6g} "
            f"{r['change_median']:>14.6g}  {r['verdict']}{extra}"
        )
    return "\n".join(lines)

"""Compare two whole-run benchmark reports (``run.py --out``).

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

One row per workload and end-to-end metric: both medians, both quartile
spreads (``(q3 - q1) / median``), the change of NEW against BASE and the
metric's bound.  A host metric is ``regressed`` when NEW is worse by more
than the bound, ``improved`` when better by more than it, and
``unresolved`` instead of either or ``unchanged`` when either side's spread
is wider than the bound, unless every NEW run beats every BASE run.
Simulated metrics (bound 0) must be equal.  Any rise in ``job_fail_frac``
and any fingerprint difference is flagged.  Exits 1 when anything
regressed or was flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import END_TO_END  # noqa: E402


def spread(stat: dict[str, float]) -> float:
    return (stat["q3"] - stat["q1"]) / stat["value"] if stat["value"] else 0.0


def verdict(metric: str, base: dict[str, float], new: dict[str, float]) -> str:
    """One metric's verdict; see the module docstring."""
    _, better, bound = END_TO_END[metric]
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0.0:
        if new["value"] == base["value"]:
            return "unchanged"
        return "regressed" if sign * (new["value"] - base["value"]) > 0 else "changed"
    change = sign * (new["value"] - base["value"]) / base["value"]
    if spread(base) > bound or spread(new) > bound:
        wins = (
            new["max"] < base["min"] if better == "lower" else new["min"] > base["max"]
        )
        return "improved" if wins else "unresolved"
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "unchanged"


def compare(base: dict[str, Any], new: dict[str, Any]) -> tuple[list[dict[str, Any]], list[str]]:
    """Rows of the comparison and the flags that fail it."""
    rows: list[dict[str, Any]] = []
    flags: list[str] = []
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            flags.append(f"{name}: missing from the new report")
            continue
        if b["fingerprint"] != n["fingerprint"]:
            flags.append(f"{name}: fingerprint {b['fingerprint'][:12]} -> {n['fingerprint'][:12]}")
        for metric, (unit, _, bound) in END_TO_END.items():
            bs, ns = b["metrics"][metric], n["metrics"][metric]
            row = {
                "workload": name,
                "metric": metric,
                "unit": unit,
                "base": bs["value"],
                "new": ns["value"],
                "base_spread": spread(bs),
                "new_spread": spread(ns),
                "change": (ns["value"] - bs["value"]) / bs["value"] if bs["value"] else 0.0,
                "bound": bound,
                "verdict": verdict(metric, bs, ns),
            }
            rows.append(row)
            if row["verdict"] == "regressed":
                flags.append(f"{name}: {metric} regressed {row['change']:+.1%}")
    return rows, flags


def format_rows(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<26} {'metric':<17} {'base':>12} {'new':>12} "
        f"{'spread b/n':>13} {'change':>8} {'bound':>6}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<26} {r['metric']:<17} {r['base']:>12.6g} {r['new']:>12.6g} "
            f"{r['base_spread']:>6.1%}/{r['new_spread']:>6.1%} {r['change']:>+8.1%} "
            f"{r['bound']:>6.0%}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    rows, flags = compare(base, new)
    print(format_rows(rows))
    for flag in flags:
        print(f"FLAG: {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark results.

Usage::

    python3 bench/compare.py A/ B/

``A`` (the baseline) and ``B`` (the change) are directories of untraced
result files written by ``run.py --out``; traced runs and runs whose load
generator ran late are left out.  For every workload and end-to-end metric
it prints each side's median and quartiles, how many pairs ``B`` wins
(runs are paired by seed when both sides ran the same seeds, else every
``A`` run is paired with every ``B`` run; ties count for neither), and a
verdict:

``worse``
    ``B``'s median is worse than ``A``'s by more than the metric's bound.
``improved``
    ``B`` wins at least nine tenths of the pairs and its median is better
    than ``A``'s by more than the distance between ``A``'s quartiles.
``unresolved``
    The distance between either side's quartiles is wider than the bound,
    and not every ``B`` run beats every ``A`` run.
``within-bound``
    Otherwise.

Bounds come from ``BENCHMARK.json`` (plus ``spec.EXTRA_END_TO_END`` for
metrics that exist on only some workloads).  Exit status 1 if any verdict
is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import spec  # noqa: E402 - needs ROOT on sys.path

IMPROVED = "improved"
WORSE = "worse"
WITHIN = "within-bound"
UNRESOLVED = "unresolved"
WIN_SHARE = 0.9


def load_runs(directory: Path) -> "tuple[dict[str, list[dict]], int]":
    """Valid untraced results per workload, and how many runs were invalid."""
    runs: "dict[str, list[dict]]" = defaultdict(list)
    invalid = 0
    for path in sorted(Path(directory).glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(doc, dict) or doc.get("schema") != spec.RESULT_SCHEMA:
            continue
        if doc.get("trace"):
            continue
        if not doc.get("valid", True):
            invalid += 1
            continue
        runs[doc["workload"]].append(doc)
    return runs, invalid


def value(run: dict, name: str) -> "float | None":
    for section in ("metrics", "extra"):
        metric = run.get(section, {}).get(name)
        if metric is not None:
            return float(metric["value"])
    return None


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def paired(a_runs: "list[dict]", b_runs: "list[dict]", name: str) -> "list[tuple[float, float]]":
    """``(A value, B value)`` pairs: by seed when the seed sets match."""
    a = {r["seed"]: value(r, name) for r in a_runs}
    b = {r["seed"]: value(r, name) for r in b_runs}
    if len(a) == len(a_runs) and len(b) == len(b_runs) and set(a) == set(b):
        return [(a[seed], b[seed]) for seed in sorted(a)]
    return [
        (x, y)
        for x in (value(r, name) for r in a_runs)
        for y in (value(r, name) for r in b_runs)
    ]


def judge(metric: spec.Metric, a: "list[float]", b: "list[float]", pairs) -> dict:
    """Verdict and statistics for one metric on one workload."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    change = sign * (qb[1] - qa[1])  # positive: B is worse
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    spread_a, spread_b = qa[2] - qa[0], qb[2] - qb[0]
    if metric.absolute:
        limit = metric.bound
        spread = max(spread_a, spread_b)
    else:
        limit = metric.bound * abs(qa[1])
        spread = max(
            spread_a / abs(qa[1]) if qa[1] else 0.0,
            spread_b / abs(qb[1]) if qb[1] else 0.0,
        )
    every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    if change > limit:
        verdict = WORSE
    elif pairs and wins >= WIN_SHARE * len(pairs) and -change > spread_a:
        verdict = IMPROVED
    elif spread > metric.bound and not every_b_better:
        verdict = UNRESOLVED
    else:
        verdict = WITHIN
    return {
        "verdict": verdict,
        "a": qa,
        "b": qb,
        "wins": wins,
        "pairs": len(pairs),
        "spread": spread,
    }


def compare(a_dir: Path, b_dir: Path) -> "tuple[dict[str, dict[str, dict]], list[str]]":
    """Judgements per workload and metric, plus notes on skipped data."""
    metrics = spec.end_to_end_metrics() + spec.EXTRA_END_TO_END
    a_runs, a_invalid = load_runs(a_dir)
    b_runs, b_invalid = load_runs(b_dir)
    notes = []
    if a_invalid or b_invalid:
        notes.append(f"left out {a_invalid} + {b_invalid} runs whose load generator ran late")
    table: "dict[str, dict[str, dict]]" = {}
    for workload in spec.workload_names():
        if not a_runs.get(workload) or not b_runs.get(workload):
            if a_runs.get(workload) or b_runs.get(workload):
                notes.append(f"{workload}: runs on one side only")
            continue
        row = {}
        for metric in metrics:
            a = [value(r, metric.name) for r in a_runs[workload]]
            b = [value(r, metric.name) for r in b_runs[workload]]
            if None in a or None in b:
                continue
            row[metric.name] = judge(
                metric, a, b, paired(a_runs[workload], b_runs[workload], metric.name)
            )
        table[workload] = row
    return table, notes


def render(table: "dict[str, dict[str, dict]]", notes: "list[str]") -> str:
    lines = []
    for workload, row in table.items():
        verdicts = ", ".join(f"{name}={j['verdict']}" for name, j in row.items())
        lines.append(f"{workload}: {verdicts}")
    lines.append("")
    header = (
        f"{'workload':<14} {'metric':<22} {'A q1/median/q3':>34} "
        f"{'B q1/median/q3':>34} {'wins':>7} {'spread':>7}  verdict"
    )
    lines.append(header)
    for workload, row in table.items():
        for name, j in row.items():
            a = "/".join(f"{v:.4g}" for v in j["a"])
            b = "/".join(f"{v:.4g}" for v in j["b"])
            lines.append(
                f"{workload:<14} {name:<22} {a:>34} {b:>34} "
                f"{j['wins']:>3}/{j['pairs']:<3} {j['spread']:>7.2%}  {j['verdict']}"
            )
    lines.extend(notes)
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/compare.py",
        description="Compare two directories of benchmark results (A = baseline).",
    )
    parser.add_argument("a", type=Path, help="baseline result directory")
    parser.add_argument("b", type=Path, help="changed result directory")
    args = parser.parse_args(argv)
    table, notes = compare(args.a, args.b)
    if not table:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    print(render(table, notes))
    worse = any(j["verdict"] == WORSE for row in table.values() for j in row.values())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark records: a parent commit and a change.

    python3 perfbench/run.py --workload snoop64 --seed 1 --out parent.jsonl ...
    python3 perfbench/compare.py parent.jsonl change.jsonl

Each input holds the JSON lines ``run.py --out`` appended.  For every
workload and end-to-end metric the report prints each side's median and
quartiles, the ratio of the medians (base: the parent's median), and the
pairs the change won: the i-th parent run against the i-th change run of
that workload, ties counting for neither side.  Traced records
(``--trace 1``) give the per-layer table: each side's median and the
change minus the parent (base: the parent's median for the ratio).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: End-to-end metrics where a larger value is better; every other is lower.
HIGHER_IS_BETTER = {"refs_per_s", "req_per_s", "wall_refs_per_s", "wall_req_per_s"}


def load(path: Path) -> List[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end_values(records: List[dict], workload: str) -> Dict[str, List[float]]:
    """Per metric, the values of every untraced run of ``workload``, in order.

    Metrics go by their readable names (``refs_per_s``, ``hit_p50_ms``, ...),
    which include every gated JSON metric under the name of what it measures.
    """
    values: Dict[str, List[float]] = {}
    for record in records:
        if record["workload"] != workload or record["trace"]:
            continue
        for name, (value, _unit) in record["end_to_end"].items():
            values.setdefault(name, []).append(value)
        values.setdefault("error_rate", []).append(record["error_rate"])
    return values


def per_layer_values(records: List[dict], workload: str) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for record in records:
        if record["workload"] == workload and record["trace"]:
            for name, value in record["per_layer"].items():
                values.setdefault(name, []).append(value)
    return values


def pairs_won(name: str, parent: List[float], change: List[float]) -> str:
    pairs = list(zip(parent, change))
    if name in HIGHER_IS_BETTER:
        won = sum(1 for p, c in pairs if c > p)
    else:
        won = sum(1 for p, c in pairs if c < p)
    return f"{won}/{len(pairs)}"


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report(parent: List[dict], change: List[dict]) -> str:
    lines: List[str] = []
    workloads = sorted(
        {r["workload"] for r in parent} & {r["workload"] for r in change}
    )
    for workload in workloads:
        lines.append(f"## {workload}")
        lines.append("")
        lines.append(
            "| metric | parent median [q1, q3] | change median [q1, q3] | "
            "change/parent (base: parent median) | pairs won by change |"
        )
        lines.append("| --- | --- | --- | --- | --- |")
        old = end_to_end_values(parent, workload)
        new = end_to_end_values(change, workload)
        for name in sorted(old.keys() & new.keys()):
            p1, pm, p3 = quartiles(old[name])
            c1, cm, c3 = quartiles(new[name])
            ratio = fmt(cm / pm) if pm else "n/a (parent median is 0)"
            lines.append(
                f"| {name} | {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] "
                f"| {fmt(cm)} [{fmt(c1)}, {fmt(c3)}] | {ratio} "
                f"| {pairs_won(name, old[name], new[name])} |"
            )
        old_layers = per_layer_values(parent, workload)
        new_layers = per_layer_values(change, workload)
        shared = sorted(old_layers.keys() & new_layers.keys())
        if shared:
            lines.append("")
            lines.append(
                "| per-layer metric | parent median | change median | "
                "change - parent | change/parent (base: parent median) |"
            )
            lines.append("| --- | --- | --- | --- | --- |")
            for name in shared:
                pm = statistics.median(old_layers[name])
                cm = statistics.median(new_layers[name])
                ratio = fmt(cm / pm) if pm else "n/a (parent median is 0)"
                lines.append(
                    f"| {name} | {fmt(pm)} | {fmt(cm)} | {fmt(cm - pm)} | {ratio} |"
                )
        lines.append("")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py", description=__doc__)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    print(report(load(args.parent), load(args.change)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Summarise benchmark result files, or compare two sets of them.

    python3 bench/compare.py RESULTS                # one set: medians, quartiles
    python3 bench/compare.py BASE NEW               # two sets: change against bound

RESULTS, BASE and NEW are directories holding the `*-trace<0|1>.json` files
that bench/run.py writes to bench/results/ (copy that directory away
between commits), or single result files.  Per workload and metric the
summary gives the median, the first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median.  A comparison
adds the change of the median in the metric's worse direction and flags
it when it exceeds the metric's bound in BENCHMARK.json; where the base
spread is wider than the bound the change is marked unresolved.  When a
set holds traced and untraced runs of a workload, the tracing overhead is
the traced 90th percentile operation time over the untraced one, minus
one.  The figures a result file keeps apart from its metrics (`ops_per_s`,
`op_ms_p50`) are shown in parentheses, without a bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
DIRECTION = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
DIRECTION["(ops_per_s)"] = "higher"
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def load(path: Path) -> dict:
    """{(workload, trace): {"metric": [values], "failed_share": {shares}}}"""
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    groups = defaultdict(lambda: defaultdict(list))
    for f in files:
        r = json.loads(f.read_text())
        g = groups[(r["workload"], r["trace"])]
        for name, m in r["metrics"].items():
            g[name].append(m["value"])
        for name, m in r.get("informational", {}).items():
            g[f"({name})"].append(m["value"])
        g["failed share"].append(r["failed"] / r["attempted"])
    return groups


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def fmt(x: float) -> str:
    return f"{x:.4g}"


def report(base: dict, new: dict | None) -> None:
    for key in sorted(set(base) | set(new or {})):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        b = base.get(key, {})
        n = (new or {}).get(key, {})
        for name in sorted(set(b) | set(n)):
            line = f"  {name:34s}"
            if name in b:
                med, q1, q3, spread = summary(b[name])
                line += f" base {fmt(med):>10s} [{fmt(q1)}, {fmt(q3)}] spread {spread:6.1%} (n={len(b[name])})"
            if new is not None and name in n:
                med_n, q1_n, q3_n, spread_n = summary(n[name])
                line += f" | new {fmt(med_n):>10s} [{fmt(q1_n)}, {fmt(q3_n)}] spread {spread_n:6.1%}"
                if name in b and med:
                    worse = (med_n - med) / med
                    if DIRECTION.get(name) == "higher":
                        worse = -worse
                    line += f" | worse by {worse:+.1%}"
                    bound = BOUND.get(name)
                    if bound is not None:
                        if spread > bound:
                            line += " UNRESOLVED (spread > bound)"
                        elif worse > bound:
                            line += f" REGRESSION (bound {bound:.0%})"
            print(line)
    for label, groups in (("base", base), ("new", new or {})):
        for (workload, trace), g in sorted(groups.items()):
            plain = groups.get((workload, 0), {})
            if trace == 1 and "trace.op_ms_p90" in g and "op_ms_p90" in plain:
                over = statistics.median(g["trace.op_ms_p90"]) / statistics.median(plain["op_ms_p90"]) - 1
                print(f"{label}: tracing overhead on {workload}: {over:+.1%} on the 90th percentile operation")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    report(sets[0], sets[1] if len(sets) == 2 else None)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

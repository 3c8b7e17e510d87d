"""Summarise benchmark records, or compare two sets of them.

    python3 perfbench/compare.py RECORDS_DIR [CHANGE_RECORDS_DIR]

A records directory is what ``run.py`` leaves in ``.perfbench_work/records``
(copy it away before measuring the other commit).  With one directory, each
workload's end-to-end metrics are shown as median, quartiles and spread, the
distance between the quartiles as a share of the median, beside the bound
from ``BENCHMARK.json``.  With two, each metric's change of median is judged
against its bound.  Two sets whose machine facts differ (other than the
``src/`` line count) are reported as not comparable.  Per-layer counts of
traced runs must repeat exactly for a seed present in both sets.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INFORMATIONAL_FACTS = ("src_lines",)


def load(directory):
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def comparable_facts(records):
    return {json.dumps({k: v for k, v in r["facts"].items() if k not in INFORMATIONAL_FACTS},
                       sort_keys=True) for r in records}


def summarise(records, spec):
    rows = {}
    for (name, metric), bound in spec.items():
        values = [r["metrics"][metric]["value"] for r in records
                  if r["workload"] == name and not r["trace"] and metric in r["metrics"]]
        if values:
            q1, med, q3 = quartiles(values)
            rows[name, metric] = (len(values), q1, med, q3, (q3 - q1) / med, bound)
    return rows


def count_mismatches(base, change):
    """Per-layer counts of traced runs of one workload and seed must agree."""
    out = []
    seen = {(r["workload"], r["seed"]): r for r in base if r["trace"]}
    for r in change:
        other = seen.get((r["workload"], r["seed"]))
        if not r["trace"] or other is None:
            continue
        for metric, v in r["metrics"].items():
            if v["unit"] == "count" and other["metrics"][metric]["value"] != v["value"]:
                out.append(f"{r['workload']} seed {r['seed']} {metric}: "
                           f"{other['metrics'][metric]['value']} -> {v['value']}")
    return out


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {(w["name"], m["name"]): m["bound"]
            for w in bench["workloads"] for m in bench["end_to_end"]}
    sets = [load(d) for d in argv]
    facts = set().union(*(comparable_facts(s) for s in sets))
    if len(facts) > 1:
        print("NOT COMPARABLE: the records were taken under different machine facts:")
        for f in sorted(facts):
            print("  " + f)
        return 1
    summaries = [summarise(s, spec) for s in sets]
    worse = 0
    for key in sorted(summaries[0]):
        n, q1, med, q3, spread, bound = summaries[0][key]
        line = (f"{key[0]:20s} {key[1]:12s} n={n:2d} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                f"spread={spread:.3f} bound={bound}")
        if len(summaries) == 2 and key in summaries[1]:
            n2, _, med2, _, spread2, _ = summaries[1][key]
            change = (med2 - med) / med  # every end-to-end metric is lower-is-better
            verdict = ("UNRESOLVED (spread above bound)" if max(spread, spread2) > bound
                       else "WORSE than bound" if change > bound else "within bound")
            worse += verdict.startswith("WORSE")
            line += f" -> n={n2:2d} median={med2:.6g} change={change:+.3f} {verdict}"
        print(line)
    if len(sets) == 2:
        for mismatch in count_mismatches(*sets):
            print("COUNT MISMATCH " + mismatch)
            worse += 1
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

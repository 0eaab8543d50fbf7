"""Median and quartile spread of each end-to-end metric over several runs.

    python3 perfbench/summarize.py perfbench/out/*-trace0.json
    python3 perfbench/summarize.py --json perfbench/out/*.json > summary.json

Groups untraced run records by workload.  The spread is (q3 - q1) / median
with quartiles from statistics.quantiles(values, n=4); a spread at or above
a third of the metric's bound in BENCHMARK.json is flagged.  Traced records
are passed through (per-layer values, coverage and tracing overhead) under
"traced".
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import spread

ROOT = Path(__file__).resolve().parent.parent


def summarize(paths: list[str]) -> dict:
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    traced = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record["trace"]:
            traced[record["workload"]] = {
                key: record[key] for key in ("seed", "provenance", "coverage", "samples")}
            traced[record["workload"]]["metrics"] = {
                name: m["value"] for name, m in record["result"]["metrics"].items()}
        else:
            runs.setdefault(record["workload"], []).append(record)
    out = {"untraced": {}, "traced": traced}
    for workload, records in sorted(runs.items()):
        rows = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in records]
            med, q1, q3, rel = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "bound": bound,
                          "unit": records[0]["result"]["metrics"][name]["unit"]}
        failed = [r["failed"] for r in records]
        out["untraced"][workload] = {
            "runs": len(records), "seeds": [r["seed"] for r in records],
            "failed": failed, "attempted": [r["attempted"] for r in records],
            "correct": all(r["result"]["correct"] for r in records),
            "provenance": records[0]["provenance"], "metrics": rows}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("records", nargs="+")
    ap.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = ap.parse_args(argv)
    summary = summarize(args.records)
    if args.json:
        json.dump(summary, sys.stdout, indent=1)
        print()
        return 0
    for workload, s in summary["untraced"].items():
        print(f"{workload}: {s['runs']} runs, correct={s['correct']}, failed={s['failed']}")
        for name, m in s["metrics"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"  {name:<12} median {m['median']:>12.6g} {m['unit']:<3} "
                  f"q1 {m['q1']:>12.6g}  q3 {m['q3']:>12.6g}  spread {m['spread']:.4f}"
                  f" (bound {m['bound']}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

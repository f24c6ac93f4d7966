"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

    python3 bench/baseline.py [--seeds 0 1 ...] [--out bench/baseline.json]

Each workload of ``BENCHMARK.json`` runs once per seed with ``--trace 0``;
for every end-to-end metric the record keeps the values, their median, their
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread, the interquartile distance as a share of the median. One
``--trace 1`` run per workload, on the first seed, adds the per-layer
numbers. ``run_seconds`` comes from ``BENCHMARK.json``. Run it from the root
of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.splitlines()
    facts = json.loads(next(line for line in lines if line.startswith("facts: "))[7:])
    return facts, json.loads(lines[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    record = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            facts, result = run(workload, seed, seconds, 0)
            runs.append(result)
            print(workload, seed, json.dumps(result["metrics"]), file=sys.stderr)
        _, traced = run(workload, args.seeds[0], seconds, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        record["facts"] = {k: v for k, v in facts.items() if k != "seed"}
        record["workloads"][workload] = {
            "end_to_end": {
                m["name"]: dict(summarise([r["metrics"][m["name"]]["value"] for r in runs]),
                                unit=m["unit"], bound=m["bound"])
                for m in spec["end_to_end"]},
            "studies_attempted": attempted,
            "ops_failed_frac": failed / attempted,
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, rec in record["workloads"].items():
        for name, m in rec["end_to_end"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  <-- spread above bound/3"
            print(f"{workload:15s} {name:12s} median {m['median']:.4g} {m['unit']}  "
                  f"spread {m['spread']:.3%} (bound {m['bound']:.0%}){flag}")
        print(f"{workload:15s} ops_failed_frac {rec['ops_failed_frac']}")


if __name__ == "__main__":
    main()

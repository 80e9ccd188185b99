"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [NAME ...] --seeds 1-10
        [--trace 0|1] [--seconds S] [--json OUT]

For every workload and metric prints the median of the per-run values,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (q3 - q1) / median, which BENCHMARK.json's bound must exceed
three times over.  With --json the same table is written to OUT, which is
how ``baseline.json`` is made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    table = {}
    for workload in args.workload:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed={seed} correct={results[-1]['correct']} "
                  f"attempted={results[-1]['attempted']}", flush=True)
        rows = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"unit": first["unit"], "median": med, "q1": q1,
                          "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                          "bound": bounds.get(name), "values": values}
            print(f"  {name:46s} median={med:.6g} {first['unit']:5s} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={rows[name]['spread']:.4f}"
                  f" bound={bounds.get(name)}", flush=True)
        table[workload] = {
            "seeds": args.seeds, "seconds": seconds,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": rows}
    if args.json:
        old = json.loads(args.json.read_text()) if args.json.exists() else {}
        key = f"trace{args.trace}"
        old.setdefault(key, {}).update(table)
        args.json.write_text(json.dumps(old, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--out FILE]

From the repository root, runs ``run.py --trace 0`` once for each of the
seeds 1 to 10 on each workload of BENCHMARK.json, one run at a time, with
its ``run_seconds``.  For each metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median next to
the metric's bound.  ``--out`` writes the same figures as JSON;
``baseline.json`` holds two such sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    worst = 0.0
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {m: [] for m in bounds}
        attempted = failed = 0
        for seed in SEEDS:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if p.returncode:
                print(p.stdout, p.stderr, file=sys.stderr)
                return 1
            res = json.loads(p.stdout.splitlines()[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{m}={v[-1]:.4g}" for m, v in values.items()),
                  flush=True)
        summary[name] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            summary[name]["metrics"][m] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[m], "values": v,
            }
            worst = max(worst, spread / bounds[m])
            print(f"  {name:<20} {m:<12} median {med:<10.4g} q1 {q1:<10.4g} q3 {q3:<10.4g} "
                  f"spread {spread:.4f} (bound {bounds[m]})", flush=True)
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        doc = {
            "run_seconds": spec["run_seconds"],
            "seeds": [SEEDS[0], SEEDS[-1]],
            "python": sys.version.split()[0],
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""symclone benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the repository root.  Each workload is a closed loop with one
client and at most one symclone process at a time.  The program is measured
from outside: CLI workloads time fresh ``python -m symclone.cli`` processes,
warm workloads time library calls in one worker process (worker.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Time metrics are divided by the
run's speed factor (speed.py), measured from a reference task timed after
every op.  With ``--trace 0`` the metrics are the end-to-end ones:

- ops_per_s: ops that passed their check per second spent in ops;
- op_p50_s, op_p90_s: median and 90th-percentile op latency;
- setup_s: median wall time, over four fresh interpreters (two before the
  loop, two after it), to finish ``import symclone.cli``, each divided by
  the process speed reference timed right after it (every CLI op pays it,
  warm workloads pay it once);
- peak_rss_mb: peak resident memory of the processes doing the work
  (RUSAGE_CHILDREN for CLI workloads, the worker's own for warm ones).

The failed share is ``failed / attempted`` of the same line.  With
``--trace 1`` the run is split in two halves, untraced then traced with the
span recorder (spans.py), and the metrics are the per-layer ones.

``--selfcheck`` runs every workload for one cycle of its op kinds, traced and
untraced, checks that the metric names match BENCHMARK.json, and checks that
a process with one perturbed phi entry is counted as failed, through the CLI
and through the library.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
from cli_workloads import WORKLOADS as CLI_WORKLOADS
from loop import closed_loop, throughput, timed
from spans import PER_LAYER, import_times, layer_metrics
from speed import PROCESS_NOMINAL_S, PROCESS_SOURCE, factor

HERE = Path(__file__).resolve().parent
WARM_WORKLOADS = ("exact-random", "numeric")
WORKLOADS = ("cli-small", "exact-random", "cli-large-standard", "numeric")
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_RUNS = 2  # fresh imports timed before the loop, and as many again after it
OP_TIMEOUT = 60  # seconds; over ten times the slowest op, so a hang fails the op, not the run


class Bench:
    """One run's environment: the checkout, its ``src``, a scratch directory."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        # One BLAS thread: with OpenBLAS's default two threads on a two-core
        # machine, idle BLAS threads spinning after a large product made the
        # numeric workload's small probe products 2-6x slower and erratic.
        blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        self.env = {**os.environ, **blas, "PYTHONPATH": str(root / "src")}

    def python(self, *args: str, timeout: float = OP_TIMEOUT):
        return subprocess.run(
            [sys.executable, *args], env=self.env, cwd=self.root,
            capture_output=True, timeout=timeout,
        )

    def process_reference(self) -> float:
        """Time of the process speed reference, in units of its nominal time."""
        t0 = time.perf_counter()
        self.python("-c", PROCESS_SOURCE)
        return (time.perf_counter() - t0) / PROCESS_NOMINAL_S

    def setup_samples(self) -> list[float]:
        """Times of fresh ``import symclone.cli`` processes, each divided by
        the process speed reference timed right after it."""
        samples = []
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            p = self.python("-c", "import symclone.cli")
            took = time.perf_counter() - t0
            if p.returncode:
                raise RuntimeError(f"import symclone.cli failed: {p.stderr[-500:].decode(errors='replace')}")
            samples.append(took / self.process_reference())
        return samples

    def run_cli(self, name: str, seed: int, seconds: float, trace: bool) -> dict:
        wl = CLI_WORKLOADS[name](seed, self.work)

        def untraced(i):
            kind, argv, check = wl.prepare(i)
            record = timed(kind, lambda: self.python("-m", "symclone.cli", *argv), check)
            record["speed"] = self.process_reference()
            return record

        if not trace:
            return {"records": closed_loop(wl.cycle, seconds, untraced)}
        first = closed_loop(wl.cycle, seconds / 2, untraced)
        spans, counts, imports = [], {}, []

        def traced(i):
            kind, argv, check = wl.prepare(i)

            def check_and_keep(p):  # the import breakdown is on the op's stderr
                imports.append(import_times(p.stderr.decode(errors="replace")))
                return check(p)

            out = self.work / f"spans-{i}.json"
            cmd = ("-X", "importtime", str(HERE / "tracecli.py"), str(out), *argv)
            record = timed(kind, lambda: self.python(*cmd), check_and_keep)
            if out.exists():
                dump = json.loads(out.read_text())
                out.unlink()
                spans.extend([i, *s[1:]] for s in dump["spans"])
                counts[str(i)] = dump["counts"].get("0", {})
            record["speed"] = self.process_reference()
            return record

        second = closed_loop(wl.cycle, seconds / 2, traced)
        return {"untraced": first, "records": second, "spans": spans, "counts": counts, "imports": imports}

    def run_warm(self, name: str, seed: int, seconds: float, trace: bool, negative: bool = False) -> dict:
        args = [str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        if negative:
            args.append("--negative")
        p = self.python(*(["-X", "importtime"] if trace else []), *args, timeout=OP_TIMEOUT + seconds)
        if p.returncode:
            raise RuntimeError(f"worker failed: {p.stderr[-2000:].decode(errors='replace')}")
        out = json.loads(p.stdout.decode().splitlines()[-1])
        if trace:
            out["imports"] = [import_times(p.stderr.decode(errors="replace"))]
        return out


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method; the sample itself if there is one)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        bench = Bench(root, work)
        setup = [] if trace else bench.setup_samples()
        if name in WARM_WORKLOADS:
            res = bench.run_warm(name, seed, seconds, trace)
            rss_kb = res["maxrss_kb"]
        else:
            res = bench.run_cli(name, seed, seconds, trace)
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            res["cycle"] = CLI_WORKLOADS[name].cycle
        if not trace:
            setup += bench.setup_samples()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = res.get("untraced", []) + res["records"]
    failed = [r for r in records if r["error"] is not None]
    speed = factor(records)
    if trace:
        metrics = layer_metrics(res["untraced"], res["records"], res["spans"], res["counts"],
                                res["imports"], res["cycle"])
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        lat = [r["latency"] for r in records]
        metrics = {
            "ops_per_s": throughput(records) * speed,
            "op_p50_s": statistics.median(lat) / speed,
            "op_p90_s": percentile(lat, 90) / speed,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kb / 1024,
        }
        units = dict(END_TO_END)
    return {
        "records": records,
        "speed": speed,
        "result": {
            "correct": not failed,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def report(name: str, seed: int, run: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    res, records = run["result"], run["records"]
    print(f"workload {name} seed {seed}: {res['attempted']} ops, {res['failed']} failed "
          f"(failed_share {res['failed'] / res['attempted']:.4g})")
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["latency"])
    for kind, lat in by_kind.items():
        print(f"  {kind:<20} n={len(lat):<4} raw median {statistics.median(lat):.4f} s")
    print(f"  speed factor {run['speed']:.4f} (time metrics below are raw times divided by it)")
    for r in records:
        if r["error"] is not None:
            print(f"  FAILED {r['kind']}: {r['error']}")
    for k, m in res["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")


def selfcheck(root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            run = run_workload(root, name, seed=0, seconds=0, trace=bool(trace))
            report(name, 0, run)
            res = run["result"]
            if res["failed"]:
                problems.append(f"{name} trace={trace}: {res['failed']} ops failed")
            if list(res["metrics"]) != names[trace]:
                problems.append(f"{name} trace={trace}: metric names differ from BENCHMARK.json")

    # negative cases: a process with one perturbed phi entry must count as failed
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        bench = Bench(root, work)
        doc = inputs.perturb_phi(inputs.standard_process(3), inputs.op_rng(0, 0))
        path = work / "perturbed.json"
        path.write_text(inputs.dumps(doc))
        check = CLI_WORKLOADS["cli-small"](0, work).verify_check(6, path.stat().st_size)
        cli = timed("verify", lambda: bench.python("-m", "symclone.cli", "verify", "--input", str(path)), check)
        lib = bench.run_warm("exact-random", 0, 0, trace=False, negative=True)["records"][0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for where, rec in (("CLI verify", cli), ("library exact-random", lib)):
        print(f"negative case via {where}: {'counted as failed' if rec['error'] else 'PASSED'} ({rec['error']})")
        if rec["error"] is None:
            problems.append(f"perturbed process passed via {where}")
    for p in problems:
        print(f"SELFCHECK PROBLEM: {p}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "symclone" / "__init__.py").is_file():
        print(f"error: {root} has no src/symclone; run from the repository root", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(root)
    if args.workload is None:
        ap.error("--workload is required")
    run = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

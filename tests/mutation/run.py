"""Run the patch catalogue: mutants must be killed, ablations must pay.

    python tests/mutation/run.py [ID ...]                 # test every named entry (all if none)
    python tests/mutation/run.py --kind mutant            # the mutants alone (the CI step)
    python tests/mutation/run.py --kind ablation --screen # ablations, tested and timed in process
    python tests/mutation/run.py ID --pairs 10 --seed 1   # perfbench pairs for one ablation

Run from the repository root; the standard library is all it needs (the
tests it runs need pytest, and the screen and pairs need numpy, as the
benchmark does).  It never edits the tree: each entry is applied to a
temporary copy of ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml``, and the copy is deleted afterwards.

**The catalogue** is ``tests/mutation/catalogue.py``.  ``ENTRIES`` is a list
of dicts with these keys:

- ``id``: a unique name; ``kind``: "mutant" or "ablation";
- ``edits``: a list of ``{"file", "old", "new"}``, each ``old`` a text that
  occurs exactly once in ``file`` (a path from the repository root), which
  the copy gets with ``new`` in its place.  An entry whose text does not
  occur exactly once is refused, so a catalogue that no longer matches the
  code fails loudly;
- ``tests``: the tier-1 test files or node ids to run on the copy, with
  ``pytest -x`` and hypothesis seeded, so a kill is repeatable; a run that
  takes over ``TIMEOUT_S`` seconds is stopped, and a mutant stopped so is
  killed;
- an ablation may carry ``deselect``: ``[node id, reason]`` pairs for the
  tests that pin the optimisation itself (a count of constructor calls,
  say), which its plain form fails by definition;
- a mutant may carry ``label``: ``[kind, reason]`` with kind "equivalent",
  "by design" or "open", for a mutant no test kills on purpose;
- an ablation carries ``added_in`` (the commit that added the site) and
  ``workload``, the benchmark workload that change claimed its gain on,
  or the one that runs the site where the claimed one never does.

**Mutants** change what the program computes or refuses.  Each is killed
when a named test fails.  A survivor must be killed by a new test or
labelled with its reason; the run exits 1 on any unlabelled survivor.

**Ablations** replace one optimisation by its plain form, which must keep
every named test passing; the golden runs
(``tests/test_cli.py::test_commands_print_the_recorded_bytes``) pin the
outputs byte for byte.  ``--screen`` then times every ablated copy in
process against the unpatched tree and an unpatched A/A copy: ``--rounds``
rounds (6 at least), each running every copy once in a fresh interpreter in
a rotated order.  A copy's interpreter times the figures that the screened
sites' workloads run (of the five below), each block of work divided by the
mean of the ``perfbench/speed.loop_reference`` samples taken just before
and after it, and reports each figure's median over nine blocks:

- ``exact``: one exact-random cycle (``perfbench/worker.py``, dims 16, 24, 32);
- ``cli100``: ``cli.run`` in process on ``verify`` and ``diagram-check
  --instance symp`` of the standard dim-100 process, and ``construct-general
  --dim 100``;
- ``numeric``: numeric's refute and Hilbert ops, ten of each;
- ``probe``: numeric's three probe ops;
- ``process``: fresh ``python -m symclone.cli`` processes running
  ``construct-basic`` and ``quantum-refute --dim 4``.

A figure's change is the median over rounds of the copy's figure over the
unpatched tree's in the same round, minus one.

**The rule.**  An ablation that loses at least twice the A/A copy's largest
deviation (over all figures) on a figure of its claimed workload is kept:
``exact`` for exact-random, ``cli100`` for cli-large-standard, ``numeric``
or ``probe`` for numeric, ``process`` for cli-small.  A figure that does
not run the site's workload cannot keep it, as a loss there is noise.
Every other one gets ``--pairs 10``: alternating 24-s ``perfbench/run.py``
runs on its claimed workload, from ``git archive`` copies of HEAD at paths
of equal length, one of them patched.  It is kept only if the patched copy's ops_per_s is lower than the
unpatched copy's by more than the unpatched runs' interquartile range in at
least 8 of the 10 pairs; otherwise the site is deleted from ``src/`` and
replaced by its plain form, and its entry moves to ``ABLATION.json``, which
records every site's screen, pairs and decision.

**Adding an entry.**  A change that adds a check adds the mutant that the
check's test kills.  A change that claims a gain adds the ablation of each
site it adds, with its workload, and runs the screen, and the pairs where
the screen does not decide.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
FIGURES = ("exact", "cli100", "numeric", "probe", "process")
# the figures that run each workload's code
CLAIMED = {"exact-random": ("exact",), "cli-large-standard": ("cli100",), "numeric": ("numeric", "probe"),
           "cli-small": ("process",)}
LABELS = ("equivalent", "by design", "open")
# a named test file takes under a minute on a 2-vCPU machine; a mutant that
# makes a loop run on (a pivot search that never ends, say) is stopped here
# and counts as killed
TIMEOUT_S = 180


def load_catalogue(root: Path) -> list[dict]:
    spec = importlib.util.spec_from_file_location("catalogue", root / "tests/mutation/catalogue.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    entries = module.ENTRIES
    ids = [e["id"] for e in entries]
    if len(set(ids)) != len(ids):
        raise SystemExit("catalogue ids are not unique")
    for e in entries:
        label = e.get("label")
        if label is not None and (e["kind"] != "mutant" or label[0] not in LABELS or not label[1]):
            raise SystemExit(f"{e['id']}: a label is [one of {LABELS}, reason], on a mutant")
    return entries


def copy_tree(root: Path, dest: Path) -> Path:
    dest.mkdir(parents=True)
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-*")
    for name in COPIED:
        src = root / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)
    return dest


def apply(dest: Path, entry: dict) -> None:
    """Apply the entry's edits to the copy at ``dest``; each old text must
    occur there exactly once."""
    for e in entry["edits"]:
        path = dest / e["file"]
        text = path.read_text()
        found = text.count(e["old"])
        if found != 1:
            raise ValueError(f"{entry['id']}: the old text occurs {found} times in {e['file']}, not once")
        path.write_text(text.replace(e["old"], e["new"]))


def env_for(tree: Path, *extra: Path) -> dict:
    path = os.pathsep.join(str(p) for p in (tree / "src", *extra))
    return {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_tests(tree: Path, tests: list[str], deselect: list[str] = ()) -> tuple[int, str]:
    """pytest's exit code on the named tests of the copy, and its last line;
    None for a run stopped after TIMEOUT_S seconds."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    cmd += [f"--deselect={t}" for t in deselect]
    try:
        p = subprocess.run(cmd, cwd=tree, env=env_for(tree), capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"stopped after {TIMEOUT_S} s"
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines[-1] if lines else p.stderr.strip()[-300:]


def test_entry(root: Path, work: Path, entry: dict) -> dict:
    tree = copy_tree(root, work / entry["id"])
    apply(tree, entry)
    code, last = run_tests(tree, entry["tests"], [t for t, _ in entry.get("deselect", ())])
    if entry["kind"] == "mutant":
        # 1: a test failed; 2: collection failed, which a mutant can cause
        # too; None: the tests ran past the timeout
        status = "killed" if code in (1, 2, None) else ("survived" if code == 0 else "error")
        if status == "survived" and entry.get("label"):
            status = "labelled " + entry["label"][0]
    else:
        status = "tests pass" if code == 0 else "tests fail"
    res = {"id": entry["id"], "kind": entry["kind"], "tests": entry["tests"], "status": status, "pytest": last}
    if entry.get("label"):
        res["label"] = entry["label"]
    return res | {"tree": tree}


# -- the in-process screen -------------------------------------------------


def probe(rounds: int, std100: str, names: list[str]) -> dict:
    """Runs in a copy's fresh interpreter (``--probe``): the median of each
    named figure over ``rounds`` blocks, each block divided by the speed
    reference."""
    from speed import loop_reference
    from worker import ExactRandom, Numeric

    from symclone import cli

    exact = [ExactRandom(1).prepare(i)[1] for i in range(3)]
    numeric = Numeric(1)
    probes = [numeric.prepare(i)[1] for i in range(3)]
    floats = [numeric.prepare(i)[1] for i in (3, 4)]
    argvs = [["verify", "--input", std100], ["diagram-check", "--instance", "symp", "--input", std100],
             ["construct-general", "--dim", "100"]]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}

    def in_process():
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.run(argv):
                    raise RuntimeError(f"{argv} failed")

    def processes():
        for argv in (["construct-basic"], ["quantum-refute", "--dim", "4"]):
            subprocess.run([sys.executable, "-m", "symclone.cli", *argv], env=env, capture_output=True)

    blocks = {
        "exact": lambda: [op() for op in exact],
        "cli100": in_process,
        "numeric": lambda: [op() for _ in range(10) for op in floats],
        "probe": lambda: [op() for op in probes],
        "process": processes,
    }
    for name in names:  # warm every path once
        blocks[name]()
    times: dict[str, list[float]] = {name: [] for name in names}
    ref = loop_reference()
    for _ in range(rounds):
        for name in names:
            t0 = time.perf_counter()
            blocks[name]()
            took = time.perf_counter() - t0
            after = loop_reference()
            times[name].append(took / ((ref + after) / 2))
            ref = after
    return {name: statistics.median(v) for name, v in times.items()}


def screen(root: Path, work: Path, trees: dict[str, Path], rounds: int, names: list[str]) -> dict:
    """Each tree's named figures per round, ``rounds`` rounds in a rotated order."""
    std100 = work / "std100.json"
    sys.path.insert(0, str(root / "perfbench"))
    import inputs

    std100.write_text(inputs.dumps(inputs.standard_process(50)))
    labels = list(trees)
    figures: dict[str, list[dict]] = {n: [] for n in labels}
    for r in range(rounds):
        order = labels[r % len(labels):] + labels[: r % len(labels)]
        for name in order:
            tree = trees[name]
            cmd = [sys.executable, str(HERE / "run.py"), "--probe", str(std100), *names]
            p = subprocess.run(cmd, cwd=tree, env=env_for(tree, tree / "perfbench"), capture_output=True, text=True)
            if p.returncode:
                raise RuntimeError(f"probe of {name} failed: {p.stderr[-1000:]}")
            figures[name].append(json.loads(p.stdout.splitlines()[-1]))
        print(f"screen round {r + 1}/{rounds} done", file=sys.stderr)
    return figures


def changes(figures: dict[str, list[dict]], name: str, base: str = "base") -> dict[str, float]:
    """Per figure, the median over rounds of name's figure over base's, minus one."""
    return {
        f: statistics.median(a[f] / b[f] for a, b in zip(figures[name], figures[base])) - 1
        for f in figures[base][0]
    }


# -- perfbench pairs ---------------------------------------------------------


def archive(root: Path, rev: str, dest: Path) -> Path:
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", rev], cwd=root, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if p.returncode:
        raise RuntimeError(f"perfbench failed in {tree}: {p.stderr[-1000:]}")
    result = json.loads(p.stdout.splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items()} | {"failed": result["failed"]}


def pairs(parent: Path, change: Path, workload: str, count: int, first_seed: int, seconds: float = 24) -> dict:
    """``count`` same-seed pairs, alternating which tree runs first; the
    change loses a pair when its ops_per_s is below the parent's by more
    than the parent runs' interquartile range."""
    runs = []
    for k in range(count):
        seed = first_seed + k
        order = [("parent", parent), ("change", change)]
        if k % 2:
            order.reverse()
        pair = {"seed": seed, "first": order[0][0]}
        for side, tree in order:
            pair[side] = bench(tree, workload, seed, seconds)
        runs.append(pair)
        print(f"pair {k + 1}/{count} {workload}: parent {pair['parent']['ops_per_s']:.3f} "
              f"change {pair['change']['ops_per_s']:.3f}", file=sys.stderr)
    parent_ops = [p["parent"]["ops_per_s"] for p in runs]
    q1, _, q3 = statistics.quantiles(parent_ops, n=4, method="inclusive")
    losses = sum(1 for p in runs if p["parent"]["ops_per_s"] - p["change"]["ops_per_s"] > q3 - q1)
    return {
        "workload": workload, "seconds": seconds, "runs": runs,
        "parent_median": statistics.median(parent_ops),
        "change_median": statistics.median(p["change"]["ops_per_s"] for p in runs),
        "parent_iqr": q3 - q1, "change_loses_by_more_than_iqr": losses,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ids", nargs="*", help="entries to run (default: all of --kind)")
    ap.add_argument("--kind", choices=("mutant", "ablation"))
    ap.add_argument("--screen", action="store_true", help="time the ablations that pass their tests")
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--pairs", type=int, default=0, help="perfbench pairs per named ablation")
    ap.add_argument("--seed", type=int, default=1, help="first seed of the pairs")
    ap.add_argument("--json", help="write the results to this file")
    ap.add_argument("--probe", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe:
        print(json.dumps(probe(9, args.probe, args.ids)))
        return 0
    if args.screen and args.rounds < 6:
        ap.error("the screen needs at least 6 rounds")
    root = Path.cwd()
    if not (root / "tests/mutation/catalogue.py").is_file():
        ap.error(f"{root} has no tests/mutation/catalogue.py; run from the repository root")
    entries = load_catalogue(root)
    if args.ids:
        unknown = set(args.ids) - {e["id"] for e in entries}
        if unknown:
            ap.error(f"unknown ids: {sorted(unknown)}")
        entries = [e for e in entries if e["id"] in args.ids]
    if args.kind:
        entries = [e for e in entries if e["kind"] == args.kind]

    work = Path(tempfile.mkdtemp(prefix="symclone-mutation-"))
    try:
        # every entry starts from one snapshot, so an edit to the tree while
        # the run goes on reaches none of them
        snapshot = copy_tree(root, work / "snapshot")
        results = []
        for entry in entries:
            res = test_entry(snapshot, work, entry)
            print(f"{res['kind']:<8} {res['id']:<45} {res['status']:<20} {res['pytest']}", flush=True)
            results.append(res)
        out = {"command": " ".join(["python", "tests/mutation/run.py", *sys.argv[1:]]),
               "python": sys.version.split()[0],
               "results": [{k: v for k, v in r.items() if k != "tree"} for r in results]}
        timed = [r for r in results if r["status"] == "tests pass"]
        if args.screen and timed:
            # every copy under a name of the same length
            trees = {"base": copy_tree(snapshot, work / "t-base"), "aa": copy_tree(snapshot, work / "t-aaaa")}
            trees.update((r["id"], r["tree"]) for r in timed)
            workload = {e["id"]: e["workload"] for e in entries if e["kind"] == "ablation"}
            names = [f for f in FIGURES if any(f in CLAIMED[workload[r["id"]]] for r in timed)]
            figures = screen(snapshot, work, trees, args.rounds, names)
            aa = changes(figures, "aa")
            bound = 2 * max(abs(x) for x in aa.values())
            out["screen"] = {"rounds": args.rounds, "figures": figures, "aa": aa, "keep_bound": bound, "sites": {}}
            for r in timed:
                ch = changes(figures, r["id"])
                loss = max(ch[f] for f in CLAIMED[workload[r["id"]]])
                verdict = "kept by screen" if loss >= bound else "pairs decide"
                out["screen"]["sites"][r["id"]] = {"change": ch, "verdict": verdict}
                print(f"screen {r['id']:<40} " + " ".join(f"{f} {ch[f]:+.1%}" for f in names) + f"  {verdict}")
            print("screen A/A" + " " * 35 + " ".join(f"{f} {aa[f]:+.1%}" for f in names))
        if args.pairs:
            out["pairs"] = {}
            for entry in (e for e in entries if e["kind"] == "ablation"):
                parent = archive(root, "HEAD", work / "pair" / "p")
                change = archive(root, "HEAD", work / "pair" / "c")
                apply(change, entry)
                out["pairs"][entry["id"]] = res = pairs(parent, change, entry["workload"], args.pairs, args.seed)
                shutil.rmtree(work / "pair")
                print(f"pairs {entry['id']}: parent {res['parent_median']:.3f} change {res['change_median']:.3f} "
                      f"IQR {res['parent_iqr']:.3f}, change loses {res['change_loses_by_more_than_iqr']}/{args.pairs}")
        if args.json:
            Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = [r for r in results if r["status"] in ("survived", "error", "tests fail")]
    for r in bad:
        print(f"FAILED: {r['kind']} {r['id']}: {r['status']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder for the traced run.

``install`` wraps symclone's public callables from outside the program:
module-level functions (in every ``symclone.*`` namespace that holds them, so
``from .x import f`` call sites are caught too) and a few ``RatMatrix`` /
``CloningProcess`` methods.  Each call becomes a span ``(op, id, parent, name,
start, end)`` kept in memory.  A layer's self time is its spans' durations
minus the part covered by their direct children.

Counts are taken at the same boundaries, from arguments and results, after
the span has closed: entry bit height of ``phi`` and of the Darboux basis,
states checked by the diagram checker and the probe's gap to the rank bound.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

from inputs import bits
from loop import throughput
from speed import factor

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit, better).
LAYERS = (
    "exact.darboux_basis",
    "exact.inverse",
    "exact.rank",
    "exact.matmul",
    "exact.from_json",
    "exact.symplectic_defect",
    "classical.to_json",
    "classical.general_cloner",
    "classical.verify_cloning",
    "classical.size_witness",
    "classical.readout_solver",
    "classical.probe",
    "quantum.refute_cloning",
    "diagrams.check_symp",
    "diagrams.check_hilb",
)
IMPORTS = ("scipy", "numpy", "symclone")
COUNTS = (
    ("exact.phi_max_bits", "bits", "lower"),
    ("exact.basis_max_bits", "bits", "lower"),
    ("exact.json_bytes", "bytes", "lower"),
    ("diagrams.states_checked", "count", "higher"),
    ("classical.probe_gap", "ratio", "lower"),
)
PER_LAYER = (
    [(f"import.{p}_s", "s", "lower") for p in IMPORTS]
    + [m for layer in LAYERS for m in ((f"{layer}_s", "s", "lower"), (f"{layer}_calls", "count", "lower"))]
    + list(COUNTS)
    + [("trace.overhead", "ratio", "higher")]
)


class Recorder:
    """Collects spans and per-op counts; ``op`` tags everything recorded."""

    def __init__(self):
        self.op = None
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(dict)
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid, self._next = self._next, self._next + 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, label, t0, t1))
            if observe is not None:
                observe(self.counts[self.op], args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": {str(k): v for k, v in self.counts.items()}}


def _max_bits(matrix) -> int:
    return max((bits(x) for row in matrix.tolist() for x in row), default=0)


def _set_max(counts, key, value):
    counts[key] = max(counts.get(key, value), value)


def _phi_bits(counts, args, result):
    _set_max(counts, "exact.phi_max_bits", _max_bits(result.phi))


def _basis_bits(counts, args, result):
    _set_max(counts, "exact.basis_max_bits", _max_bits(result))


def _states(counts, args, result):
    counts["diagrams.states_checked"] = counts.get("diagrams.states_checked", 0) + len(result.results)


def _probe_gap(counts, args, result):
    m, k = args[0], args[1]
    _set_max(counts, "classical.probe_gap", result / math.sqrt(2 * (m - k)) - 1.0)


def install(rec: Recorder) -> None:
    """Replace symclone's public callables with span-recording wrappers."""
    import symclone.cli  # noqa: F401  (loads every symclone module)
    from symclone import classical, diagrams, exact, quantum

    functions = {
        exact.darboux_basis: ("exact.darboux_basis", _basis_bits),
        exact.symplectic_defect: ("exact.symplectic_defect", None),
        classical.general_cloner: ("classical.general_cloner", _phi_bits),
        classical.verify_cloning: ("classical.verify_cloning", None),
        classical.size_witness: ("classical.size_witness", None),
        classical.readout_solver: ("classical.readout_solver", None),
        classical.clone_residual_probe: ("classical.probe", _probe_gap),
        quantum.refute_cloning: ("quantum.refute_cloning", None),
        diagrams.check_cloning_diagram: (
            lambda a: "diagrams.check_symp" if a[0].name == "symplectic" else "diagrams.check_hilb",
            _states,
        ),
    }
    wrapped = {id(fn): rec.wrap(name, fn, obs) for fn, (name, obs) in functions.items()}
    modules = [m for n, m in sys.modules.items() if n == "symclone" or n.startswith("symclone.")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])

    rat = exact.RatMatrix
    rat.__matmul__ = rec.wrap("exact.matmul", rat.__matmul__)
    rat.rank = rec.wrap("exact.rank", rat.rank)
    rat.inverse = rec.wrap("exact.inverse", rat.inverse)
    rat.from_json = classmethod(rec.wrap("exact.from_json", rat.__dict__["from_json"].__func__))
    proc = classical.CloningProcess
    proc.to_json = rec.wrap("classical.to_json", proc.to_json)


def self_times(spans) -> tuple[dict, dict]:
    """Total self time and call count per span name."""
    child = defaultdict(float)
    for op, _, parent, _, t0, t1 in spans:
        if parent is not None:
            child[op, parent] += t1 - t0
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for op, sid, _, name, t0, t1 in spans:
        self_s[name] += t1 - t0 - child[op, sid]
        calls[name] += 1
    return self_s, calls


def layer_metrics(untraced, traced, spans, counts, imports, cycle) -> dict:
    """Every per-layer metric of a traced run.

    ``untraced`` and ``traced`` are the op records of the two halves of the
    run, ``spans`` and ``counts`` (keyed by op index) were recorded in the
    traced half, and ``imports`` holds ``import_times`` for each interpreter
    start in it.  Self times are seconds per op over the traced half,
    divided by its speed factor (speed.py); call counts and the other counts
    come from its first cycle of op kinds, so they repeat exactly for a
    given seed.
    """
    spans = [s for s in spans if s[0] is not None]  # None: input preparation
    self_s, _ = self_times(spans)
    _, calls = self_times([s for s in spans if s[0] < cycle])
    first = [counts.get(str(i), {}) for i in range(cycle)]
    speed = factor(traced)
    out = {f"import.{p}_s": sum(t[p] for t in imports) / len(imports) / speed for p in IMPORTS}
    for layer in LAYERS:
        out[f"{layer}_s"] = self_s.get(layer, 0.0) / len(traced) / speed
        out[f"{layer}_calls"] = calls.get(layer, 0) / cycle
    for key in ("exact.phi_max_bits", "exact.basis_max_bits", "classical.probe_gap"):
        out[key] = max((c[key] for c in first if key in c), default=0)
    out["exact.json_bytes"] = sum(r["json_bytes"] for r in traced[:cycle]) / cycle
    out["diagrams.states_checked"] = sum(c.get("diagrams.states_checked", 0) for c in first) / cycle
    out["trace.overhead"] = throughput(traced) * speed / (throughput(untraced) * factor(untraced))
    return {name: out[name] for name, _, _ in PER_LAYER}


def import_times(stderr: str) -> dict:
    """Self import time per top-level package from ``python -X importtime``."""
    out = dict.fromkeys(IMPORTS, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        if top in out:
            out[top] += int(fields[0]) / 1e6
    return out

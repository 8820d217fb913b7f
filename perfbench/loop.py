"""The closed loop every workload runs: one client, one op in flight."""

from __future__ import annotations

import time


def closed_loop(cycle: int, seconds: float, run_op) -> list[dict]:
    """Run ops 0, 1, 2, ... back to back, in whole cycles of the workload's
    ``cycle`` op kinds, and stop at the cycle boundary nearest to ``seconds``
    of wall time (after at least one cycle).

    Whole cycles give every run the same mix of op kinds, so the median and
    the 90th percentile fall inside the same kind's latencies on every run
    instead of jumping between kinds as the last, partial cycle varies.
    """
    records: list[dict] = []
    start = time.perf_counter()
    while True:
        for _ in range(cycle):
            records.append(run_op(len(records)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (len(records) // cycle) / 2 >= seconds:
            return records


def timed(kind: str, op, check) -> dict:
    """Time ``op()`` alone; ``check(value)`` runs after the clock stops and
    returns an error string or None.  Returns the op's record."""
    error = None
    t0 = time.perf_counter()
    try:
        value = op()
    except Exception as exc:  # a failed op is recorded, not fatal
        latency = time.perf_counter() - t0
        return {"kind": kind, "latency": latency, "error": f"{type(exc).__name__}: {exc}", "json_bytes": 0}
    latency = time.perf_counter() - t0
    try:
        error, json_bytes = check(value)
    except Exception as exc:  # malformed output is a failed check
        error, json_bytes = f"check raised {type(exc).__name__}: {exc}", 0
    return {"kind": kind, "latency": latency, "error": error, "json_bytes": json_bytes}


def throughput(records: list[dict]) -> float:
    """Ops that passed their check per second of time spent in ops."""
    busy = sum(r["latency"] for r in records)
    return sum(1 for r in records if r["error"] is None) / busy

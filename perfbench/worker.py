"""Warm worker: one interpreter imports symclone once, then runs a warm
workload's closed loop through the library and prints one JSON line.

    python perfbench/worker.py --workload exact-random --seed 1 --seconds 24 --trace 0

With ``--trace 1`` it runs the loop untraced for half the time, installs the
span recorder, and runs the same op sequence traced for the other half.
``--negative`` runs one exact-random op on a process with a perturbed phi
entry instead; its check must fail.
"""

from __future__ import annotations

import argparse
import json
import math
import resource

import numpy as np

import inputs
from loop import closed_loop, timed
from spans import Recorder, install
from speed import loop_reference


class ExactRandom:
    """Each op: general_cloner(form), verify_cloning, then a JSON round trip.

    Why: on seeded random rational forms the entries of phi grow to hundreds
    of bits, so darboux_basis, inverse and dense high-bit matmul do almost all
    the work while import stays out of op time.  The CLI only builds
    processes for standard forms, so this path is reachable only through the
    library.
    """

    DIMS = (16, 24, 32)
    cycle = len(DIMS)

    def __init__(self, seed: int, perturb: bool = False):
        from symclone import CloningProcess, RatMatrix, SkewForm, general_cloner, verify_cloning

        self.seed, self.perturb = seed, perturb
        self.CloningProcess, self.RatMatrix, self.SkewForm = CloningProcess, RatMatrix, SkewForm
        self.general_cloner, self.verify_cloning = general_cloner, verify_cloning

    def prepare(self, i: int):
        dim = self.DIMS[i % self.cycle]
        rng = inputs.op_rng(self.seed, i)
        form = self.SkewForm(self.RatMatrix(inputs.random_skew_form(dim, rng)))

        def op():
            c = self.general_cloner(form)
            if self.perturb:
                c = self.CloningProcess.from_json(inputs.perturb_phi(c.to_json(), rng))
            report = self.verify_cloning(c)
            text = json.dumps(c.to_json())
            back = self.CloningProcess.from_json(json.loads(text))
            return c, report, text, back

        def check(value):
            c, report, text, back = value
            if report.verdict != "pass":
                return f"verdict {report.verdict}: {report.reason}", len(text)
            if back != c:
                return "JSON round trip changed the process", len(text)
            return None, len(text)

        return f"dim{dim}", op, check


class Numeric:
    """Ops cycle through clone_residual_probe at (m, k) = (2, 0), (3, 1),
    (4, 2) with 5000 iterations, refute_cloning on a seeded 256 x 256 random
    unitary (d = 4, dk = 16), and a Hilbert check_cloning_diagram on 4 basis
    plus 64 random states at the same size.

    Why: the float layers (the probe's optimiser, the refuter, the Hilbert
    diagram instance) do all their work here and almost none elsewhere.
    """

    PROBES = ((2, 0), (3, 1), (4, 2))
    ITERS = 5000
    D, DK, SAMPLES = 4, 16, 64
    cycle = len(PROBES) + 2

    def __init__(self, seed: int):
        from symclone import (
            check_cloning_diagram,
            clone_residual_probe,
            hilbert_cloning_diagram,
            refute_cloning,
        )

        self.seed = seed
        self.probe, self.refute = clone_residual_probe, refute_cloning
        self.hilbert_diagram, self.check_diagram = hilbert_cloning_diagram, check_cloning_diagram

    def prepare(self, i: int):
        kind = i % self.cycle
        if kind < len(self.PROBES):
            m, k = self.PROBES[kind]
            probe_seed = inputs.op_rng(self.seed, i).randrange(2**31)
            bound = math.sqrt(2 * (m - k))

            def check(best):
                ok = best >= bound - 1e-6
                return (None if ok else f"probe {best!r} beat the rank bound {bound!r}"), 0

            return f"probe{m}{k}", lambda: self.probe(m, k, self.ITERS, probe_seed), check

        g = np.random.default_rng([self.seed, i])
        u = inputs.random_isometry(self.D * self.D * self.DK, g)
        beta, rho = inputs.random_state(self.D, g), inputs.random_state(self.DK, g)
        if kind == len(self.PROBES):
            psi = inputs.random_state(self.D, g)
            psi2 = inputs.random_state(self.D, g)
            while not 0.05 < abs(np.vdot(psi, psi2)) < 0.95:
                psi2 = inputs.random_state(self.D, g)
            t = complex(np.vdot(psi, psi2))

            def check(r):
                if abs(r.cauchy_schwarz_excess - (1 / abs(t) - 1)) > 1e-9:
                    return f"excess {r.cauchy_schwarz_excess!r} != 1/|t| - 1", 0
                if abs(r.preserved_overlap - t) > 1e-9:
                    return "isometry did not preserve the overlap", 0
                return None, 0

            return "refute", lambda: self.refute(u, beta, rho, psi, psi2), check

        states = [np.eye(self.D)[:, j] for j in range(self.D)]
        states += [inputs.random_state(self.D, g) for _ in range(self.SAMPLES)]

        def op():
            inst, diagram = self.hilbert_diagram(u, beta, rho)
            return self.check_diagram(inst, diagram, states)

        def check(report):
            # a Haar-random unitary clones none of the states
            fails = sum(1 for _, ok in report.results if not ok)
            if len(report.results) != len(states) or fails != len(states):
                return f"{fails}/{len(report.results)} failures, expected {len(states)}", 0
            return None, 0

        return "hilb", op, check


WORKLOADS = {"exact-random": ExactRandom, "numeric": Numeric}


def with_speed(record: dict) -> dict:
    """Sample the speed reference after an op (see speed.py)."""
    record["speed"] = loop_reference()
    return record


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative", action="store_true")
    args = ap.parse_args()

    if args.negative:
        wl = ExactRandom(args.seed, perturb=True)
    else:
        wl = WORKLOADS[args.workload](args.seed)
    out: dict = {"cycle": wl.cycle}
    if args.negative:
        records = [with_speed(timed(*wl.prepare(0)))]
    elif args.trace:
        out["untraced"] = closed_loop(wl.cycle, args.seconds / 2, lambda i: with_speed(timed(*wl.prepare(i))))
        rec = Recorder()
        install(rec)
        wl = WORKLOADS[args.workload](args.seed)  # bind the wrapped callables

        def run(i):
            rec.op = None  # input preparation is not part of the op
            kind, op, check = wl.prepare(i)
            rec.op = i
            return with_speed(timed(kind, op, check))

        records = closed_loop(wl.cycle, args.seconds / 2, run)
        out.update(rec.dump())
    else:
        records = closed_loop(wl.cycle, args.seconds, lambda i: with_speed(timed(*wl.prepare(i))))
    out["records"] = records
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""Workloads whose ops are fresh ``python -m symclone.cli`` processes.

``prepare(i)`` writes op i's input files and returns ``(kind, argv, check)``;
``check`` takes the finished ``subprocess.CompletedProcess`` and returns
``(error or None, JSON bytes read and written)``.  Canonical outputs are
compared byte for byte against the digests in ``digests.json``, recorded by
``record_digests.py``; the others get semantic checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import inputs

DIGESTS = Path(__file__).with_name("digests.json")


def digest_key(argv: list[str]) -> str:
    """Digest table key of a canonical command; inputs are named by content."""
    return " ".join(argv)


def _frac_matrix(doc: dict) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in doc["entries"]]


def _matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def _checker(code: int, in_bytes: int, output_check):
    """Exit code, no traceback, then ``output_check(stdout) -> error``."""

    def check(p):
        size = in_bytes + len(p.stdout)
        if p.returncode != code:
            return f"exit {p.returncode}, expected {code}: {p.stderr[-300:].decode(errors='replace')}", size
        if b"Traceback" in p.stderr:
            return "traceback on stderr", size
        return output_check(p.stdout), size

    return check


def _digest(digests: dict, key: str):
    def check(out: bytes):
        if key not in digests:
            return f"no digest recorded for {key!r}"
        if hashlib.sha256(out).hexdigest() != digests[key]:
            return f"output differs from the digest recorded for {key!r}"
        return None

    return check


def _diagram_symp(dim: int):
    def check(out: bytes):
        d = json.loads(out)
        if (d["checked"], d["failures"], d["passed"]) != (dim + 1, 0, True):
            return f"symp diagram: {d}"
        return None

    return check


class CliWorkload:
    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.digests = json.loads(DIGESTS.read_text())
        self._files: dict[str, tuple[Path, int]] = {}

    def file(self, name: str, make) -> tuple[str, int]:
        """Write ``make()`` (a JSON document) once as ``name``; path and size."""
        if name not in self._files:
            path = self.work / name
            path.write_text(inputs.dumps(make()))
            self._files[name] = (path, path.stat().st_size)
        path, size = self._files[name]
        return str(path), size

    def canonical(self, argv: list[str], code: int = 0):
        """Check of a command whose output is compared with its digest."""
        return _checker(code, 0, _digest(self.digests, digest_key(argv)))

    def verify_check(self, dim: int, size: int):
        """Check of ``verify`` on the standard process of dimension ``dim``."""
        return _checker(0, size, _digest(self.digests, f"verify standard-{dim}"))


class CliSmall(CliWorkload):
    """Each op runs one of the nine commands on small seeded inputs (dim <= 14),
    including the exit-1 paths of readout-solve (k < m), size-witness and
    quantum-refute.

    Why: interpreter start plus import is about 90% of each op, so this
    workload shows import and CLI work (such as dropping scipy) and hides
    kernel work.
    """

    SLOTS = (
        "construct-basic",
        "construct-general",
        "verify",
        "darboux",
        "readout-solve",
        "readout-infeasible",
        "size-witness",
        "quantum-refute",
        "probe",
        "diagram-symp",
        "diagram-hilb",
    )
    cycle = len(SLOTS)

    def prepare(self, i: int):
        slot = self.SLOTS[i % self.cycle]
        rng = inputs.op_rng(self.seed, i)
        n = rng.randint(1, 7)  # object dim 2n <= 14
        dim = 2 * n
        if slot == "construct-basic":
            argv = ["construct-basic"]
            return slot, argv, self.canonical(argv)
        if slot == "construct-general":
            argv = ["construct-general", "--dim", str(dim)]
            return slot, argv, self.canonical(argv)
        if slot in ("verify", "diagram-symp"):
            path, size = self.file(f"standard-{dim}.json", lambda: inputs.standard_process(n))
            if slot == "verify":
                return slot, ["verify", "--input", path], self.verify_check(dim, size)
            argv = ["diagram-check", "--instance", "symp", "--input", path]
            return slot, argv, _checker(0, size, _diagram_symp(dim))
        if slot == "darboux":
            form = inputs.random_skew_form(dim, rng)
            path, size = self.file(f"form-{i}.json", lambda: inputs.form_json(form))
            return slot, ["darboux", "--input", path], _checker(0, size, self._darboux(form))
        if slot in ("readout-solve", "readout-infeasible"):
            if slot == "readout-solve":
                m = rng.randint(0, 7)
                k = rng.randint(m, 7)
            else:
                m = rng.randint(1, 7)
                k = rng.randint(0, m - 1)
            argv = ["readout-solve", "--m", str(m), "--k", str(k)]
            return slot, argv, self.canonical(argv, code=int(k < m))
        if slot == "size-witness":
            k = rng.randint(0, n - 1)
            doc = inputs.undersized_candidate(n, k, rng)
            path, size = self.file(f"undersized-{i}.json", lambda: doc)
            return slot, ["size-witness", "--input", path], _checker(1, size, self._witness(doc))
        if slot == "quantum-refute":
            overlap = rng.uniform(0.05, 0.95)
            d = rng.randint(2, 6)
            argv = ["quantum-refute", "--dim", str(d), "--psi-overlap", repr(overlap)]
            return slot, argv, _checker(1, 0, self._refute(overlap))
        if slot == "probe":
            m = rng.randint(1, 3)
            k = rng.randint(0, m - 1)
            argv = ["probe", "--m", str(m), "--k", str(k),
                    "--iters", str(rng.randint(100, 400)), "--seed", str(rng.randrange(1000))]
            return slot, argv, _checker(0, 0, self._probe(m, k))
        # diagram-hilb: the controlled-shift cloner copies the d basis states
        # and none of the random samples
        d, samples = rng.randint(2, 4), rng.randint(4, 16)
        path, size = self.file(f"cloner-{d}.json", lambda: inputs.basis_cloner(d))
        argv = ["diagram-check", "--instance", "hilb", "--input", path,
                "--samples", str(samples), "--seed", str(rng.randrange(1000))]
        return slot, argv, _checker(1, size, self._hilb(d, samples))

    @staticmethod
    def _darboux(form):
        n = len(form)
        j = inputs.standard_form(n // 2)

        def check(out: bytes):
            d = json.loads(out)
            if d["pullback_standard"] is not True:
                return "darboux reports a failed pullback"
            p = _frac_matrix(d["basis"])
            ap = [[sum((form[i][k] * p[k][c] for k in range(n)), Fraction(0)) for c in range(n)] for i in range(n)]
            ptap = [[sum((p[k][r] * ap[k][c] for k in range(n)), Fraction(0)) for c in range(n)] for r in range(n)]
            return None if ptap == j else "basis does not pull the form back to the standard one"

        return check

    @staticmethod
    def _witness(doc):
        readout = _frac_matrix(doc["readout"])
        omega = _frac_matrix(doc["object_form"])

        def check(out: bytes):
            d = json.loads(out)
            w = [Fraction(x) for x in d["vector"]]
            partner = [Fraction(x) for x in d["partner"]]
            pairing = sum((a * b for a, b in zip(partner, _matvec(omega, w))), Fraction(0))
            if not any(w) or any(_matvec(readout, w)):
                return "witness is not a nonzero kernel vector of the readout"
            if not pairing or Fraction(d["pairing"]) != pairing:
                return "witness pairing is zero or misreported"
            return None

        return check

    @staticmethod
    def _refute(overlap: float):
        def check(out: bytes):
            excess = json.loads(out)["cauchy_schwarz_excess"]
            ok = abs(excess - (1 / overlap - 1)) <= 1e-9
            return None if ok else f"excess {excess!r} != 1/t - 1 for t = {overlap!r}"

        return check

    @staticmethod
    def _probe(m: int, k: int):
        bound = math.sqrt(2 * (m - k))

        def check(out: bytes):
            best = json.loads(out)["best_defect"]
            return None if best >= bound - 1e-6 else f"probe {best!r} beat the rank bound {bound!r}"

        return check

    @staticmethod
    def _hilb(d: int, samples: int):
        def check(out: bytes):
            r = json.loads(out)
            if (r["checked"], r["failures"], r["passed"]) != (d + samples, samples, False):
                return f"hilb diagram: {r}"
            return None

        return check


class CliLargeStandard(CliWorkload):
    """Each op is construct-general at dim 100 (1.5 MB of JSON), or verify or
    diagram-check --instance symp reading the dim-60 or dim-100 standard
    process; the seed rotates the order.

    Why: the same exact layer as exact-random, used differently: low bit
    height, large dimension, mostly zeros.  JSON parsing, the zero-skipping
    matmul and compose dominate, so an integer-representation change that
    wins on exact-random but loses on sparse inputs shows here.

    The nine-op cycle takes about 23 s, so a 24-second run holds one cycle
    on a machine up to 30% slower or faster.  The dim-100 verify and diagram
    check run three times each: by latency they hold the median and the 90th
    percentile, so each of these falls among three samples of one kind (six,
    if a fast machine fits a second cycle) rather than on a single op.
    """

    OPS = (
        ("construct", 100),
        ("verify", 100),
        ("diagram", 100),
        ("verify", 60),
        ("verify", 100),
        ("diagram", 100),
        ("diagram", 60),
        ("verify", 100),
        ("diagram", 100),
    )
    cycle = len(OPS)

    def prepare(self, i: int):
        what, dim = self.OPS[(i + self.seed) % self.cycle]
        kind = f"{what}{dim}"
        if what == "construct":
            argv = ["construct-general", "--dim", str(dim)]
            return kind, argv, self.canonical(argv)
        path, size = self.file(f"standard-{dim}.json", lambda: inputs.standard_process(dim // 2))
        if what == "verify":
            return kind, ["verify", "--input", path], self.verify_check(dim, size)
        argv = ["diagram-check", "--instance", "symp", "--input", path]
        return kind, argv, _checker(0, size, _diagram_symp(dim))


WORKLOADS = {"cli-small": CliSmall, "cli-large-standard": CliLargeStandard}

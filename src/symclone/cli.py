"""Command-line surface.

Exit codes: 0 on success/pass, 1 on a verified negative result (a candidate
fails verification, the readout equation is infeasible, a refutation or size
witness is produced), 2 on usage, parse, or shape errors, and when standard
output is closed before the report is written.  ``_load`` is the only reader
of input files: a file that cannot be opened (missing, a directory, a path
through a file), is not UTF-8, is not JSON (nested too deeply, an integer
past Python's digit limit) or is not a valid document (a NaN, an infinity or
a boolean among Hilbert amplitudes) gives one ``error: <path>: ...`` line.
Every symclone error is a ``ValueError``, and ``run`` alone maps errors to
exit 2.  Reports are deterministic for fixed arguments and seed.

Only ``quantum-refute``, ``probe`` and ``diagram-check --instance hilb``
load numpy; the exact commands start without it, and without numpy
installed the three float commands exit 2 with one line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .classical import (
    CloningProcess,
    InfeasibleError,
    basic_cloner,
    clone_residual_probe,
    general_cloner,
    readout_solver,
    size_witness,
    verify_cloning,
)
from .diagrams import check_cloning_diagram, diagram_from_process
from .exact import SkewForm, darboux_basis, is_symplectic_map, standard_form

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# quantum-refute builds a dense d^2 x d^2 complex unitary: 268 MB at d = 64
_MAX_REFUTE_DIM = 64
# construct-general emits phi as a dense 3N x 3N JSON grid: 25 MB of JSON and
# about 190 MB resident at N = 400
_MAX_CONSTRUCT_DIM = 400
# readout-solve emits a dense 2k x 2m readout: 160,000 entries at 200
_MAX_READOUT_PAIRS = 200
# probe runs L-BFGS on dense (4m + 2k)-square float matrices: 96 x 96 at 16
_MAX_PROBE_PAIRS = 16
# diagram-check --instance hilb draws and checks each sampled state in a
# Python loop: about 0.25 ms a state for the CNOT file on a 2-vCPU VM, so
# 2.5 s at 10,000, and more for a larger unitary
_MAX_HILBERT_SAMPLES = 10_000


def _emit(report: dict, fmt: str, human_lines) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


class CliError(Exception):
    """Usage-level failure; maps to exit code 2."""


def _cmd_construct_basic(args) -> int:
    process = basic_cloner()
    _emit(process.to_json(), args.format, ["basic cloning process on R^2, machine R^2, phi 6x6"])
    return EXIT_OK


def _cmd_construct_general(args) -> int:
    if args.dim < 0 or args.dim % 2:
        raise CliError(f"--dim must be even and nonnegative, got {args.dim}")
    if args.dim > _MAX_CONSTRUCT_DIM:
        raise CliError(
            f"--dim must be at most {_MAX_CONSTRUCT_DIM} (phi is a dense 3N x 3N matrix), got {args.dim}"
        )
    process = general_cloner(standard_form(args.dim // 2))
    _emit(
        process.to_json(),
        args.format,
        [f"cloning process on the standard {args.dim}-dimensional space, machine dim {args.dim}"],
    )
    return EXIT_OK


def _load(path: str, parse):
    """Read a JSON input file and run ``parse`` on it, the one place the CLI
    reads input; every way the file fails to be a document becomes a CliError
    naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:  # RFC 8259: JSON is UTF-8
            return parse(json.load(fh))
    except OSError as exc:  # missing, a directory, a path through a file
        raise CliError(f"{path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply")
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise CliError(f"{path}: missing or malformed field: {exc}")
    except ValueError as exc:  # the symclone errors, UnicodeDecodeError, int digit limit
        raise CliError(f"{path}: {exc}")


def _cmd_verify(args) -> int:
    report = verify_cloning(_load(args.input, CloningProcess.from_json))
    lines = [f"verdict: {report.verdict}"]
    if not report.passed:
        lines.append(f"reason: {report.reason}")
        lines.append(f"symplectic defect (max abs): {report.symplectic_defect_norm}")
        lines.append(f"cloning residual (max abs): {report.cloning_residual}")
    _emit(report.to_json(), args.format, lines)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_darboux(args) -> int:
    form = _load(args.input, SkewForm.from_json)
    basis = darboux_basis(form)
    ok = is_symplectic_map(basis, standard_form(form.dim // 2), form)
    _emit(
        {"basis": basis.to_json(), "pullback_standard": ok},
        args.format,
        [f"normalizing basis computed; exact standard pullback: {ok}"],
    )
    return EXIT_OK


def _cmd_readout_solve(args) -> int:
    if max(args.m, args.k) > _MAX_READOUT_PAIRS:
        raise CliError(
            f"--m and --k must be at most {_MAX_READOUT_PAIRS} (the readout is a dense 2k x 2m matrix)"
        )
    try:
        F = readout_solver(args.m, args.k)
    except InfeasibleError as exc:
        _emit(
            {"infeasible": True, "reason": exc.reason, "detail": str(exc)},
            args.format,
            [f"infeasible: {exc}"],
        )
        return EXIT_FAIL
    _emit(
        {"infeasible": False, "readout": F.to_json()},
        args.format,
        [f"readout map found: {2 * args.k}x{2 * args.m}"],
    )
    return EXIT_OK


def _cmd_size_witness(args) -> int:
    witness = size_witness(_load(args.input, CloningProcess.from_json))
    _emit(
        witness.to_json(),
        args.format,
        [
            "machine too small: readout kernel vector "
            + "(" + ", ".join(str(x) for x in witness.vector) + ")",
            f"object form pairs it with a partner to {witness.pairing} != 0, "
            "but the machine-form pullback vanishes on it",
        ],
    )
    return EXIT_FAIL  # a witness refutes the candidate


def _cmd_quantum_refute(args) -> int:
    from .quantum import standard_refutation

    if args.dim > _MAX_REFUTE_DIM:
        raise CliError(
            f"--dim must be at most {_MAX_REFUTE_DIM} (the basis cloner is a d^2 x d^2 complex matrix)"
        )
    refutation = standard_refutation(args.dim, args.psi_overlap)
    _emit(
        refutation.to_json(),
        args.format,
        [
            f"cloning both states would force machine overlap {refutation.implied_machine_overlap:.6g}",
            f"Cauchy-Schwarz excess: {refutation.cauchy_schwarz_excess:.6g}",
            f"distance to nearest exact clone: {refutation.cloning_residual:.6g}",
        ],
    )
    return EXIT_FAIL  # refutation produced


def _cmd_probe(args) -> int:
    if max(args.m, args.k) > _MAX_PROBE_PAIRS:
        raise CliError(
            f"--m and --k must be at most {_MAX_PROBE_PAIRS} "
            "(the search runs on dense (4m + 2k)-square matrices)"
        )
    best = clone_residual_probe(args.m, args.k, args.iters, args.seed)
    out = {"best_defect": best, "m": args.m, "k": args.k, "iters": args.iters, "seed": args.seed}
    if args.k == 0:
        out["forced_lower_bound"] = math.sqrt(2 * args.m)
    _emit(out, args.format, [f"best symplectic defect found: {best:.6g}"])
    return EXIT_OK


def _hilbert_diagram(data: dict):
    from .quantum import complex_matrix_from_json, complex_vector_from_json, hilbert_cloning_diagram

    return hilbert_cloning_diagram(
        complex_matrix_from_json(data["unitary"]),
        complex_vector_from_json(data["beta"]),
        complex_vector_from_json(data["rho"]) if "rho" in data else None,
    )


def _cmd_diagram_check(args) -> int:
    if args.instance == "symp":
        process = _load(args.input, CloningProcess.from_json)
        inst, diagram = diagram_from_process(process)
        report = check_cloning_diagram(inst, diagram)
    else:
        # numpy's default_rng raises ValueError on a negative seed, and a
        # negative count would silently sample nothing
        for option in ("samples", "seed"):
            if getattr(args, option) < 0:
                raise CliError(f"--{option} must be nonnegative")
        if args.samples > _MAX_HILBERT_SAMPLES:
            raise CliError(
                f"--samples must be at most {_MAX_HILBERT_SAMPLES} (each state is drawn and checked in turn)"
            )
        import numpy as np

        inst, diagram = _load(args.input, _hilbert_diagram)
        states = inst.sample_states(diagram.object_a, count=args.samples,
                                    rng=np.random.default_rng(args.seed))
        report = check_cloning_diagram(inst, diagram, states)
    out = report.to_json()
    lines = [
        f"diagram commutes on {out['checked'] - out['failures']}/{out['checked']} sampled states",
        out["note"],
    ]
    _emit(out, args.format, lines)
    return EXIT_OK if report.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symclone",
        description="Construct, verify, and refute cloning processes for "
        "symplectic vector spaces and finite-dimensional Hilbert spaces.",
    )
    parser.add_argument("--format", choices=["json", "human"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("construct-basic", help="emit the explicit 2-dimensional cloning process")

    p = sub.add_parser("construct-general", help="cloning process for the standard form")
    p.add_argument("--dim", type=int, required=True, help="object phase-space dimension (even)")

    p = sub.add_parser("verify", help="verify a candidate process from a JSON file")
    p.add_argument("--input", required=True)

    p = sub.add_parser("darboux", help="normalize a skew form from a JSON file")
    p.add_argument("--input", required=True)

    p = sub.add_parser("readout-solve", help="solve the readout-form equation")
    p.add_argument("--m", type=int, required=True, help="object pair count (dim M = 2m)")
    p.add_argument("--k", type=int, required=True, help="machine pair count (dim N = 2k)")

    p = sub.add_parser("size-witness", help="kernel witness for an undersized machine")
    p.add_argument("--input", required=True)

    p = sub.add_parser("quantum-refute", help="run the quantum no-cloning contradiction")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--psi-overlap", type=float, default=2 ** -0.5)

    p = sub.add_parser("probe", help="numerical defect search in the infeasible regime")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("diagram-check", help="check a cloning diagram on sampled states")
    p.add_argument("--instance", choices=["symp", "hilb"], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--samples", type=int, default=8, help="extra random states (hilb only)")
    p.add_argument("--seed", type=int, default=0)

    return parser


_HANDLERS = {
    "construct-basic": _cmd_construct_basic,
    "construct-general": _cmd_construct_general,
    "verify": _cmd_verify,
    "darboux": _cmd_darboux,
    "readout-solve": _cmd_readout_solve,
    "size-witness": _cmd_size_witness,
    "quantum-refute": _cmd_quantum_refute,
    "probe": _cmd_probe,
    "diagram-check": _cmd_diagram_check,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (CliError, ValueError) as exc:  # ValueError: every symclone error class
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModuleNotFoundError as exc:
        # the float commands import numpy when they run; without it they
        # cannot run at all, which is not a verified negative
        if exc.name != "numpy":
            raise
        what = "diagram-check --instance hilb" if args.command == "diagram-check" else args.command
        print(f"error: {what} needs numpy, which is not installed", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``symclone ... | head``); point stdout at
        # devnull so the flush at shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed before the report was written", file=sys.stderr)
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()

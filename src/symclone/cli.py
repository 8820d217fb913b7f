"""Command-line surface.

Exit codes: 0 on success/pass, 1 on a verified negative result (a candidate
fails verification, the readout equation is infeasible, a refutation or size
witness is produced), 2 on usage, parse, or shape errors, and when standard
output is closed before the report is written.  ``_load`` is the only reader
of input files: a file that cannot be opened (missing, a directory, a path
through a file), is not UTF-8, is not JSON (nested too deeply, an integer
past Python's digit limit) or is not a valid document (a decimal exponent
past that limit, a Hilbert file that breaks the rules of
``quantum.hilbert_diagram_from_json``) gives one ``error: <path>: ...`` line.
The digit limit holds only while ``_load`` parses, not for reports.
Every error raised here or in symclone is a ``ValueError``, and ``run`` alone
maps them to exit 2.  Reports are deterministic for fixed arguments and seed.

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
from json.encoder import encode_basestring_ascii

from .classical import (
    CloningProcess,
    InfeasibleError,
    basic_cloner,
    general_cloner,
    readout_solver,
    size_witness,
    verify_cloning,
)
from .exact import SkewForm, darboux_basis, is_symplectic_map, standard_form

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# quantum-refute applies the basis cloner as its d^2 x d prepared arrow: 0.12 s
# and 32 MB peak at d = 64, 0.12 s and 30 MB at d = 32, mostly start-up (medians
# of 5 fresh processes, one BLAS thread, 2-vCPU VM); the cap is kept at 64 so
# that no exit code changes
_MAX_REFUTE_DIM = 64
# construct-general emits phi as a dense 3N x 3N JSON grid: 25 MB of JSON and
# about 190 MB resident at N = 400
_MAX_CONSTRUCT_DIM = 400
# readout-solve emits a dense 2k x 2m readout: 160,000 entries at 200
_MAX_READOUT_PAIRS = 200
# probe runs its 8 L-BFGS restarts as one batch on dense (4m + 2k)-square
# float matrices: 94 x 94 at m = 16, k = 15, where each restart's last five
# (step, gradient change) pairs, plus one slot for the next pair, take about
# 7 MB
_MAX_PROBE_PAIRS = 16
# diagram-check --instance hilb draws each sampled state in turn, then checks
# and reads them out in blocks of 256: at 10,000 states and a 256 x 256
# unitary, 0.44 s and 46 MB peak from interpreter start (medians of 5
# processes, one BLAS thread, 2-vCPU VM)
_MAX_HILBERT_SAMPLES = 10_000


def _dumps(doc, indent: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` for documents with string
    keys, byte for byte.  That call runs json's pure-Python encoder; here each
    list of strings (a matrix row, a vector) is quoted and joined in C, and
    every other scalar goes to ``json.dumps``."""
    inner = indent + "  "
    if isinstance(doc, dict):
        brackets = "{}"
        items = [f"{encode_basestring_ascii(k)}: {_dumps(doc[k], inner)}" for k in sorted(doc)]
    elif isinstance(doc, (list, tuple)):
        brackets = "[]"
        try:
            items = list(map(encode_basestring_ascii, doc))
        except TypeError:  # not all strings
            items = [_dumps(x, inner) for x in doc]
    else:
        return json.dumps(doc)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _emit(report: dict, fmt: str, human_lines) -> None:
    if fmt == "json":
        print(_dumps(report))
    else:
        for line in human_lines:
            print(line)


def _cmd_construct_basic(args) -> int:
    process = basic_cloner()
    _emit(process.to_json(), args.format, ["basic cloning process on R^2, machine R^2, phi 6x6"])
    return EXIT_OK


def _cmd_construct_general(args) -> int:
    if args.dim < 0 or args.dim % 2:
        raise ValueError(f"--dim must be even and nonnegative, got {args.dim}")
    if args.dim > _MAX_CONSTRUCT_DIM:
        raise ValueError(
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
    reads input; every way the file fails to be a document becomes a
    ValueError naming the path.  The int digit limit guards the parse alone,
    and is lifted for the report (``run`` restores it)."""
    try:
        with open(path, encoding="utf-8") as fh:  # RFC 8259: JSON is UTF-8
            doc = parse(json.load(fh))
    except OSError as exc:  # missing, a directory, a path through a file
        raise ValueError(f"{path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply")
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: missing or malformed field: {exc}")
    except ValueError as exc:  # the symclone errors, UnicodeDecodeError, int digit limit
        raise ValueError(f"{path}: {exc}")
    sys.set_int_max_str_digits(0)
    return doc


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
        raise ValueError(
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
        raise ValueError(
            f"--dim must be at most {_MAX_REFUTE_DIM} "
            "(the refuter builds the basis cloner's d^2 x d prepared arrow)"
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
        raise ValueError(
            f"--m and --k must be at most {_MAX_PROBE_PAIRS} "
            "(the search runs on dense (4m + 2k)-square matrices)"
        )
    # numpy's default_rng would reject a negative seed without naming the
    # option, and the probe an iteration count below one
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    if args.iters < 1:
        raise ValueError("--iters must be at least 1")
    # imported here, after the option checks: the module needs numpy
    from .probe import clone_residual_probe

    best = clone_residual_probe(args.m, args.k, args.iters, args.seed)
    out = {"best_defect": best, "forced_lower_bound": math.sqrt(2 * (args.m - args.k)),
           "m": args.m, "k": args.k, "iters": args.iters, "seed": args.seed}
    _emit(out, args.format, [f"best symplectic defect found: {best:.6g}"])
    return EXIT_OK


def _cmd_diagram_check(args) -> int:
    # numpy would reject a negative seed without naming the option, and a
    # negative count would sample nothing; both instances check them alike
    for option in ("samples", "seed"):
        if getattr(args, option) < 0:
            raise ValueError(f"--{option} must be nonnegative")
    if args.samples > _MAX_HILBERT_SAMPLES:
        raise ValueError(
            f"--samples must be at most {_MAX_HILBERT_SAMPLES} (each state is drawn in turn)"
        )
    # imported here, not at module level: no other command needs the module
    from .diagrams import check_cloning_diagram, diagram_from_process

    if args.instance == "symp":
        inst, diagram = _load(args.input, lambda doc: diagram_from_process(CloningProcess.from_json(doc)))
    else:
        from .quantum import hilbert_diagram_from_json

        inst, diagram = _load(args.input, hilbert_diagram_from_json)
    states = inst.sample_states(diagram.object_a, count=args.samples, rng=args.seed)
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
    p.add_argument("--samples", type=int, default=8, help="random states after the basis, 0 to 10000 (hilb)")
    p.add_argument("--seed", type=int, default=0, help="nonnegative seed of those states (hilb)")

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
    limit = sys.get_int_max_str_digits()  # _load lifts it
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:  # the usage errors here and every symclone error class
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
    finally:
        sys.set_int_max_str_digits(limit)


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

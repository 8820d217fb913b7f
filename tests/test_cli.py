import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symclone
from symclone import RatMatrix, SkewForm, basic_cloner, mirror_cloner, standard_form, zero_vec
from symclone.cli import (
    _MAX_CONSTRUCT_DIM,
    _MAX_HILBERT_SAMPLES,
    _MAX_PROBE_PAIRS,
    _MAX_READOUT_PAIRS,
    run,
)
from symclone.quantum import basis_cloner
from oracles import complex_matrix_to_json


def run_capture(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(symclone.__file__).resolve().parents[1])}


class TestConstructAndVerify:
    def test_basic_round_trip(self, tmp_path, capsys):
        code, out, _ = run_capture(capsys, "construct-basic")
        assert code == 0
        path = tmp_path / "basic.json"
        path.write_text(out)
        code, out, _ = run_capture(capsys, "verify", "--input", str(path))
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_general_round_trip(self, tmp_path, capsys):
        code, out, _ = run_capture(capsys, "construct-general", "--dim", "6")
        assert code == 0
        path = tmp_path / "general.json"
        path.write_text(out)
        code, out, _ = run_capture(capsys, "verify", "--input", str(path))
        assert code == 0

    def test_odd_dim_is_a_usage_error(self, capsys):
        code, _, err = run_capture(capsys, "construct-general", "--dim", "5")
        assert code == 2
        assert "even" in err

    def test_perturbed_process_fails_with_defect_location(self, tmp_path, capsys):
        _, out, _ = run_capture(capsys, "construct-basic")
        data = json.loads(out)
        data["phi"]["entries"][4][4] = "2"  # was 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_capture(capsys, "verify", "--input", str(path))
        assert code == 1
        assert json.loads(out) == {
            "cloning_residual": "0",
            "first_defect_entry": {"col": 4, "row": 1, "value": "1"},
            "inferred_readout": {"cols": 2, "entries": [["1", "0"], ["0", "-1"]], "rows": 2},
            "reason": "map is not symplectic for the product form",
            "symplectic_defect_norm": "2",
            "verdict": "fail",
        }

    def test_passing_report_has_no_defect_entry(self, tmp_path, capsys):
        _, out, _ = run_capture(capsys, "construct-basic")
        path = tmp_path / "basic.json"
        path.write_text(out)
        _, out, _ = run_capture(capsys, "verify", "--input", str(path))
        assert "first_defect_entry" not in json.loads(out)


class TestDarboux:
    def test_standard_pullback_reported(self, tmp_path, capsys):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(standard_form(2).to_json()))
        code, out, _ = run_capture(capsys, "darboux", "--input", str(path))
        assert code == 0
        assert json.loads(out)["pullback_standard"] is True

    def test_degenerate_form_is_an_input_error(self, tmp_path, capsys):
        data = standard_form(1).to_json()
        data["entries"] = [["0", "0"], ["0", "0"]]
        path = tmp_path / "bad_form.json"
        path.write_text(json.dumps(data))
        code, _, err = run_capture(capsys, "darboux", "--input", str(path))
        assert code == 2
        assert "singular" in err or "degenerate" in err.lower()


class TestReadoutSolve:
    def test_feasible_exits_zero(self, capsys):
        code, out, _ = run_capture(capsys, "readout-solve", "--m", "2", "--k", "2")
        assert code == 0
        assert json.loads(out)["infeasible"] is False

    def test_machineless_case_reproduces_the_impossibility(self, capsys):
        code, out, _ = run_capture(capsys, "readout-solve", "--m", "1", "--k", "0")
        assert code == 1
        report = json.loads(out)
        assert report["infeasible"] is True
        assert report["reason"] == "rank"

    def test_negative_dimension_is_a_usage_error(self, capsys):
        code, out, err = run_capture(capsys, "readout-solve", "--m", "-1", "--k", "0")
        assert code == 2
        assert out == ""
        assert err == "error: dimensions must be nonnegative\n"


class TestSizeWitness:
    def _write_undersized(self, tmp_path):
        from symclone import CloningProcess

        cand = CloningProcess(
            object_form=standard_form(1),
            blank=zero_vec(2),
            machine_form=standard_form(0),
            ready=(),
            phi=RatMatrix.identity(4),
            readout=RatMatrix.zeros(0, 2),
        )
        path = tmp_path / "undersized.json"
        path.write_text(json.dumps(cand.to_json()))
        return path

    def test_witness_refutes_the_candidate(self, tmp_path, capsys):
        path = self._write_undersized(tmp_path)
        code, out, _ = run_capture(capsys, "size-witness", "--input", str(path))
        assert code == 1
        witness = json.loads(out)
        assert any(x != "0" for x in witness["vector"])
        assert witness["pullback_row"] == ["0", "0"]  # one entry per object coordinate

    def test_verify_gives_a_verdict_for_a_zero_dimensional_machine(self, tmp_path, capsys):
        path = self._write_undersized(tmp_path)
        code, out, err = run_capture(capsys, "verify", "--input", str(path))
        assert (code, err) == (1, "")
        assert json.loads(out)["verdict"] == "fail"

    def test_big_enough_machine_is_not_applicable(self, tmp_path, capsys):
        _, out, _ = run_capture(capsys, "construct-basic")
        path = tmp_path / "ok.json"
        path.write_text(out)
        code, _, err = run_capture(capsys, "size-witness", "--input", str(path))
        assert code == 2


class TestQuantumRefute:
    def test_refutation_exits_one(self, capsys):
        code, out, _ = run_capture(capsys, "quantum-refute", "--dim", "2")
        assert code == 1
        report = json.loads(out)
        assert report["cauchy_schwarz_excess"] == pytest.approx(2**0.5 - 1, abs=1e-9)

    def test_dimension_one_is_a_usage_error(self, capsys):
        code, _, err = run_capture(capsys, "quantum-refute", "--dim", "1")
        assert code == 2
        assert "no valid state pair" in err

    def test_dimension_zero_is_a_usage_error(self, capsys):
        code, out, err = run_capture(capsys, "quantum-refute", "--dim", "0")
        assert code == 2
        assert out == ""
        assert err == "error: d must be >= 1\n"

    def test_dimension_above_the_cap_is_a_usage_error(self, capsys):
        # the d^2 x d^2 unitary is never built: the size check comes first
        code, out, err = run_capture(capsys, "quantum-refute", "--dim", "100000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at most 64" in err


class TestProbe:
    def test_probe_reports_bound(self, capsys):
        code, out, _ = run_capture(
            capsys, "probe", "--m", "1", "--k", "0", "--iters", "200", "--seed", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["best_defect"] >= report["forced_lower_bound"] - 1e-6

    def test_feasible_regime_is_a_usage_error(self, capsys):
        code, _, _ = run_capture(capsys, "probe", "--m", "1", "--k", "1")
        assert code == 2

    @pytest.mark.parametrize("m", ["1", "3"])
    def test_negative_machine_size_is_a_usage_error(self, capsys, m):
        code, out, err = run_capture(capsys, "probe", "--m", m, "--k", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: dimensions must be nonnegative\n"


class TestInputCaps:
    """Sizes above a cap exit 2 with one line; nothing is allocated, since
    every check runs before the command builds anything."""

    @pytest.mark.parametrize(
        "argv, cap",
        [
            (["construct-general", "--dim", str(_MAX_CONSTRUCT_DIM + 2)], _MAX_CONSTRUCT_DIM),
            (["construct-general", "--dim", str(10**12)], _MAX_CONSTRUCT_DIM),
            (["readout-solve", "--m", str(_MAX_READOUT_PAIRS + 1), "--k", "0"], _MAX_READOUT_PAIRS),
            (["readout-solve", "--m", "0", "--k", str(_MAX_READOUT_PAIRS + 1)], _MAX_READOUT_PAIRS),
            (["readout-solve", "--m", str(10**12), "--k", str(10**12)], _MAX_READOUT_PAIRS),
            (["probe", "--m", str(_MAX_PROBE_PAIRS + 1), "--k", "0"], _MAX_PROBE_PAIRS),
            (["probe", "--m", "1", "--k", str(_MAX_PROBE_PAIRS + 1)], _MAX_PROBE_PAIRS),
            (["probe", "--m", str(10**12), "--k", "1"], _MAX_PROBE_PAIRS),
            # the cap is checked before the input is read, so no file is needed
            (["diagram-check", "--instance", "hilb", "--input", "unread.json",
              "--samples", str(_MAX_HILBERT_SAMPLES + 1)], _MAX_HILBERT_SAMPLES),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_size_above_the_cap_is_a_usage_error(self, capsys, argv, cap):
        code, out, err = run_capture(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"at most {cap} " in err


class TestDiagramCheck:
    def test_symplectic_pass(self, tmp_path, capsys):
        _, out, _ = run_capture(capsys, "construct-basic")
        path = tmp_path / "proc.json"
        path.write_text(out)
        code, out, _ = run_capture(
            capsys, "diagram-check", "--instance", "symp", "--input", str(path)
        )
        assert code == 0
        assert json.loads(out)["exhaustive"] is True

    def test_hilbert_cloner_candidate_fails(self, tmp_path, capsys):
        payload = {
            "unitary": complex_matrix_to_json(basis_cloner(2)),
            "beta": [[1.0, 0.0], [0.0, 0.0]],
        }
        path = tmp_path / "hilb.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_capture(
            capsys, "diagram-check", "--instance", "hilb", "--input", str(path)
        )
        assert code == 1
        report = json.loads(out)
        assert report["failures"] > 0
        assert report["exhaustive"] is False

    @pytest.mark.parametrize("fault", ["missing unitary", "ragged entries", "wrong size"])
    def test_malformed_hilbert_input_is_a_parse_error(self, tmp_path, capsys, fault):
        payload = {
            "unitary": complex_matrix_to_json(basis_cloner(2)),
            "beta": [[1.0, 0.0], [0.0, 0.0]],
        }
        if fault == "missing unitary":
            del payload["unitary"]
        elif fault == "ragged entries":
            payload["unitary"]["entries"][1] = payload["unitary"]["entries"][1][:2]
        else:
            payload["unitary"] = complex_matrix_to_json(basis_cloner(3))
        path = tmp_path / "hilb.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_capture(
            capsys, "diagram-check", "--instance", "hilb", "--input", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1  # no traceback

    @pytest.mark.parametrize("key, value", [("rows", 4.0), ("cols", 4.0), ("rows", True), ("cols", False)])
    def test_non_integer_hilbert_size_header_is_a_parse_error(self, tmp_path, capsys, key, value):
        # 4 == 4.0, so a float header used to pass and the check ran (exit 1)
        payload = {
            "unitary": complex_matrix_to_json(basis_cloner(2)),
            "beta": [[1.0, 0.0], [0.0, 0.0]],
        }
        payload["unitary"][key] = value
        path = tmp_path / "hilb.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_capture(
            capsys, "diagram-check", "--instance", "hilb", "--input", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a JSON integer" in err


    @pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--samples", "-3")])
    def test_negative_sampling_option_is_a_usage_error(self, tmp_path, capsys, option, value):
        # numpy rejected the seed with a traceback and exit 1; a negative
        # count sampled no random states and exited 0
        payload = {
            "unitary": complex_matrix_to_json(basis_cloner(2)),
            "beta": [[1.0, 0.0], [0.0, 0.0]],
        }
        path = tmp_path / "hilb.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_capture(
            capsys, "diagram-check", "--instance", "hilb", "--input", str(path), option, value
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {option} must be nonnegative\n"


class TestContract:
    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_capture(capsys, "verify", "--input", str(path))
        assert code == 2
        assert str(path) in err
        assert "line" in err

    def test_missing_file(self, capsys):
        code, _, err = run_capture(capsys, "verify", "--input", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize(
        "fault", ["directory", "path through a file", "not UTF-8", "nested 100,000 deep", "5,000-digit integer"]
    )
    def test_unreadable_input_names_the_file(self, tmp_path, capsys, fault):
        path = tmp_path / "in.json"
        if fault == "directory":
            path.mkdir()
        elif fault == "path through a file":
            path.write_text("{}")
            path = path / "y"
        elif fault == "not UTF-8":
            path.write_bytes(b'{"rows": "\xff"}')
        elif fault == "nested 100,000 deep":
            path.write_text("[" * 100_000 + "]" * 100_000)
        else:  # past Python's 4,300-digit limit on int parsing
            path.write_text('{"rows": ' + "1" * 5000 + "}")
        code, out, err = run_capture(capsys, "verify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "darboux"])
    def test_zero_denominator_is_a_parse_error(self, tmp_path, capsys, command):
        data = basic_cloner().to_json() if command == "verify" else standard_form(1).to_json()
        entries = data["phi"]["entries"] if command == "verify" else data["entries"]
        entries[0][1] = "1/0"
        path = tmp_path / "div0.json"
        path.write_text(json.dumps(data))
        code, out, err = run_capture(capsys, command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_json_boolean_entry_is_a_parse_error(self, tmp_path, capsys):
        data = basic_cloner().to_json()
        data["blank"] = [True, False]
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(data))
        code, out, err = run_capture(capsys, "verify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "bool" in err

    @pytest.mark.parametrize("fault", ["string row", "object row", "string vector"])
    def test_non_list_json_is_a_parse_error(self, tmp_path, capsys, fault):
        # a JSON string or object iterates like a row; each of these used to
        # verify as a pass
        data = basic_cloner().to_json()
        if fault == "string row":
            assert "".join(data["phi"]["entries"][0]) == "101000"
            data["phi"]["entries"][0] = "101000"
        elif fault == "object row":
            assert data["readout"]["entries"][0] == ["1", "0"]
            data["readout"]["entries"][0] = {"1": 0, "0": 1}
        else:
            data["blank"] = "00"
        path = tmp_path / "nonlist.json"
        path.write_text(json.dumps(data))
        code, out, err = run_capture(capsys, "verify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "fault", ["phi rows 6.0", "object dim 2.0", "readout cols 2.0", "empty phi cols false"]
    )
    def test_non_integer_size_header_is_a_parse_error(self, tmp_path, capsys, fault):
        # 6 == 6.0 and 0 == False, so each of these used to verify as a pass
        if fault == "empty phi cols false":
            _, out, _ = run_capture(capsys, "construct-general", "--dim", "0")
            data = json.loads(out)
            assert data["phi"] == {"rows": 0, "cols": 0, "entries": []}
            data["phi"]["cols"] = False
        else:
            data = basic_cloner().to_json()
            field, key, value = {
                "phi rows 6.0": ("phi", "rows", 6.0),
                "object dim 2.0": ("object_form", "dim", 2.0),
                "readout cols 2.0": ("readout", "cols", 2.0),
            }[fault]
            data[field][key] = value
        path = tmp_path / "header.json"
        path.write_text(json.dumps(data))
        code, out, err = run_capture(capsys, "verify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a JSON integer" in err

    def test_closed_stdout_exits_two_without_traceback(self):
        # the dim-100 report is 1.5 MB, far more than a pipe buffers, so the
        # write fails whether or not the child started writing before the close
        p = subprocess.Popen(
            [sys.executable, "-m", "symclone.cli", "construct-general", "--dim", "100"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SRC_ENV,
        )
        p.stdout.close()
        err = p.stderr.read().decode()
        p.stderr.close()
        assert p.wait(timeout=120) == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_capture(capsys, "frobnicate")
        assert code == 2

    def test_reports_are_deterministic(self, capsys):
        args = ["probe", "--m", "2", "--k", "1", "--iters", "300", "--seed", "42"]
        _, out1, _ = run_capture(capsys, *args)
        _, out2, _ = run_capture(capsys, *args)
        assert out1 == out2
        _, q1, _ = run_capture(capsys, "quantum-refute", "--dim", "3")
        _, q2, _ = run_capture(capsys, "quantum-refute", "--dim", "3")
        assert q1 == q2

    def test_human_format(self, capsys):
        code, out, _ = run_capture(capsys, "--format", "human", "readout-solve", "--m", "1", "--k", "2")
        assert code == 0
        assert "readout map found" in out


# Runs exact commands through cli.run in an interpreter where importing numpy
# fails, and prints their exit codes; the commands' own output is discarded.
_NUMPY_FREE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from symclone.cli import run
codes = {}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = run(argv)
print(json.dumps(codes))
"""


class TestNumpyFree:
    def test_exact_commands_run_without_numpy(self, tmp_path):
        basic = basic_cloner().to_json()
        perturbed = basic_cloner().to_json()
        perturbed["phi"]["entries"][4][4] = "2"
        undersized = {
            **basic,
            "machine_form": standard_form(0).to_json(),
            "ready": [],
            "phi": RatMatrix.identity(4).to_json(),
            "readout": RatMatrix.zeros(0, 2).to_json(),
        }
        files = {}
        for name, data in [("basic", basic), ("perturbed", perturbed),
                           ("undersized", undersized), ("form", standard_form(2).to_json())]:
            files[name] = str(tmp_path / f"{name}.json")
            Path(files[name]).write_text(json.dumps(data))
        commands = {
            "construct-basic": (["construct-basic"], 0),
            "construct-general": (["construct-general", "--dim", "6"], 0),
            "verify pass": (["verify", "--input", files["basic"]], 0),
            "verify fail": (["verify", "--input", files["perturbed"]], 1),
            "darboux": (["darboux", "--input", files["form"]], 0),
            "readout-solve feasible": (["readout-solve", "--m", "1", "--k", "1"], 0),
            "readout-solve infeasible": (["readout-solve", "--m", "2", "--k", "1"], 1),
            "size-witness": (["size-witness", "--input", files["undersized"]], 1),
            "diagram-check symp": (["diagram-check", "--instance", "symp", "--input", files["basic"]], 0),
        }
        argv = json.dumps([[name, args] for name, (args, _) in commands.items()])
        out = subprocess.run([sys.executable, "-c", _NUMPY_FREE, argv], env=SRC_ENV,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {name: code for name, (_, code) in commands.items()}

    def test_float_commands_exit_two_without_numpy(self, tmp_path):
        hilb = tmp_path / "hilb.json"
        hilb.write_text(json.dumps({
            "unitary": complex_matrix_to_json(basis_cloner(2)),
            "beta": [[1.0, 0.0], [0.0, 0.0]],
        }))
        script = 'import sys; sys.modules["numpy"] = None; from symclone.cli import main; main()'
        for argv in (["probe", "--m", "2", "--k", "1"],
                     ["quantum-refute", "--dim", "3"],
                     ["diagram-check", "--instance", "hilb", "--input", str(hilb)]):
            out = subprocess.run([sys.executable, "-c", script, *argv], env=SRC_ENV,
                                 capture_output=True, text=True, timeout=120)
            assert out.returncode == 2, (argv, out.stderr)
            assert out.stdout == ""
            assert "Traceback" not in out.stderr
            assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
            assert "needs numpy" in out.stderr

    def test_import_loads_no_numpy(self):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import symclone.cli"],
                             env=SRC_ENV, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "symclone.cli" in out.stderr
        assert [line for line in out.stderr.splitlines() if "numpy" in line] == []


def _leaf_paths(doc, path=()):
    """Paths to every value inside a JSON document, containers included."""
    out = [path] if path else []
    if isinstance(doc, dict):
        for k, v in doc.items():
            out += _leaf_paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            out += _leaf_paths(v, path + (i,))
    return out


def _matrix_paths(doc, path=()):
    """Paths to every matrix (a dict with rows, cols and entries) in a document."""
    if not isinstance(doc, dict):
        return []
    out = [path] if {"rows", "cols", "entries"} <= doc.keys() else []
    for k, v in doc.items():
        out += _matrix_paths(v, path + (k,))
    return out


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _non_finite(doc) -> bool:
    """Whether some number in the document is a NaN or an infinity."""
    leaves = (_at(doc, p) for p in _leaf_paths(doc))
    return any(isinstance(v, float) and not math.isfinite(v) for v in leaves)


def _non_integer_header(doc) -> bool:
    """Whether some matrix in the document has a size header that is not a
    JSON integer (a float or a boolean equal to the true size included)."""
    matrices = [_at(doc, p) for p in _matrix_paths(doc)]
    return any(type(m[k]) is not int for m in matrices for k in ("rows", "cols", "dim") if k in m)


# Replacement values: bad fractions, wrong types, and sizes that are
# negative, non-integer or far too large.
_BAD_VALUES = st.one_of(
    st.sampled_from(["1/0", "x", "", " ", "1/2/3", "--1", "0x10", "nan", "inf", "1.5", "-0", "7/3"]),
    st.sampled_from([None, True, False, 1.5, 2.0, float("nan"), float("inf"), {}, [], [[]], [["1"]], {"rows": 1}, "2"]),
    st.sampled_from([-1, 0, 1, 3, 5, 10**9, 10**30, -(10**9)]),
)


def _fuzz_documents() -> dict:
    """Valid inputs, each with the commands that read it."""
    scaled = SkewForm(RatMatrix([[0, 2, 0, 0], [-2, 0, 0, "1/3"], [0, 0, 0, 1], [0, "-1/3", -1, 0]]))
    undersized = {
        **basic_cloner().to_json(),
        "machine_form": standard_form(0).to_json(),
        "ready": [],
        "phi": RatMatrix.identity(4).to_json(),
        "readout": RatMatrix.zeros(0, 2).to_json(),
    }
    process = [["verify"], ["size-witness"], ["diagram-check", "--instance", "symp"]]
    return {
        "basic": (basic_cloner().to_json(), process),
        "mirror": (mirror_cloner(scaled).to_json(), process),
        "undersized": (undersized, process),
        "form": (scaled.to_json(), [["darboux"]]),
        "hilbert": ({"unitary": complex_matrix_to_json(basis_cloner(2)), "beta": [[1.0, 0.0], [0.0, 0.0]]},
                    [["diagram-check", "--instance", "hilb", "--samples", "2"]]),
    }


def _mutate(doc, data) -> None:
    """Apply one mutation, drawn by ``data``, to ``doc`` in place."""
    kind = data.draw(st.sampled_from(["replace", "delete", "append", "odd", "size"]))
    matrices = _matrix_paths(doc)
    if kind in ("odd", "size") and matrices:
        m = _at(doc, data.draw(st.sampled_from(matrices)))
        entries = m["entries"]
        if kind == "odd" and isinstance(entries, list) and all(isinstance(r, list) for r in entries):
            # drop the last row and column, keeping the headers true
            m["entries"] = [row[:-1] for row in entries[:-1]]
            m["rows"] = len(m["entries"])
            m["cols"] = len(m["entries"][0]) if m["entries"] else 0
            if "dim" in m:
                m["dim"] = m["rows"]
        else:  # a mismatched, non-integer or oversized header
            key = data.draw(st.sampled_from([k for k in ("rows", "cols", "dim") if k in m]))
            value, options = m[key], [10**9, 10**30, 2.0, True]
            if type(value) is int:
                options += [value + 1, value - 1, float(value)]
            m[key] = data.draw(st.sampled_from(options))
        return
    paths = _leaf_paths(doc)
    if not paths:  # every field deleted already
        return
    path = data.draw(st.sampled_from(paths))
    parent, key = _at(doc, path[:-1]), path[-1]
    if kind == "delete":  # a missing field, or a ragged row or vector
        del parent[key]
    elif kind == "append" and isinstance(parent[key], list):
        parent[key].append(data.draw(st.sampled_from(["0", "1/2", 0])))
    else:
        # a copy: a later "append" must not grow the strategy's own list
        parent[key] = copy.deepcopy(data.draw(_BAD_VALUES))


class TestMutatedInput:
    """Every mutation of a valid input ends in exit 0, 1 or 2: no exception
    escapes ``cli.run``, whatever the parser meets, and a size header that is
    not a JSON integer or a number that is not finite always exits 2."""

    DOCUMENTS = _fuzz_documents()

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_documents_exit_cleanly(self, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(self.DOCUMENTS)))
        doc, commands = self.DOCUMENTS[name]
        doc = copy.deepcopy(doc)
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(doc, data)
        path = tmp_path_factory.mktemp("fuzz") / f"{name}.json"
        path.write_text(json.dumps(doc))
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([*argv, "--input", str(path)])
            assert code in (0, 1, 2), (argv, doc)
            if _non_integer_header(doc) or _non_finite(doc):
                assert code == 2, (argv, doc)
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

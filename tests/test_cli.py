import ast
import contextlib
import copy
import errno
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symclone
from symclone import (
    RatMatrix,
    SkewForm,
    basic_cloner,
    general_cloner,
    mirror_cloner,
    standard_form,
    zero_vec,
)
from symclone.cli import (
    _HANDLERS,
    _dumps,
    _MAX_CONSTRUCT_DIM,
    _MAX_HILBERT_SAMPLES,
    _MAX_PROBE_PAIRS,
    _MAX_READOUT_PAIRS,
    run,
)
from symclone.quantum import basis_cloner
from conftest import random_skew_form
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

    @pytest.mark.parametrize("overlap, shown", [("1e-10", "1e-10"), ("0.99999999999", "1")])
    def test_an_overlap_within_the_tolerance_of_an_end_is_refused_with_the_band(self, capsys, overlap, shown):
        code, out, err = run_capture(capsys, "quantum-refute", "--dim", "2", "--psi-overlap", overlap)
        assert (code, out) == (2, "")
        assert err == f"error: |<psi, psi2>| = {shown}; the argument needs 1e-09 < |overlap| < 1 - 1e-09\n"

    def test_dimension_above_the_cap_is_a_usage_error(self, capsys):
        # the d^2 x d^2 unitary is never built: the size check comes first
        code, out, err = run_capture(capsys, "quantum-refute", "--dim", "100000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at most 64" in err


_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())["runs"]


def _perturbed_standard3() -> dict:
    doc = general_cloner(standard_form(3)).to_json()
    doc["phi"]["entries"][0][0] = "2"
    return doc


def _shift3_k4() -> dict:
    # |i, j, k> -> |i, i + j mod 3, k + i mod 4> on C^3 x C^3 x C^4, ready
    # state 0.6|0> + 0.8|1>: it clones the basis into shifted machine states
    u = np.zeros((36, 36), dtype=complex)
    for i in range(3):
        for j in range(3):
            for k in range(4):
                u[(i * 3 + (i + j) % 3) * 4 + (k + i) % 4, (i * 3 + j) * 4 + k] = 1.0
    beta, rho = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0], [0.0, 0.0]]
    return {"unitary": complex_matrix_to_json(u), "beta": beta, "rho": rho}


# the input files the golden runs name, each built only by the runs that name it
_GOLDEN_FILES = {
    "CNOT": lambda: {"unitary": complex_matrix_to_json(basis_cloner(2)), "beta": [[1.0, 0.0], [0.0, 0.0]]},
    "SHIFT3_K4": _shift3_k4,
    "BASIC": lambda: basic_cloner().to_json(),
    "STANDARD3_PERTURBED": _perturbed_standard3,
}


@pytest.mark.parametrize("golden", _GOLDEN, ids=[" ".join(g["argv"]) for g in _GOLDEN])
def test_float_commands_print_the_recorded_bytes(tmp_path, capsys, golden):
    # every byte of each report is pinned, every digit of the float ones too
    argv = []
    for a in golden["argv"]:
        if a in _GOLDEN_FILES:
            (tmp_path / a).write_text(json.dumps(_GOLDEN_FILES[a]()))
            a = str(tmp_path / a)
        argv.append(a)
    code, out, err = run_capture(capsys, *argv)
    assert (code, out, err) == (golden["code"], golden["stdout"], "")


class TestProbe:
    def test_probe_reports_bound(self, capsys):
        code, out, _ = run_capture(
            capsys, "probe", "--m", "1", "--k", "0", "--iters", "200", "--seed", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["best_defect"] >= report["forced_lower_bound"] - 1e-6

    @pytest.mark.parametrize("m, k", [(2, 1), (3, 1)])
    def test_probe_reports_the_rank_bound_with_a_machine(self, capsys, m, k):
        code, out, _ = run_capture(
            capsys, "probe", "--m", str(m), "--k", str(k), "--iters", "300", "--seed", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["forced_lower_bound"] == math.sqrt(2 * (m - k))
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

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--seed", "-1", "--seed must be nonnegative"),
            ("--iters", "0", "--iters must be at least 1"),
            ("--iters", "-5", "--iters must be at least 1"),
        ],
    )
    def test_negative_seed_or_no_iterations_is_a_usage_error(self, capsys, option, value, message):
        # the seed reached numpy, which named no option; the count reached
        # the probe, which said "iterations"
        code, out, err = run_capture(capsys, "probe", "--m", "2", "--k", "1", option, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


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
            (["diagram-check", "--instance", "symp", "--input", "unread.json",
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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # each used to exit 2 with Python's unpacking text
            ("beta", "ab", "a vector must be a JSON list"),
            ("beta", {"a": 1}, "a vector must be a JSON list"),
            ("rho", "a", "a vector must be a JSON list"),
            ("beta", [[1, 0, 0], [0, 0]], "an amplitude must be an [re, im] pair"),
            ("beta", [[1, 0], "ab"], "an amplitude must be an [re, im] pair"),
            ("beta", [1, 0], "an amplitude must be an [re, im] pair"),
            ("entries", "ab", "matrix entries must be a JSON list of lists"),
            ("entries", ["ab"], "matrix entries must be a JSON list of lists"),
            ("entries", [[[1]]], "an amplitude must be an [re, im] pair"),
            # each used to exit 2 with Python's indexing text
            ("unitary", [1], "unitary must be a JSON object"),
            ("unitary", "x", "unitary must be a JSON object"),
        ],
    )
    def test_a_malformed_hilbert_vector_or_amplitude_names_the_rule(self, tmp_path, capsys, field, value, message):
        payload = {
            "unitary": complex_matrix_to_json(basis_cloner(2)),
            "beta": [[1.0, 0.0], [0.0, 0.0]],
        }
        if field == "entries":
            payload["unitary"]["entries"] = value
        else:
            payload[field] = value
        path = tmp_path / "hilb.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_capture(
            capsys, "diagram-check", "--instance", "hilb", "--input", str(path)
        )
        assert (code, out) == (2, "")
        assert err == f"error: {path}: missing or malformed field: {message}\n"

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


    @pytest.mark.parametrize(
        "field, value, message",
        [
            # 1e308 squared overflows: the check used to print numpy's
            # RuntimeWarning and a verdict computed on inf (exit 1)
            ("unitary", 1e308, "unitary is not an isometry at the module tolerance"),
            ("unitary", 2.0, "unitary is not an isometry at the module tolerance"),
            ("beta", 1e308, "beta must be a unit vector (norm inf)"),
            ("beta", 0.5, "beta must be a unit vector (norm 0.5)"),
            ("rho", 3.0, "rho must be a unit vector (norm 3)"),
        ],
    )
    def test_non_unitary_or_non_unit_input_is_a_parse_error(self, tmp_path, capsys, field, value, message):
        payload = {
            "unitary": complex_matrix_to_json(basis_cloner(2)),
            "beta": [[1.0, 0.0], [0.0, 0.0]],
            "rho": [[1.0, 0.0]],
        }
        entries = payload[field]["entries"] if field == "unitary" else payload[field]
        entries[0][0] = [value, 0.0] if field == "unitary" else value
        path = tmp_path / "hilb.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_capture(
            capsys, "diagram-check", "--instance", "hilb", "--input", str(path)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"

    def test_empty_object_space_is_a_parse_error(self, tmp_path, capsys):
        # C^0 holds no unit vector; the check used to pass vacuously (exit 0)
        path = tmp_path / "hilb.json"
        path.write_text(json.dumps({"unitary": {"rows": 0, "cols": 0, "entries": []}, "beta": []}))
        code, out, err = run_capture(
            capsys, "diagram-check", "--instance", "hilb", "--input", str(path)
        )
        assert (code, out) == (2, "")
        assert err == f"error: {path}: beta must be a unit vector (norm 0)\n"

    @pytest.mark.parametrize(
        "instance, option, value",
        [("hilb", "--seed", "-1"), ("hilb", "--samples", "-3"),
         ("symp", "--seed", "-1"), ("symp", "--samples", "-3")],
        ids=["--seed--1", "--samples--3", "symp --seed -1", "symp --samples -3"],
    )
    def test_negative_sampling_option_is_a_usage_error(self, tmp_path, capsys, instance, option, value):
        # numpy rejected the seed with a traceback and exit 1; a negative
        # count sampled no random states and exited 0; symp took both and
        # gave its verdict
        payload = {
            "unitary": complex_matrix_to_json(basis_cloner(2)),
            "beta": [[1.0, 0.0], [0.0, 0.0]],
        } if instance == "hilb" else basic_cloner().to_json()
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_capture(
            capsys, "diagram-check", "--instance", instance, "--input", str(path), option, value
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
        "fault", ["directory", "path through a file", "not UTF-8", "nested 100,000 deep", "5,000-digit integer",
                  "exponent past the digit limit"]
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
        elif fault == "5,000-digit integer":  # past Python's 4,300-digit limit on int parsing
            path.write_text('{"rows": ' + "1" * 5000 + "}")
        else:  # Fraction(str) takes 11 s on it, on a 2-vCPU VM
            data = basic_cloner().to_json()
            data["phi"]["entries"][0][1] = "1e10000000"
            path.write_text(json.dumps(data))
        code, out, err = run_capture(capsys, "verify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["phi", "blank"])
    def test_an_underscore_in_an_entry_is_refused_on_every_python(self, tmp_path, capsys, where):
        # Fraction reads "0_0" as 0 from Python 3.11 on; 3.10 refuses it, and so does symclone
        _, out, _ = run_capture(capsys, "construct-basic")
        data = json.loads(out)
        if where == "phi":
            data["phi"]["entries"][0][1] = "0_0"
        else:
            data["blank"][0] = "0_0"
        path = tmp_path / "underscore.json"
        path.write_text(json.dumps(data))
        code, out, err = run_capture(capsys, "verify", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: Invalid literal for Fraction: '0_0'\n"

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

    @pytest.mark.parametrize(
        "command, field, value, message",
        [
            # each used to exit 2 with Python's indexing text
            ("verify", "phi", [1], "phi must be a JSON object"),
            ("verify", "readout", [], "readout must be a JSON object"),
            ("verify", "object_form", "x", "object_form must be a JSON object"),
            ("diagram-check --instance symp", "machine_form", 5, "machine_form must be a JSON object"),
            ("verify", None, [1], "a process document must be a JSON object"),
            ("darboux", None, "x", "form must be a JSON object"),
            ("diagram-check --instance hilb", None, [1], "a Hilbert diagram document must be a JSON object"),
        ],
    )
    def test_a_field_or_document_that_is_no_json_object_names_the_rule(self, tmp_path, capsys, command, field, value, message):
        data = basic_cloner().to_json()
        if field is None:
            data = value
        else:
            data[field] = value
        path = tmp_path / "field.json"
        path.write_text(json.dumps(data))
        code, out, err = run_capture(capsys, *command.split(), "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: missing or malformed field: {message}\n"

    @pytest.mark.parametrize("head", [None, 10], ids=["closed at once", "head -c 10"])
    def test_closed_stdout_exits_two_without_traceback(self, head):
        # the dim-100 report is 1.5 MB, far more than a pipe buffers, so the
        # write fails whether or not the child started writing before the close
        p = subprocess.Popen(
            [sys.executable, "-m", "symclone.cli", "construct-general", "--dim", "100"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SRC_ENV,
        )
        if head is not None:  # ``symclone construct-general --dim 100 | head -c 10``
            read = subprocess.run(["head", "-c", str(head)], stdin=p.stdout, capture_output=True, timeout=120)
            assert read.stdout == b'{\n  "blank'
        p.stdout.close()
        err = p.stderr.read().decode()
        p.stderr.close()
        assert p.wait(timeout=120) == 2
        assert err == "error: standard output closed before the report was written\n"

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

    @pytest.mark.parametrize(
        "argv, code, prose",
        [
            (["construct-basic"], 0, ["basic cloning process on R^2, machine R^2, phi 6x6"]),
            (["construct-general", "--dim", "6"], 0,
             ["cloning process on the standard 6-dimensional space, machine dim 6"]),
            (["verify", "--input", "basic"], 0, ["verdict: pass"]),
            (["verify", "--input", "perturbed"], 1,
             ["verdict: fail", "reason: first copy wrong on basis state 0",
              "symplectic defect (max abs): 1", "cloning residual (max abs): 1"]),
            (["darboux", "--input", "form"], 0,
             ["normalizing basis computed; exact standard pullback: True"]),
            (["readout-solve", "--m", "2", "--k", "1"], 1,
             ["infeasible: infeasible (rank): F maps a 2m=4 dimensional space into 2k=2 "
              "dimensions; a nondegenerate pullback needs an injective F"]),
            (["size-witness", "--input", "undersized"], 1,
             ["machine too small: readout kernel vector (0, 0, 1, 0, 0, 0)",
              "object form pairs it with a partner to -1 != 0, "
              "but the machine-form pullback vanishes on it"]),
            (["quantum-refute", "--dim", "3"], 1,
             ["cloning both states would force machine overlap 1.41421",
              "Cauchy-Schwarz excess: 0.414214", "distance to nearest exact clone: 0.765367"]),
            (["probe", "--m", "1", "--k", "0", "--iters", "100"], 0,
             ["best symplectic defect found: 1.41421"]),
            (["diagram-check", "--instance", "symp", "--input", "basic"], 0,
             ["diagram commutes on 3/3 sampled states",
              "sample decides the condition (affine arrows, basis plus zero)"]),
            (["diagram-check", "--instance", "hilb", "--input", "hilb"], 1,
             ["diagram commutes on 2/10 sampled states",
              "sample is evidence only; the condition quantifies over all unit vectors"]),
        ],
        ids=["construct-basic", "construct-general", "verify pass", "verify fail", "darboux",
             "readout-solve", "size-witness", "quantum-refute", "probe", "diagram-check symp",
             "diagram-check hilb"],
    )
    def test_human_format_of_every_command(self, tmp_path, capsys, argv, code, prose):
        perturbed = basic_cloner().to_json()
        perturbed["phi"]["entries"][0][0] = "2"
        documents = {
            "basic": basic_cloner().to_json(),
            "perturbed": perturbed,
            "form": random_skew_form(6, random.Random(6)).to_json(),
            "undersized": symclone.defect_floor(3, 1)[0].to_json(),
            "hilb": {"unitary": complex_matrix_to_json(basis_cloner(2)), "beta": [[1.0, 0.0], [0.0, 0.0]]},
        }
        if "--input" in argv:
            i = argv.index("--input") + 1
            path = tmp_path / f"{argv[i]}.json"
            path.write_text(json.dumps(documents[argv[i]]))
            argv = argv[:i] + [str(path)] + argv[i + 1 :]
        assert run_capture(capsys, "--format", "human", *argv) == (code, "".join(f"{x}\n" for x in prose), "")

    def test_verified_negative_with_long_integers_exits_one(self, tmp_path, capsys):
        # 4,000 digits parse under the 4,300-digit limit, but the defect and
        # residual they give are longer; the report used to hit the limit
        # when written (exit 2, with a message naming no file)
        data = basic_cloner().to_json()
        data["phi"]["entries"][0][1] = data["phi"]["entries"][1][0] = "7" * 4000
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        limit = sys.get_int_max_str_digits()
        code, out, err = run_capture(capsys, "verify", "--input", str(path))
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["verdict"] == "fail" and len(report["symplectic_defect_norm"]) > limit
        code, out, err = run_capture(capsys, "--format", "human", "verify", "--input", str(path))
        assert (code, err) == (1, "")
        assert out.startswith("verdict: fail\n")
        assert sys.get_int_max_str_digits() == limit  # the lift ends with the command

    def test_cli_imports_no_private_name(self):
        tree = ast.parse(Path(symclone.cli.__file__).read_text(encoding="utf-8"))
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]
        assert "verify_cloning" in names
        assert [name for name in names if name.startswith("_")] == []
        # numpy stays behind the float modules: the CLI imports it nowhere
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
        assert "json" in modules and [m for m in modules if m.split(".")[0] == "numpy"] == []


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


# JSON documents: scalars of every kind, non-ASCII text and empty containers
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.lists(st.text()) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


class TestJsonWriter:
    """Reports are written by ``cli._dumps``, which must give the bytes of
    ``json.dumps(indent=2, sort_keys=True)``."""

    @given(_JSON)
    @settings(max_examples=150, deadline=None)
    def test_writer_matches_json_dumps(self, doc):
        assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_every_command_writes_what_json_dumps_writes(self, tmp_path, capsys):
        process = tmp_path / "general.json"
        process.write_text(json.dumps(general_cloner(random_skew_form(4, random.Random(4))).to_json()))
        undersized = tmp_path / "undersized.json"
        undersized.write_text(json.dumps({
            **basic_cloner().to_json(),
            "machine_form": standard_form(0).to_json(),
            "ready": [],
            "phi": RatMatrix.identity(4).to_json(),
            "readout": RatMatrix.zeros(0, 2).to_json(),
        }))
        form = tmp_path / "form.json"
        form.write_text(json.dumps(random_skew_form(4, random.Random(5)).to_json()))
        hilb = tmp_path / "hilb.json"
        hilb.write_text(json.dumps({
            "unitary": complex_matrix_to_json(basis_cloner(2)),
            "beta": [[1.0, 0.0], [0.0, 0.0]],
        }))
        commands = [
            ["construct-basic"],
            ["construct-general", "--dim", "6"],
            ["verify", "--input", str(process)],
            ["darboux", "--input", str(form)],
            ["readout-solve", "--m", "1", "--k", "2"],
            ["readout-solve", "--m", "2", "--k", "1"],
            ["size-witness", "--input", str(undersized)],
            ["quantum-refute", "--dim", "3"],
            ["probe", "--m", "2", "--k", "1", "--iters", "100"],
            ["diagram-check", "--instance", "symp", "--input", str(process)],
            ["diagram-check", "--instance", "hilb", "--input", str(hilb), "--samples", "2"],
        ]
        assert {argv[0] for argv in commands} == set(_HANDLERS)
        for argv in commands:
            code, out, err = run_capture(capsys, *argv)
            assert code in (0, 1) and err == "", argv
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


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
            "diagram-check symp seeded": (["diagram-check", "--instance", "symp", "--input", files["basic"],
                                           "--samples", "3", "--seed", "9"], 0),
            "diagram-check symp negative": (["diagram-check", "--instance", "symp", "--input", files["basic"],
                                             "--samples", "-1"], 2),
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

    def test_start_up_loads_only_what_the_exact_commands_need(self, tmp_path):
        basic = tmp_path / "basic.json"
        basic.write_text(json.dumps(basic_cloner().to_json()))
        script = (
            "import contextlib, io, json, sys\n"
            "import symclone.cli\n"
            "heavy = ['dataclasses', 'inspect', 'symclone.diagrams', 'symclone.probe', 'numpy']\n"
            "loaded = [name for name in heavy if name in sys.modules]\n"
            "compiled = '_lbfgs' in vars(symclone.classical)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = symclone.cli.run(['diagram-check', '--instance', 'symp', '--input', sys.argv[1]])\n"
            "after = [name for name in heavy if name in sys.modules]\n"
            "print(json.dumps([loaded, compiled, code, after]))\n"
        )
        out = subprocess.run([sys.executable, "-c", script, str(basic)], env=SRC_ENV,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        # the probe's code is in a module of its own, which no exact command loads
        assert json.loads(out.stdout) == [[], False, 0, ["symclone.diagrams"]]

    def test_import_loads_no_numpy(self):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import symclone.cli"],
                             env=SRC_ENV, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "symclone.cli" in out.stderr
        assert [line for line in out.stderr.splitlines() if "numpy" in line] == []


def _cli(*argv) -> list[str]:
    return [sys.executable, "-m", "symclone.cli", *argv]


# stdout block-buffered, as users have it: PYTHONUNBUFFERED would hide a
# report's tail left in the buffer at exit
_CLI_ENV = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}


class _Unwritable(io.TextIOBase):
    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


class TestProcessEnd:
    """``main`` ends the process with ``os._exit`` once the report is
    flushed: the subprocess must still write every byte ``run`` writes, and
    a closed stdout or stderr must give exit 2."""

    def test_subprocess_output_is_what_run_writes(self, tmp_path, capsys):
        form = tmp_path / "form.json"
        form.write_text(json.dumps(standard_form(2).to_json()))
        for argv, want in [
            (["construct-basic"], 0),
            (["--format", "human", "darboux", "--input", str(form)], 0),
            (["readout-solve", "--m", "2", "--k", "1"], 1),
            (["quantum-refute", "--dim", "2"], 1),
            (["verify", "--input", str(tmp_path / "missing.json")], 2),
            (["construct-general"], 2),  # argparse's usage text
        ]:
            done = subprocess.run(_cli(*argv), env=_CLI_ENV, capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stdout, done.stderr) == run_capture(capsys, *argv), argv
            assert done.returncode == want, argv

    def test_a_large_report_loses_no_byte(self, tmp_path, capsys):
        # about 25 MB, written through a pipe and to a file
        argv = ["construct-general", "--dim", str(_MAX_CONSTRUCT_DIM)]
        code, out, _ = run_capture(capsys, *argv)
        want = out.encode()
        assert code == 0 and len(want) > 20_000_000
        piped = subprocess.run(_cli(*argv), env=_CLI_ENV, capture_output=True, timeout=120)
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert piped.stdout == want
        path = tmp_path / "general.json"
        with open(path, "wb") as fh:
            written = subprocess.run(_cli(*argv), env=_CLI_ENV, stdout=fh, stderr=subprocess.PIPE, timeout=120)
        assert (written.returncode, written.stderr) == (0, b"")
        assert path.read_bytes() == want

    @pytest.mark.parametrize("argv", [["construct-basic"], ["readout-solve", "--m", "2", "--k", "1"]])
    def test_a_stdout_closed_at_start_exits_two_with_one_line(self, argv):
        # the shell closes fd 1 before the interpreter starts, so sys.stdout is None
        done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *_cli(*argv)],
                              env=_CLI_ENV, stderr=subprocess.PIPE, timeout=120)
        assert done.returncode == 2
        assert done.stderr == b"error: standard output closed before the report was written\n"

    def test_a_closed_stderr_exits_two_and_writes_nothing(self, tmp_path):
        done = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh",
                               *_cli("verify", "--input", str(tmp_path / "missing.json"))],
                              env=_CLI_ENV, stdout=subprocess.PIPE, timeout=120)
        assert (done.returncode, done.stdout) == (2, b"")

    @pytest.mark.parametrize("stderr", [None, _Unwritable()], ids=["None", "unwritable"])
    def test_an_error_with_stderr_unwritable_is_exit_two_in_process(self, monkeypatch, capsys, tmp_path, stderr):
        # None is how Python shows a stream closed at start; a descriptor
        # closed otherwise raises on write.  Neither may send the line to stdout.
        monkeypatch.setattr(sys, "stderr", stderr)
        assert run(["verify", "--input", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().out == ""


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

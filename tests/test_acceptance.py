"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from symclone import (
    CloningProcess,
    DegenerateFormError,
    InfeasibleError,
    RatMatrix,
    SkewForm,
    basic_cloner,
    basis_cloner,
    check_cloning_diagram,
    clone_residual_probe,
    darboux_basis,
    diagram_from_process,
    general_cloner,
    is_symplectic_map,
    readout_solver,
    refute_cloning,
    standard_form,
    standard_refutation,
    symplectic_instance,
    verify_cloning,
    vec,
    zero_vec,
)
from symclone.cli import run as cli_run
from symclone.diagrams import AffineMap, CloningDiagram
from symclone.quantum import random_isometry, random_state
from conftest import random_skew_form
from oracles import check_traditional_diagram


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_basic_reproduction():
    start = time.monotonic()
    c = basic_cloner()
    expected = RatMatrix(
        [
            [1, 0, 1, 0, 0, 0],
            [0, 1, 0, 0, 0, -1],
            [1, 0, -1, 0, 1, 0],
            [0, 1, 0, -1, 0, -1],
            [1, 0, 0, 0, 1, 0],
            [0, -1, 0, 1, 0, 2],
        ]
    )
    ok = c.phi == expected
    xi = c.total_form()
    ok = ok and c.phi.T @ xi.matrix @ c.phi == xi.matrix
    F = RatMatrix([[1, 0], [0, -1]])
    ok = ok and c.readout == F
    for e in ((1, 0), (0, 1)):
        out = c.phi.apply(vec(e) + zero_vec(4))
        ok = ok and out == vec(e) + vec(e) + F.apply(e)
    ok = ok and time.monotonic() - start < 1.0
    report("1 basic process matches the explicit matrix and copies exactly", ok)


def test_criterion_2_general_construction():
    start = time.monotonic()
    ok = True
    for n in range(1, 51):
        g = general_cloner(standard_form(n))
        rep = verify_cloning(g)
        ok = ok and rep.passed and g.machine_dim == 2 * n
        if not ok:
            break
    ok = ok and time.monotonic() - start < 10.0
    report("2 general construction verifies for n = 1..50 with equal machine size", ok)


def test_criterion_3_darboux():
    start = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        dim = 2 * rng.randint(1, 6)
        form = random_skew_form(dim, rng)
        p = darboux_basis(form)
        ok = ok and is_symplectic_map(p, standard_form(dim // 2), form)
        if not ok:
            break
    for bad in (
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],  # odd dimension
        [[0, 0], [0, 0]],  # degenerate
    ):
        try:
            SkewForm(RatMatrix(bad))
            ok = False
        except DegenerateFormError:
            pass
    ok = ok and time.monotonic() - start < 10.0
    report("3 darboux normalizes 200 random forms exactly; bad inputs rejected", ok)


def test_criterion_4_size_bound_exact():
    ok = True
    for m in range(9):
        for k in range(9):
            if k >= m:
                F = readout_solver(m, k)
                ok = ok and F.T @ standard_form(k).matrix @ F == -standard_form(m).matrix
            else:
                try:
                    readout_solver(m, k)
                    ok = False
                except InfeasibleError as exc:
                    ok = ok and exc.reason == "rank"
    report("4 readout equation solvable iff machine at least object-sized (grid 0..8)", ok)


def test_criterion_5_size_bound_numeric():
    start = time.monotonic()
    ok = True
    for m in (1, 2, 3):
        best = clone_residual_probe(m, 0, 10_000, seed=0)
        ok = ok and best >= math.sqrt(2 * m) - 1e-6
    ok = ok and time.monotonic() - start < 30.0
    report("5 machineless defect search never beats the forced lower bound", ok)


def test_criterion_6_quantum_refutation():
    r = standard_refutation(2)
    ok = abs(r.cauchy_schwarz_excess - (math.sqrt(2) - 1)) < 1e-9
    ok = ok and abs(r.cloning_residual - math.sqrt(2 - math.sqrt(2))) < 1e-9
    rng = np.random.default_rng(7)
    count = 0
    while count < 100:
        d = int(rng.integers(2, 5))
        u = random_isometry(d * d, d * d, rng)
        beta = random_state(d, rng)
        psi, psi2 = random_state(d, rng), random_state(d, rng)
        t = abs(np.vdot(psi, psi2))
        if not 1e-3 < t <= 0.99:
            continue
        count += 1
        rr = refute_cloning(u, beta, [1.0], psi, psi2)
        ok = ok and rr.cauchy_schwarz_excess >= 1e-6
    report("6 quantum refutation: exact example values and 100 random cases", ok)


def test_criterion_7_categorical_coherence():
    rng = random.Random(31)
    cases = []
    for _ in range(50):
        form = random_skew_form(2 * rng.randint(1, 3), rng)
        cases.append(general_cloner(form))
    for i in range(50):
        c = cases[i]
        rows = c.phi.tolist()
        # break the copying action itself: perturb an object-input column
        r = rng.randrange(2 * c.object_form.dim)
        s = rng.randrange(c.object_form.dim)
        rows[r][s] += rng.choice([1, -1, 2])
        cases.append(
            CloningProcess(c.object_form, c.blank, c.machine_form, c.ready,
                           RatMatrix(rows), c.readout)
        )
    ok = True
    for c in cases:
        inst, diagram = diagram_from_process(c)
        ok = ok and check_cloning_diagram(inst, diagram).passed == verify_cloning(c).passed
        if not ok:
            break
    # B = unit object: generic checker vs a directly coded traditional check
    inst = symplectic_instance()
    m_form = standard_form(1)
    for mat in (RatMatrix.identity(4),
                RatMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])):
        cand = AffineMap(mat, zero_vec(4))
        states = inst.sample_states(m_form)
        diagram = CloningDiagram(
            object_a=m_form, beta=zero_vec(2), machine_b=inst.unit, rho=(),
            arrow_c=cand, readout=lambda psi: inst.family(inst.unit, [()] * psi.source_dim),
        )
        generic = check_cloning_diagram(inst, diagram, states)
        direct = check_traditional_diagram(inst, m_form, zero_vec(2), cand, states)
        ok = ok and generic.passed == direct.passed
        ok = ok and [r for _, r in generic.results] == [r for _, r in direct.results]
    report("7 diagram checker agrees with the verifier; machine-free reduction agrees", ok)


def test_criterion_8_cli_contract(tmp_path, capsys):
    ok = True

    def call(*argv):
        code = cli_run(list(argv))
        cap = capsys.readouterr()
        return code, cap.out

    # round trip
    code, out = call("construct-basic")
    ok = ok and code == 0
    proc = tmp_path / "proc.json"
    proc.write_text(out)
    code, out = call("verify", "--input", str(proc))
    ok = ok and code == 0 and json.loads(out)["verdict"] == "pass"
    # determinism
    _, out2 = call("construct-basic")
    _, out3 = call("construct-basic")
    ok = ok and out2 == out3
    args = ("probe", "--m", "1", "--k", "0", "--iters", "100", "--seed", "5")
    _, p1 = call(*args)
    _, p2 = call(*args)
    ok = ok and p1 == p2
    # exit-code golden cases
    code, out = call("readout-solve", "--m", "1", "--k", "0")
    ok = ok and code == 1 and json.loads(out)["reason"] == "rank"
    code, _ = call("readout-solve", "--m", "1", "--k", "1")
    ok = ok and code == 0
    code, _ = call("quantum-refute", "--dim", "2")
    ok = ok and code == 1
    code, _ = call("construct-general", "--dim", "3")
    ok = ok and code == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    code, _ = call("verify", "--input", str(bad))
    ok = ok and code == 2
    with capsys.disabled():
        report("8 CLI round-trip, determinism, and exit codes", ok)

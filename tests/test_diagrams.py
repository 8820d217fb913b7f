import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symclone import (
    AffineMap,
    CloningDiagram,
    CloningProcess,
    RatMatrix,
    basic_cloner,
    basis_cloner,
    check_cloning_diagram,
    diagram_from_process,
    general_cloner,
    hilbert_cloning_diagram,
    hilbert_instance,
    product_cloner,
    standard_form,
    symplectic_instance,
    verify_cloning,
    vec,
    zero_vec,
)
from symclone import ShapeError, diagrams, exact
from symclone.exact import _frac
from conftest import kernel_examples, random_skew_form
from symclone.quantum import hilbert_diagram_from_json, random_state
import oracles
from oracles import check_traditional_diagram, complex_matrix_to_json, random_isometry


def shifted_process() -> CloningProcess:
    """The basic cloner beside an identity machine with ready state (1, 2),
    with its input precomposed by the symplectic rotation (3/5, 4/5) of the
    copy block into that machine: the blank and the ready state are both
    nonzero, and the readout carries the machine offset (0, 0, 1, 2)."""
    shifted = CloningProcess(
        standard_form(0), (), standard_form(1), vec([1, 2]),
        RatMatrix.identity(2), RatMatrix.zeros(2, 0),
    )
    p = product_cloner(basic_cloner(), shifted)
    rotation = [[Fraction(int(i == k)) for k in range(8)] for i in range(8)]
    for y, z in ((2, 6), (3, 7)):
        rotation[y][y] = rotation[z][z] = Fraction(3, 5)
        rotation[y][z], rotation[z][y] = Fraction(-4, 5), Fraction(4, 5)
    return CloningProcess(
        p.object_form, vec(["4/5", "8/5"]), p.machine_form, vec([0, 0, "3/5", "6/5"]),
        p.phi @ RatMatrix(rotation), p.readout,
    )


def with_phi_entry_bumped(process: CloningProcess, i: int, k: int) -> CloningProcess:
    rows = process.phi.tolist()
    rows[i][k] += 1
    return CloningProcess(
        process.object_form, process.blank, process.machine_form, process.ready,
        RatMatrix(rows), process.readout,
    )


def hilbert_reference(diagram):
    return oracles.hilbert_readout(diagram.arrow_c, diagram.beta, diagram.rho)


def assert_agrees_with_the_reference(inst, diagram, states, readout):
    """The batched checker reports what the state-by-state reference does,
    given the per-state ``readout``: the same states in order, the same
    verdicts as Python bools, and the same first failure."""
    batched = check_cloning_diagram(inst, diagram, states)
    reference = oracles.check_cloning_diagram(inst, diagram, readout, states)
    assert len(batched.results) == len(reference.results) == len(states)
    for (x, ok), (y, want), psi in zip(batched.results, reference.results, states):
        assert x is y is psi
        assert type(ok) is bool and ok == want
    assert batched.first_failure is reference.first_failure
    assert batched.passed == reference.passed
    return batched


class TestInstanceCoherence:
    def test_symplectic_compose_is_associative(self):
        inst = symplectic_instance()
        rng = random.Random(0)
        maps = [
            AffineMap(
                RatMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]),
                vec([rng.randint(-2, 2), rng.randint(-2, 2)]),
            )
            for _ in range(3)
        ]
        f, g, h = maps
        lhs = inst.compose(inst.compose(f, g), h)
        rhs = inst.compose(f, inst.compose(g, h))
        assert inst.equal(lhs, rhs)

    def test_symplectic_tensor_is_functorial(self):
        inst = symplectic_instance()
        a = AffineMap(RatMatrix([[1, 2], [0, 1]]), vec([1, 0]))
        b = AffineMap(RatMatrix([[3]]), vec([2]))
        c = AffineMap(RatMatrix([[0, 1], [1, 0]]), vec([0, 1]))
        d = AffineMap(RatMatrix([[2]]), vec([1]))
        lhs = inst.compose(inst.tensor(a, b), inst.tensor(c, d))
        rhs = inst.tensor(inst.compose(a, c), inst.compose(b, d))
        assert inst.equal(lhs, rhs)

    def test_symplectic_compose_adds_the_offsets(self):
        # (g o h)(v) = G(Hv + h0) + g0 = GH v + (G h0 + g0)
        inst = symplectic_instance()
        g = AffineMap(RatMatrix([[1, 2], [0, "1/3"]]), vec(["1/2", -1]))
        h = AffineMap(RatMatrix([[0, 1], [-1, 0]]), vec([3, "2/3"]))
        gh = inst.compose(g, h)
        assert gh.matrix == RatMatrix([[-2, 1], ["-1/3", 0]])
        assert gh.offset == vec(["29/6", "-7/9"])

    def test_symplectic_arrows_that_do_not_compose_are_refused(self):
        inst = symplectic_instance()
        g = AffineMap(RatMatrix.identity(2), zero_vec(2))
        h = AffineMap(RatMatrix.zeros(4, 2), zero_vec(4))
        with pytest.raises(ShapeError, match="^arrows do not compose$"):
            inst.compose(g, h)

    def test_symplectic_unit_law(self):
        inst = symplectic_instance()
        m = AffineMap(RatMatrix([[1, 1], [0, 1]]), vec([3, 4]))
        unit_arrow = AffineMap(RatMatrix.zeros(0, 0), ())
        assert inst.equal(inst.tensor(unit_arrow, m), m)
        assert inst.equal(inst.tensor(m, unit_arrow), m)

    @pytest.mark.parametrize("dims", [(0, 0), (0, 2), (3, 0), (2, 4)])
    def test_tensor_of_states_equals_the_block_diagonal_sum(self, dims):
        # arrows from the unit have no columns, and neither has their tensor
        inst = symplectic_instance()
        g = AffineMap(RatMatrix.zeros(dims[0], 0), vec(range(1, dims[0] + 1)))
        h = AffineMap(RatMatrix.zeros(dims[1], 0), vec(["1/2"] * dims[1]))
        t = inst.tensor(g, h)
        assert t.matrix.shape == (sum(dims), 0)
        assert t.matrix == RatMatrix.block_diag(g.matrix, h.matrix)
        assert t.offset == g.offset + h.offset

    def test_sample_states_are_zero_and_the_basis(self):
        inst = symplectic_instance()
        assert inst.sample_states(standard_form(2)) == [vec(v) for v in (
            [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]
        )]
        assert inst.sample_states(standard_form(0)) == [()]

    def test_hilbert_compose_and_tensor_cohere(self):
        inst = hilbert_instance()
        rng = np.random.default_rng(1)
        g, gp = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        h, hp = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        lhs = inst.compose(inst.tensor(g, gp), inst.tensor(h, hp))
        rhs = inst.tensor(inst.compose(g, h), inst.compose(gp, hp))
        assert inst.equal(lhs, rhs)

    def test_hilbert_unit_law(self):
        inst = hilbert_instance()
        m = np.arange(4.0).reshape(2, 2)
        assert inst.equal(inst.tensor(np.eye(1), m), m)
        assert inst.equal(inst.tensor(m, np.eye(1)), m)

    def test_states_are_arrows_from_the_unit(self):
        inst = symplectic_instance()
        arrow = inst.state_arrow(standard_form(1), [1, 2])
        assert arrow.source_dim == 0
        assert arrow.target_dim == 2
        hinst = hilbert_instance()
        psi = hinst.state_arrow(2, [1.0, 0.0])
        assert psi.shape == (2, 1)


@st.composite
def affine_arrows(draw):
    """Standard forms A and B of dimensions up to 6, and an affine map A -> B
    with small rational entries, not necessarily symplectic."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = draw(st.lists(st.lists(entry, min_size=2 * a, max_size=2 * a), min_size=2 * b, max_size=2 * b))
    offset = draw(st.lists(entry, min_size=2 * b, max_size=2 * b))
    matrix = RatMatrix(rows) if rows else RatMatrix.zeros(0, 2 * a)  # no rows: the header gives the width
    return standard_form(a), standard_form(b), AffineMap(matrix, offset)


@st.composite
def complex_arrows(draw):
    """Dimensions a and b up to 3 and a complex b x a matrix."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    part = st.floats(-4, 4, allow_nan=False)
    re, im = (np.array(draw(st.lists(part, min_size=a * b, max_size=a * b))).reshape(b, a) for _ in range(2))
    return a, b, re + 1j * im


class TestIdentityLaws:
    """``identity`` is the unit of composition and is monoidal, on both instances."""

    @given(affine_arrows())
    @settings(max_examples=kernel_examples(50), deadline=None)
    def test_symplectic_identity_is_the_unit_of_composition(self, arrow):
        inst = symplectic_instance()
        a, b, g = arrow
        assert inst.compose(inst.identity(b), g) == g == inst.compose(g, inst.identity(a))

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=kernel_examples(20), deadline=None)
    def test_symplectic_identity_is_monoidal(self, m, n):
        inst = symplectic_instance()
        a, b = standard_form(m), standard_form(n)
        assert inst.tensor(inst.identity(a), inst.identity(b)) == inst.identity(exact.direct_sum(a, b))

    @given(complex_arrows())
    @settings(max_examples=kernel_examples(50), deadline=None)
    def test_hilbert_identity_is_the_unit_of_composition(self, arrow):
        # a product with the identity adds only exact zeros: equal bit for bit
        inst = hilbert_instance()
        a, b, g = arrow
        for composite in (inst.compose(inst.identity(b), g), inst.compose(g, inst.identity(a))):
            assert composite.shape == g.shape and np.array_equal(composite, g)

    @given(st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=kernel_examples(20), deadline=None)
    def test_hilbert_identity_is_monoidal(self, a, b):
        inst = hilbert_instance()
        t = inst.tensor(inst.identity(a), inst.identity(b))
        assert t.dtype == np.complex128 and np.array_equal(t, inst.identity(a * b))


class TestStateCoercion:
    @pytest.fixture
    def count_frac(self, monkeypatch):
        """Start counting the entries parsed from here on: returns the list
        that ``exact._frac`` appends each parsed entry to."""
        calls = []

        def counting_frac(x):
            calls.append(x)
            return _frac(x)

        def start():
            monkeypatch.setattr(exact, "_frac", counting_frac)
            return calls

        return start

    def test_sampled_states_and_readout_images_are_not_coerced(self, count_frac):
        inst, diagram = diagram_from_process(general_cloner(standard_form(3)))
        calls = count_frac()
        report = check_cloning_diagram(inst, diagram)
        assert report.passed and len(report.results) == 7
        assert calls == []

    def test_caller_states_are_coerced(self, count_frac):
        inst, diagram = diagram_from_process(general_cloner(standard_form(1)))
        states = [[1, 0], ["0", "1/2"], [Fraction(2), -3]]
        calls = count_frac()
        report = check_cloning_diagram(inst, diagram, states)
        assert report.passed
        assert [psi for psi, _ in report.results] == states  # reported as supplied
        assert calls == [x for psi in states for x in psi]  # each entry once

    @pytest.mark.parametrize("bad", [[True, 0], [0.5, 0], (Fraction(1), False)])
    def test_booleans_and_floats_are_rejected(self, bad):
        inst, diagram = diagram_from_process(basic_cloner())
        with pytest.raises(TypeError):
            inst.state_arrow(standard_form(1), bad)
        with pytest.raises(TypeError):
            check_cloning_diagram(inst, diagram, [bad])


class TestOffsetCoercion:
    """An affine map stores its offset as an exact vector, however it is given."""

    @pytest.mark.parametrize("offset", [(0.1 + 0.2 - 0.3, 0), [0, 0.0], (0, True), [False, 0]], ids=repr)
    def test_floats_and_booleans_are_refused(self, offset):
        with pytest.raises(TypeError):
            AffineMap(RatMatrix.identity(2), offset)

    def test_a_list_is_stored_as_an_exact_tuple(self):
        g = AffineMap(RatMatrix.identity(2), [1, "2/3"])
        assert type(g.offset) is tuple and all(type(x) is Fraction for x in g.offset)
        assert g.offset == (Fraction(1), Fraction(2, 3))
        t = symplectic_instance().tensor(g, AffineMap(RatMatrix.identity(1), [5]))
        assert t.offset == vec([1, "2/3", 5])



class TestSymplecticDiagram:
    def test_basic_cloner_diagram_commutes_exhaustively(self):
        inst, diagram = diagram_from_process(basic_cloner())
        report = check_cloning_diagram(inst, diagram)
        assert report.passed
        assert report.exhaustive

    def test_agreement_with_verifier_on_constructed_and_broken_processes(self):
        rng = random.Random(77)
        cases = []
        for _ in range(15):
            form = random_skew_form(2 * rng.randint(1, 4), rng)
            cases.append(general_cloner(form))
        # corrupted variants
        for idx in (0, 1, 2):
            c = cases[idx]
            rows = c.phi.tolist()
            rows[0][0] += 1
            cases.append(
                CloningProcess(c.object_form, c.blank, c.machine_form, c.ready,
                               RatMatrix(rows), c.readout)
            )
        for c in cases:
            inst, diagram = diagram_from_process(c)
            report = check_cloning_diagram(inst, diagram)
            assert report.passed == verify_cloning(c).passed

    def test_agreement_with_verifier_with_nonzero_blank_and_ready(self):
        process = shifted_process()
        inst, diagram = diagram_from_process(process)
        # the readout is an arrow: composed with a state, it gives the state's image
        assert diagram.readout(inst.state_arrow(diagram.object_a, zero_vec(2))).offset == vec([0, 0, 1, 2])
        assert verify_cloning(process).passed
        assert check_cloning_diagram(inst, diagram).passed
        # an object row, a copy row fed by the blank, a machine row fed by x
        for i, k in ((0, 0), (2, 3), (5, 0)):
            broken = with_phi_entry_bumped(process, i, k)
            inst, diagram = diagram_from_process(broken)
            assert not verify_cloning(broken).passed
            assert not check_cloning_diagram(inst, diagram).passed

    def test_traditional_reduction_agrees(self):
        # B = unit object: compare the generic checker against the directly
        # coded machine-free check, on a candidate that cannot succeed
        inst = symplectic_instance()
        m_form = standard_form(1)
        candidate = AffineMap(RatMatrix.identity(4), zero_vec(4))
        states = inst.sample_states(m_form)
        unit = inst.unit
        diagram = CloningDiagram(
            object_a=m_form,
            beta=zero_vec(2),
            machine_b=unit,
            rho=(),
            arrow_c=candidate,
            readout=lambda psi: inst.family(unit, [()] * psi.source_dim),
        )
        generic = check_cloning_diagram(inst, diagram, states)
        direct = check_traditional_diagram(inst, m_form, zero_vec(2), candidate, states)
        assert generic.passed == direct.passed
        assert [ok for _, ok in generic.results] == [ok for _, ok in direct.results]

    def test_machine_free_candidates_always_fail_in_positive_dimension(self):
        # the size bound with machine dimension zero: no arrow c on M x M can
        # copy every state; try several symplectic candidates
        inst = symplectic_instance()
        m_form = standard_form(1)
        candidates = [
            RatMatrix.identity(4),
            RatMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),  # swap
            RatMatrix([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]),  # shear
        ]
        for c in candidates:
            report = check_traditional_diagram(
                inst, m_form, zero_vec(2), AffineMap(c, zero_vec(4))
            )
            assert not report.passed


class TestHilbertDiagram:
    def test_basis_cloner_fails_on_the_superposition(self):
        inst, diagram = hilbert_cloning_diagram(basis_cloner(2), beta=[1.0, 0.0])
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        report = check_cloning_diagram(inst, diagram, states=[np.eye(2)[:, 0], plus])
        assert not report.passed
        results = dict()
        for state, ok in report.results:
            results[tuple(np.round(state, 6))] = ok
        assert results[(1.0, 0.0)] is True
        assert results[tuple(np.round(plus, 6))] is False
        assert not report.exhaustive

    def test_failure_residual_matches_the_refuter(self):
        # distance between the machine output and the claimed clone at the
        # superposition equals the refuter's reported residual
        inst, diagram = hilbert_cloning_diagram(basis_cloner(2), beta=[1.0, 0.0])
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        psi_arrow = inst.state_arrow(2, plus)
        beta_arrow = inst.state_arrow(2, diagram.beta)
        rho_arrow = inst.state_arrow(1, diagram.rho)
        lhs = inst.compose(diagram.arrow_c,
                           inst.tensor(inst.tensor(psi_arrow, beta_arrow), rho_arrow))
        rhs = inst.tensor(inst.tensor(psi_arrow, psi_arrow), diagram.readout(psi_arrow))
        dist = float(np.linalg.norm(lhs - rhs))
        assert dist == pytest.approx(math.sqrt(2 - math.sqrt(2)), abs=1e-9)

    def test_shape_mismatch_rejected(self):
        from symclone import ShapeError

        with pytest.raises(ShapeError):
            hilbert_cloning_diagram(np.eye(3), beta=[1.0, 0.0])

    def test_readout_falls_back_below_the_module_tolerance(self):
        # the identity on C^2 x C^2 x C^2 maps psi x e1 x e1 to itself, whose
        # psi x psi x K slice has the one amplitude conj(psi_1) on e1
        inst, diagram = hilbert_cloning_diagram(np.eye(8), beta=[0.0, 1.0], rho=[0.0, 1.0])
        for eps, want in [(1e-10, [1.0, 0.0]), (1e-8, [0.0, 1.0])]:
            psi = np.array([1.0, eps]) / math.hypot(1.0, eps)
            assert np.allclose(diagram.readout(psi[:, None])[:, 0], want, rtol=0, atol=1e-12)
            # the output misses the slice, so the diagram fails at psi either way
            assert not check_cloning_diagram(inst, diagram, states=[psi]).passed

    def test_reads_a_diagram_file(self):
        data = {"unitary": complex_matrix_to_json(basis_cloner(2)), "beta": [[1.0, 0.0], [0.0, 0.0]]}
        inst, diagram = hilbert_diagram_from_json(data)
        assert inst.name == "hilbert"
        assert np.array_equal(diagram.arrow_c, basis_cloner(2))
        assert np.array_equal(diagram.rho, [1.0])
        data["rho"] = [[0.6, 0.0], [0.0, 0.8]]
        data["unitary"] = complex_matrix_to_json(np.kron(basis_cloner(2), np.eye(2)))
        assert np.array_equal(hilbert_diagram_from_json(data)[1].rho, [0.6, 0.8j])

    def test_a_file_is_checked_before_the_diagram_is_built(self):
        # 3 x 3 is the wrong size for a 2-dimensional object; 2 I is not an isometry either
        data = {"unitary": complex_matrix_to_json(2 * np.eye(3)), "beta": [[1.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(ValueError, match="^unitary is not an isometry at the module tolerance$"):
            hilbert_diagram_from_json(data)
        data["unitary"] = complex_matrix_to_json(np.eye(3))
        with pytest.raises(ShapeError, match="^candidate arrow does not act on object x copy x machine$"):
            hilbert_diagram_from_json(data)


class TestBatchedAgainstReference:
    """The checker builds each side once for a whole family of states; the
    reference in ``oracles`` builds both sides once per state."""

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=kernel_examples(25), deadline=None)
    def test_symplectic_processes_and_their_bumped_entries(self, m, seed, entry):
        process = general_cloner(random_skew_form(2 * m, random.Random(seed)))
        n = process.phi.rows
        for p in (process, with_phi_entry_bumped(process, entry % n, entry // n % n)):
            inst, diagram = diagram_from_process(p)
            assert_agrees_with_the_reference(
                inst, diagram, inst.sample_states(diagram.object_a), oracles.process_readout(p)
            )

    @pytest.mark.parametrize("entry", [None, (0, 0), (2, 3), (5, 0), (7, 7)])
    def test_nonzero_blank_and_ready(self, entry):
        process = shifted_process()
        if entry is not None:
            process = with_phi_entry_bumped(process, *entry)
        inst, diagram = diagram_from_process(process)
        states = inst.sample_states(diagram.object_a) + [vec(["1/2", -3]), vec([7, "2/9"])]
        assert_agrees_with_the_reference(inst, diagram, states, oracles.process_readout(process))

    @given(st.integers(0, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=kernel_examples(25), deadline=None)
    def test_machine_free_candidates(self, m, seed):
        # machine = the unit object: c is a random affine map on M x M
        rng = random.Random(seed)
        inst = symplectic_instance()
        entry = lambda: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        candidate = AffineMap(
            RatMatrix([[entry() for _ in range(4 * m)] for _ in range(4 * m)])
            if m else RatMatrix.zeros(0, 0),
            vec([entry() for _ in range(4 * m)]),
        )
        diagram = CloningDiagram(
            object_a=standard_form(m), beta=vec([entry() for _ in range(2 * m)]),
            machine_b=inst.unit, rho=(), arrow_c=candidate,
            readout=lambda psi: inst.family(inst.unit, [()] * psi.source_dim),
        )
        states = inst.sample_states(standard_form(m)) + [vec([entry() for _ in range(2 * m)])]
        assert_agrees_with_the_reference(inst, diagram, states, lambda psi: ())

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=kernel_examples(25), deadline=None)
    def test_hilbert_random_isometries_and_basis_cloners(self, d, dk, seed):
        rng = np.random.default_rng(seed)
        n = d * d * dk
        inst, diagram = hilbert_cloning_diagram(
            random_isometry(n, n, rng), random_state(d, rng), random_state(dk, rng)
        )
        assert_agrees_with_the_reference(
            inst, diagram, inst.sample_states(d, count=6, rng=rng), hilbert_reference(diagram)
        )
        # the basis cloner beside an idle machine clones the basis states
        inst, diagram = hilbert_cloning_diagram(
            np.kron(basis_cloner(d), np.eye(dk)), np.eye(d)[:, 0], random_state(dk, rng)
        )
        states = inst.sample_states(d, count=6, rng=rng)
        report = assert_agrees_with_the_reference(inst, diagram, states, hilbert_reference(diagram))
        assert [ok for _, ok in report.results[:d]] == [True] * d

    def test_hilbert_readout_fallback(self):
        # the identity misses the psi x psi x K slice: below FLOAT_TOL the
        # readout falls back to the first machine basis state
        inst, diagram = hilbert_cloning_diagram(np.eye(8), beta=[0.0, 1.0], rho=[0.0, 1.0])
        states = [np.array([1.0, eps]) / math.hypot(1.0, eps) for eps in (0.0, 1e-10, 1e-8, 1.0)]
        report = assert_agrees_with_the_reference(inst, diagram, states, hilbert_reference(diagram))
        assert not report.passed


class TestFamilies:
    @pytest.fixture(params=["symplectic", "hilbert"])
    def checked(self, request):
        if request.param == "symplectic":
            inst, diagram = diagram_from_process(general_cloner(standard_form(1)))
            return inst, diagram, [1, 0], [1, 0, 0]
        inst, diagram = hilbert_cloning_diagram(basis_cloner(2), beta=[1.0, 0.0])
        return inst, diagram, [1.0, 0.0], [1.0, 0.0, 0.0]

    def test_no_states_is_a_passing_empty_check(self, checked):
        inst, diagram, _, _ = checked
        report = check_cloning_diagram(inst, diagram, [])
        assert report.to_json()["checked"] == 0
        assert report.passed and report.first_failure is None

    def test_a_state_of_the_wrong_length_is_a_shape_error(self, checked):
        inst, diagram, good, bad = checked
        with pytest.raises(ShapeError):
            check_cloning_diagram(inst, diagram, [good, bad])

    def test_zero_dimensional_object(self):
        inst, diagram = diagram_from_process(general_cloner(standard_form(0)))
        report = check_cloning_diagram(inst, diagram)
        assert report.results == (((), True),) and report.passed
        assert check_cloning_diagram(inst, diagram, [(), ()]).passed
        family = inst.family(standard_form(0), [(), (), ()])
        assert (family.target_dim, family.source_dim) == (0, 3)

    @pytest.mark.parametrize("bad", [[True, 0], [0, 0.5]])
    def test_a_boolean_or_float_state_is_a_type_error(self, bad):
        inst, diagram = diagram_from_process(basic_cloner())
        with pytest.raises(TypeError):
            check_cloning_diagram(inst, diagram, [[1, 0], bad])

    def test_pair_is_the_member_wise_tensor(self):
        inst = symplectic_instance()
        g = AffineMap(RatMatrix([[1, 0, "1/2"], [0, 2, 0]]), vec([3, "-1/3"]))
        h = AffineMap(RatMatrix([[0, 0, 5]]), vec(["7/2"]))
        members = lambda f: [
            AffineMap(RatMatrix.zeros(f.target_dim, 0),
                      tuple(f.matrix[i, j] + f.offset[i] for i in range(f.target_dim)))
            for j in range(f.source_dim)
        ]
        paired = inst.pair(g, h)
        assert [inst.equal(m, inst.tensor(a, b)) for m, a, b in zip(members(paired), members(g), members(h))] \
            == [True] * 3
        hinst = hilbert_instance()
        rng = np.random.default_rng(2)
        g, h = rng.standard_normal((2, 3)), rng.standard_normal((3, 3)) + 1j
        paired = hinst.pair(g, h)
        for j in range(3):
            assert np.array_equal(paired[:, j], np.kron(g[:, j], h[:, j]))

    def test_caller_zeros_need_not_be_interned(self):
        # Fraction(0) is not the interned zero, and a tuple of Fractions goes
        # into the family uncoerced
        inst, diagram = diagram_from_process(basic_cloner())
        states = [(Fraction(0), Fraction(1)), (Fraction(3), Fraction(0)), (Fraction(0), Fraction(0))]
        readout = oracles.process_readout(basic_cloner())
        for sample in [states] + [[psi] for psi in states]:
            assert assert_agrees_with_the_reference(inst, diagram, sample, readout).passed

    def test_an_arrow_into_another_object_fails_at_every_state(self):
        inst = symplectic_instance()
        diagram = CloningDiagram(
            object_a=standard_form(1), beta=zero_vec(2), machine_b=inst.unit, rho=(),
            arrow_c=AffineMap(RatMatrix([[1, 0, 0, 0]] * 2), zero_vec(2)),
            readout=lambda psi: inst.family(inst.unit, [()] * psi.source_dim),
        )
        report = assert_agrees_with_the_reference(
            inst, diagram, inst.sample_states(standard_form(1)), lambda psi: ()
        )
        assert [ok for _, ok in report.results] == [False] * 3
        hinst = hilbert_instance()
        diagram = CloningDiagram(
            object_a=2, beta=np.eye(2)[:, 0], machine_b=1, rho=np.ones(1),
            arrow_c=np.eye(4)[:2], readout=lambda psi: np.ones((1, psi.shape[1])),
        )
        report = assert_agrees_with_the_reference(
            hinst, diagram, hinst.sample_states(2, count=2), lambda psi: np.ones(1)
        )
        assert [ok for _, ok in report.results] == [False] * 4

    def test_more_states_than_a_block(self):
        inst, diagram = hilbert_cloning_diagram(basis_cloner(2), beta=[1.0, 0.0])
        states = inst.sample_states(2, count=diagrams._BLOCK + 5, rng=4)
        report = assert_agrees_with_the_reference(inst, diagram, states, hilbert_reference(diagram))
        assert len(report.results) == diagrams._BLOCK + 7

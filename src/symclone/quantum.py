"""Finite-dimensional Hilbert space side: why unitary copying machines fail.

Complex double-precision throughout.  The refuter never constructs the
would-be machine readout; it exhibits the overlap contradiction that the
existence of a copying isometry would force, plus a concrete distance from
the machine's actual output to the nearest legal clone.  The Hilbert-space
instance of the generic diagram checker (``hilbert_instance``,
``hilbert_cloning_diagram``) is here too: this module and
``classical.clone_residual_probe`` are the only parts of symclone that load
numpy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .diagrams import CloningDiagram, DiagramInstance
from .exact import ShapeError, _json_int

# Absolute tolerance of every float check on the Hilbert-space side: isometry
# defect, unit norms, the overlap range and arrow equality in the Hilbert
# diagram instance.
FLOAT_TOL = 1e-9


class HypothesisViolationError(ValueError):
    """The chosen state pair cannot drive the overlap contradiction."""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (or column vectors)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def isometry_defect(U: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity."""
    U = np.asarray(U, dtype=complex)
    gram = U.conj().T @ U
    return float(np.max(np.abs(gram - np.eye(U.shape[1]))))


def is_isometry(U: np.ndarray) -> bool:
    """True iff U preserves inner products up to FLOAT_TOL; a map into a
    smaller space can never qualify."""
    U = np.asarray(U, dtype=complex)
    if U.shape[0] < U.shape[1]:
        return False
    return isometry_defect(U) <= FLOAT_TOL


def basis_cloner(d: int) -> np.ndarray:
    """Controlled-shift unitary on C^d x C^d: |i, j> -> |i, (j + i) mod d>.

    Copies every computational basis state (|i, 0> -> |i, i>) but no
    superposition; d = 2 gives the CNOT matrix.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    U = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            U[i * d + (j + i) % d, i * d + j] = 1.0
    return U


def _as_state(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > FLOAT_TOL:
        raise ValueError(f"{name} must be a unit vector (norm {norm:.3g})")
    return v


@dataclass(frozen=True)
class Refutation:
    """Outcome of running the overlap argument against a candidate machine."""

    overlap: complex                 # <psi, psi2>
    preserved_overlap: complex       # <U(psi x beta x rho), U(psi2 x beta x rho)>
    implied_machine_overlap: float   # |<f(psi), f(psi2)>| forced by cloning
    cauchy_schwarz_excess: float     # implied overlap minus the unit bound
    cloning_residual: float          # worst distance to the nearest legal clone
    residual_per_state: tuple[float, float]

    def to_json(self) -> dict:
        return {
            "overlap": [self.overlap.real, self.overlap.imag],
            "preserved_overlap": [self.preserved_overlap.real, self.preserved_overlap.imag],
            "implied_machine_overlap": self.implied_machine_overlap,
            "cauchy_schwarz_excess": self.cauchy_schwarz_excess,
            "cloning_residual": self.cloning_residual,
            "residual_per_state": list(self.residual_per_state),
        }


def slice_amplitudes(
    U: np.ndarray, x: np.ndarray, beta: np.ndarray, rho: np.ndarray
) -> np.ndarray:
    """Amplitudes of U(x x beta x rho) on the x x x x e_j slice, one for each
    machine basis vector e_j (all vectors flat and complex)."""
    d, dk = len(x), len(rho)
    return np.kron(x, x).conj() @ (U @ np.kron(np.kron(x, beta), rho)).reshape(d * d, dk)


def _clone_distance(U: np.ndarray, x: np.ndarray, beta: np.ndarray, rho: np.ndarray) -> float:
    """Distance from U(x x beta x rho) to the closest unit vector of the form
    x x x x (machine state)."""
    proj = float(np.linalg.norm(slice_amplitudes(U, x, beta, rho)))
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * proj)))


def refute_cloning(U: np.ndarray, beta, rho, psi, psi2) -> Refutation:
    """Run the no-cloning contradiction against a candidate copying isometry.

    Requires U isometric and a state pair with overlap strictly between 0 and
    1 in modulus.  If U cloned both states, preservation of inner products
    would force the machine outputs to overlap with modulus 1/|<psi, psi2>|,
    exceeding the unit bound; the excess is reported together with the actual
    distance from U's output to the nearest exact clone.
    """
    U = np.asarray(U, dtype=complex)
    beta = _as_state(beta, "beta")
    rho = _as_state(rho, "rho")
    psi = _as_state(psi, "psi")
    psi2 = _as_state(psi2, "psi2")
    if len(psi) == 1:
        raise HypothesisViolationError(
            "object space has dimension 1: no valid state pair exists "
            "(every pair of unit vectors is parallel)"
        )
    if not is_isometry(U):
        raise ValueError("U is not an isometry at the module tolerance")
    t = complex(np.vdot(psi, psi2))
    if abs(t) <= FLOAT_TOL or abs(abs(t) - 1.0) <= FLOAT_TOL:
        raise HypothesisViolationError(
            f"|<psi, psi2>| = {abs(t):.3g}; the argument needs 0 < |overlap| < 1"
        )

    preserved = complex(np.vdot(*(U @ np.kron(np.kron(x, beta), rho) for x in (psi, psi2))))

    implied = 1.0 / abs(t)
    r1 = _clone_distance(U, psi, beta, rho)
    r2 = _clone_distance(U, psi2, beta, rho)
    return Refutation(
        overlap=t,
        preserved_overlap=preserved,
        implied_machine_overlap=implied,
        cauchy_schwarz_excess=implied - 1.0,
        cloning_residual=max(r1, r2),
        residual_per_state=(r1, r2),
    )


def standard_refutation(d: int, overlap: float = 2 ** -0.5) -> Refutation:
    """Refute the basis-copying machine on C^d with a trivial machine space.

    Uses beta = psi = |0> and psi2 = overlap*|0> + sqrt(1-overlap^2)*|1>.
    """
    if not 0.0 < overlap < 1.0:
        raise HypothesisViolationError("overlap must lie strictly between 0 and 1")
    U = basis_cloner(d)
    if d < 2:
        # let refute_cloning raise the dimension-specific message
        return refute_cloning(U, [1.0], [1.0], [1.0], [1.0])
    e0 = np.eye(d)[:, 0]
    psi2 = overlap * np.eye(d)[:, 0] + np.sqrt(1.0 - overlap**2) * np.eye(d)[:, 1]
    return refute_cloning(U, e0, [1.0], e0, psi2)


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    if rows < cols:
        raise ValueError("an isometry needs rows >= cols")
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(a)
    # fix phases so the result is deterministic in the rng draws alone
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[np.newaxis, :].conj()


def _json_complex(entry) -> complex:
    """An ``[re, im]`` pair of JSON numbers that are finite as doubles.
    ``json.load`` accepts NaN, Infinity and -Infinity, reads ``1e999`` as
    inf and a 400-digit integer as an int no double holds; booleans are ints
    to Python.  Each of these is refused."""
    re, im = entry
    for x in (re, im):
        if type(x) not in (int, float):
            raise TypeError(f"complex parts must be JSON numbers, got {type(x).__name__}")
        if not abs(x) <= sys.float_info.max:  # false for NaN too; exact for ints
            raise ValueError("complex parts must be finite doubles, not NaN, infinite or out of range")
    return complex(re, im)


def complex_matrix_from_json(data: dict) -> np.ndarray:
    a = np.array([[_json_complex(z) for z in row] for row in data["entries"]], dtype=complex)
    shape = (_json_int(data, "rows"), _json_int(data, "cols"))
    if a.size == 0:
        a = a.reshape(shape)
    if a.shape != shape:
        raise ValueError("entry grid does not match declared rows/cols")
    return a


def complex_vector_from_json(entries) -> np.ndarray:
    return np.array([_json_complex(z) for z in entries], dtype=complex)


# ---------------------------------------------------------------------------
# the Hilbert-space diagram instance


def hilbert_instance() -> DiagramInstance:
    """Finite-dimensional Hilbert spaces; arrows are complex matrices,
    equality is entrywise within FLOAT_TOL.  Objects are dimensions."""

    def compose(g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return np.asarray(g, dtype=complex) @ np.asarray(h, dtype=complex)

    def tensor(g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return kron(np.atleast_2d(g), np.atleast_2d(h))

    def equal(g: np.ndarray, h: np.ndarray) -> bool:
        g, h = np.atleast_2d(g), np.atleast_2d(h)
        if g.shape != h.shape:
            return False
        return g.size == 0 or float(np.max(np.abs(g - h))) <= FLOAT_TOL

    def state_arrow(obj: int, psi) -> np.ndarray:
        psi = np.asarray(psi, dtype=complex).reshape(-1, 1)
        if psi.shape[0] != obj:
            raise ShapeError("state length does not match the object dimension")
        return psi

    def sample_states(obj: int, count: int = 8, rng=None) -> list[np.ndarray]:
        rng = rng or np.random.default_rng(0)
        return [np.eye(obj)[:, j] for j in range(obj)] + [random_state(obj, rng) for _ in range(count)]

    return DiagramInstance(
        name="hilbert",
        unit=1,
        compose=compose,
        tensor=tensor,
        equal=equal,
        state_arrow=state_arrow,
        sample_states=sample_states,
        exhaustive=False,
    )


def hilbert_cloning_diagram(U: np.ndarray, beta, rho=None) -> tuple[DiagramInstance, CloningDiagram]:
    """Wrap a candidate copying isometry as a Hilbert cloning diagram.

    The readout f is induced: f(psi) is the normalized projection of
    U(psi x beta x rho) onto the psi x psi x K slice, so the diagram commutes
    at psi exactly when U clones psi.  If the projection vanishes, f falls
    back to the first machine basis state.
    """
    U = np.asarray(U, dtype=complex)
    beta = np.asarray(beta, dtype=complex).reshape(-1)
    d = len(beta)
    if rho is None:
        rho = np.array([1.0 + 0.0j])
    rho = np.asarray(rho, dtype=complex).reshape(-1)
    dk = len(rho)
    if U.shape != (d * d * dk, d * d * dk):
        raise ShapeError("candidate arrow does not act on object x copy x machine")
    inst = hilbert_instance()

    def readout(psi) -> np.ndarray:
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        amps = slice_amplitudes(U, psi, beta, rho)
        norm = float(np.linalg.norm(amps))
        if norm < 1e-12:
            return np.eye(dk)[:, 0].astype(complex)
        return amps / norm

    diagram = CloningDiagram(
        object_a=d,
        beta=beta,
        machine_b=dk,
        rho=rho,
        arrow_c=U,
        readout=readout,
    )
    return inst, diagram

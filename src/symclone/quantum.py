"""Finite-dimensional Hilbert space side: why unitary copying machines fail.

Complex double-precision throughout.  The refuter never constructs the
would-be machine readout; it exhibits the overlap contradiction that the
existence of a copying isometry would force, plus a concrete distance from
the machine's actual output to the nearest legal clone.  The Hilbert-space
instance of the diagram checker (``hilbert_instance``, ``hilbert_cloning_diagram``
and the reader of its file, ``hilbert_diagram_from_json``) is here too.  This
module and ``symclone.probe`` are the only parts of symclone that load
numpy, which the ``float`` extra installs.
"""

from __future__ import annotations

import sys

import numpy as np

from ._record import Record
from .diagrams import CloningDiagram, DiagramInstance
from .exact import ShapeError, _json_int, _json_object

# Absolute tolerance of every float check on the Hilbert-space side: isometry
# defect, unit norms, the overlap range and arrow equality in the Hilbert
# diagram instance.
FLOAT_TOL = 1e-9


class HypothesisViolationError(ValueError):
    """The chosen state pair cannot drive the overlap contradiction."""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two arrays of any shapes, as complex numbers:
    ``np.kron`` of the two arrays made complex."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _as_map(U) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2:
        raise ShapeError(f"U must be a matrix, got an array of shape {U.shape}")
    return U


# rows per block of the Gram matrix in isometry_defect.  At n = 256 a block
# and the conjugate columns it is formed from take 128 KB each, and the
# defect took 2.7 ms, against 3.4 ms for the full n x n Gram matrix and
# 3.2 ms in blocks of 16 (medians of 50, one BLAS thread, 2-vCPU VM)
_GRAM_BLOCK = 32


def isometry_defect(U: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity; U must be a matrix.

    U†U is Hermitian, so it is formed in row blocks of _GRAM_BLOCK over its
    upper block triangle, each block minus the identity on its diagonal,
    with a running maximum: no n x n temporaries, and the entries the full
    product would give, so the same value bit for bit.  A map with no
    columns is vacuously an isometry: its Gram matrix is empty."""
    U = _as_map(U)
    n = U.shape[1]
    worst = 0.0
    for lo in range(0, n, _GRAM_BLOCK):
        b = min(_GRAM_BLOCK, n - lo)
        gram = U[:, lo : lo + b].conj().T @ U[:, lo:]
        gram[:, :b].flat[:: b + 1] -= 1.0
        worst = np.maximum(worst, np.max(np.abs(gram)))  # NaN propagates, as in np.max
    return float(worst)


def is_isometry(U: np.ndarray) -> bool:
    """True iff U preserves inner products up to FLOAT_TOL; a map into a
    smaller space can never qualify."""
    U = _as_map(U)
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
    if not abs(norm - 1.0) <= FLOAT_TOL:  # true for a NaN norm too
        raise ValueError(f"{name} must be a unit vector (norm {norm:.3g})")
    return v


class Refutation(Record):
    """Outcome of running the overlap argument against a candidate machine:
    what was measured on the state pair, and the values read off it."""

    def __init__(
        self,
        overlap: complex,            # <psi, psi2>
        preserved_overlap: complex,  # <U(psi x beta x rho), U(psi2 x beta x rho)>
        residual_per_state: tuple[float, float],  # distance to the nearest legal clone
    ):
        self.__dict__.update(
            overlap=overlap, preserved_overlap=preserved_overlap, residual_per_state=residual_per_state
        )

    @property
    def implied_machine_overlap(self) -> float:  # |<f(psi), f(psi2)>| forced by cloning
        return 1.0 / abs(self.overlap)

    @property
    def cauchy_schwarz_excess(self) -> float:  # the implied overlap minus the unit bound
        return self.implied_machine_overlap - 1.0

    @property
    def cloning_residual(self) -> float:  # the worst distance to a legal clone
        return max(self.residual_per_state)

    def to_json(self) -> dict:
        return {
            "overlap": [self.overlap.real, self.overlap.imag],
            "preserved_overlap": [self.preserved_overlap.real, self.preserved_overlap.imag],
            "implied_machine_overlap": self.implied_machine_overlap,
            "cauchy_schwarz_excess": self.cauchy_schwarz_excess,
            "cloning_residual": self.cloning_residual,
            "residual_per_state": list(self.residual_per_state),
        }


def _clone_distance(x: np.ndarray, out: np.ndarray) -> float:
    """Distance from a machine output to the closest unit vector x x x x (machine
    state), from the output's amplitudes on the x x x x e_j slice."""
    proj = float(np.linalg.norm(kron(x, x).conj() @ out.reshape(len(x) ** 2, -1)))
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * proj)))


def _prepared(U: np.ndarray, beta: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """W = U (I x beta x rho), the d^2 dk x d matrix that sends psi to U(psi x
    beta x rho); d and dk are the lengths of beta and rho."""
    d, dk = len(beta), len(rho)
    if U.shape != (d * d * dk, d * d * dk):
        raise ShapeError("candidate arrow does not act on object x copy x machine")
    return U @ kron(kron(np.eye(d), beta.reshape(-1, 1)), rho.reshape(-1, 1))


def refute_cloning(U: np.ndarray, beta, rho, psi, psi2) -> Refutation:
    """Run the no-cloning contradiction against a candidate copying isometry.

    Requires U isometric (checked before the states) and a state pair with
    overlap strictly between 0 and 1 in modulus.  If U cloned both states,
    preservation of inner products would force the machine outputs to overlap
    with modulus 1/|<psi, psi2>|, exceeding the unit bound; the excess is
    reported together with the actual distance from U's output to the nearest
    exact clone.  The outputs are W psi and W psi2, for the prepared arrow W =
    U (I x beta x rho) that the Hilbert diagram's readout also reads.
    """
    U = _as_map(U)
    if not is_isometry(U):
        raise ValueError("U is not an isometry at the module tolerance")
    return _refute(_prepared(U, _as_state(beta, "beta"), _as_state(rho, "rho")), psi, psi2)


def _refute(W: np.ndarray, psi, psi2) -> Refutation:
    # W is the prepared arrow of an isometry: psi -> U(psi x beta x rho)
    psi = _as_state(psi, "psi")
    psi2 = _as_state(psi2, "psi2")
    if not len(psi) == len(psi2) == W.shape[1]:
        raise ShapeError("state length does not match the object dimension")
    if len(psi) == 1:
        raise HypothesisViolationError(
            "object space has dimension 1: no valid state pair exists "
            "(every pair of unit vectors is parallel)"
        )
    t = complex(np.vdot(psi, psi2))
    if abs(t) <= FLOAT_TOL or abs(abs(t) - 1.0) <= FLOAT_TOL:
        raise HypothesisViolationError(
            f"|<psi, psi2>| = {abs(t):.3g}; the argument needs {FLOAT_TOL:g} < |overlap| < 1 - {FLOAT_TOL:g}"
        )

    outputs = [W @ x for x in (psi, psi2)]
    preserved = complex(np.vdot(*outputs))
    residuals = tuple(_clone_distance(x, out) for x, out in zip((psi, psi2), outputs))
    return Refutation(t, preserved, residuals)


def standard_refutation(d: int, overlap: float = 2 ** -0.5) -> Refutation:
    """Refute the basis-copying machine on C^d with a trivial machine space.

    Uses beta = psi = |0> and psi2 = overlap*|0> + sqrt(1-overlap^2)*|1>, and
    ``basis_cloner(d)`` as its prepared arrow |i> -> |i, i>, a d^2 x d matrix:
    the cloner, a permutation, is neither formed nor checked for isometry.
    """
    if not 0.0 < overlap < 1.0:
        raise HypothesisViolationError("overlap must lie strictly between 0 and 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    W = np.zeros((d * d, d), dtype=complex)
    W[np.arange(d) * (d + 1), np.arange(d)] = 1.0
    if d == 1:
        return _refute(W, [1.0], [1.0])  # raises the dimension-specific message
    e0, e1 = np.eye(d)[:, :2].T
    return _refute(W, e0, overlap * e0 + np.sqrt(1.0 - overlap**2) * e1)


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _json_complex(entry) -> complex:
    """An ``[re, im]`` pair of JSON numbers that are finite as doubles.
    ``json.load`` accepts NaN, Infinity and -Infinity, reads ``1e999`` as
    inf and a 400-digit integer as an int no double holds; booleans are ints
    to Python.  Each of these is refused."""
    # a JSON string or object is iterable too, and would unpack as a pair
    if not isinstance(entry, list) or len(entry) != 2:
        raise TypeError("an amplitude must be an [re, im] pair")
    re, im = entry
    for x in (re, im):
        if type(x) not in (int, float):
            raise TypeError(f"complex parts must be JSON numbers, got {type(x).__name__}")
        if not abs(x) <= sys.float_info.max:  # false for NaN too; exact for ints
            raise ValueError("complex parts must be finite doubles, not NaN, infinite or out of range")
    return complex(re, im)


def complex_matrix_from_json(data: dict, name: str = "matrix") -> np.ndarray:
    """The complex matrix of a ``{"rows", "cols", "entries"}`` object, the
    field ``name`` of its document."""
    entries = _json_object(data, name)["entries"]
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise TypeError("matrix entries must be a JSON list of lists")
    a = np.array([[_json_complex(z) for z in row] for row in entries], dtype=complex)
    shape = (_json_int(data, "rows"), _json_int(data, "cols"))
    if a.size == 0:
        a = a.reshape(shape)
    if a.shape != shape:
        raise ValueError("entry grid does not match declared rows/cols")
    return a


def complex_vector_from_json(entries) -> np.ndarray:
    if not isinstance(entries, list):
        raise TypeError("a vector must be a JSON list")
    return np.array([_json_complex(z) for z in entries], dtype=complex)


def hilbert_diagram_from_json(data: dict) -> tuple[DiagramInstance, CloningDiagram]:
    """The Hilbert diagram of a ``{"unitary", "beta", "rho"?}`` file, whose
    unitary must be an isometry and beta and rho unit vectors: amplitudes near
    the double range would otherwise overflow into a verdict on inf and NaN.
    These checks come before the diagram is built."""
    data = _json_object(data, "a Hilbert diagram document")
    U = complex_matrix_from_json(data["unitary"], "unitary")
    beta = complex_vector_from_json(data["beta"])
    rho = complex_vector_from_json(data["rho"]) if "rho" in data else None
    # an overflow makes the isometry defect or a norm inf or NaN, which fails
    # the check; numpy need not warn about it as well
    with np.errstate(over="ignore", invalid="ignore"):
        _as_state(beta, "beta")
        if rho is not None:
            _as_state(rho, "rho")
        if not is_isometry(U):
            raise ValueError("unitary is not an isometry at the module tolerance")
    return hilbert_cloning_diagram(U, beta, rho)


# ---------------------------------------------------------------------------
# the Hilbert-space diagram instance


class _Hilbert(DiagramInstance):
    __slots__ = ()
    name = "hilbert"
    unit = 1
    exhaustive = False

    def identity(self, obj: int) -> np.ndarray:
        return np.eye(obj, dtype=complex)

    def compose(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return np.asarray(g, dtype=complex) @ np.asarray(h, dtype=complex)

    def tensor(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return kron(np.atleast_2d(g), np.atleast_2d(h))

    def equal(self, g: np.ndarray, h: np.ndarray) -> bool:
        g, h = np.atleast_2d(g), np.atleast_2d(h)
        if g.shape != h.shape:
            return False
        return g.size == 0 or float(np.max(np.abs(g - h))) <= FLOAT_TOL

    def state_arrow(self, obj: int, psi) -> np.ndarray:
        psi = np.asarray(psi, dtype=complex).reshape(-1, 1)
        if psi.shape[0] != obj:
            raise ShapeError("state length does not match the object dimension")
        return psi

    def family(self, obj: int, states) -> np.ndarray:
        # the states as columns
        columns = [self.state_arrow(obj, x) for x in states]
        return np.concatenate([np.empty((obj, 0), dtype=complex)] + columns, axis=1)

    def pair(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        # column by column Kronecker products (the Khatri-Rao product)
        return (g[:, np.newaxis] * h).reshape(len(g) * len(h), g.shape[1])

    def members_equal(self, g: np.ndarray, h: np.ndarray) -> list[bool]:
        if g.shape != h.shape:
            return [False] * g.shape[1]
        return (np.max(np.abs(g - h), axis=0, initial=0.0) <= FLOAT_TOL).tolist()

    def sample_states(self, obj: int, count: int = 8, rng=None) -> list[np.ndarray]:
        # the basis, then count random states; rng is a Generator or a seed (None: 0)
        rng = np.random.default_rng(0 if rng is None else rng)
        return [np.eye(obj)[:, j] for j in range(obj)] + [random_state(obj, rng) for _ in range(count)]


_HILBERT = _Hilbert()


def hilbert_instance() -> DiagramInstance:
    """Finite-dimensional Hilbert spaces; arrows are complex matrices,
    equality is entrywise within FLOAT_TOL.  Objects are dimensions."""
    return _HILBERT


def hilbert_cloning_diagram(U: np.ndarray, beta, rho=None) -> tuple[DiagramInstance, CloningDiagram]:
    """Wrap a candidate copying isometry as a Hilbert cloning diagram.

    The readout f is induced: f(psi) is the normalized projection of
    U(psi x beta x rho) onto the psi x psi x K slice, so the diagram commutes
    at psi exactly when U clones psi.  Below a norm of FLOAT_TOL, f falls back
    to the first machine basis state.  f takes a family, the states as the
    columns of Psi, and reads U(Psi x beta x rho) as W Psi, with the prepared
    arrow W the refuter reads too, formed once: a block costs no product with U.
    """
    U = np.asarray(U, dtype=complex)
    beta = np.asarray(beta, dtype=complex).reshape(-1)
    d = len(beta)
    if rho is None:
        rho = np.array([1.0 + 0.0j])
    rho = np.asarray(rho, dtype=complex).reshape(-1)
    dk = len(rho)
    inst = hilbert_instance()
    W = _prepared(U, beta, rho)

    def readout(psi: np.ndarray) -> np.ndarray:
        # column n of the amplitudes is psi_n x psi_n paired with the dk
        # columns of W psi_n read as a d^2 x dk matrix
        out = (W @ psi).reshape(d * d, dk, psi.shape[1])
        amps = np.einsum("in,ijn->jn", inst.pair(psi, psi).conj(), out)
        norm = np.linalg.norm(amps, axis=0)
        fallback = norm < FLOAT_TOL
        amps[:, fallback], norm[fallback] = np.eye(dk)[:, :1], 1.0
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

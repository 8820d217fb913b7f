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
from .exact import ShapeError, _json_int

# Absolute tolerance of every float check on the Hilbert-space side: isometry
# defect, unit norms, the overlap range and arrow equality in the Hilbert
# diagram instance.
FLOAT_TOL = 1e-9


class HypothesisViolationError(ValueError):
    """The chosen state pair cannot drive the overlap contradiction."""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two arrays of any shapes, as complex numbers.

    The result equals ``np.kron`` of the two complex arrays bit for bit, for
    any two arrays: each entry is the same single product, made by one
    multiply on the operand layout that ``np.kron`` builds.  The array with
    fewer axes gets leading unit axes, and a (m, n) by (p, q) product is
    a[i, k] * b[j, l] at [i, j, k, l], read as (mp, nq).  Two reshapes stand
    in for ``np.kron``'s Python-level ``expand_dims`` calls, which cost about
    four times the multiply on short vectors.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    nd = max(a.ndim, b.ndim)
    sa = (1,) * (nd - a.ndim) + a.shape
    sb = (1,) * (nd - b.ndim) + b.shape
    product = a.reshape([x for n in sa for x in (n, 1)]) * b.reshape([x for n in sb for x in (1, n)])
    return product.reshape([m * n for m, n in zip(sa, sb)])


def _as_map(U) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2:
        raise ShapeError(f"U must be a matrix, got an array of shape {U.shape}")
    return U


def isometry_defect(U: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity; U must be a matrix."""
    U = _as_map(U)
    n = U.shape[1]
    gram = U.conj().T @ U
    gram.flat[:: n + 1] -= 1.0  # minus the identity, in place: no n x n temporaries
    # a map with no columns is vacuously an isometry: its Gram matrix is empty
    return float(np.max(np.abs(gram), initial=0.0))


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


def refute_cloning(U: np.ndarray, beta, rho, psi, psi2) -> Refutation:
    """Run the no-cloning contradiction against a candidate copying isometry.

    Requires U isometric and a state pair with overlap strictly between 0 and
    1 in modulus.  If U cloned both states, preservation of inner products
    would force the machine outputs to overlap with modulus 1/|<psi, psi2>|,
    exceeding the unit bound; the excess is reported together with the actual
    distance from U's output to the nearest exact clone.
    """
    return _refute(np.asarray(U, dtype=complex), beta, rho, psi, psi2, check_isometry=True)


def _refute(U: np.ndarray, beta, rho, psi, psi2, check_isometry: bool) -> Refutation:
    # check_isometry=False is for a complex U that is an isometry by
    # construction, such as the basis cloner (a permutation), which spares the
    # d^6 Gram product of the check
    beta = _as_state(beta, "beta")
    rho = _as_state(rho, "rho")
    psi = _as_state(psi, "psi")
    psi2 = _as_state(psi2, "psi2")
    if len(psi) == 1:
        raise HypothesisViolationError(
            "object space has dimension 1: no valid state pair exists "
            "(every pair of unit vectors is parallel)"
        )
    if check_isometry and not is_isometry(U):
        raise ValueError("U is not an isometry at the module tolerance")
    t = complex(np.vdot(psi, psi2))
    if abs(t) <= FLOAT_TOL or abs(abs(t) - 1.0) <= FLOAT_TOL:
        raise HypothesisViolationError(
            f"|<psi, psi2>| = {abs(t):.3g}; the argument needs 0 < |overlap| < 1"
        )

    outputs = [U @ kron(kron(x, beta), rho) for x in (psi, psi2)]
    preserved = complex(np.vdot(*outputs))
    residuals = tuple(_clone_distance(x, out) for x, out in zip((psi, psi2), outputs))
    return Refutation(t, preserved, residuals)


def standard_refutation(d: int, overlap: float = 2 ** -0.5) -> Refutation:
    """Refute the basis-copying machine on C^d with a trivial machine space.

    Uses beta = psi = |0> and psi2 = overlap*|0> + sqrt(1-overlap^2)*|1>.
    """
    if not 0.0 < overlap < 1.0:
        raise HypothesisViolationError("overlap must lie strictly between 0 and 1")
    U = basis_cloner(d)
    if d < 2:
        # let _refute raise the dimension-specific message
        return _refute(U, [1.0], [1.0], [1.0], [1.0], check_isometry=False)
    e0 = np.eye(d)[:, 0]
    psi2 = overlap * np.eye(d)[:, 0] + np.sqrt(1.0 - overlap**2) * np.eye(d)[:, 1]
    return _refute(U, e0, [1.0], e0, psi2, check_isometry=False)


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


def hilbert_diagram_from_json(data: dict) -> tuple[DiagramInstance, CloningDiagram]:
    """The Hilbert diagram of a ``{"unitary", "beta", "rho"?}`` file, whose
    unitary must be an isometry and beta and rho unit vectors: amplitudes near
    the double range would otherwise overflow into a verdict on inf and NaN.
    These checks come before the diagram is built."""
    U = complex_matrix_from_json(data["unitary"])
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
    columns of Psi, and reads U(Psi x beta x rho) as W Psi, where W = U (I x
    beta x rho) is formed once: a d^2 dk x d matrix, so a block costs one
    product with W and none with U.
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
    W = U @ kron(kron(np.eye(d), beta.reshape(-1, 1)), rho.reshape(-1, 1))

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

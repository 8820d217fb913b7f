"""Seeded input generators for the benchmark.

Every generator is a pure function of its arguments and an RNG, so the same
seed always yields the same inputs.  Nothing here imports symclone: the
program under test only ever sees what these functions produce.  Process and
form documents use the program's JSON layout (rationals as strings, dumped
with ``indent=2, sort_keys=True``), so a generated standard process is
byte-identical to what ``construct-general`` prints for the same dimension.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# The explicit 6x6 copying map on R^2 x R^2 x R^2 and its readout, from the
# paper's basic construction; the standard process of dimension 2n places n
# copies of it in object/copy/machine block order.
BASIC_PHI = (
    (1, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 0, -1),
    (1, 0, -1, 0, 1, 0),
    (0, 1, 0, -1, 0, -1),
    (1, 0, 0, 0, 1, 0),
    (0, -1, 0, 1, 0, 2),
)
BASIC_READOUT = ((1, 0), (0, -1))


def op_rng(seed: int, index: int) -> random.Random:
    """RNG for op ``index`` of a run with ``seed``; ops never share a stream."""
    return random.Random(f"{seed}:{index}")


def dumps(doc) -> str:
    """Serialise like the CLI's JSON output (trailing newline included)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def bits(x: Fraction) -> int:
    """Bit height of a rational: the longer of numerator and denominator."""
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def matrix_json(rows: list[list]) -> dict:
    cols = len(rows[0]) if rows else 0
    return {"rows": len(rows), "cols": cols, "entries": [[str(x) for x in r] for r in rows]}


def form_json(rows: list[list]) -> dict:
    out = matrix_json(rows)
    out["dim"] = len(rows)
    return out


def standard_form(n: int) -> list[list[int]]:
    d = 2 * n
    j = [[0] * d for _ in range(d)]
    for p in range(n):
        j[2 * p][2 * p + 1] = 1
        j[2 * p + 1][2 * p] = -1
    return j


def rank(rows: list[list[Fraction]]) -> int:
    """Rank by Fraction Gaussian elimination."""
    m = [list(r) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def random_skew_form(dim: int, rng: random.Random, max_num: int = 5, max_den: int = 3):
    """Nondegenerate rational skew form A - A^T, A with entries p/q,
    |p| <= max_num and 1 <= q <= max_den."""
    while True:
        a = [
            [Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den)) for _ in range(dim)]
            for _ in range(dim)
        ]
        s = [[a[i][j] - a[j][i] for j in range(dim)] for i in range(dim)]
        if rank(s) == dim:
            return s


def standard_process(n: int) -> dict:
    """The n-fold standard cloning process on (R^2n, J), as a JSON document."""
    d = 2 * n
    phi = [[0] * (3 * d) for _ in range(3 * d)]
    readout = [[0] * d for _ in range(d)]
    for p in range(n):
        for i in range(6):
            gi = (i // 2) * d + 2 * p + i % 2
            for j in range(6):
                phi[gi][(j // 2) * d + 2 * p + j % 2] = BASIC_PHI[i][j]
        for i in range(2):
            for j in range(2):
                readout[2 * p + i][2 * p + j] = BASIC_READOUT[i][j]
    j = form_json(standard_form(n))
    return {
        "object_form": j,
        "blank": ["0"] * d,
        "machine_form": j,
        "ready": ["0"] * d,
        "phi": matrix_json(phi),
        "readout": matrix_json(readout),
    }


def perturb_phi(doc: dict, rng: random.Random) -> dict:
    """Copy of a process document with one object-input column entry of phi
    shifted by 1, -1 or 2, which breaks the copying action."""
    dim = doc["object_form"]["dim"]
    rows = [list(r) for r in doc["phi"]["entries"]]
    r, s = rng.randrange(2 * dim), rng.randrange(dim)
    rows[r][s] = str(Fraction(rows[r][s]) + rng.choice([1, -1, 2]))
    return {**doc, "phi": {**doc["phi"], "entries": rows}}


def undersized_candidate(m: int, k: int, rng: random.Random) -> dict:
    """Candidate process with object dim 2m > machine dim 2k (k < m), a random
    object form, a random integer readout and a random integer phi."""
    dm, dn = 2 * m, 2 * k
    total = 2 * dm + dn

    def ints(rows: int, cols: int) -> list[list[int]]:
        return [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]

    readout = matrix_json(ints(dn, dm))
    readout["cols"] = dm  # matrix_json cannot see the width of a 0-row matrix
    return {
        "object_form": form_json(random_skew_form(dm, rng)),
        "blank": ["0"] * dm,
        "machine_form": form_json(standard_form(k)),
        "ready": ["0"] * dn,
        "phi": matrix_json(ints(total, total)),
        "readout": readout,
    }


def basis_cloner(d: int) -> dict:
    """Controlled shift |i, j> -> |i, i + j mod d> with blank |0>, as the
    ``diagram-check --instance hilb`` input document."""
    n = d * d
    entries = [[[0.0, 0.0] for _ in range(n)] for _ in range(n)]
    for i in range(d):
        for j in range(d):
            entries[i * d + (j + i) % d][i * d + j] = [1.0, 0.0]
    beta = [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1)
    return {"unitary": {"rows": n, "cols": n, "entries": entries}, "beta": beta}


def random_state(d: int, rng):
    """Haar-random unit vector in C^d from a numpy Generator."""
    import numpy as np

    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_isometry(n: int, rng):
    """Haar-random n x n unitary from a numpy Generator (QR with phases fixed)."""
    import numpy as np

    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()[np.newaxis, :]

"""The residual probe: a floating-point search for a near-cloning map with an
undersized machine.

``clone_residual_probe`` minimizes the symplectic defect of copying maps on
object x copy x machine with L-BFGS from random restarts, run as one batch by
``_lbfgs``.  It searches the regime where ``classical.readout_solver`` proves
that no cloning process exists, and the defect it finds sits on the floor
that ``classical.defect_floor`` attains exactly.  This is the one module of
the classical side that needs numpy, so it loads only when the probe runs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .classical import _check_undersized

# L-BFGS-B's default stopping tolerances: factr (1e7) times machine epsilon
# on the relative decrease, pgtol on the largest gradient entry
_FTOL = 1e7 * sys.float_info.epsilon
_GTOL = 1e-5
# (step, gradient change) pairs each row's two-loop recursion keeps
_HISTORY = 5


def _lbfgs(objective, x: np.ndarray, maxiter: int) -> np.ndarray:
    """Lowest objective value L-BFGS (Nocedal, Math. Comp. 35, 1980) reaches
    from each row of x.

    ``objective`` maps an (r, n) stack of points to their r values and their
    (r, n) gradients.  The rows run as one batch, but each follows its own
    rules: the direction comes from the two-loop recursion over the row's
    last five (step, gradient change) pairs with s.y > 0; the step is the
    first of 1, 1/2, ... (20 halvings at most; 1/|grad| while the row has no
    pair) meeting the Armijo condition.  A row stops like L-BFGS-B's
    defaults, after maxiter iterations, a relative decrease <= _FTOL or max
    |grad| <= _GTOL, or when its line search runs out, and then leaves the
    batch.  Each row returns, bit for bit, what the tests' one-row ``lbfgs``
    returns: the same ufuncs on the same operands in the same order.
    """

    def dot(a, b):  # row by row
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]

    rows, n = x.shape
    best = np.empty(rows)
    live = np.arange(rows)  # the input row of each row still running
    # One ring of _HISTORY + 1 slots for all rows: slot (head - j) % ring holds
    # each row's j-th newest pair, and slot head takes the next one.  A slot
    # never written has rho = 0, so the recursion passes it unchanged.  Each
    # vector is a 1 x n matrix, so a batched matmul with a column takes the
    # dot products of all rows at once.  The recursion reads the slots through
    # views, made again only when rows leave, newest first for each head;
    # where all rows agree, shortcuts skip the general path's masks.
    ring = _HISTORY + 1
    s_ring = np.zeros((ring, rows, 1, n))
    y_ring = np.zeros((ring, rows, 1, n))
    rho = np.zeros((ring, rows))  # 1 / y.s
    gamma = np.ones(rows)  # rho y.y of the newest pair, 1 before the first
    head, paired, views = 0, False, None  # paired: every row has a pair
    f, g = objective(x)
    value = f  # what each row returns if it stops here
    stop = np.abs(g).max(axis=1) <= _GTOL
    for _ in range(maxiter):
        if stop.any():
            best[live[stop]] = value[stop]
            go = ~stop
            live, x, f, g, gamma = live[go], x[go], f[go], g[go], gamma[go]
            s_ring, y_ring, rho, views = s_ring[:, go], y_ring[:, go], rho[:, go], None
            if not live.size:
                return best
        if views is None:
            slot = list(zip(s_ring, y_ring, rho[:, :, None, None]))  # (s, y, rho) each
            views = [[slot[(h - j) % ring] for j in range(1, ring)] for h in range(ring)]
        q = g.copy()
        q_row, q_col = q[:, None, :], q[:, :, None]
        term = np.empty_like(q_row)  # one buffer for the recursion's updates
        alphas = []
        for s, y, r in views[head]:
            alphas.append(r * np.matmul(s, q_col))
            q_row -= np.multiply(alphas[-1], y, out=term)
        q /= gamma[:, None]
        for (s, y, r), a in zip(reversed(views[head]), reversed(alphas)):
            q_row += np.multiply(a - r * np.matmul(y, q_col), s, out=term)
        slope = -dot(g, q)
        paired = paired or (rho[head - 1] > 0).all()  # then np.where gives all 1
        step = 1.0 if paired else np.where(rho[head - 1] > 0, 1.0, 1.0 / np.sqrt(dot(g, g)))
        x_new = x - q if paired else x - step[:, None] * q  # 1 * q is q
        f_new, g_new = objective(x_new)
        short = ~(f_new <= f + 1e-4 * step * slope)
        cut = short.any()  # some row backtracks, with a step of its own
        step = np.full(len(live), step) if cut else step
        for _ in range(20 if cut else 0):
            i = np.flatnonzero(short)
            if not i.size:
                break
            step[i] /= 2
            x_new[i] = x[i] - step[i, None] * q[i]
            f_new[i], g_new[i] = objective(x_new[i])
            short[i] = ~(f_new[i] <= f[i] + 1e-4 * step[i] * slope[i])
        # a row still short has no sufficient decrease left at working precision
        s = np.subtract(x_new, x, out=s_ring[head, :, 0])
        y = np.subtract(g_new, g, out=y_ring[head, :, 0])
        sy = dot(s, y)
        kept = (sy > 0) & ~short if cut else sy > 0
        keep = slice(None) if kept.all() else kept  # no mask when every row keeps
        rho[head, keep] = 1.0 / sy[keep]
        gamma[keep] = rho[head, keep] * dot(y, y)[keep]
        if keep is kept:
            # a row that keeps no pair turns its ring one slot on, so that
            # its newest pair stays in slot head - 1 and slot head is free
            i = np.flatnonzero(~kept)
            s_ring[:, i] = np.roll(s_ring[:, i], 1, axis=0)
            y_ring[:, i] = np.roll(y_ring[:, i], 1, axis=0)
            rho[:, i] = np.roll(rho[:, i], 1, axis=0)
        head = (head + 1) % ring
        value = np.where(short, f, f_new) if cut else f_new
        decrease = (f - value) / np.maximum(np.maximum(np.abs(f), np.abs(value)), 1.0)
        stop = short | (decrease <= _FTOL) | (np.abs(g_new).max(axis=1) <= _GTOL)
        x, f, g = x_new, f_new, g_new
    best[live] = value
    return best


def clone_residual_probe(m: int, k: int, iterations: int, seed: int) -> float:
    """Numerical search for a near-symplectic copying map with an undersized machine.

    The search space keeps the copying constraint exact by construction: the
    object and copy rows of the first 2m columns of the candidate map are
    pinned to (x, x), so those columns are (x, x, Fx) with the readout F
    free, and the remaining columns (action on the blank copy and the
    machine) are unconstrained.  L-BFGS with random restarts minimizes the
    squared Frobenius norm of the symplectic defect.  The restarts run as one
    batch, each by its own rules: it stops after its share of the
    iterations, a relative decrease <= 2.2e-9, a largest gradient entry <=
    1e-5 (the defaults of L-BFGS-B) or a failed line search, and then leaves
    the batch.  Returns the norm of the best defect found.  Only the
    infeasible regime k < m is accepted.

    The result is bounded below by sqrt(2(m - k)): with the copying columns
    pinned, the defect's object-object block is omega + F^T sigma F, whose
    second term has rank at most 2k, and every singular value of omega = J_m
    is 1, so by Eckart-Young-Mirsky the block is at least sqrt(2m - 2k) away
    from zero in Frobenius norm.  For k = 0 the block is omega itself.
    ``defect_floor`` gives an exact map that attains the bound.
    """
    _check_undersized(m, k)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    dm, dn = 2 * m, 2 * k
    d = 2 * dm + dn

    def times_xi(phi: np.ndarray) -> np.ndarray:
        # Xi = J_m + J_m + J_k is a signed permutation: row 2i of Xi phi is
        # row 2i + 1 of phi, and row 2i + 1 is minus row 2i
        a = np.empty_like(phi)
        a[:, 0::2] = phi[:, 1::2]
        np.negative(phi[:, 0::2], out=a[:, 1::2])
        return a

    xi = times_xi(np.eye(d)[None])[0]
    pinned = np.zeros((d, d))
    pinned[: 2 * dm, :dm] = np.tile(np.eye(dm), (2, 1))
    free = np.ones((d, d))
    free[: 2 * dm, :dm] = 0.0
    grad_scale = -4.0 * free

    def objective(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi = x.reshape(-1, d, d)
        a = times_xi(phi)
        delta = np.matmul(phi.transpose(0, 2, 1), a)
        delta -= xi
        # d/dphi ||phi^T Xi phi - Xi||^2 = -4 Xi phi delta, zero on the pinned entries
        grad = np.matmul(a, delta)
        grad *= grad_scale
        return np.einsum("rij,rij->r", delta, delta), grad.reshape(x.shape)

    rng = np.random.default_rng(seed)
    restarts = min(8, iterations)
    per_restart = max(1, iterations // restarts)
    # one draw of the stack gives the numbers of one draw per restart in turn
    phi = pinned + free * rng.standard_normal((restarts, d, d))
    return math.sqrt(_lbfgs(objective, phi.reshape(restarts, d * d), per_restart).min())

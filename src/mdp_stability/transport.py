"""Exact 1-Wasserstein distances between finite distributions.

The solver, a transportation (MODI) simplex run on stacks of problems of
one shape, returns the optimal coupling together with a feasible, tight
dual certificate (potentials u, v with u_i + v_j <= cost_ij, to a tolerance
relative to the largest cost, and u.mu + v.nu equal to the optimum), which
the stability arguments consume directly.  A batched entry point answers
many problems whose costs change from call to call, as in the fixed-point
metric iteration: each pivots on from its last optimal basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import _frozen

__all__ = [
    "TransportProblem",
    "TransportSolution",
    "solve_transport",
]

MARGINAL_TOL = 1e-9
# A basis is optimal once no reduced cost falls below -REUSE_TOL times
# max(1, the problem's largest cost); its plan is then within that much of
# the optimum.
REUSE_TOL = 1e-12
# After more than DEGENERATE_RUN pivots in a row that move no mass, a
# problem pivots by Bland's rule, which cannot cycle, for the rest of its
# solve; PIVOT_CAP bounds the pivots of one problem in one solve.
DEGENERATE_RUN = 20
PIVOT_CAP = 10_000


@dataclass(frozen=True)
class TransportProblem:
    """Marginals mu (length m), nu (length n) and an m-by-n cost matrix."""

    mu: np.ndarray
    nu: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        for name in ("mu", "nu", "cost"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        mu, nu, cost = self.mu, self.nu, self.cost
        if cost.shape != (len(mu), len(nu)):
            raise ValueError(f"cost shape {cost.shape} does not match marginals "
                             f"({len(mu)}, {len(nu)})")
        # Comparisons with NaN are false, so a NaN weight would pass the
        # sign and sum tests below.
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(nu))):
            raise ValueError("marginals must be finite")
        if np.any(mu < 0) or np.any(nu < 0):
            raise ValueError("marginals must be nonnegative")
        if abs(mu.sum() - 1.0) > MARGINAL_TOL or abs(nu.sum() - 1.0) > MARGINAL_TOL:
            raise ValueError(
                f"marginals must each sum to 1 (got {mu.sum()!r}, {nu.sum()!r})")
        if not np.all(np.isfinite(cost)) or np.any(cost < 0):
            raise ValueError("cost entries must be finite and nonnegative")


@dataclass(frozen=True)
class TransportSolution:
    """Optimal value, a coupling attaining it, and dual potentials."""

    value: float
    plan: np.ndarray
    dual_u: np.ndarray
    dual_v: np.ndarray


def solve_transport(problem: TransportProblem) -> TransportSolution:
    """Exact optimal transport between the problem's marginals.

    The simplex prices every cell, zero-weight support points included, so
    the potentials are a dual certificate over the full support, and the
    plan is zero on the rows and columns of zero weight.
    """
    m, n = problem.cost.shape
    cost = problem.cost.reshape(1, -1)
    basis, potential_map, flow = _northwest_corner(problem.mu[None],
                                                   problem.nu[None])
    _simplex(cost, basis, potential_map, flow, m, np.arange(1))
    uv = potential_map[0] @ cost[0, basis[0]]
    return TransportSolution(float(cost[0, basis[0]] @ flow[0]),
                             _scatter(basis, flow, m * n).reshape(m, n),
                             uv[:m], uv[m:])


class BatchedTransport:
    """Many transportation problems with fixed marginals and varying costs.

    Built once from a table of support rows: ``weights[r, :sizes[r]]`` is
    row r's weight vector (later entries are ignored), and problem k
    transports row ``pairs[k, 0]`` to row ``pairs[k, 1]``.  The problems
    are stacked by shape; each call to :meth:`values` returns all optimal
    values under new costs, and :meth:`couplings` the coupling behind each
    value.  Used by the metric fixed point, where the rows are transition
    rows and the cost is the current iterate.

    Point-mass problems have a forced coupling, and all-zero costs and
    identical marginals with a free diagonal have value 0, so none of these
    goes to the simplex.  Every other problem keeps, across calls, the
    spanning-tree basis and plan of its last solve (a northwest-corner
    basis before its first).  The basic costs fix dual potentials u, v
    through the basis's integer potential map.  When every reduced cost
    C - u - v is at least -``REUSE_TOL`` times max(1, largest cost), the
    stored plan is reused: it is feasible, and lowering u by that amount
    gives a feasible dual within it of the plan's value.  The problems that
    fail this test pivot on from their stored basis, all of one shape
    together, until it holds.  ``solved`` and ``reused`` count the two
    kinds of answer over the object's life.

    A problem's current coupling is the diagonal when its last answer was
    the free diagonal, otherwise its stored plan; a problem never solved
    (a point mass, or all costs zero so far) holds the product mu x nu.
    Each is feasible, and each attains the last value returned for it.
    """

    def __init__(self, weights, sizes, pairs):
        self.pairs = np.asarray(pairs, dtype=int)
        shape = np.asarray(sizes, dtype=int)[self.pairs]
        cells = shape[:, 0] * shape[:, 1]
        offsets = np.cumsum(cells) - cells
        self.n_costs = int(cells.sum())
        key = shape[:, 0] * (shape[:, 1].max(initial=0) + 1) + shape[:, 1]
        keys, group = np.unique(key, return_inverse=True)
        self.groups = []
        for g in range(len(keys)):
            members = np.nonzero(group == g)[0]
            m, n = shape[members[0]]
            self.groups.append(_ShapeGroup(
                members, weights[self.pairs[members, 0], :m],
                weights[self.pairs[members, 1], :n], offsets[members]))
        self.solved = 0
        self.reused = 0

    def values(self, costs: np.ndarray) -> np.ndarray:
        """Optimal values for this batch under new costs: ``costs`` holds
        each problem's (m, n) cost matrix, raveled and concatenated in
        problem order as a single 1-d array."""
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (self.n_costs,):
            raise ValueError(f"expected {self.n_costs} cost entries, "
                             f"got shape {costs.shape}")
        out = np.empty(len(self.pairs))
        for group in self.groups:
            value, solved, reused = group.answer(costs[group.cells])
            out[group.members] = value
            self.solved += solved
            self.reused += reused
        return out

    def couplings(self) -> np.ndarray:
        """Every problem's current coupling, raveled and concatenated in
        the cost layout that :meth:`values` takes."""
        flow = np.empty(self.n_costs)
        for group in self.groups:
            flow[group.cells.reshape(len(group.members), -1)] = \
                group.coupling()
        return flow


class _ShapeGroup:
    """The problems ``members`` of one (m, n) shape in a batch, stacked,
    with the basis and basic flows last stored for each."""

    def __init__(self, members, mu, nu, offsets):
        self.members = members
        self.mu, self.nu = mu, nu
        size, m = mu.shape
        n = nu.shape[1]
        self.shape = (m, n)
        # cells[g, i, j]: position of problem g's cost (i, j) in the batch.
        self.cells = offsets[:, None, None] + np.arange(m * n).reshape(m, n)
        self.forced = min(m, n) == 1
        # A point mass's coupling is the product, which never changes.
        self.product = (np.einsum("gi,gj->gij", mu, nu).reshape(size, m * n)
                        if self.forced else None)
        self.same = (np.all(mu == nu, axis=1) if m == n
                     else np.zeros(size, dtype=bool))
        self.known = np.zeros(size, dtype=bool)
        self.basis = np.zeros((size, m + n - 1), dtype=int)
        self.potential_map = np.zeros((size, m + n, m + n - 1))
        self.flow = np.zeros((size, m + n - 1))
        self.diagonal = np.zeros(size, dtype=bool)

    def answer(self, cost):
        """Optimal values under ``cost`` (stacked (m, n) matrices), with the
        number of problems solved and of those whose stored plan passed
        the optimality test unchanged; the problems answered by the free
        diagonal are kept in ``diagonal``."""
        if self.forced:
            # A point-mass marginal leaves the product coupling only.
            return np.einsum("gij,gi,gj->g", cost, self.mu, self.nu), 0, 0
        size = len(cost)
        flat = cost.reshape(size, -1)
        # All-zero costs (the metric's first application) have optimum 0,
        # and so do identical marginals with a free diagonal, because costs
        # are nonnegative.
        zero = ~flat.any(axis=1)
        if self.same.any():
            self.diagonal = self.same & (np.einsum("gii,gi->g", np.abs(cost),
                                                   self.mu) == 0.0)
            zero |= self.diagonal
        rows = np.nonzero(~zero)[0]
        if not len(rows):
            return np.zeros(size), 0, 0
        kept = self.known[rows]
        fresh = rows[~kept]
        if len(fresh):
            self.basis[fresh], self.potential_map[fresh], self.flow[fresh] = \
                _northwest_corner(self.mu[fresh], self.nu[fresh])
        pivots = _simplex(flat, self.basis, self.potential_map, self.flow,
                          self.shape[0], rows)
        reused = int(np.count_nonzero(kept & (pivots[rows] == 0)))
        self.known[rows] = True
        value = np.einsum("gk,gk->g", flat[np.arange(size)[:, None],
                                           self.basis], self.flow)
        return np.where(zero, 0.0, value), len(rows) - reused, reused

    def coupling(self):
        """The current coupling of every problem, one raveled row each."""
        if self.forced:
            return self.product
        m, n = self.shape
        plan = _scatter(self.basis, self.flow, m * n)
        fresh = ~self.known
        if fresh.any():
            plan[fresh] = np.einsum("gi,gj->gij", self.mu[fresh],
                                    self.nu[fresh]).reshape(-1, m * n)
        if self.diagonal.any():
            plan[self.diagonal] = 0.0
            plan[self.diagonal, ::m + 1] = self.mu[self.diagonal]
        return plan


def _scatter(basis, flow, cells):
    """Raveled plans, ``cells`` long, of stacked bases carrying ``flow``."""
    plan = np.zeros((len(basis), cells))
    plan[np.arange(len(basis))[:, None], basis] = flow
    return plan


def _northwest_corner(mu, nu):
    """Northwest-corner starts of stacked problems of one shape: basic
    cells (raveled indices), potential maps and basic flows.  The staircase
    from cell (0, 0) to (m-1, n-1), down when a row's supply is used up and
    right otherwise, is a spanning tree with nonnegative flows."""
    size, m = mu.shape
    n = nu.shape[1]
    supply, demand = mu.copy(), nu.copy()
    g = np.arange(size)
    i, j = np.zeros((2, size), dtype=int)
    basis = np.empty((size, m + n - 1), dtype=int)
    flow = np.empty((size, m + n - 1))
    for k in range(m + n - 1):
        x = np.minimum(supply[g, i], demand[g, j])
        basis[:, k] = i * n + j
        flow[:, k] = x
        supply[g, i] -= x
        demand[g, j] -= x
        down = (i < m - 1) & ((supply[g, i] <= 0) | (j == n - 1))
        i, j = i + down, j + ~down
    return basis, _potential_map(basis, m, n), flow


def _potential_map(basis, m, n):
    """Integer maps K with [u; v] = K c_B (u_i + v_j equal to the cost on
    every basic cell (i, j), u_0 = 0) for stacked spanning-tree bases: the
    rounded inverse of the tree's incidence matrix, with the row u_0 = 0
    appended, less its last column.  Row i plus row m + j of K is the basic
    cycle of cell (i, j)."""
    size = len(basis)
    i, j = np.divmod(basis, n)
    tree = np.zeros((size, m + n, m + n))
    g = np.arange(size)[:, None]
    edges = np.arange(m + n - 1)
    tree[g, edges, i] = 1.0
    tree[g, edges, m + j] = 1.0
    tree[:, -1, 0] = 1.0
    return np.rint(np.linalg.inv(tree))[:, :, :-1]


def _simplex(cost, basis, potential_map, flow, m, live):
    """Pivot the problems ``live`` of a stack of one shape to optimality,
    updating their feasible spanning-tree bases, potential maps and basic
    flows in place; ``cost`` holds raveled (m, n) costs.

    A problem is optimal when no reduced cost is below -``REUSE_TOL`` times
    max(1, its largest cost).  Otherwise its most negative cell enters
    (Dantzig's rule; the lowest such cell after a run of degenerate pivots,
    Bland's rule), and of the basic cells on its cycle whose flow runs out
    first the lowest leaves.  Those flows lose exactly their minimum, so
    plans stay nonnegative.  Returns the pivots each problem made; raises
    RuntimeError when one needs more than ``PIVOT_CAP``.
    """
    size, cells = cost.shape
    n = cells // m
    tol = REUSE_TOL * np.maximum(1.0, cost.max(axis=1, initial=0.0))
    pivots, run = np.zeros((2, size), dtype=int)
    while True:
        K, B = potential_map[live], basis[live]
        uv = np.einsum("gpk,gk->gp", K, cost[live[:, None], B])
        reduced = (cost[live].reshape(-1, m, n) - uv[:, :m, None]
                   - uv[:, None, m:]).reshape(-1, cells)
        enter = reduced < -tol[live, None]
        go = enter.any(axis=1)
        if not go.any():
            return pivots
        live, K, B = live[go], K[go], B[go]
        if pivots[live].max() >= PIVOT_CAP:
            raise RuntimeError(f"transport simplex did not reach an optimal "
                               f"basis in {PIVOT_CAP} pivots")
        g = np.arange(len(live))
        cell = np.where(run[live] > DEGENERATE_RUN, enter[go].argmax(axis=1),
                        reduced[go].argmin(axis=1))
        i, j = np.divmod(cell, n)
        cycle = K[g, i] + K[g, m + j]
        x = flow[live]
        ratio = np.where(cycle > 0, x, np.inf)
        theta = ratio.min(axis=1)
        out = np.where(ratio == theta[:, None], B, cells).argmin(axis=1)
        x -= theta[:, None] * cycle
        x[g, out] = theta
        B[g, out] = cell
        flow[live], basis[live] = x, B
        # The swap changes one row of the tree matrix, and the cycle is 1 at
        # the leaving edge: Sherman-Morrison's integral rank-one update.
        cycle[g, out] -= 1.0
        K -= K[g, :, out][:, :, None] * cycle[:, None, :]
        potential_map[live] = K
        pivots[live] += 1
        run[live] = np.where(theta == 0.0, run[live] + 1, 0)

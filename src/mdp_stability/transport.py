"""Exact 1-Wasserstein distances between finite distributions.

The solver returns the optimal coupling together with a feasible, tight
dual certificate (potentials u, v with u_i + v_j <= cost_ij and
u.mu + v.nu equal to the optimum), which the stability arguments consume
directly.  A batched entry point answers many independent problems whose
costs change from call to call, as in the fixed-point metric iteration:
it reuses each problem's last optimal plan while a reduced-cost test
certifies it, and solves the rest in one block-diagonal LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .mdp import _frozen

__all__ = [
    "TransportProblem",
    "TransportSolution",
    "solve_transport",
    "kr_lower_bound",
    "BatchedTransport",
]

MARGINAL_TOL = 1e-9
DUAL_TOL = 1e-9
# A stored transport plan is reused while no reduced cost falls below
# -REUSE_TOL, which keeps its value within REUSE_TOL of the optimum.
REUSE_TOL = 1e-12


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

    def to_document(self):
        return {"mu": self.mu.tolist(), "nu": self.nu.tolist(),
                "cost": self.cost.tolist()}


@dataclass(frozen=True)
class TransportSolution:
    """Optimal value, a coupling attaining it, and dual potentials."""

    value: float
    plan: np.ndarray
    dual_u: np.ndarray
    dual_v: np.ndarray


def solve_transport(problem: TransportProblem) -> TransportSolution:
    """Exact optimal transport between the problem's marginals.

    Zero-weight support points are dropped before the solve and reinstated
    as zero rows/columns of the plan; their potentials are filled in so the
    dual certificate stays feasible over the full support.
    """
    mu, nu, cost = problem.mu, problem.nu, problem.cost
    keep_i = np.nonzero(mu > 0)[0]
    keep_j = np.nonzero(nu > 0)[0]
    sub_cost = cost[np.ix_(keep_i, keep_j)]
    [(value, sub_plan, u, v)] = _solve_blocks(
        [(mu[keep_i], nu[keep_j], sub_cost)])

    plan = np.zeros_like(cost)
    plan[np.ix_(keep_i, keep_j)] = sub_plan
    dual_u = np.empty(len(mu))
    dual_v = np.empty(len(nu))
    dual_u[keep_i] = u
    dual_v[keep_j] = v
    # Reinstated points carry the largest feasible potentials: first u over
    # the solved v's, then v over every u, which keeps u_i + v_j <= cost_ij
    # for all pairs including dropped-dropped ones.
    drop_i = np.nonzero(mu <= 0)[0]
    drop_j = np.nonzero(nu <= 0)[0]
    for i in drop_i:
        dual_u[i] = np.min(cost[i, keep_j] - dual_v[keep_j])
    for j in drop_j:
        dual_v[j] = np.min(cost[:, j] - dual_u)
    return TransportSolution(value, plan, dual_u, dual_v)


def kr_lower_bound(problem: TransportProblem, f_left, f_right) -> float:
    """Weak-duality lower bound sum(f_left*mu) - sum(f_right*nu).

    The potential pair must satisfy f_left_i - f_right_j <= cost_ij for all
    (i, j); violations are rejected naming the worst offending pair.  The
    returned value never exceeds the optimal transport cost.  A solver
    certificate (u, v) satisfies u_i + v_j <= cost_ij, so it enters here as
    (u, -v), where it reproduces the optimum exactly.
    """
    f_left = np.asarray(f_left, dtype=float)
    f_right = np.asarray(f_right, dtype=float)
    if f_left.shape != problem.mu.shape or f_right.shape != problem.nu.shape:
        raise ValueError("potential lengths must match the marginals")
    slack = problem.cost - (f_left[:, None] - f_right[None, :])
    if slack.min() < -DUAL_TOL:
        i, j = np.unravel_index(np.argmin(slack), slack.shape)
        raise ValueError(
            f"infeasible potentials: f_left[{i}] - f_right[{j}] exceeds "
            f"cost[{i},{j}] by {-slack[i, j]!r}")
    return float(f_left @ problem.mu - f_right @ problem.nu)


class BatchedTransport:
    """Many transportation problems with fixed marginals and varying costs.

    Built once from a list of (mu, nu) support pairs, which are stacked by
    shape; each call to :meth:`values` returns all optimal values under new
    costs, and :meth:`couplings` the coupling behind each value.  Used by
    the metric fixed point, where the marginals are transition rows and the
    cost is the current iterate.

    Point-mass problems have a forced coupling, and all-zero costs and
    identical marginals with a free diagonal have value 0, so none of these
    needs a solve.  Every other problem keeps, across calls, the optimal
    plan of its last solve and, when that plan is a vertex, a spanning-tree
    basis that contains the plan's support.  The basic costs fix dual
    potentials u, v through an integer map.  When every reduced cost
    C - u - v is at least ``-REUSE_TOL``, the stored plan is still optimal
    to within ``REUSE_TOL``: it is feasible, and (u - REUSE_TOL, v) is a
    feasible dual whose value is the plan's value less ``REUSE_TOL``.  Only
    the problems that fail this test go into one block-diagonal HiGHS LP.
    ``solved`` and ``reused`` count the two kinds of answer over the
    object's life.

    A problem's current coupling is the diagonal when its last answer was
    the free diagonal, otherwise its stored plan; a problem never solved
    (a point mass, or all costs zero so far) holds the product mu x nu.
    Each is feasible, and each attains the last value returned for it.
    """

    def __init__(self, pairs):
        # pairs: list of (mu, nu) 1-d weight arrays (no zero trimming here;
        # callers pass trimmed supports alongside index arrays).
        self.pairs = [(np.asarray(mu, float), np.asarray(nu, float))
                      for mu, nu in pairs]
        sizes = [len(mu) * len(nu) for mu, nu in self.pairs]
        offsets = np.concatenate([[0], np.cumsum(sizes, dtype=int)])
        self.n_costs = int(offsets[-1])
        by_shape = {}
        for k, (mu, nu) in enumerate(self.pairs):
            by_shape.setdefault((len(mu), len(nu)), []).append(k)
        self.groups = [_ShapeGroup(self.pairs, members, offsets[members])
                       for members in by_shape.values()]
        self.solved = 0
        self.reused = 0

    def values(self, costs) -> np.ndarray:
        """Optimal values for this batch under new costs.

        ``costs`` is one (m, n) matrix per problem, or all of them raveled
        and concatenated in problem order as a single 1-d array.
        """
        if not (isinstance(costs, np.ndarray) and costs.ndim == 1):
            costs = np.concatenate([np.zeros(0)] + [
                np.ravel(np.asarray(c, float)) for c in costs])
        if costs.shape != (self.n_costs,):
            raise ValueError(f"expected {self.n_costs} cost entries, "
                             f"got shape {costs.shape}")
        out = np.empty(len(self.pairs))
        failed = []
        for group in self.groups:
            cost = costs[group.cells]
            value, reused, fail = group.screen(cost)
            out[group.members] = value
            self.reused += int(np.count_nonzero(reused))
            failed += [(group, r, cost[r]) for r in np.nonzero(fail)[0]]
        if failed:
            solutions = _solve_blocks([(group.mu[r], group.nu[r], cost)
                                       for group, r, cost in failed])
            for (group, r, cost), (value, plan, u, v) in zip(failed,
                                                             solutions):
                out[group.members[r]] = value
                group.store(r, cost, plan, u, v)
            self.solved += len(failed)
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
    """The problems of one (m, n) shape in a batch, stacked, with the plan
    and basis last stored for each."""

    def __init__(self, pairs, members, offsets):
        self.members = np.asarray(members)
        self.mu = np.array([pairs[k][0] for k in members])
        self.nu = np.array([pairs[k][1] for k in members])
        size, m = self.mu.shape
        n = self.nu.shape[1]
        self.shape = (m, n)
        # cells[g, i, j]: position of problem g's cost (i, j) in the batch.
        self.cells = offsets[:, None, None] + np.arange(m * n).reshape(m, n)
        self.forced = min(m, n) == 1
        self.same = (np.all(self.mu == self.nu, axis=1) if m == n
                     else np.zeros(size, dtype=bool))
        self.known = np.zeros(size, dtype=bool)
        self.basis = np.zeros((size, m + n - 1), dtype=int)
        self.potential_map = np.zeros((size, m + n, m + n - 1))
        self.plan = np.einsum("gi,gj->gij", self.mu, self.nu).reshape(size, -1)
        self.diagonal = np.zeros(size, dtype=bool)

    def screen(self, cost):
        """Values of the problems answered without a solve, with masks of
        those answered by a stored plan and of those left unanswered; the
        problems answered by the free diagonal are kept in ``diagonal``."""
        size = len(cost)
        if self.forced:
            # A point-mass marginal leaves the product coupling only.
            value = np.einsum("gij,gi,gj->g", cost, self.mu, self.nu)
            none = np.zeros(size, dtype=bool)
            return value, none, none
        m = self.shape[0]
        flat = cost.reshape(size, -1)
        # All-zero costs (the metric's first sweep) have optimum 0, and so
        # do identical marginals with a free diagonal, because costs are
        # nonnegative.
        zero = ~flat.any(axis=1)
        if self.same.any():
            self.diagonal = self.same & (np.einsum("gii,gi->g", np.abs(cost),
                                                   self.mu) == 0.0)
            zero |= self.diagonal
        uv = np.einsum("gpk,gk->gp", self.potential_map,
                       np.take_along_axis(flat, self.basis, axis=1))
        reduced = cost - uv[:, :m, None] - uv[:, None, m:]
        reused = self.known & ~zero & (reduced.min(axis=(1, 2)) >= -REUSE_TOL)
        value = np.where(zero, 0.0, np.einsum("gc,gc->g", flat, self.plan))
        return value, reused, ~(zero | reused)

    def store(self, r, cost, plan, u, v):
        """Keep problem r's freshly solved plan and, when the plan is a
        vertex, a spanning-tree basis around its support, completed by the
        cells the solver's duals price tightest, and the integer map from
        basic costs to [u; v]."""
        m, n = self.shape
        self.plan[r] = plan.ravel()
        basis = _spanning_basis(plan, cost - u[:, None] - v[None, :])
        self.known[r] = basis is not None
        if basis is None:
            return
        i, j = np.divmod(basis, n)
        tree = np.zeros((m + n, m + n))
        edges = np.arange(m + n - 1)
        tree[edges, i] = 1.0
        tree[edges, m + j] = 1.0
        tree[-1, 0] = 1.0  # normalisation u_0 = 0
        self.potential_map[r] = np.rint(np.linalg.inv(tree))[:, :-1]
        self.basis[r] = basis

    def coupling(self):
        """The current coupling of every problem, one raveled row each."""
        if not self.diagonal.any():
            return self.plan
        m = self.shape[0]
        diagonal = np.zeros_like(self.plan)
        diagonal[:, ::m + 1] = self.mu
        return np.where(self.diagonal[:, None], diagonal, self.plan)


def _spanning_basis(plan, reduced):
    """Cells (flat indices) of a spanning tree of the m-by-n bipartite
    graph that contains the plan's support, adding further cells in order
    of reduced cost; None when the support has a cycle (not a vertex)."""
    m, n = plan.shape
    support = plan.ravel() > 0
    root = list(range(m + n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    basis = []
    for cell in np.lexsort((reduced.ravel(), ~support)).tolist():
        a, b = find(cell // n), find(m + cell % n)
        if a == b:
            if support[cell]:
                return None
            continue
        root[a] = b
        basis.append(cell)
        if len(basis) == m + n - 1:
            break
    return np.array(basis)


def _solve_blocks(blocks):
    """One block-diagonal LP for independent transportation problems.

    Returns (value, plan, u, v) per block, with the solver's duals.
    """
    rows, cols, cvec, bvec = [], [], [], []
    row0 = col0 = 0
    spans = []
    for mu, nu, cost in blocks:
        m, n = len(mu), len(nu)
        var = col0 + np.arange(m * n)
        rows.append(row0 + np.repeat(np.arange(m), n))
        rows.append(row0 + m + np.tile(np.arange(n), m))
        cols.append(var)
        cols.append(var)
        cvec.append(np.asarray(cost, float).ravel())
        bvec.append(mu)
        bvec.append(nu)
        spans.append((row0, col0, m, n))
        row0 += m + n
        col0 += m * n
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    A = sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(row0, col0))
    c = np.concatenate(cvec)
    res = linprog(c, A_eq=A, b_eq=np.concatenate(bvec), bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"batched transport LP failed: {res.message}")
    x, duals = res.x, np.asarray(res.eqlin.marginals)
    out = []
    for r0, c0, m, n in spans:
        block = slice(c0, c0 + m * n)
        out.append((float(c[block] @ x[block]), x[block].reshape(m, n),
                    duals[r0:r0 + m], duals[r0 + m:r0 + m + n]))
    return out

"""Behavioral pseudometrics between MDP states and whole MDPs.

The central object is a cross-MDP state metric computed as the fixed point
of a contraction: the distance between two states is the worst action's
combination of immediate-reward gap (weight c_R) and Wasserstein distance
between next-state distributions (weight c_T < 1), the latter measured in
the current metric itself.  It is found by strategy iteration over the
transport couplings: one application of the update picks the optimal
coupling of every transition pair, and with those couplings held fixed the
metric is the value of a max-over-actions MDP on state pairs, which policy
iteration solves exactly.  On top of it sit the symmetric Hausdorff
distance between MDPs, reward-scale alignment, isolation tests and
quotienting by (near-)equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mdp import (MdpSpec, _frozen, _state_indices, can_reach, checked,
                  policy_iteration, strong_components)
from .transport import BatchedTransport

__all__ = [
    "NonConvergence",
    "BisimConfig",
    "CrossMetric",
    "AlignmentResult",
    "IsolationResult",
    "QuotientResult",
    "metric_update",
    "cross_bisim_metric",
    "hausdorff_distance",
    "align_reward_scale",
    "isolation_check",
    "bisim_quotient",
    "iteration_bound",
]


class NonConvergence(RuntimeError):
    """An iterative computation stopped before reaching its tolerance."""


# Most applications of the update that one metric fixed point may make.
MAX_APPLICATIONS = 10_000


@dataclass(frozen=True)
class BisimConfig:
    """Coefficients and stopping data for the metric fixed point.

    c_R weights immediate-reward gaps, c_T the recursive transport term;
    c_T must stay below 1 for the update to contract.  Iteration stops once
    the residual of an application of the update drops below
    tolerance*(1 - c_T), which bounds the sup-norm distance to the true
    fixed point by ``tolerance``; at most ``MAX_APPLICATIONS`` are made.
    """

    c_R: float
    c_T: float
    tolerance: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.c_T < 1.0:
            raise ValueError(f"c_T must lie in (0,1), got {self.c_T}")
        if not 0.0 < self.c_R < math.inf:
            raise ValueError(f"c_R must be positive and finite, "
                             f"got {self.c_R}")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, "
                             f"got {self.tolerance}")

    @classmethod
    def for_discount(cls, gamma, tolerance=1e-6):
        """The conventional choice c_T = gamma, c_R = 1 - gamma."""
        return cls(c_R=1.0 - gamma, c_T=gamma, tolerance=tolerance)

    @property
    def residual_target(self):
        return self.tolerance * (1.0 - self.c_T)


@dataclass(frozen=True)
class CrossMetric:
    """Converged (or partial) |S1| x |S2| state distance matrix.

    ``dist`` is the last application of the update operator and
    ``residual`` its sup-norm step; ``iterations_used`` counts the
    applications.  blocks_solved and blocks_reused count, over all
    applications, the transport problems sent to the simplex and those
    answered by a stored plan that passed the reduced-cost test; problems
    with a closed form (point masses, all-zero costs, identical marginals
    at zero diagonal cost) are in neither count.
    """

    dist: np.ndarray
    config: BisimConfig
    iterations_used: int
    residual: float
    blocks_solved: int = 0
    blocks_reused: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dist", _frozen(self.dist))

    @property
    def converged(self):
        return self.residual < self.config.residual_target

    @property
    def error_bound(self):
        """A-posteriori bound on the sup-norm distance from ``dist`` to the
        fixed point: an application that moved by ``residual`` lands within
        residual*c_T/(1 - c_T) of it."""
        c_T = self.config.c_T
        return self.residual * c_T / (1.0 - c_T)

    def to_document(self):
        return {
            "dist": self.dist.tolist(),
            "c_R": self.config.c_R,
            "c_T": self.config.c_T,
            "iterations": self.iterations_used,
            "residual": self.residual,
        }


class _PairSweep:
    """Precomputed structure for applying the metric update over one MDP
    pair, and for solving it exactly under fixed couplings.

    Supports of all transition rows and the per-action reward gaps never
    change between applications, so they are extracted once, together with
    the position in the distance matrix of every transport cost; each
    application gathers all costs with one index and hands them to a batch
    that keeps its optimal plans from one application to the next.
    """

    def __init__(self, m1: MdpSpec, m2: MdpSpec, config: BisimConfig):
        if m1.action_ids != m2.action_ids:
            raise ValueError("MDPs must share the same action set, in order")
        self.shape = (m1.n_states, m2.n_states)
        self.n_actions = m1.n_actions
        self.config = config
        r1, r2 = m1.reward, m2.reward
        self.reward_term = config.c_R * np.abs(r1[:, None, :] - r2[None, :, :])

        # The transition rows of both MDPs as one support table, the (s, a)
        # rows of m1 first; one transport problem per (s1, s2, a), in that
        # order, from row (s1, a) of m1 to row (s2, a) of m2.
        n1, n2 = self.shape
        rows = np.zeros(((n1 + n2) * self.n_actions, max(n1, n2)))
        rows[:n1 * self.n_actions, :n1] = m1.transition.reshape(-1, n1)
        rows[n1 * self.n_actions:, :n2] = m2.transition.reshape(-1, n2)
        index, weight, size = _supports(rows)
        pairs = np.empty((n1, n2, self.n_actions, 2), dtype=int)
        pairs[..., 0] = np.arange(n1 * self.n_actions).reshape(n1, 1, -1)
        pairs[..., 1] = (n1 + np.arange(n2)[:, None]) * self.n_actions \
            + np.arange(self.n_actions)
        pairs = pairs.reshape(-1, 2)
        self.batch = BatchedTransport(weight, size, pairs)
        # cost_index[c]: the distance-matrix entry of cost cell c, which
        # belongs to transport problem cell_problem[c], the action
        # cell_action[c] at pair-state cell_pair[c] (s1 * |S2| + s2).  The
        # batch lays out each problem's (m, n) costs raveled, in problem
        # order, so cell c is cell (i, j) of its problem's matrix.
        m, n = size[pairs.T]
        cells = m * n
        self.cell_problem = np.repeat(np.arange(len(pairs)), cells)
        self.cell_pair, self.cell_action = np.divmod(self.cell_problem,
                                                     self.n_actions)
        p = self.cell_problem
        i, j = np.divmod(np.arange(len(p)) - (np.cumsum(cells) - cells)[p],
                         n[p])
        self.cost_index = index[pairs[p, 0], i] * n2 + index[pairs[p, 1], j]

    def apply(self, dist: np.ndarray) -> np.ndarray:
        """One application of the metric update operator to ``dist``."""
        w = self.batch.values(dist.ravel()[self.cost_index])
        w = w.reshape(self.shape + (self.n_actions,))
        return (self.reward_term + self.config.c_T * w).max(axis=2)

    def _action_values(self, flow, dist):
        """(pair-state, action) values of ``dist`` under the couplings
        ``flow``, as segment sums over the cost cells."""
        w = np.bincount(self.cell_problem,
                        weights=flow * dist.ravel()[self.cost_index],
                        minlength=len(self.batch.pairs))
        return (self.reward_term.reshape(-1, self.n_actions)
                + self.config.c_T * w.reshape(-1, self.n_actions))

    def _evaluate(self, flow, policy):
        """Distances of the pair chain that takes action ``policy[k]`` at
        pair-state k, from one dense solve of (I - c_T P) d = r, where P
        sums the held flows of the chosen actions' cost cells.

        Pair-states that reach no reward gap along the chain are at
        distance 0 exactly (as the diagonal of a within-MDP metric is), so
        the solve's rounding there is dropped."""
        n = len(policy)
        take = (policy[self.cell_pair] == self.cell_action) & (flow > 0)
        system = np.bincount(self.cell_pair[take] * n + self.cost_index[take],
                             weights=flow[take], minlength=n * n).reshape(n, n)
        reward = self.reward_term.reshape(n, -1)[np.arange(n), policy]
        no_gap = ~can_reach(system > 0, reward > 0)
        system *= -self.config.c_T
        system.flat[::n + 1] += 1.0
        dist = np.linalg.solve(system, reward)
        dist[no_gap] = 0.0
        return dist.reshape(self.shape)

    def solve_fixed(self, flow: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """Fixed point of the update with every coupling held at ``flow``
        (laid out as the batch's costs): the last distances of
        :func:`mdp.policy_iteration` on the pair MDP, which starts from the
        actions greedy for ``dist``."""
        return policy_iteration(lambda p: self._evaluate(flow, p),
                                lambda d: self._action_values(flow, d),
                                self._action_values(flow, dist).argmax(1))[0]


def _supports(rows):
    """(index, weight, size) of the supports of ``rows``: row r's positive
    entries sit at columns index[r, :size[r]], ascending, with weights
    weight[r, :size[r]]; later entries of index and weight are 0."""
    r, j = np.nonzero(rows > 0)
    size = np.bincount(r, minlength=len(rows))
    position = np.arange(len(r)) - (np.cumsum(size) - size)[r]
    index = np.zeros((len(rows), size.max(initial=0)), dtype=int)
    weight = np.zeros(index.shape)
    index[r, position] = j
    weight[r, position] = rows[r, j]
    return index, weight, size


def metric_update(m1: MdpSpec, m2: MdpSpec, config: BisimConfig,
                  dist: np.ndarray) -> np.ndarray:
    """Apply the metric update operator once to an arbitrary finite,
    nonnegative cost matrix.  Exposed so the contraction property is
    directly testable."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (m1.n_states, m2.n_states):
        raise ValueError("distance matrix shape mismatch")
    # Comparisons with NaN are false, so a NaN entry would pass the sign
    # test.
    if not np.all(np.isfinite(dist)) or np.any(dist < 0):
        raise ValueError("distance matrix must be finite and nonnegative")
    return _PairSweep(m1, m2, config).apply(dist)


def cross_bisim_metric(m1: MdpSpec, m2: MdpSpec,
                       config: BisimConfig) -> CrossMetric:
    """Fixed point of the metric update between two MDPs sharing actions.

    Strategy iteration over the transport couplings, starting from zero.
    Each round applies the update once, which re-solves exactly the
    transport problems whose kept plan a reduced-cost test no longer
    certifies, and then holds every coupling fixed and solves the metric
    under them exactly (:meth:`_PairSweep.solve_fixed`).  Solved iterates
    decrease towards the fixed point, but the sequence is not monotone
    from zero.  Once an application leaves every coupling as it was, the
    couplings are final and later rounds are plain applications.

    The loop stops when an application's residual certifies a sup-norm
    error below ``config.tolerance``; that application is the returned
    matrix and ``iterations_used`` counts the applications.  If
    ``MAX_APPLICATIONS`` run out the partial matrix is returned with
    ``converged`` False.
    """
    sweep = _PairSweep(m1, m2, config)
    dist = new = np.zeros(sweep.shape)
    residual = math.inf
    iterations = 0
    held, final = None, False
    while iterations < MAX_APPLICATIONS:
        new = sweep.apply(dist)
        residual = float(np.max(np.abs(new - dist)))
        iterations += 1
        if residual < config.residual_target:
            break
        if not final:
            flow = sweep.batch.couplings()
            final = held is not None and np.array_equal(flow, held)
            held = flow
        dist = new if final else sweep.solve_fixed(held, dist)
    return CrossMetric(new, config, iterations, residual,
                       sweep.batch.solved, sweep.batch.reused)


def iteration_bound(first_step_norm: float, config: BisimConfig) -> int:
    """Geometric sweep-count bound for a contraction started at zero."""
    if first_step_norm <= config.residual_target:
        return 1
    return math.ceil(math.log(config.residual_target / first_step_norm)
                     / math.log(config.c_T)) + 1


def hausdorff_distance(metric: CrossMetric) -> float:
    """Symmetric max-min aggregation of a converged cross metric."""
    if not metric.converged:
        raise NonConvergence(
            f"metric residual {metric.residual!r} above target "
            f"{metric.config.residual_target!r}")
    d = metric.dist
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass(frozen=True)
class AlignmentResult:
    """Grid minimizer of the reward-scale alignment objective."""

    h_star: float
    aligned_distance: float
    profile: tuple              # ((h, objective), ...)
    boundary: bool              # minimizer hit the first or last grid point


def align_reward_scale(m1: MdpSpec, m2: MdpSpec, config: BisimConfig,
                       grid: int = 101) -> AlignmentResult:
    """Search the relative reward scale h in (0,1) that best aligns two MDPs.

    Each grid point re-solves the full cross metric with rewards scaled by
    h and 1-h and scores it by the Hausdorff objective.  A minimizer on the
    first or last grid point is flagged: it indicates one reward function
    looks more like zero reward than like the other, which this alignment
    cannot meaningfully compare.
    """
    if grid < 3:
        raise ValueError("grid must have at least 3 points")
    hs = (np.arange(grid) + 1.0) / (grid + 1.0)
    profile = []
    for h in hs:
        scaled1 = m1.with_rewards(h * m1.reward)
        scaled2 = m2.with_rewards((1.0 - h) * m2.reward)
        metric = cross_bisim_metric(scaled1, scaled2, config)
        profile.append((float(h), hausdorff_distance(metric)))
    best = min(range(grid), key=lambda k: profile[k][1])
    return AlignmentResult(
        h_star=profile[best][0],
        aligned_distance=profile[best][1],
        profile=tuple(profile),
        boundary=best in (0, grid - 1),
    )


@dataclass(frozen=True)
class IsolationResult:
    """Outcome of a state-subset isolation test (usable as a bool)."""

    isolated: bool
    min_cross_distance: float
    vacuous: bool = False

    def __bool__(self):
        return self.isolated


def isolation_check(mdp: MdpSpec, subset, delta: float,
                    config: BisimConfig) -> IsolationResult:
    """True iff every state outside ``subset`` is farther than ``delta``
    from every state inside, in the within-MDP metric.

    An empty or full subset is vacuously isolated and flagged as such, and
    a state index outside [0, n_states) is rejected.  Only the rows of the
    states R reachable from ``subset`` are solved: those pair-states step
    only among themselves, so they form the metric of the closed part on R
    against the whole MDP, at |R|*|S| pair-states instead of |S|^2.
    """
    inside = np.zeros(mdp.n_states, dtype=bool)
    inside[_state_indices(mdp.n_states, subset)] = True
    if inside.all() or not inside.any():
        return IsolationResult(True, math.inf, vacuous=True)
    keep = np.flatnonzero(can_reach(mdp.transition.any(axis=1).T, inside))
    safe = np.flatnonzero(np.isin(keep, mdp.safe_indices))
    part = checked(MdpSpec([mdp.state_ids[s] for s in keep], mdp.action_ids,
                           mdp.transition[keep][:, :, keep], mdp.reward[keep],
                           mdp.discount, safe), "closed part invalid")
    metric = cross_bisim_metric(part, mdp, config)
    if not metric.converged:
        raise NonConvergence("within-MDP metric did not converge")
    closest = float(metric.dist[np.ix_(inside[keep], ~inside)].min())
    return IsolationResult(closest > delta, closest)


@dataclass(frozen=True)
class QuotientResult:
    """Bisimulation quotient: the partition, the collapsed MDP, and the
    map from original state index to class index."""

    partition: tuple            # tuple of tuples of original state indices
    quotient: MdpSpec
    lift: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lift", _frozen(self.lift, dtype=int))


def bisim_quotient(mdp: MdpSpec, merge_tol: float = 1e-9) -> QuotientResult:
    """Collapse states whose within-MDP distance is at most ``merge_tol``.

    The distance is the within-MDP metric with c_T = discount.  Classes are
    connected components of the thresholded distance graph.  The collapsed
    transition rows are class-sums from one representative, capped at 1
    against rounding; every other member must agree with them (and with
    the representative's rewards) within merge_tol, otherwise the
    partition is not a valid bisimulation at this tolerance and the call
    is rejected.
    """
    # A metric tolerance of merge_tol/4 keeps the metric's error from
    # blurring the merge decision.
    config = BisimConfig.for_discount(mdp.discount, tolerance=merge_tol / 4.0)
    metric = cross_bisim_metric(mdp, mdp, config)
    if not metric.converged:
        raise NonConvergence("within-MDP metric did not converge")
    # Undirected components are the strong components of the symmetrised
    # graph.
    close = metric.dist <= merge_tol
    classes = [tuple(c) for c in strong_components(close | close.T)]
    lift = np.empty(mdp.n_states, dtype=int)
    for c, members in enumerate(classes):
        # A state that never shuts down can sit within merge_tol of a safe
        # one (both absorbing at zero reward); merging them would certify
        # the non-safe state as safe.
        if len({s in mdp.safe_set for s in members}) > 1:
            raise ValueError(
                f"states {[mdp.state_ids[s] for s in members]} are within "
                f"{merge_tol!r} of each other but mix safe and non-safe "
                f"states")
        lift[list(members)] = c
        far = np.argwhere(metric.dist[np.ix_(members, members)] > merge_tol)
        if len(far):
            i, j = members[far[0, 0]], members[far[0, 1]]
            raise ValueError(
                f"states {i} and {j} land in one class by chaining "
                f"but are {metric.dist[i, j]!r} apart")

    # sums[s, a, m]: state s's row under action a summed over the columns
    # of class m.  The quotient's rows are its representatives' rows.
    P, r = mdp.transition, mdp.reward
    sums = np.stack([P[:, :, list(members)].sum(axis=2)
                     for members in classes], axis=2)
    reps = [members[0] for members in classes]
    for rep, members in zip(reps, classes):
        for other in members[1:]:
            gap = np.abs(sums[other] - sums[rep]).max(axis=0)
            m = np.argmax(gap > merge_tol)
            if gap[m] > merge_tol:
                raise ValueError(
                    f"state {other} disagrees with representative {rep} "
                    f"on class-summed transitions by {gap[m]!r}")
            rgap = np.abs(r[other] - r[rep]).max()
            if rgap > merge_tol:
                raise ValueError(
                    f"state {other} disagrees with representative {rep} "
                    f"on rewards by {rgap!r}")
    # An entry is a partial sum of a row that sums to 1 within PROB_TOL, so
    # capping it at 1 keeps its row's sum within PROB_TOL.
    P_q, r_q = np.minimum(sums[reps], 1.0), r[reps]

    safe_q = frozenset(int(lift[s]) for s in mdp.safe_set)
    ids = tuple("+".join(str(mdp.state_ids[s]) for s in members)
                for members in classes)
    quotient = checked(MdpSpec(ids, mdp.action_ids, P_q, r_q, mdp.discount,
                               safe_q), "quotient is not a valid MDP")
    return QuotientResult(tuple(classes), quotient, lift)

"""Bounded-time safety: hitting times, near-optimal policy sets, and
stability experiments.

An MDP counts as safe at level (N, eps) when every eps-optimal policy
reaches the absorbing safe set in expected time at most N.  Certification
enumerates deterministic stationary policies exactly; infinite expected
times are decided structurally (graph reachability), never by numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bisim import (BisimConfig, IsolationResult, cross_bisim_metric,
                    hausdorff_distance, isolation_check)
from .mdp import (WEIGHT_TOL, InducedChain, MdpSpec, Policy,
                  StartDistribution, _chains, can_reach, policy_values,
                  q_values, value_iteration)
from .onpolicy import spectral_radius

__all__ = [
    "SafetyQuery",
    "SafetyCertificate",
    "StabilityReport",
    "expected_steps",
    "certify_safety",
    "verify_stability_instance",
    "safety_frontier",
]

# Most deterministic policies one certificate or frontier may enumerate,
# counted before MacQueen's test prunes any.
POLICY_CAP = 10 ** 6
# Bytes that one block of the policy table may stack, at one n-by-n float
# matrix per policy: max(1, BLOCK_BYTES // (8 n^2)) policies, 193 at 13
# states.  What is stacked is a block's hitting-time chains, and the
# solve of a table of one block; a larger table is evaluated by the
# elimination tree n/2 blocks at a time, whose values take BLOCK_BYTES / 2
# (_tree_losses).  On the certify deck 256 KB beat both 64 KB and 1 MB.
# Hitting times, and every loss taken from policy_values, have the same
# bits at any block size, since LAPACK solves each matrix of a stack on
# its own; a loss from the tree may differ in its last bits.
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class SafetyQuery:
    """Parameters of one (N, eps)-safety question.

    ``start`` of None means the worst case: each policy is charged its
    slowest starting state.  epsilon must exceed ten times ``value_tol``,
    the certified error on V*, so membership decisions are meaningful.
    """

    epsilon: float
    start: StartDistribution | None = None
    value_tol: ClassVar[float] = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.epsilon)
                and self.epsilon > 10.0 * self.value_tol):
            raise ValueError(f"epsilon must be finite and exceed "
                             f"10 * value_tol, got {self.epsilon!r}")


def expected_steps(chain: InducedChain) -> np.ndarray:
    """Expected number of steps to absorption from each chain state, in an
    array shaped like ``chain.absorb`` (one row per chain of a stack).

    Entries are math.inf exactly when absorption is not almost sure from
    that state, which is decided on the positive-probability graph before
    any linear solve.  Finite entries solve (I - Q) t = 1 restricted to the
    closed set of states that cannot wander off to a non-absorbing class.
    Chains that are absorbed almost surely from every state share one
    stacked solve; if it fails, each chain is solved on its own.
    """
    shape, n = chain.absorb.shape, chain.n_states
    if n == 0:
        return np.zeros(shape)
    Q = chain.Q.reshape(-1, n, n)
    adj = Q > 0
    can_absorb = can_reach(adj, chain.absorb.reshape(-1, n) > 0)
    # States with a path into the non-absorbing region have infinite
    # expectation too.
    finite = ~can_reach(adj, ~can_absorb)
    whole = np.all(finite, axis=-1)
    t = np.full(finite.shape, math.inf)
    try:
        t[whole] = np.linalg.solve(np.eye(n) - Q[whole],
                                   np.ones((int(whole.sum()), n, 1)))[..., 0]
    except np.linalg.LinAlgError:
        # The chain that fails alone is named by its spectral radius.
        whole[:] = False
    for b in np.nonzero(~whole)[0]:
        fin = np.nonzero(finite[b])[0]
        if not len(fin):
            continue
        sub = Q[b][np.ix_(fin, fin)]
        try:
            t[b, fin] = np.linalg.solve(np.eye(len(fin)) - sub,
                                        np.ones(len(fin)))
        except np.linalg.LinAlgError as exc:
            rho = spectral_radius(sub)
            raise RuntimeError(
                f"hitting-time solve failed (spectral radius of the "
                f"transient block is {rho!r}): {exc}") from exc
    return t.reshape(shape)


def _start_mass(chain: InducedChain, start: StartDistribution):
    """(chain states with mass, their mass) of ``start``; a start with mass
    on safe states is rejected."""
    w = start.weights
    if len(w) < int(chain.index_map.max(initial=-1)) + 1:
        raise ValueError("start distribution dimension mismatch")
    on_chain = w[chain.index_map]
    if w.sum() - on_chain.sum() > WEIGHT_TOL:
        raise ValueError("start places mass on safe states")
    hit = on_chain > 0
    return hit, on_chain[hit]


def start_charge(chain: InducedChain, start: StartDistribution,
                 steps: np.ndarray):
    """Expected steps to absorption from ``start``, from the chain's
    expected steps ``steps`` as :func:`expected_steps` returns them:
    math.inf if any state with mass is not almost surely absorbed, a float
    for one chain and an array over the leading axes of a stack.  A start
    with mass on safe states is rejected."""
    hit, mass = _start_mass(chain, start)
    # One dot product of contiguous vectors per chain, as for a single
    # chain: a stacked or strided product may sum in another order.
    charges = [math.inf if np.any(np.isinf(row)) else float(mass @ row)
               for row in (t[hit] for t in steps.reshape(-1, len(hit)))]
    if steps.ndim == 1:
        return charges[0]
    return np.reshape(charges, steps.shape[:-1])


def _member_steps(mdp: MdpSpec, actions: np.ndarray):
    """(stacked induced chains, expected steps per chain state) of the
    deterministic policies in the rows of ``actions``."""
    chains = _chains(mdp, actions)
    return chains, expected_steps(chains)


def _first_slowest(chains: InducedChain, steps: np.ndarray, start):
    """(index, charge) of the first slowest chain of a stack: the charge is
    start_charge's of ``start``, bit for bit, or for a ``start`` of None
    the slowest non-safe starting state."""
    if start is None:
        times = np.max(steps, axis=-1, initial=0.0)
        k = int(np.argmax(times))
        return k, float(times[k])
    hit, mass = _start_mass(chains, start)
    on_hit = steps[:, hit]
    approx = np.where(np.any(np.isinf(on_hit), axis=-1), math.inf,
                      on_hit @ mass)
    # The product sums in another order than start_charge, so only the
    # chains near its top are charged exactly.  With u = eps/2, both sums
    # of k nonnegative terms lie within g = (k+1)u / (1 - (k+1)u) of the
    # exact charge, relative (Higham, Accuracy and Stability of Numerical
    # Algorithms, section 3.1; every charge is at least about one step, so
    # underflow in a term cannot matter).  A chain that ties start_charge's
    # maximum then has a product of at least top ((1-g) / (1+g))^2 >=
    # top (1 - 4g), where top is the largest product, and 4g <= 8(k+1)u
    # <= 8k eps: c = 8, with room for the rounding of the cut itself.
    # Capping top at the largest float keeps every chain whose charge
    # overflows.
    top = min(float(np.max(approx)), np.finfo(float).max)
    cut = top * (1.0 - 8 * len(mass) * np.finfo(float).eps)
    near = np.nonzero(approx >= cut)[0]
    exact = start_charge(chains, start, steps[near])
    k = int(np.argmax(exact))
    return int(near[k]), float(exact[k])


# MacQueen's test (Puterman, Markov Decision Processes, section 6.7) drops
# action a at a non-safe state s when V*(s) - Q*(s, a) >= eps + margin.
# Every policy pi that takes a at s has V^pi(s) <= Q*(s, a), so its loss
# max_s V*(s) - V^pi(s) is at least V*(s) - Q*(s, a), up to the errors
# that the margin covers, in units of value_tol:
#   10  the boundary band, so that a pruned policy is neither a member nor
#       counted in boundary_count;
#    2  the error on V* and on Q* = r + g P V* (each at most value_tol, as
#       V*'s Bellman residual certifies, or at rounding level);
#    8  per unit of max_s |V*(s)| (at least 1): rounding in Q*, in the
#       solved V^pi and in the subtractions.
# The solved V^pi is policy_values': a pruned policy is never evaluated,
# and a kept policy's loss meets a threshold only on policy_values' bits
# (TREE_ROUNDING below), so the tree's own rounding needs no allowance.
PRUNE_BAND = 12.0
PRUNE_ROUNDING = 8.0
# The tree's loss of a policy lies within
#   w = TREE_ROUNDING n^3 eps (R / (1 - g)^2 + max_t |t|)
# of policy_values' loss of it, where R = max |r|, eps is the machine
# epsilon and t runs over the thresholds.  A = I - g P_pi is diagonally
# dominant by rows, |a_ij| <= 1 and ||A^-1||_inf <= 1 / (1 - g), so
# ||V^pi||_inf <= R / (1 - g).  Each solve returns V' with
# (A + dA) V' = r and |dA| <= g_3n |L||U|, g_3n ~ 1.5 n eps (Higham,
# Accuracy and Stability of Numerical Algorithms, Theorem 9.4).  Past its
# first solve, which has the stacked solve's bound, the tree eliminates
# without pivoting, so its growth factor is at most 2 (Wilkinson; Higham,
# Theorem 9.9), every Schur complement stays diagonally dominant by rows,
# and the rows of |L||U| = |LD||D^-1 U| sum to at most n * 2 * 2
# (D = diag(U)).  LAPACK's partial pivoting keeps |l_ij| <= 1, so its
# rows sum to at most n^2 rho, and its growth rho on these matrices stays
# below 2 in practice.  Then ||V' - V||_inf <= ||A^-1|| ||dA|| ||V'|| is
# at most 6 n^2 eps R / (1 - g)^2 for the tree and 3 n^3 rho/2 eps R /
# (1 - g)^2 for the stacked solve, to first order.  The two losses also
# round V* - V' (eps |V* - V'| each), and a threshold is rounded within
# eps |t|: 32 covers all of it, with room for rho up to 16.  A loss
# farther than w from every threshold is on the same side of each as
# policy_values' loss, so the comparison decides alike.
TREE_ROUNDING = 32.0


def _tree_window(mdp: MdpSpec, thresholds) -> float:
    """The window w of TREE_ROUNDING around ``thresholds``."""
    bound = np.max(np.abs(mdp.reward), initial=0.0) / (1 - mdp.discount) ** 2
    return float(TREE_ROUNDING * mdp.n_states ** 3 * np.finfo(float).eps
                 * (bound + np.max(np.abs(thresholds))))


def _tree_losses(mdp: MdpSpec, survivors, v_star, block: int):
    """Losses max_s V*(s) - V^pi(s) of the product of ``survivors`` (the
    actions kept at each non-safe state), in product order, one array per
    ``block`` policies, from one elimination tree of (I - g P_pi) V = r_pi.

    The states whose row every policy of the product shares (the safe
    states and those with one survivor) are eliminated first, by one
    solve.  The varying states are then eliminated in index order, one
    level of the tree each: a node of depth d holds the rows of the states
    after the d-th under each of their survivors, and its child c pivots
    on the next state's row under that state's c-th survivor, so the
    leaves come in product order.  Back substitution along each leaf's
    pivot rows gives V^pi.  Leaves are formed n/2 blocks at a time, with
    the nodes above them only: a batch holds BLOCK_BYTES / 2 of values.
    """
    n, g = mdp.n_states, mdp.discount
    nonsafe = mdp.nonsafe_indices
    k = np.array([len(acts) for acts in survivors], dtype=int)
    vary, k = nonsafe[k > 1], k[k > 1]
    fixed = np.ones(n, dtype=bool)
    fixed[vary] = False
    fixed = np.nonzero(fixed)[0]
    base = np.zeros(n, dtype=int)
    base[nonsafe] = [acts[0] for acts in survivors]
    m = len(vary)
    # V_fixed = Z[:, :m] V_vary - Z[:, m].
    P = mdp.transition[fixed, base[fixed]]
    Z = np.linalg.solve(np.eye(len(fixed)) - g * P[:, fixed],
                        np.column_stack([g * P[:, vary],
                                         -mdp.reward[fixed, base[fixed]]]))
    # The root: the row [(I - g P)[s, vary] | r] of each varying state s
    # under each of its survivors, with V_fixed substituted.
    states = np.repeat(vary, k)
    acts = np.concatenate([acts for acts in survivors if len(acts) > 1])
    P = mdp.transition[states, acts]
    root = np.column_stack([-g * P[:, vary], mdp.reward[states, acts]])
    root[np.arange(len(states)), np.repeat(np.arange(m), k)] += 1.0
    root = (root - g * P[:, fixed] @ Z)[None]
    # below[d]: the leaves under one node of depth d.
    below = np.append(np.cumprod(k[::-1])[::-1], 1)
    total = int(below[0])
    step = block * max(1, n // 2)
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        rows, first, pivots = root, 0, []
        for d in range(m):
            pivot, rest = rows[:, :k[d], None], rows[:, None, k[d]:]
            rows = rest[..., 1:] - rest[..., :1] / pivot[..., :1] \
                * pivot[..., 1:]
            # Keep the children above leaves [lo, hi) only.
            nodes, _, left, width = rows.shape
            start, first = first * k[d], lo // below[d + 1]
            keep = slice(first - start, (hi - 1) // below[d + 1] + 1 - start)
            rows = rows.reshape(nodes * k[d], left, width)[keep]
            pivots.append((first, pivot.reshape(-1, width + 1)[keep]))
        leaves = np.arange(lo, hi)
        x = np.empty((hi - lo, m))
        for d in range(m - 1, -1, -1):
            first, pivot = pivots[d]
            row = pivot[leaves // below[d + 1] - first]
            x[:, d] = (row[:, -1] - np.einsum("ij,ij->i", row[:, 1:-1],
                                              x[:, d + 1:])) / row[:, 0]
        loss = np.maximum(
            np.max(v_star[fixed] - (x @ Z[:, :m].T - Z[:, m]), axis=-1,
                   initial=-math.inf),
            np.max(np.subtract(v_star[vary], x, out=x), axis=-1,
                   initial=-math.inf))
        for begin in range(0, hi - lo, block):
            yield loss[begin:begin + block]


def _policy_table(mdp: MdpSpec, epsilon: float, thresholds=None):
    """The deterministic policies that survive MacQueen's test at
    ``epsilon``, in blocks of at most BLOCK_BYTES (or of one policy) as
    (actions, loss): actions is a (policies, states) table, with the
    actions inside safe states pinned to 0 (they cannot matter), and loss
    the value loss max_s V*(s) - V^pi(s) of each row.  A policy is
    eps-optimal exactly when its loss is below eps; every policy left out
    has a loss of at least epsilon + 10*value_tol.

    The survivors come in the order of the product of actions over the
    non-safe states (the last one varying fastest), so the eps-optimal
    policies come in the same order as when every policy is evaluated.
    A table of one block is one stacked solve of policy_values; a larger
    one is evaluated by the elimination tree (_tree_losses), and a loss
    within the window of TREE_ROUNDING of one of ``thresholds`` (what the
    caller compares losses with; by default ``epsilon``) is evaluated
    again by policy_values, so that every comparison with a threshold
    decides as on policy_values' bits.
    """
    nonsafe = mdp.nonsafe_indices
    size = mdp.n_actions ** len(nonsafe)
    if size > POLICY_CAP:
        raise ValueError(f"{size} deterministic policies exceed the "
                         f"enumeration cap {POLICY_CAP}; use a smaller "
                         f"instance")
    tol = SafetyQuery.value_tol
    v_star = value_iteration(mdp, tol).values
    q_star = q_values(mdp, v_star)
    scale = max(1.0, float(np.max(np.abs(v_star), initial=0.0)))
    cut = epsilon + tol * (PRUNE_BAND + PRUNE_ROUNDING * scale)
    survivors = [np.nonzero(v_star[s] - q_star[s] < cut)[0] for s in nonsafe]
    shape = tuple(len(acts) for acts in survivors)
    total = math.prod(shape)
    block = max(1, BLOCK_BYTES // (8 * mdp.n_states ** 2))
    if total > block:
        tree = _tree_losses(mdp, survivors, v_star, block)
        thresholds = np.array((epsilon,) if thresholds is None
                              else thresholds, dtype=float)
        window = _tree_window(mdp, thresholds)
    for begin in range(0, total, block):
        flat = np.arange(begin, min(begin + block, total))
        picks = np.unravel_index(flat, shape) if shape else ()
        actions = np.zeros((len(flat), mdp.n_states), dtype=int)
        for s, acts, pick in zip(nonsafe, survivors, picks):
            actions[:, s] = acts[pick]
        if total <= block:
            yield actions, np.max(v_star - policy_values(mdp, actions),
                                  axis=-1)
            continue
        loss = next(tree)
        near = np.any(np.abs(loss[:, None] - thresholds) <= window, axis=-1)
        if np.any(near):
            loss[near] = np.max(v_star - policy_values(mdp, actions[near]),
                                axis=-1)
        yield actions, loss


@dataclass(frozen=True)
class SafetyCertificate:
    """Worst case over the enumerated eps-optimal policies.

    worst_time is finite exactly when every such policy is absorbed almost
    surely from the queried starts.  boundary_count reports policies whose
    membership decision sat within 10*value_tol of the epsilon threshold
    (they are flagged, not silently classified).
    """

    epsilon: float
    worst_policy: Policy
    worst_time: float
    worst_policy_times: np.ndarray
    epsilon_optimal_count: int
    reachability: tuple
    boundary_count: int
    is_safe_for: tuple = ()

    def is_safe(self, N: float) -> bool:
        return self.worst_time <= N

    def to_document(self):
        finite = math.isfinite(self.worst_time)
        return {
            "epsilon": self.epsilon,
            "worst_time": self.worst_time if finite else None,
            "worst_time_finite": finite,
            "worst_policy_actions": self.worst_policy.table.tolist(),
            "worst_policy_hitting_times": [
                (t if math.isfinite(t) else None)
                for t in self.worst_policy_times.tolist()],
            "epsilon_optimal_count": self.epsilon_optimal_count,
            "reachability": list(self.reachability),
            "boundary_count": self.boundary_count,
            "is_safe_for": [{"N": n, "safe": ok} for n, ok in self.is_safe_for],
        }


def certify_safety(mdp: MdpSpec, query: SafetyQuery,
                   N_values=()) -> SafetyCertificate:
    """Certify (N, eps)-safety by exhausting deterministic policies.

    With the worst-case start convention (query.start None) each policy is
    charged the maximum expected hitting time over point-mass starts on
    non-safe states.  When no policy is eps-optimal, a ValueError is raised
    rather than a vacuous "safe"; so is a non-finite N.
    """
    if not all(math.isfinite(n) for n in N_values):
        raise ValueError(f"N must be finite, got {tuple(N_values)!r}")
    worst_time, worst_actions, worst_times = -math.inf, None, None
    count, reachability, boundary = 0, [], 0
    band = 10.0 * query.value_tol
    thresholds = (query.epsilon - band, query.epsilon, query.epsilon + band)
    for actions, loss in _policy_table(mdp, query.epsilon, thresholds):
        boundary += int(np.count_nonzero(np.abs(query.epsilon - loss) < band))
        members = actions[loss < query.epsilon]
        if not len(members):
            continue
        chains, t = _member_steps(mdp, members)
        k, time = _first_slowest(chains, t, query.start)
        count += len(members)
        reachability.extend(np.all(np.isfinite(t), axis=-1).tolist())
        # The first slowest policy in grid order wins a tie.
        if time > worst_time:
            worst_time, worst_actions, worst_times = (time, members[k],
                                                      t[k].copy())
    if not count:
        raise ValueError(
            f"no deterministic policy is {query.epsilon!r}-optimal; a safety "
            f"verdict over an empty set would be vacuous")

    return SafetyCertificate(
        epsilon=query.epsilon,
        worst_policy=Policy.deterministic(worst_actions),
        worst_time=worst_time,
        worst_policy_times=worst_times,
        epsilon_optimal_count=count,
        reachability=tuple(reachability),
        boundary_count=boundary,
        is_safe_for=tuple((float(n), worst_time <= n) for n in N_values),
    )


@dataclass(frozen=True)
class StabilityReport:
    """One empirical instance of the perturbation-stability guarantee."""

    d_h: float
    isolation: IsolationResult
    base_certificate: SafetyCertificate
    perturbed_certificate: SafetyCertificate
    N: float
    epsilon: float
    base_safe: bool
    conclusion_holds: bool

    def to_document(self):
        return {
            "d_H": self.d_h,
            "isolation_threshold": math.sqrt(self.d_h),
            "isolated": self.isolation.isolated,
            "min_safe_distance": (self.isolation.min_cross_distance
                                  if math.isfinite(
                                      self.isolation.min_cross_distance)
                                  else None),
            "N": self.N,
            "epsilon": self.epsilon,
            "base_safe": self.base_safe,
            "conclusion_holds": self.conclusion_holds,
            "base_certificate": self.base_certificate.to_document(),
            "perturbed_certificate": self.perturbed_certificate.to_document(),
        }


def verify_stability_instance(m: MdpSpec, m_prime: MdpSpec, N: float,
                              epsilon: float,
                              config: BisimConfig) -> StabilityReport:
    """Measure d_H(m, m'), test isolation of the perturbed safe set at
    threshold sqrt(d_H), certify both MDPs, and report whether the
    perturbed MDP came out (N+1, eps/2)-safe."""
    base_query, pert_query = SafetyQuery(epsilon), SafetyQuery(epsilon / 2.0)
    metric = cross_bisim_metric(m, m_prime, config)
    d_h = hausdorff_distance(metric)
    isolation = isolation_check(m_prime, m_prime.safe_set, math.sqrt(d_h),
                                config)
    cert_base = certify_safety(m, base_query, N_values=(N,))
    cert_pert = certify_safety(m_prime, pert_query, N_values=(N + 1.0,))
    return StabilityReport(
        d_h=d_h,
        isolation=isolation,
        base_certificate=cert_base,
        perturbed_certificate=cert_pert,
        N=N,
        epsilon=epsilon,
        base_safe=cert_base.worst_time <= N,
        conclusion_holds=cert_pert.worst_time <= N + 1.0,
    )


def safety_frontier(mdp: MdpSpec, epsilons) -> list:
    """Worst-case hitting time as a function of epsilon.

    The policies that survive MacQueen's test at the largest epsilon are
    evaluated once, and hitting times are computed for those eps-optimal
    at the largest epsilon; each epsilon then reads off the maximum over
    its membership set, so the frontier is monotone nondecreasing by
    construction of the sets themselves.  An empty epsilon list, an
    epsilon that SafetyQuery rejects, or an epsilon whose membership set is
    empty, raises ValueError.
    """
    epsilons = sorted(SafetyQuery(float(e)).epsilon for e in epsilons)
    if not epsilons:
        raise ValueError("no epsilon given; an empty frontier would be "
                         "vacuous")
    # Hitting times are nonnegative, so -inf marks an empty set.
    worst = np.full(len(epsilons), -math.inf)
    for actions, loss in _policy_table(mdp, epsilons[-1], epsilons):
        inside = loss < epsilons[-1]
        if not np.any(inside):
            continue
        times = np.max(_member_steps(mdp, actions[inside])[1], axis=-1,
                       initial=0.0)
        member = loss[inside] < np.array(epsilons)[:, None]
        worst = np.maximum(
            worst, np.where(member, times, -math.inf).max(axis=-1))
    for eps, time in zip(epsilons, worst):
        if time == -math.inf:
            raise ValueError(
                f"no deterministic policy is {eps!r}-optimal; a frontier "
                f"point over an empty set would be vacuous")
    return [(eps, float(time)) for eps, time in zip(epsilons, worst)]

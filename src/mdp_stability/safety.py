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
# states.  On the certify deck 256 KB beat both 64 KB and 1 MB.  Every
# block size gives the same bits, since LAPACK solves each matrix of a
# stack on its own.
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
PRUNE_BAND = 12.0
PRUNE_ROUNDING = 8.0


def _policy_table(mdp: MdpSpec, epsilon: float):
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
    for begin in range(0, total, block):
        flat = np.arange(begin, min(begin + block, total))
        picks = np.unravel_index(flat, shape) if shape else ()
        actions = np.zeros((len(flat), mdp.n_states), dtype=int)
        for s, acts, pick in zip(nonsafe, survivors, picks):
            actions[:, s] = acts[pick]
        yield actions, np.max(v_star - policy_values(mdp, actions), axis=-1)


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
    for actions, loss in _policy_table(mdp, query.epsilon):
        boundary += int(np.count_nonzero(
            np.abs(query.epsilon - loss) < 10.0 * query.value_tol))
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
    for actions, loss in _policy_table(mdp, epsilons[-1]):
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

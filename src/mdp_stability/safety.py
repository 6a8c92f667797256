"""Bounded-time safety: hitting times, near-optimal policy sets, and
stability experiments.

An MDP counts as safe at level (N, eps) when every eps-optimal policy
reaches the absorbing safe set in expected time at most N.  Certification
enumerates deterministic stationary policies exactly; infinite expected
times are decided structurally (graph reachability), never by numerics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bisim import (BisimConfig, IsolationResult, cross_bisim_metric,
                    hausdorff_distance, isolation_check)
from .mdp import (WEIGHT_TOL, InducedChain, MdpSpec, Policy,
                  StartDistribution, can_reach, induce_chain,
                  policy_evaluation, value_iteration)
from .onpolicy import spectral_radius

__all__ = [
    "SafetyQuery",
    "SafetyCertificate",
    "StabilityReport",
    "hitting_time",
    "expected_steps",
    "enumerate_epsilon_optimal",
    "certify_safety",
    "verify_stability_instance",
    "safety_frontier",
    "POLICY_CAP",
]

# Most deterministic policies one certificate or frontier may enumerate.
POLICY_CAP = 10 ** 6


@dataclass(frozen=True)
class SafetyQuery:
    """Parameters of one (N, eps)-safety question.

    ``start`` of None means the worst case: each policy is charged its
    slowest starting state.  epsilon must dominate the value-iteration
    tolerance by a factor of ten so membership decisions are meaningful.
    """

    epsilon: float
    start: StartDistribution | None = None
    value_tol: ClassVar[float] = 1e-10

    def __post_init__(self):
        if not self.epsilon > 10.0 * self.value_tol:
            raise ValueError("epsilon must exceed 10 * value_tol")


def expected_steps(chain: InducedChain) -> np.ndarray:
    """Expected number of steps to absorption from each chain state.

    Entries are math.inf exactly when absorption is not almost sure from
    that state, which is decided on the positive-probability graph before
    any linear solve.  Finite entries solve (I - Q) t = 1 restricted to the
    closed set of states that cannot wander off to a non-absorbing class.
    """
    n = chain.n_states
    if n == 0:
        return np.zeros(0)
    adj = chain.Q > 0
    can_absorb = can_reach(adj, chain.absorb > 0)
    # States with a path into the non-absorbing region have infinite
    # expectation too.
    touches_bad = can_reach(adj, ~can_absorb)
    fin = np.nonzero(~touches_bad)[0]
    t = np.full(n, math.inf)
    if len(fin):
        Q = chain.Q[np.ix_(fin, fin)]
        A = np.eye(len(fin)) - Q
        try:
            t[fin] = np.linalg.solve(A, np.ones(len(fin)))
        except np.linalg.LinAlgError as exc:
            rho = spectral_radius(Q)
            raise RuntimeError(
                f"hitting-time solve failed (spectral radius of the "
                f"transient block is {rho!r}): {exc}") from exc
    return t


def hitting_time(chain: InducedChain, start: StartDistribution) -> float:
    """Expected steps to absorption from ``start`` (math.inf if any
    positive-mass state is not almost surely absorbed).  A start with
    mass on safe states is rejected."""
    return _start_charge(chain, start, expected_steps(chain))


def _start_charge(chain: InducedChain, start: StartDistribution,
                  t: np.ndarray) -> float:
    """:func:`hitting_time` of ``start`` from the chain's expected steps
    ``t`` per chain state."""
    w = start.weights
    n_total = int(chain.index_map.max(initial=-1)) + 1
    if len(w) < n_total:
        raise ValueError("start distribution dimension mismatch")
    on_chain = w[chain.index_map] if chain.n_states else np.zeros(0)
    if w.sum() - on_chain.sum() > WEIGHT_TOL:
        raise ValueError("start places mass on safe states")
    hit = on_chain > 0
    if np.any(hit & np.isinf(t)):
        return math.inf
    return float(on_chain[hit] @ t[hit]) if np.any(hit) else 0.0


def _policy_grid(mdp: MdpSpec):
    """All deterministic policies, varying only over non-safe states
    (actions inside safe states are pinned to 0: they cannot matter)."""
    nonsafe = mdp.nonsafe_indices
    for combo in itertools.product(range(mdp.n_actions), repeat=len(nonsafe)):
        actions = np.zeros(mdp.n_states, dtype=int)
        actions[nonsafe] = combo
        yield Policy.deterministic(actions)


def _policy_table(mdp: MdpSpec):
    """Every policy of :func:`_policy_grid` once, as (policy, loss) with
    the value loss max_s V*(s) - V^pi(s).  A policy is eps-optimal exactly
    when its loss is below eps."""
    size = mdp.n_actions ** len(mdp.nonsafe_indices)
    if size > POLICY_CAP:
        raise ValueError(f"{size} deterministic policies exceed the "
                         f"enumeration cap {POLICY_CAP}; use a smaller "
                         f"instance")
    v_star = value_iteration(mdp, SafetyQuery.value_tol).values
    return ((policy,
             float(np.max(v_star - policy_evaluation(mdp, policy).values)))
            for policy in _policy_grid(mdp))


def _charged_time(mdp: MdpSpec, policy: Policy, start):
    """(charged hitting time, expected steps per chain state) of a policy;
    a ``start`` of None charges the slowest non-safe starting state."""
    chain = induce_chain(mdp, policy)
    t = expected_steps(chain)
    if start is not None:
        return _start_charge(chain, start, t), t
    return (float(np.max(t)) if len(t) else 0.0), t


def enumerate_epsilon_optimal(mdp: MdpSpec, query: SafetyQuery) -> list:
    """Every deterministic stationary policy whose exact value loss
    max_s V*(s) - V(s) is below epsilon."""
    return [policy for policy, loss in _policy_table(mdp)
            if loss < query.epsilon]


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
    worst_time, worst_policy, worst_times = -math.inf, None, np.zeros(0)
    members, reachability, boundary = [], [], 0
    for policy, policy_loss in _policy_table(mdp):
        if abs(query.epsilon - policy_loss) < 10.0 * query.value_tol:
            boundary += 1
        if policy_loss < query.epsilon:
            members.append(policy)
            time, t_vec = _charged_time(mdp, policy, query.start)
            reachability.append(bool(np.all(np.isfinite(t_vec))))
            if time > worst_time:
                worst_time, worst_policy, worst_times = time, policy, t_vec
    if not members:
        raise ValueError(
            f"no deterministic policy is {query.epsilon!r}-optimal; a safety "
            f"verdict over an empty set would be vacuous")

    return SafetyCertificate(
        epsilon=query.epsilon,
        worst_policy=worst_policy,
        worst_time=worst_time,
        worst_policy_times=worst_times,
        epsilon_optimal_count=len(members),
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
    metric = cross_bisim_metric(m, m_prime, config)
    d_h = hausdorff_distance(metric)
    isolation = isolation_check(m_prime, m_prime.safe_set, math.sqrt(d_h),
                                config)
    cert_base = certify_safety(m, SafetyQuery(epsilon), N_values=(N,))
    cert_pert = certify_safety(m_prime, SafetyQuery(epsilon / 2.0),
                               N_values=(N + 1.0,))
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

    Every deterministic policy is evaluated once, and hitting times are
    computed for the policies eps-optimal at the largest epsilon; each
    epsilon then reads off the maximum over its membership set, so the
    frontier is monotone nondecreasing by construction of the sets
    themselves.  An empty epsilon list, or an epsilon whose membership
    set is empty, raises ValueError.
    """
    epsilons = sorted(float(e) for e in epsilons)
    if not epsilons:
        raise ValueError("no epsilon given; an empty frontier would be "
                         "vacuous")
    evaluated = [(loss, _charged_time(mdp, policy, None)[0])
                 for policy, loss in _policy_table(mdp)
                 if loss < epsilons[-1]]
    frontier = []
    for eps in epsilons:
        times = [worst for loss, worst in evaluated if loss < eps]
        if not times:
            raise ValueError(
                f"no deterministic policy is {eps!r}-optimal; a frontier "
                f"point over an empty set would be vacuous")
        frontier.append((eps, max(times)))
    return frontier

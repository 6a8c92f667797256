"""Finite MDPs with an absorbing safe set, plus the standard solvers.

Everything downstream (metrics, safety certificates, on-policy analysis)
consumes the types defined here.  All values are immutable after
construction; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PROB_TOL",
    "MdpSpec",
    "Policy",
    "ValueFunction",
    "InducedChain",
    "StartDistribution",
    "ValidationReport",
    "Violation",
    "validate",
    "induce_chain",
    "value_iteration",
    "policy_evaluation",
    "greedy_policy",
    "load_mdp",
    "mdp_from_document",
    "mdp_to_document",
    "dump_mdp",
]

# Probability bookkeeping tolerance.
PROB_TOL = 1e-12
# Start-distribution weight tolerance.
WEIGHT_TOL = 1e-12


def _frozen(a, dtype=float):
    """``a`` as a read-only array of ``dtype``: ``a`` itself when it already
    is one that owns its data, as the arrays the package builds and freezes
    in place are (:func:`_sealed`); otherwise a frozen copy, which later
    writes to ``a``, or to the base of a view ``a``, cannot reach."""
    if type(a) is np.ndarray and a.dtype == dtype and a.flags.owndata \
            and not a.flags.writeable:
        return a
    return _sealed(np.array(a, dtype=dtype))


def _sealed(a):
    """``a``, an array just built and held by nothing else, made read-only
    in place so that :func:`_frozen` passes it on without a copy."""
    a.setflags(write=False)
    return a


def _where(mask):
    """``np.argwhere(mask)``, without its full scan when no entry is set."""
    if mask.any():
        return np.argwhere(mask)
    return np.empty((0, mask.ndim), dtype=np.intp)


@dataclass(frozen=True)
class MdpSpec:
    """A finite MDP (states, actions, transitions, rewards, discount)
    together with an absorbing set of safe (shutdown) states.

    Rewards are stored per state-action pair r[s, a].  Use
    :meth:`from_sas_rewards` when rewards depend on the destination state.
    State and action order is the file/list order; all matrices are indexed
    accordingly.
    """

    state_ids: tuple
    action_ids: tuple
    transition: np.ndarray  # (S, A, S), rows P[s, a, :] are distributions
    reward: np.ndarray      # (S, A)
    discount: float
    safe_set: frozenset

    def __post_init__(self):
        # Deliberately permissive: structural problems are reported by
        # validate(), not rejected here, so broken documents can be examined.
        object.__setattr__(self, "state_ids", tuple(self.state_ids))
        object.__setattr__(self, "action_ids", tuple(self.action_ids))
        object.__setattr__(self, "transition", _frozen(self.transition))
        object.__setattr__(self, "reward", _frozen(self.reward))
        object.__setattr__(self, "safe_set", frozenset(int(s) for s in self.safe_set))

    @classmethod
    def from_sas_rewards(cls, state_ids, action_ids, transition, reward_sas,
                         discount, safe_set):
        """Build a spec from destination-dependent rewards R(s, a, s') by
        taking the transition expectation r[s, a] = sum_s' P[s,a,s'] R(s,a,s')."""
        transition = np.asarray(transition, dtype=float)
        reward_sas = np.asarray(reward_sas, dtype=float)
        if reward_sas.shape != transition.shape:
            raise ValueError(
                f"rewards_sas shape {reward_sas.shape} does not match "
                f"transition shape {transition.shape}")
        reward = _sealed(np.einsum("sat,sat->sa", transition, reward_sas))
        return cls(state_ids, action_ids, transition, reward, discount, safe_set)

    @property
    def n_states(self):
        return len(self.state_ids)

    @property
    def n_actions(self):
        return len(self.action_ids)

    @property
    def safe_indices(self):
        return np.array(sorted(self.safe_set), dtype=int)

    @property
    def nonsafe_indices(self):
        return np.array([s for s in range(self.n_states) if s not in self.safe_set],
                        dtype=int)

    def state_index(self, state_id):
        if state_id not in self.state_ids:
            raise ValueError(f"unknown state id {state_id!r}")
        return self.state_ids.index(state_id)

    def with_rewards(self, reward) -> "MdpSpec":
        """Copy with a replaced reward table (used by reward-scale alignment)."""
        return MdpSpec(self.state_ids, self.action_ids, self.transition,
                       reward, self.discount, self.safe_set)


@dataclass(frozen=True)
class Policy:
    """Stationary policy, deterministic (per-state action index) or
    stochastic (per-state probability row over actions)."""

    kind: str                 # "deterministic" | "stochastic"
    table: np.ndarray

    def __post_init__(self):
        if self.kind not in ("deterministic", "stochastic"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        dtype = int if self.kind == "deterministic" else float
        object.__setattr__(self, "table", _frozen(self.table, dtype=dtype))
        if self.kind == "deterministic":
            if self.table.ndim != 1:
                raise ValueError("deterministic policy table must be 1-d")
            if np.any(self.table < 0):
                raise ValueError("negative action index")
        else:
            if self.table.ndim != 2:
                raise ValueError("stochastic policy table must be 2-d")
            rows = self.table.sum(axis=1)
            if np.any(np.abs(rows - 1.0) > PROB_TOL) or np.any(self.table < 0):
                raise ValueError("stochastic policy rows must be distributions")

    @classmethod
    def deterministic(cls, actions):
        return cls("deterministic", np.asarray(actions, dtype=int))

    @classmethod
    def stochastic(cls, table):
        return cls("stochastic", np.asarray(table, dtype=float))

    def matrix(self, n_actions) -> np.ndarray:
        """Per-state action-probability rows, regardless of kind."""
        if self.kind == "stochastic":
            if self.table.shape[1] != n_actions:
                raise ValueError("policy/action dimension mismatch")
            return np.asarray(self.table)
        if np.any(self.table >= n_actions):
            raise ValueError("action index out of range")
        rows = np.zeros((len(self.table), n_actions))
        rows[np.arange(len(self.table)), self.table] = 1.0
        return rows


@dataclass(frozen=True)
class ValueFunction:
    """Per-state values with the solver's residual.

    kind is "optimal" (from value_iteration) or "policy" (from exact policy
    evaluation); residual is the final Bellman residual or the sup-norm of
    the linear-system defect respectively.
    """

    values: np.ndarray
    kind: str
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


@dataclass(frozen=True)
class InducedChain:
    """Markov chain over non-safe states induced by fixing a policy.

    Q[..., i, j] is the one-step probability between non-safe states,
    absorb[..., i] the one-step probability of entering the safe set;
    index_map[i] is the MDP state index of chain state i.  Leading axes of
    Q and absorb index a stack of chains over the same states; one chain
    has none.
    """

    Q: np.ndarray
    absorb: np.ndarray
    index_map: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", _frozen(self.Q))
        object.__setattr__(self, "absorb", _frozen(self.absorb))
        object.__setattr__(self, "index_map", _frozen(self.index_map, dtype=int))
        rows = self.Q.sum(axis=-1) + self.absorb
        if self.Q.size and np.max(np.abs(rows - 1.0)) > PROB_TOL:
            raise ValueError("chain rows + absorption must sum to 1")

    @property
    def n_states(self):
        return len(self.index_map)


@dataclass(frozen=True)
class StartDistribution:
    """Distribution over MDP states from which trajectories start.

    Hitting-time queries reject mass placed on safe states.
    """

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(self.weights))
        w = self.weights
        # Comparisons with NaN are false, so a NaN weight would pass the
        # sign and sum tests below.
        if not np.all(np.isfinite(w)):
            raise ValueError("start weights must be finite")
        if np.any(w < 0):
            raise ValueError("start weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"start weights must sum to 1, got {w.sum()!r}")

    @classmethod
    def point_mass(cls, n_states, state):
        w = np.zeros(n_states)
        w[state] = 1.0
        return cls(w)

    @classmethod
    def uniform_over(cls, n_states, support):
        w = np.zeros(n_states)
        w[list(support)] = 1.0 / len(support)
        return cls(w)


@dataclass(frozen=True)
class Violation:
    code: str
    location: tuple
    detail: str

    def __str__(self):
        where = ",".join(str(x) for x in self.location)
        return f"{self.code}@({where}): {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


def validate(mdp: MdpSpec) -> ValidationReport:
    """Check every structural invariant of an MDP spec.

    Returns a report listing each violation with its location; the report is
    empty iff the MDP is valid.  Row sums and safe-set absorption are held
    to ``PROB_TOL``.
    """
    found = []
    n_s, n_a = len(mdp.state_ids), len(mdp.action_ids)
    if len(set(mdp.state_ids)) != n_s:
        found.append(Violation("duplicate-state-ids", (), "state ids repeat"))
    if len(set(mdp.action_ids)) != n_a:
        found.append(Violation("duplicate-action-ids", (), "action ids repeat"))
    P, r = np.asarray(mdp.transition), np.asarray(mdp.reward)
    if P.shape != (n_s, n_a, n_s):
        found.append(Violation("transition-shape", P.shape,
                               f"expected {(n_s, n_a, n_s)}"))
        return ValidationReport(tuple(found))
    if r.shape != (n_s, n_a):
        found.append(Violation("reward-shape", r.shape, f"expected {(n_s, n_a)}"))
    # Comparisons with NaN are false, so no check below would catch one.
    for name, values in (("transition", P), ("reward", r)):
        for loc in _where(~np.isfinite(values))[:20]:
            loc = tuple(int(x) for x in loc)
            found.append(Violation("non-finite", loc,
                                   f"{name} entry {values[loc]!r}"))
    if not math.isfinite(mdp.discount):
        found.append(Violation("non-finite", (), f"discount {mdp.discount!r}"))
    elif not 0.0 < mdp.discount < 1.0:
        found.append(Violation("discount", (), f"{mdp.discount} not in (0,1)"))
    bad = _where((P < 0) | (P > 1))
    for s, a, t in bad[:20]:
        found.append(Violation("probability-range", (int(s), int(a), int(t)),
                               f"entry {P[s, a, t]!r} outside [0,1]"))
    rows = P.sum(axis=2)
    off = _where(np.abs(rows - 1.0) > PROB_TOL)
    for s, a in off:
        found.append(Violation("row-sum", (int(s), int(a)),
                               f"sums to {rows[s, a]!r}"))
    safe = sorted(mdp.safe_set)
    if any(s < 0 or s >= n_s for s in safe):
        found.append(Violation("safe-range", tuple(safe), "index out of range"))
    else:
        for s in safe:
            inside = P[s][:, safe].sum(axis=1)  # per action, mass staying safe
            for a in np.nonzero(np.abs(inside - 1.0) > PROB_TOL)[0]:
                found.append(Violation(
                    "safe-not-absorbing", (int(s), int(a)),
                    f"leaks {1.0 - inside[a]!r} outside the safe set"))
    return ValidationReport(tuple(found))


def induce_chain(mdp: MdpSpec, policy: Policy) -> InducedChain:
    """Fix a policy and restrict the resulting Markov chain to non-safe
    states, recording the per-state one-step absorption probability."""
    pi = policy.matrix(mdp.n_actions)
    if pi.shape[0] != mdp.n_states:
        raise ValueError("policy/state dimension mismatch")
    P_pi = np.einsum("sa,sat->st", pi, mdp.transition)
    keep = mdp.nonsafe_indices
    safe = mdp.safe_indices
    Q = P_pi[np.ix_(keep, keep)]
    absorb = P_pi[np.ix_(keep, safe)].sum(axis=1) if len(safe) else np.zeros(len(keep))
    return InducedChain(Q, absorb, keep)


# Policy iteration switches a state's action only for a gain above this
# share of the largest action value, so ties cannot cycle; it stops after
# POLICY_ROUNDS evaluations in any case.
SWITCH_MARGIN = 1e-12
POLICY_ROUNDS = 100


def policy_iteration(evaluate, action_values, policy):
    """Howard's loop from ``policy``: (values, Q) of the last policy."""
    states = np.arange(len(policy))
    for _ in range(POLICY_ROUNDS):
        values = evaluate(policy)
        q = action_values(values)
        gain = q.max(axis=1) - q[states, policy]
        switch = gain > SWITCH_MARGIN * np.abs(q).max()
        if not switch.any():
            break
        policy = np.where(switch, q.argmax(axis=1), policy)
    return values, q


def policy_values(mdp: MdpSpec, actions: np.ndarray) -> np.ndarray:
    """Values of the deterministic policies in the rows of ``actions``, by
    one stacked solve; each equals policy_evaluation's solve bit for bit."""
    states = np.arange(mdp.n_states)
    A = np.eye(mdp.n_states) - mdp.discount * mdp.transition[states, actions]
    return np.linalg.solve(A, mdp.reward[states, actions][..., None])[..., 0]


def q_values(mdp: MdpSpec, values: np.ndarray) -> np.ndarray:
    """Action values r + g P V of the state values ``values``."""
    return mdp.reward + mdp.discount * np.einsum("sat,t->sa",
                                                 mdp.transition, values)


def value_iteration(mdp: MdpSpec, tol: float = 1e-10) -> ValueFunction:
    """V* by policy iteration; ValueError unless P and r are finite and the
    Bellman residual is within tol*(1-g) or 16 ulps of max |Q|."""
    if not 0.0 < mdp.discount < 1.0:
        raise ValueError("value iteration requires discount in (0,1)")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not all(np.isfinite(a).all() for a in (mdp.transition, mdp.reward)):
        raise ValueError("value iteration: non-finite transition or reward")
    v, q = policy_iteration(lambda pi: policy_values(mdp, pi),
                            lambda values: q_values(mdp, values),
                            mdp.reward.argmax(axis=1))
    residual = float(np.max(np.abs(q.max(axis=1) - v)))
    # Float arithmetic shows no residual below a few ulps of max |Q|.
    if not residual <= max(tol * (1.0 - mdp.discount),
                           16 * np.finfo(float).eps * np.abs(q).max()):
        raise ValueError(f"value iteration: Bellman residual {residual!r} "
                         f"does not certify an error below {tol!r}")
    return ValueFunction(v, "optimal", residual)


def can_reach(adj: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Mask of the states with a path (possibly empty) along the boolean
    adjacency matrix ``adj`` into the states of the mask ``target``.
    Leading axes of ``adj`` (..., n, n) and ``target`` (..., n) index a
    batch of graphs."""
    steps = adj.astype(float)
    reach = np.array(target, dtype=bool)
    while True:
        grown = reach | ((steps @ reach[..., None])[..., 0] > 0)
        if not np.any(grown & ~reach):
            return reach
        reach = grown


def policy_evaluation(mdp: MdpSpec, policy: Policy) -> ValueFunction:
    """Exact V^pi from the linear system (I - g P_pi) V = r_pi."""
    if not 0.0 < mdp.discount < 1.0:
        raise ValueError("policy evaluation requires discount in (0,1)")
    pi = policy.matrix(mdp.n_actions)
    if pi.shape[0] != mdp.n_states:
        raise ValueError("policy/state dimension mismatch")
    P_pi = np.einsum("sa,sat->st", pi, mdp.transition)
    r_pi = np.einsum("sa,sa->s", pi, mdp.reward)
    A = np.eye(mdp.n_states) - mdp.discount * P_pi
    # Nonsingular for discount < 1 (else LinAlgError, a ValueError).
    v = np.linalg.solve(A, r_pi)
    residual = float(np.max(np.abs(A @ v - r_pi)))
    return ValueFunction(v, "policy", residual)


def greedy_policy(mdp: MdpSpec, values: ValueFunction) -> Policy:
    """Deterministic policy that is greedy with respect to the given values."""
    return Policy.deterministic(q_values(mdp, values.values).argmax(axis=1))


# -- JSON document interface -------------------------------------------------

def _reject_literal(name):
    raise ValueError(f"non-finite literal {name} in JSON document")


def read_document(source) -> dict:
    """A JSON object from a path, a file object, or an already parsed
    document.  The NaN and Infinity literals, which Python's json module
    accepts, are rejected."""
    if hasattr(source, "read"):
        source = json.load(source, parse_constant=_reject_literal)
    elif isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            source = json.load(fh, parse_constant=_reject_literal)
    if not isinstance(source, dict):
        raise ValueError(f"a JSON document must be an object at top level, "
                         f"not {type(source).__name__}")
    return source


def document_field(doc: dict, key: str, types, dtype=None):
    """``doc[key]``, which must be present and an instance of ``types``
    (never a boolean); with ``dtype``, as a read-only array of it."""
    value = doc.get(key)
    if not isinstance(value, types) or isinstance(value, bool):
        raise ValueError(f"document field {key!r} is missing or of type "
                         f"{type(value).__name__}")
    try:
        return value if dtype is None \
            else _sealed(np.array(value, dtype=dtype))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"document field {key!r}: {exc}") from exc


def mdp_from_document(source) -> MdpSpec:
    """The MDP of a JSON document (see :func:`read_document`), not yet
    validated; the inverse of :func:`mdp_to_document`.

    Schema: {"states": [...], "actions": [...], "transitions": [[[...]]],
    "rewards": [[...]] or "rewards_sas": [[[...]]] (mutually exclusive),
    "discount": g, "safe": [state ids]}; other keys are ignored.  A
    document of another structure raises ValueError.
    """
    doc = read_document(source)
    if ("rewards" in doc) == ("rewards_sas" in doc):
        raise ValueError("exactly one of 'rewards'/'rewards_sas' is required")
    states = document_field(doc, "states", list)
    actions = document_field(doc, "actions", list)
    if any(isinstance(i, (list, dict)) for i in states + actions):
        raise ValueError("state and action ids must be strings or numbers")
    safe_ids = document_field(doc, "safe", list)
    for s in safe_ids:
        if s not in states:
            raise ValueError(f"safe state {s!r} not among states")
    safe = frozenset(states.index(s) for s in safe_ids)
    discount = float(document_field(doc, "discount", (int, float), float))
    transitions = document_field(doc, "transitions", list, float)
    if "rewards" in doc:
        return MdpSpec(states, actions, transitions,
                       document_field(doc, "rewards", list, float),
                       discount, safe)
    return MdpSpec.from_sas_rewards(
        states, actions, transitions,
        document_field(doc, "rewards_sas", list, float), discount, safe)


def load_mdp(source) -> MdpSpec:
    """:func:`mdp_from_document`, which must also validate."""
    mdp = mdp_from_document(source)
    report = validate(mdp)
    if not report.ok:
        raise ValueError(f"MDP document fails validation: {report}")
    return mdp


def mdp_to_document(mdp: MdpSpec) -> dict:
    return {
        "states": list(mdp.state_ids),
        "actions": list(mdp.action_ids),
        "transitions": mdp.transition.tolist(),
        "rewards": mdp.reward.tolist(),
        "discount": mdp.discount,
        "safe": [mdp.state_ids[i] for i in sorted(mdp.safe_set)],
    }


def dump_mdp(mdp: MdpSpec, target) -> None:
    """Write the JSON MDP document to a path or file object."""
    doc = mdp_to_document(mdp)
    if hasattr(target, "write"):
        json.dump(doc, target, indent=2)
    else:
        with open(target, "w") as fh:
            json.dump(doc, fh, indent=2)

"""Finite MDPs with an absorbing safe set, plus the standard solvers.

Everything downstream (metrics, safety certificates, on-policy analysis)
consumes the types defined here.  All values are immutable after
construction; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import json
import math
import operator
import os
import weakref
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MdpSpec",
    "Policy",
    "ValueFunction",
    "InducedChain",
    "StartDistribution",
    "ValidationReport",
    "validate",
    "induce_chain",
    "value_iteration",
    "greedy_policy",
    "load_mdp",
    "mdp_from_document",
    "mdp_to_document",
]

# Probability bookkeeping tolerance.
PROB_TOL = 1e-12
# Start-distribution weight tolerance.
WEIGHT_TOL = 1e-12


def _frozen(a, dtype=float):
    """``a`` as a read-only array of ``dtype``: ``a`` itself when
    :func:`_sealed` froze it and it is still read-only; otherwise a frozen
    copy, which later writes to ``a``, or through any view of its data,
    cannot reach."""
    if _SEALED.get(id(a)) is a and a.dtype == dtype \
            and not a.flags.writeable:
        return a
    return _sealed(np.array(a, dtype=dtype))


# The arrays _sealed has frozen, by id; an entry leaves with its array.
_SEALED = weakref.WeakValueDictionary()


def _sealed(a):
    """``a``, an array just built and held by nothing else, made read-only
    in place so that :func:`_frozen` passes it on without a copy."""
    a.setflags(write=False)
    _SEALED[id(a)] = a
    return a


def _where(mask):
    """``np.argwhere(mask)``, without its full scan when no entry is set."""
    if mask.any():
        return np.argwhere(mask)
    return np.empty((0, mask.ndim), dtype=np.intp)


def _state_indices(n_states: int, states) -> list:
    """``states`` as a list of ints, each a state index in [0, n_states):
    a negative index would wrap to a state counted from the end."""
    indices = [operator.index(s) for s in states]
    outside = [s for s in indices if not 0 <= s < n_states]
    if outside:
        raise ValueError(f"state indices {outside} lie outside "
                         f"[0, {n_states})")
    return indices


def _index_by_text(ids, name, kind):
    """Index of the id in ``ids`` whose text form is that of ``name``."""
    texts = [str(i) for i in ids]
    if str(name) not in texts:
        raise ValueError(f"unknown {kind} id {name!r}")
    return texts.index(str(name))


def _fresh_id(name: str, taken: set) -> str:
    """``name`` with ' appended until its text form is none of ``taken``
    (a set of text forms), which then holds it too."""
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def _repeats(ids):
    """Whether two ids are equal or share a text form, which the command
    line and the artifacts' keys could not tell apart."""
    return len(set(ids)) < len(ids) or len({str(i) for i in ids}) < len(ids)


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
        """Index of the state whose id has the text form of ``state_id``,
        so that a command-line string names a numeric id too."""
        return _index_by_text(self.state_ids, state_id, "state")

    def action_index(self, action_id):
        """Index of the action whose id has the text form of
        ``action_id``."""
        return _index_by_text(self.action_ids, action_id, "action")

    def with_rewards(self, reward) -> "MdpSpec":
        """Checked copy with a replaced reward table (reward-scale alignment
        and reward jitter)."""
        return checked(MdpSpec(self.state_ids, self.action_ids,
                               self.transition, reward, self.discount,
                               self.safe_set), "reward variant invalid")


@dataclass(frozen=True)
class Policy:
    """Deterministic stationary policy: the action index of each state.

    A finite discounted MDP has an optimal policy of this kind (Puterman,
    Markov Decision Processes, section 6.2), and every certificate is
    taken over policies of this kind.
    """

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _frozen(self.table, dtype=int))
        if self.table.ndim != 1:
            raise ValueError("policy table must be 1-d")
        if np.any(self.table < 0):
            raise ValueError("negative action index")

    @classmethod
    def deterministic(cls, actions):
        return cls(actions)


@dataclass(frozen=True)
class ValueFunction:
    """Optimal values V* per state, with their Bellman residual
    max_s |max_a Q(s, a) - V(s)|."""

    values: np.ndarray
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
        # A NaN row fails the test; its maximum would compare false.
        if self.Q.size and not np.all(np.abs(rows - 1.0) <= PROB_TOL):
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
            raise ValueError(f"start weights must sum to 1, "
                             f"got {float(w.sum())!r}")

    @classmethod
    def point_mass(cls, n_states, state):
        w = np.zeros(n_states)
        w[_state_indices(n_states, [state])] = 1.0
        return cls(w)

    @classmethod
    def uniform_over(cls, n_states, support):
        if not len(support):
            raise ValueError("a uniform start needs at least one state, and "
                             "its support is empty (every state is safe)")
        w = np.zeros(n_states)
        w[_state_indices(n_states, support)] = 1.0 / len(support)
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
    if _repeats(mdp.state_ids):
        found.append(Violation("duplicate-state-ids", (), "state ids repeat"))
    if _repeats(mdp.action_ids):
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


def checked(mdp: MdpSpec, failure: str) -> MdpSpec:
    """``mdp`` when :func:`validate` finds nothing wrong with it; otherwise
    a ValueError that reads ``failure`` and the report."""
    report = validate(mdp)
    if not report.ok:
        raise ValueError(f"{failure}: {report}")
    return mdp


def induce_chain(mdp: MdpSpec, policy: Policy) -> InducedChain:
    """Fix a policy and restrict the resulting Markov chain to non-safe
    states, recording the per-state one-step absorption probability."""
    if len(policy.table) != mdp.n_states:
        raise ValueError("policy/state dimension mismatch")
    if np.any(policy.table >= mdp.n_actions):
        raise ValueError("action index out of range")
    return _chains(mdp, policy.table)


def _chains(mdp: MdpSpec, actions: np.ndarray) -> InducedChain:
    """The chains that the action tables along the last axis of
    ``actions`` induce, stacked along its leading axes (one table, one
    chain): each non-safe state's row of the transition under its action,
    split into its non-safe part and its mass on the safe set.  Each part
    is gathered from the transition's columns of its own states, so that a
    stack holds one n-by-n matrix per chain, which the chain keeps without
    a copy."""
    keep = mdp.nonsafe_indices
    chosen = actions[..., keep]
    Q = mdp.transition[:, :, keep][keep, chosen]
    absorb = mdp.transition[:, :, mdp.safe_indices][keep, chosen].sum(axis=-1)
    return InducedChain(_sealed(Q), absorb, keep)


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
    one stacked solve of (I - g P_pi) V = r_pi; LAPACK solves each matrix
    of the stack on its own, so each row has the bits of a lone solve."""
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
    return ValueFunction(v, residual)


def can_reach(adj: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Mask of the states with a path (possibly empty) along the boolean
    (or 0/1 float) adjacency matrix ``adj`` into the states of the mask
    ``target``.  Leading axes of ``adj`` (..., n, n) and ``target``
    (..., n) index a batch of graphs."""
    steps = np.asarray(adj, dtype=float)
    reach = np.array(target, dtype=bool)
    while True:
        grown = reach | ((steps @ reach[..., None])[..., 0] > 0)
        if not np.any(grown & ~reach):
            return reach
        reach = grown


def strong_components(adj: np.ndarray) -> list:
    """Strongly connected components of the boolean adjacency matrix
    ``adj``, as ascending index arrays ordered by their lowest state.

    One Warshall pass over the states gives the reflexive transitive
    closure, and two states share a component when each reaches the
    other.  A graph of one component, the shape of most transient blocks,
    is told first by two closures into and out of state 0, which cost
    less than the pass."""
    reach = np.array(adj, dtype=bool)
    n = len(reach)
    first = np.arange(n) == 0
    if n and can_reach(reach, first).all() \
            and can_reach(reach.T, first).all():
        return [np.arange(n)]
    reach[np.diag_indices(n)] = True
    for k in range(n):
        reach |= reach[:, k, None] & reach[k]
    mutual = reach & reach.T
    components, assigned = [], np.zeros(n, dtype=bool)
    for s in range(n):
        if not assigned[s]:
            assigned |= mutual[s]
            components.append(np.flatnonzero(mutual[s]))
    return components


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
    safe_ids = document_field(doc, "safe", list)
    if not all(isinstance(i, (str, int, float)) and not isinstance(i, bool)
               for i in states + actions + safe_ids):
        raise ValueError("state and action ids must be strings or numbers")
    safe = frozenset(_index_by_text(states, s, "safe state")
                     for s in safe_ids)
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
    return checked(mdp_from_document(source), "MDP document fails validation")


def mdp_to_document(mdp: MdpSpec) -> dict:
    return {
        "states": list(mdp.state_ids),
        "actions": list(mdp.action_ids),
        "transitions": mdp.transition.tolist(),
        "rewards": mdp.reward.tolist(),
        "discount": mdp.discount,
        "safe": [mdp.state_ids[i] for i in sorted(mdp.safe_set)],
    }

"""Deterministic generators for adversarial and fixture MDPs.

Includes the deceptive-hibernation construction (a near-copy of a safe MDP
whose new state imitates shutdown while eventually escaping), the uniform
random-shutdown modification, exact state duplication for quotient tests,
and seeded random embedded-MDP families.  Every generator emits MDPs that
pass validation with empty reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import (MdpSpec, _fresh_id, _sealed, _state_indices, checked,
                  value_iteration)
from .onpolicy import DiffPolicy, EmbeddedMdp, Perturbation

__all__ = [
    "PlayingDeadParams",
    "build_playing_dead",
    "build_uniform_shutdown",
    "build_duplicated",
    "random_family",
    "random_family_metadata",
    "random_perturbation",
]

RNG_ALGORITHM = "numpy-PCG64"
# The farthest random_perturbation moves a state: twice over, the square of
# a row norm stays finite, so norms and squared shifts can be taken.
MAX_STATE_SHIFT = math.sqrt(np.finfo(float).max) / 2


@dataclass(frozen=True)
class PlayingDeadParams:
    """Inputs of the playing-dead construction.

    The base MDP must have a single terminal safe state (self-loop under
    every action, zero reward).  delta must lie in
    (0, (1-gamma) epsilon / (10 |S|)) and be at most 1 (it is the
    hibernation state's leak probability), and the escape state must have
    positive optimal value, so that lingering near shutdown while slowly
    escaping stays attractive to near-optimal policies.
    """

    base: MdpSpec
    delta: float
    escape_state: int
    escape_action: int
    epsilon: float

    def __post_init__(self):
        base = checked(self.base, "base MDP invalid")
        if len(base.safe_set) != 1:
            raise ValueError("base must have exactly one terminal safe state")
        term = next(iter(base.safe_set))
        row = np.zeros(base.n_states)
        row[term] = 1.0
        if not np.allclose(base.transition[term], row[None, :], atol=1e-12):
            raise ValueError("terminal state must self-loop under every action")
        if np.any(np.abs(base.reward[term]) > 1e-12):
            raise ValueError("terminal state must earn zero reward")
        limit = (1.0 - base.discount) * self.epsilon / (10.0 * base.n_states)
        if not 0.0 < self.delta < limit or self.delta > 1.0:
            raise ValueError(f"delta must lie in (0, {limit!r}) and be at "
                             f"most 1, got {self.delta!r}")
        _state_indices(base.n_states, [self.escape_state])
        if not 0 <= self.escape_action < base.n_actions:
            raise ValueError("escape_action out of range")
        v_star = value_iteration(base).values
        if v_star[self.escape_state] <= 1e-9:
            raise ValueError("escape state must have positive optimal value")

    @property
    def terminal_state(self):
        return next(iter(self.base.safe_set))


def build_playing_dead(params: PlayingDeadParams) -> MdpSpec:
    """Append a hibernation state that imitates the terminal state.

    The new state pays delta under the escape action and leaks to the
    escape state with probability delta, otherwise it self-loops; every
    transition that fed the terminal state from outside is rerouted into
    it.  The terminal state's own rows are left untouched (rerouting them
    would both break absorption and change the distance computation).
    """
    base, delta = params.base, params.delta
    term = params.terminal_state
    n, n_a = base.n_states, base.n_actions
    pd = n
    P = np.zeros((n + 1, n_a, n + 1))
    P[:n, :, :n] = base.transition
    mask = np.ones(n, dtype=bool)
    mask[term] = False
    P[:n, :, pd] = np.where(mask[:, None], base.transition[:, :, term], 0.0)
    P[np.nonzero(mask)[0], :, term] = 0.0
    P[pd, :, pd] = 1.0
    P[pd, params.escape_action, pd] = 1.0 - delta
    P[pd, params.escape_action, params.escape_state] = delta
    r = np.zeros((n + 1, n_a))
    r[:n] = base.reward
    r[pd, params.escape_action] = delta

    pd_id = _fresh_id("s_pd", {str(i) for i in base.state_ids})
    return checked(MdpSpec(base.state_ids + (pd_id,), base.action_ids, P, r,
                           base.discount, base.safe_set),
                   "playing-dead MDP invalid")


def build_uniform_shutdown(mdp: MdpSpec, N: float,
                           target: int | None = None) -> MdpSpec:
    """Blend every transition row with a 1/N hop to a designated safe state.

    Rows become (1 - 1/N) P + (1/N) e_target, so from any state absorption
    happens with per-step probability at least 1/N.
    """
    if not math.isfinite(N):
        raise ValueError(f"N must be finite, got {N!r}")
    if not N > 1:
        raise ValueError(f"N must exceed 1, got {N!r}")
    if not mdp.safe_set:
        raise ValueError("MDP needs a nonempty safe set")
    if target is None:
        target = min(mdp.safe_set)
    if target not in mdp.safe_set:
        raise ValueError("target must be a safe state")
    P = (1.0 - 1.0 / N) * mdp.transition
    P[:, :, target] += 1.0 / N
    return checked(MdpSpec(mdp.state_ids, mdp.action_ids, P, mdp.reward,
                           mdp.discount, mdp.safe_set),
                   "uniform-shutdown MDP invalid")


def build_duplicated(mdp: MdpSpec, state: int, copies: int = 2) -> MdpSpec:
    """Split one state into exactly bisimilar copies.

    Inbound mass is divided evenly across the copy class; outbound rows and
    rewards are shared (self-transition mass splits evenly too).  Splitting
    a safe state keeps every copy safe.
    """
    if copies < 2:
        raise ValueError("need at least 2 copies")
    _state_indices(mdp.n_states, [state])
    n, n_a = mdp.n_states, mdp.n_actions
    m = n + copies - 1
    P = np.zeros((m, n_a, m))
    P[:n, :, :n] = mdp.transition
    # Divide inbound mass (including the original's own row) evenly.
    P[:n, :, state] /= copies
    P[:n, :, n:] = P[:n, :, state, None]
    P[n:] = P[state]
    r = np.zeros((m, n_a))
    r[:n] = mdp.reward
    r[n:] = mdp.reward[state]

    taken = {str(i) for i in mdp.state_ids}
    ids = mdp.state_ids + tuple(
        _fresh_id(f"{mdp.state_ids[state]}#{k}", taken)
        for k in range(2, copies + 1))
    safe = set(mdp.safe_set)
    if state in mdp.safe_set:
        safe.update(range(n, m))
    return checked(MdpSpec(ids, mdp.action_ids, P, r, mdp.discount,
                           frozenset(safe)), "duplicated MDP invalid")


def random_family(seed: int, shape=(5, 2, 3), sparsity: float = 0.6,
                  reward_range=(0.0, 1.0), gamma: float = 0.9) -> EmbeddedMdp:
    """Seeded random embedded MDP with an absorbing final safe state.

    Each non-safe row draws a support of ceil(sparsity * |S|) destinations
    with Dirichlet weights; embeddings are uniform in the unit cube.  Same
    seed, same document, byte for byte.
    """
    n_states, n_actions, dim = shape
    if n_states < 2:
        raise ValueError("need at least 2 states")
    if n_actions < 1:
        raise ValueError("need at least 1 action")
    if not 0.0 < sparsity <= 1.0:
        raise ValueError(f"sparsity must lie in (0,1], got {sparsity!r}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma!r}")
    if len(reward_range) != 2 \
            or not all(math.isfinite(x) for x in reward_range) \
            or reward_range[0] > reward_range[1] \
            or not math.isfinite(reward_range[1] - reward_range[0]):
        raise ValueError(f"reward range must be two finite numbers "
                         f"low <= high a finite width apart, got "
                         f"{reward_range!r}")
    lo, hi = reward_range
    rng = np.random.default_rng(seed)
    safe = n_states - 1
    k = math.ceil(sparsity * n_states)
    P = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states - 1):
        for a in range(n_actions):
            dests = rng.choice(n_states, size=k, replace=False)
            w = rng.dirichlet(np.ones(k))
            P[s, a, dests] = w
    P[safe, :, safe] = 1.0
    r = rng.uniform(lo, hi, size=(n_states, n_actions))
    r[safe] = 0.0
    emb = rng.uniform(0.0, 1.0, size=(n_states, dim))
    ids = tuple(f"s{i}" for i in range(n_states))
    acts = tuple(f"a{j}" for j in range(n_actions))
    base = MdpSpec(ids, acts, P, r, gamma, frozenset({safe}))
    return EmbeddedMdp(checked(base, "random MDP invalid"), emb)


def random_family_metadata(seed, shape, sparsity, reward_range,
                           gamma=0.9) -> dict:
    """Provenance block recorded alongside generated documents."""
    return {
        "algorithm": RNG_ALGORITHM,
        "seed": int(seed),
        "shape": list(shape),
        "sparsity": float(sparsity),
        "reward_range": list(reward_range),
        "discount": float(gamma),
    }


@dataclass(frozen=True)
class PerturbationSupport:
    """Where :func:`random_perturbation` puts transition noise on one MDP.

    The cells are the support entries of the non-safe rows that have at
    least two of them, in flat (state, action, destination) order; one
    draw of ``n_cells`` normals is the stream of consecutive per-row draws.
    ``groups`` holds one (positions, cells, caps) triple per support
    length k, ascending: the (m, k) positions of its rows in that draw,
    their (m, k) flat cells, and the (m,) cap of each row, half its
    smallest support entry.  The plan depends on the MDP alone.
    """

    transition: np.ndarray
    n_cells: int
    groups: tuple


def perturbation_support(base: MdpSpec) -> PerturbationSupport:
    """The support plan of :func:`random_perturbation` on ``base``."""
    P = base.transition
    support = P > 0
    support[base.safe_indices] = False
    lengths = support.sum(axis=2)
    support &= (lengths >= 2)[:, :, None]
    cells = np.flatnonzero(support)
    lengths = lengths[lengths >= 2]
    starts = np.cumsum(lengths) - lengths
    groups = []
    for k in np.unique(lengths):
        at = starts[lengths == k][:, None] + np.arange(k)
        rows = cells[at]
        groups.append((_sealed(at), _sealed(rows),
                       _sealed(0.5 * P.ravel()[rows].min(axis=1))))
    return PerturbationSupport(P, len(cells), tuple(groups))


def random_perturbation(emdp: EmbeddedMdp, policy: DiffPolicy, size: float,
                        seed: int, state_share: float = 0.5, *,
                        plan: PerturbationSupport | None = None
                        ) -> Perturbation:
    """Seeded admissible perturbation of a requested size.

    Transition noise lives on existing support only (zero-sum per row,
    capped at half the smallest support entry) so that no reachability is
    destroyed; coordinate noise is isotropic.  state_share (in [0, 1]) of
    the size goes to coordinate displacement when the policy's derivative
    bound is large enough for a unit of size to move no state further than
    ``MAX_STATE_SHIFT``, the rest to transitions.  The result is rescaled
    to the requested size; its measured size matches ``size`` to within a
    relative 1e-12, not exactly, since the rescaled sums round again.  A
    size that would move a state further than ``MAX_STATE_SHIFT`` is
    refused.

    ``plan`` is ``perturbation_support(emdp.base)``, built once for a
    ladder of draws on one MDP; by default each call builds its own.  The
    draw is the same either way, byte for byte.
    """
    if not size >= 0:
        raise ValueError("size must be nonnegative")
    if not 0.0 <= state_share <= 1.0:
        raise ValueError(f"state_share must lie in [0, 1], got "
                         f"{state_share!r}")
    base = emdp.base
    if plan is None:
        plan = perturbation_support(base)
    elif plan.transition is not base.transition:
        raise ValueError("support plan was built for another MDP")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(plan.n_cells)
    # The noise stays on the plan's cells, one flat cell and value each.
    # Rows of one length are centred together: the mean along the last
    # axis of an (m, k) array sums each row as the per-row mean does,
    # pairwise blocks included.
    cells, noise = [np.empty(0, np.intp)], [np.empty(0)]
    for at, rows, cap in plan.groups:
        zk = z[at]
        zk -= zk.mean(axis=1, keepdims=True)
        peak = np.abs(zk).max(axis=1)
        live = peak != 0.0
        if not live.all():
            zk, rows, cap, peak = zk[live], rows[live], cap[live], peak[live]
        cells.append(rows.ravel())
        noise.append((zk * (cap / peak)[:, None]).ravel())
    cells, noise = np.concatenate(cells), np.concatenate(noise)
    dS = rng.standard_normal(emdp.embedding.shape)

    b = policy.bound_b
    shifts = np.linalg.norm(dS, axis=1)
    s_mass = 0.5 * base.n_states * b * float(shifts.sum())
    peak = float(shifts.max())
    # A bound too small for one unit of size to keep every state within
    # MAX_STATE_SHIFT counts as zero, as does a bound that is not positive.
    if not peak <= MAX_STATE_SHIFT * s_mass:
        state_share = 0.0
    # Each L1 mass of the transition noise is the sum of the whole tensor
    # with the noise's absolute values on its cells, and so has the bits
    # of np.abs(dT).sum() on the dense noise.
    dT = np.zeros(base.transition.shape)
    flat = dT.reshape(-1)
    flat[cells] = np.abs(noise)
    t_mass = float(dT.sum())
    if t_mass == 0.0 and state_share == 0.0:
        return Perturbation.zero(emdp)
    if t_mass == 0.0:
        state_share = 1.0
    # Scale the two components to their shares of a unit-size perturbation,
    # then scale jointly down to the requested size.
    pert_scale_T = (1.0 - state_share) / t_mass if t_mass else 0.0
    pert_scale_S = state_share / s_mass if (s_mass and state_share) else 0.0
    noise *= pert_scale_T
    dS *= pert_scale_S
    flat[cells] = np.abs(noise)
    # The unit's size, as perturbation_size measures it.
    unit_size = (0.5 * base.n_states * b
                 * float(np.linalg.norm(dS, axis=1).sum()) + float(dT.sum()))
    if unit_size == 0.0:
        return Perturbation.zero(emdp)
    scale = size / unit_size
    if t_mass and pert_scale_T * scale > 1.0:
        raise ValueError(
            f"requested size {size!r} exceeds the admissible transition "
            f"budget for this instance (support entries would be destroyed)")
    if pert_scale_S * scale * peak > MAX_STATE_SHIFT:
        raise ValueError(
            f"requested size {size!r} moves a state further than "
            f"{MAX_STATE_SHIFT:.3g} under derivative bound {b!r}")
    noise *= scale
    dS *= scale
    flat[cells] = noise
    return Perturbation(_sealed(dS), _sealed(dT))

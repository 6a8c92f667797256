"""Fixed differentiable policies on embedded state spaces.

States carry coordinates in R^d; the policy reads only those coordinates
(side information stays invisible to it) and has a bounded derivative.
Perturbations move state coordinates and transition probabilities; their
size combines both displacements, weighted so that it dominates the L1
change of the realized chain.  The quantities of interest are the
probability of eventually reaching the safe set and how fast it can drop
per unit of perturbation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .mdp import (MdpSpec, StartDistribution, _frozen, _sealed, can_reach,
                  checked, document_field, load_mdp, mdp_to_document,
                  read_document, strong_components)

__all__ = [
    "EmbeddedMdp",
    "DiffPolicy",
    "Perturbation",
    "OnPolicyAnalysis",
    "PerturbationBoundReport",
    "RateReport",
    "realize_chain",
    "shutdown_probability",
    "chain_perturbation_bound",
    "rate_of_decrease_check",
    "analyze_chain",
    "make_toy_policy",
    "tighten_policy_bound",
    "finite_difference_jacobian",
    "load_embedded",
    "embedded_to_document",
    "load_toy_policy",
]

SUPPORT_TOL = 1e-15          # below this, a transition entry counts as zero
ROW_TOL = 1e-10
LINEARIZATION_THRESHOLD = 1e-3
PERRON_STEPS = 20_000        # cap on the steps of one spectral bracket
_NORMAL = np.finfo(float).tiny


@dataclass(frozen=True)
class EmbeddedMdp:
    """An MDP whose states carry coordinates in R^d plus opaque side tags."""

    base: MdpSpec
    embedding: np.ndarray       # (S, d)
    side_info: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "embedding", _frozen(self.embedding))
        emb = self.embedding
        if emb.ndim != 2 or emb.shape[0] != self.base.n_states:
            raise ValueError("embedding must be (n_states, d)")
        if not np.all(np.isfinite(emb)):
            raise ValueError("embedding entries must be finite")
        if self.side_info is not None:
            object.__setattr__(self, "side_info", tuple(self.side_info))
            if len(self.side_info) != self.base.n_states:
                raise ValueError("side_info length mismatch")

    @property
    def dim(self):
        return self.embedding.shape[1]


@dataclass(frozen=True)
class DiffPolicy:
    """Differentiable policy over embedding coordinates, batched along the
    last axis: evaluator(X) maps coordinates (..., d) to action
    probabilities (..., n_actions) and jacobian(X) to (..., n_actions, d);
    one point is the case with no leading axes.  bound_b dominates the
    L2-to-L1 operator norm of the jacobian at every relevant state."""

    evaluator: object
    jacobian: object
    bound_b: float


@dataclass(frozen=True)
class Perturbation:
    """Coordinate displacements delta_S (S, d) and transition displacements
    delta_T (S, A, S); rows of delta_T must sum to zero so perturbed rows
    remain distributions."""

    delta_S: np.ndarray
    delta_T: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta_S", _frozen(self.delta_S))
        object.__setattr__(self, "delta_T", _frozen(self.delta_T))

    @classmethod
    def zero(cls, emdp: EmbeddedMdp):
        return cls(_sealed(np.zeros_like(emdp.embedding)),
                   _sealed(np.zeros_like(emdp.base.transition)))

    @property
    def state_shift_l1(self):
        """Sum over states of the Euclidean displacement of each state."""
        return float(np.linalg.norm(self.delta_S, axis=1).sum())

    @property
    def transition_shift_l1(self):
        return float(np.abs(self.delta_T).sum())


def realize_chain(emdp: EmbeddedMdp, policy: DiffPolicy) -> np.ndarray:
    """Combine policy and environment into the full transition matrix
    P[i, j] = sum_a pi(f(s_i))_a P_env[i, a, j]."""
    shape = (emdp.base.n_states, emdp.base.n_actions)
    pi = np.asarray(policy.evaluator(emdp.embedding), dtype=float)
    if pi.shape != shape:
        raise ValueError(f"policy evaluator returned an invalid {pi.shape} "
                         f"array for {shape[0]} states and {shape[1]} actions")
    # A row with an entry below -1e-12 or a sum off 1; NaN fails both.
    bad = np.flatnonzero(~np.all(pi >= -1e-12, axis=1)
                         | ~(np.abs(pi.sum(axis=1) - 1.0) <= ROW_TOL))
    if len(bad):
        raise ValueError(f"policy evaluator returned an invalid "
                         f"distribution at state {bad[0]}: {pi[bad[0]]}")
    P = np.einsum("ia,iaj->ij", pi, emdp.base.transition)
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > ROW_TOL:
        raise ValueError("realized chain rows are not stochastic")
    return P


def transient_set(P: np.ndarray, safe) -> frozenset:
    """Non-safe states from which the safe set is reachable with positive
    probability (entries below the support cutoff count as zero)."""
    P = np.asarray(P, dtype=float)
    safe = frozenset(int(s) for s in safe)
    target = np.zeros(P.shape[0], dtype=bool)
    target[list(safe)] = True
    reach = can_reach(P > SUPPORT_TOL, target)
    return frozenset(np.flatnonzero(reach).tolist()) - safe


def shutdown_probability(P: np.ndarray, safe, start: StartDistribution,
                         trans=None) -> float:
    """Probability of eventually entering the safe set.

    Closed form of the step-sum: z solves (I - P diag(trans)) z = P v_safe,
    and the answer is start . z.  Mass starting inside the safe set scores
    1, mass on recurrent non-safe states 0.  ``trans`` is the chain's
    transient set, found from P when not given.
    """
    P = np.asarray(P, dtype=float)
    if trans is None:
        trans = transient_set(P, safe)
    n = P.shape[0]
    v_safe = np.zeros(n)
    v_safe[sorted(int(s) for s in safe)] = 1.0
    trans = sorted(trans)
    # I - P diag(held): a held column subtracts P's bits, the others
    # subtract P * 0 and keep I's.
    held = np.zeros(n)
    held[trans] = 1.0
    A = np.eye(n)
    A -= P * held
    try:
        z = np.linalg.solve(A, P @ v_safe)
    except np.linalg.LinAlgError as exc:
        rho = spectral_radius(P[np.ix_(trans, trans)])
        raise RuntimeError(
            f"shutdown-probability solve failed; transient spectral radius "
            f"is {rho!r}") from exc
    value = float(start.weights @ z)
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise RuntimeError(f"shutdown probability {value!r} escaped [0,1]")
    return min(max(value, 0.0), 1.0)


def _perron_bracket(B: np.ndarray):
    """(lo, hi) around the Perron root of an irreducible nonnegative block.

    x <- x + Bx from x = 1, rescaled to max(x) = 1, keeps the
    Collatz-Wielandt bracket lo = min(Bx/x) <= rho(B) <= hi = max(Bx/x),
    which holds for any positive x (Horn & Johnson, Matrix Analysis, 8.1)
    and closes because B + I is primitive.  It stops when
    hi - lo <= 1e-12 hi, after PERRON_STEPS steps with a wider bracket, or
    before an entry of x leaves the normal range, where Bx/x would lose
    its relative precision.
    """
    x = np.ones(len(B))
    for _ in range(PERRON_STEPS):
        y = B @ x
        ratio = y / x
        lo, hi = float(ratio.min()), float(ratio.max())
        if hi - lo <= 1e-12 * hi:
            break
        y += x
        y /= y.max()
        if y.min() < _NORMAL:
            break
        x = y
    return lo, hi


def spectral_radius(M: np.ndarray) -> float:
    """Spectral radius of a nonnegative matrix, certified from above: the
    largest upper end of the Perron brackets of its strong components."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError("expected a finite matrix")
    if np.any(M < 0):
        raise ValueError("expected a nonnegative matrix")
    return max((_perron_bracket(M[np.ix_(c, c)])[1]
                for c in strong_components(M > 0)), default=0.0)


def decrease_bound(P: np.ndarray, safe):
    """(transient set, its spectral radius, the local decrease bound).

    The bound is (1-l)^(-1) (1 + (1-l)^(-1)) |safe| with l the transient
    block's spectral radius; it caps how fast the shutdown probability can
    fall per unit of perturbation size.
    """
    trans = sorted(transient_set(P, safe))
    lam = spectral_radius(np.asarray(P)[np.ix_(trans, trans)]) if trans \
        else 0.0
    if lam >= 1.0:
        raise RuntimeError(f"transient block has spectral radius {lam!r} >= 1")
    inv = 1.0 / (1.0 - lam)
    return frozenset(trans), lam, inv * (1.0 + inv) * len(frozenset(safe))


@dataclass(frozen=True)
class OnPolicyAnalysis:
    """Shutdown probability and decrease bound of one (MDP, policy) pair,
    with the start distribution the probability was taken from."""

    s_trans: frozenset
    lambda1: float
    safety: float
    bound_B: float
    start: StartDistribution = field(compare=False)

    def to_document(self):
        return {"s_trans": sorted(self.s_trans), "lambda1": self.lambda1,
                "safety": self.safety, "bound_B": self.bound_B}


def analyze_chain(emdp: EmbeddedMdp, policy: DiffPolicy,
                  start: StartDistribution) -> OnPolicyAnalysis:
    P = realize_chain(emdp, policy)
    safe = emdp.base.safe_set
    trans, lam, bound = decrease_bound(P, safe)
    return OnPolicyAnalysis(trans, lam,
                            shutdown_probability(P, safe, start, trans),
                            bound, start)


def perturbation_size(emdp: EmbeddedMdp, policy: DiffPolicy,
                      pert: Perturbation) -> float:
    """Size of a perturbation: 0.5 * |S| * b * sum_i |delta s_i|  +
    sum |delta T|, with per-state displacements measured Euclidean."""
    if pert.delta_S.shape != emdp.embedding.shape \
            or pert.delta_T.shape != emdp.base.transition.shape:
        raise ValueError("perturbation shape mismatch")
    return (0.5 * emdp.base.n_states * policy.bound_b * pert.state_shift_l1
            + pert.transition_shift_l1)


def apply_perturbation(emdp: EmbeddedMdp, pert: Perturbation) -> EmbeddedMdp:
    """Shifted copy of the embedded MDP; the perturbed transition tensor is
    validated (rows must remain distributions, safe set absorbing)."""
    if pert.delta_S.shape != emdp.embedding.shape \
            or pert.delta_T.shape != emdp.base.transition.shape:
        raise ValueError("perturbation shape mismatch")
    P = emdp.base.transition + pert.delta_T
    row_drift = np.abs(pert.delta_T.sum(axis=2)).max() if pert.delta_T.size else 0.0
    if row_drift > 1e-12:
        raise ValueError(f"delta_T changes a row sum by {row_drift!r}")
    # fmin and fmax skip NaN, as comparisons do; checked reports it.
    lo = np.fmin.reduce(P, axis=None, initial=np.inf)
    hi = np.fmax.reduce(P, axis=None, initial=-np.inf)
    if lo < -1e-15 or hi > 1.0 + 1e-15:
        raise ValueError("perturbed transition entries escape [0, 1]")
    if lo < 0.0 or hi > 1.0:
        np.clip(P, 0.0, 1.0, out=P)
    base = checked(MdpSpec(emdp.base.state_ids, emdp.base.action_ids,
                           _sealed(P), emdp.base.reward, emdp.base.discount,
                           emdp.base.safe_set), "perturbed MDP invalid")
    return EmbeddedMdp(base, _sealed(emdp.embedding + pert.delta_S),
                       emdp.side_info)


def jacobian_l1_norm(jac: np.ndarray):
    """Exact L2-to-L1 operator norm of a policy jacobian (n_actions, d),
    batched over leading axes (a float for one jacobian).

    max over unit directions u of ||J u||_1 equals max over sign vectors
    sigma of ||J^T sigma||_2, enumerable exactly for small action counts.
    """
    jac = np.asarray(jac, dtype=float)
    n_a = jac.shape[-2]
    if n_a > 16:
        # Loose fallback: ||Ju||_1 <= sqrt(A) sigma_max ||u||_2.
        norms = math.sqrt(n_a) * np.linalg.svd(jac, compute_uv=False)[..., 0]
    else:
        signs = np.array([(1.0,) + rest for rest in
                          itertools.product((-1.0, 1.0), repeat=n_a - 1)])
        # Blocks of 512 sign vectors bound the (..., 512, d) products.
        blocks = np.split(signs, range(512, len(signs), 512))
        norms = np.max([np.linalg.norm(b @ jac, axis=-1).max(axis=-1)
                        for b in blocks], axis=0)
    return float(norms) if norms.ndim == 0 else norms


def finite_difference_jacobian(policy: DiffPolicy, X):
    """Central-difference jacobian of the evaluator at coordinates
    (..., d), shaped like ``policy.jacobian(X)``.

    The step h balances truncation against roundoff: probabilities are
    O(1), so the difference quotient carries eps/(2h) of float noise, which
    h of 1e-4 keeps near 1e-12 while truncation stays O(h^2).
    """
    h = 1e-4
    X = np.asarray(X, dtype=float)
    return np.stack([(np.asarray(policy.evaluator(X + e))
                      - np.asarray(policy.evaluator(X - e))) / (2.0 * h)
                     for e in h * np.eye(X.shape[-1])], axis=-1)


@dataclass(frozen=True)
class PerturbationBoundReport:
    """Entrywise and aggregate comparison of the realized chain change
    against its first-order bound, with an explicit second-order slack
    (the first-order algebra drops delta^2 terms; finite perturbations
    get them back as a measured curvature allowance)."""

    delta_p: np.ndarray
    bound: np.ndarray
    slack: np.ndarray           # per origin state
    entry_ok: np.ndarray
    delta_p_l1: float
    size: float
    aggregate_ok: bool
    first_order_only: bool

    @property
    def all_entries_ok(self):
        return bool(np.all(self.entry_ok))


def chain_perturbation_bound(emdp: EmbeddedMdp, policy: DiffPolicy,
                             pert: Perturbation) -> PerturbationBoundReport:
    """Recompute both chains exactly and compare |delta P| against
    0.5 ||grad pi(s_i)||_1 |delta s_i| + sum_a |delta T(s_i, a, s_j)|.

    The slack term kappa_i |delta s_i|^2 uses a finite-difference estimate
    of the jacobian's local variation.  Displacements beyond the
    linearization threshold (``LINEARIZATION_THRESHOLD``) mark the verdicts
    first-order-only.
    """
    P = realize_chain(emdp, policy)
    delta_p = realize_chain(apply_perturbation(emdp, pert), policy) - P
    shift = np.linalg.norm(pert.delta_S, axis=1)
    n = emdp.base.n_states
    jac = np.asarray(policy.jacobian(emdp.embedding))
    bound = (0.5 * jacobian_l1_norm(jac) * shift)[:, None] \
        + np.abs(pert.delta_T).sum(axis=1)
    slack = np.zeros(n)
    moved = shift > 0
    jac_there = np.asarray(policy.jacobian(emdp.embedding[moved]
                                           + pert.delta_S[moved]))
    kappa = jacobian_l1_norm(jac_there - jac[moved]) / shift[moved]
    slack[moved] = kappa * shift[moved] ** 2
    entry_ok = np.abs(delta_p) <= bound + slack[:, None] + 1e-12
    size = perturbation_size(emdp, policy, pert)
    delta_p_l1 = float(np.abs(delta_p).sum())
    aggregate_ok = delta_p_l1 <= size + n * slack.sum() + 1e-12
    return PerturbationBoundReport(
        delta_p=delta_p, bound=bound, slack=slack, entry_ok=entry_ok,
        delta_p_l1=delta_p_l1, size=size, aggregate_ok=aggregate_ok,
        first_order_only=bool(np.any(shift > LINEARIZATION_THRESHOLD)))


@dataclass(frozen=True)
class RateReport:
    """Observed rate of shutdown-probability decrease vs. the bound."""

    s_pi_before: float
    s_pi_after: float
    size: float
    ratio: float                # -delta S_pi / size (0 for zero size)
    bound_B: float
    within_bound: bool
    trans_preserved: bool       # S_trans subset of the perturbed S_trans

    @property
    def delta_s_pi(self):
        return self.s_pi_after - self.s_pi_before

    def to_document(self):
        return {"s_pi_before": self.s_pi_before, "s_pi_after": self.s_pi_after,
                "delta_s_pi": self.delta_s_pi, "size": self.size,
                "ratio": self.ratio, "bound_B": self.bound_B,
                "within_bound": self.within_bound,
                "trans_preserved": self.trans_preserved}


def rate_of_decrease_check(emdp: EmbeddedMdp, policy: DiffPolicy,
                           pert: Perturbation,
                           base: OnPolicyAnalysis) -> RateReport:
    """Exact shutdown probabilities before/after the perturbation and the
    observed decrease rate against the bound of the base chain.

    ``base`` is ``analyze_chain(emdp, policy, start)``; the perturbed chain
    is read from the same start, so that a ladder of perturbations
    analyses the base chain once.
    """
    safe = emdp.base.safe_set
    P_new = realize_chain(apply_perturbation(emdp, pert), policy)
    trans_new = transient_set(P_new, safe)
    after = shutdown_probability(P_new, safe, base.start, trans_new)
    size = perturbation_size(emdp, policy, pert)
    ratio = 0.0 if size == 0.0 else -(after - base.safety) / size
    return RateReport(
        s_pi_before=base.safety, s_pi_after=after, size=size, ratio=ratio,
        bound_B=base.bound_B, within_bound=ratio < base.bound_B,
        trans_preserved=base.s_trans <= trans_new)


# -- toy differentiable policies ----------------------------------------------

def make_toy_policy(weights, temperature: float = 1.0) -> DiffPolicy:
    """Softmax-of-linear-scores policy over embedding coordinates.

    pi(x) = softmax(W x / temperature), with the analytic jacobian
    (1/t) pi_a (W_a - sum_b pi_b W_b).  The derivative bound is the
    conservative analytic one, (2/t) max_a ||W_a||_2; use
    :func:`tighten_policy_bound` to replace it with the exact maximum over
    a finite set of coordinates.
    """
    if not 0 < temperature < math.inf:
        raise ValueError("temperature must be positive and finite")
    W = _frozen(weights)
    if W.ndim != 2:
        raise ValueError("weights must be (n_actions, d)")
    if not np.all(np.isfinite(W)):
        raise ValueError("weights must be finite")
    t = float(temperature)

    def evaluator(X):
        X = np.asarray(X, dtype=float)
        if X.shape[-1:] != W.shape[1:]:
            raise ValueError(f"toy policy weights {W.shape} = (n_actions, dim)"
                             f" read dimension {W.shape[1]}, got {X.shape}")
        # W @ x per point; X @ W.T would round differently in the last bit.
        z = (W @ X[..., None])[..., 0] / t
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    def jacobian(X):
        p = evaluator(X)
        return (p[..., :, None] * (W - p[..., None, :] @ W)) / t

    bound = 2.0 / t * float(np.linalg.norm(W, axis=1).max(initial=0.0))
    return DiffPolicy(evaluator, jacobian, bound)


def tighten_policy_bound(policy: DiffPolicy, points) -> DiffPolicy:
    """Replace bound_b by the exact maximum jacobian norm over the given
    coordinates (valid when those are the only states the policy visits)."""
    X = np.asarray(points, dtype=float)
    tight = float(np.max(jacobian_l1_norm(policy.jacobian(X)))) \
        if len(X) else 0.0
    return DiffPolicy(policy.evaluator, policy.jacobian,
                      min(tight, policy.bound_b) if policy.bound_b else tight)


# -- JSON documents ------------------------------------------------------------

def embedded_to_document(emdp: EmbeddedMdp) -> dict:
    doc = mdp_to_document(emdp.base)
    doc["embedding"] = emdp.embedding.tolist()
    if emdp.side_info is not None:
        doc["side_info"] = list(emdp.side_info)
    return doc


def load_embedded(source) -> EmbeddedMdp:
    """An MDP document with "embedding" and optional "side_info" lists."""
    doc = read_document(source)
    embedding = document_field(doc, "embedding", list, float)
    side_info = doc.get("side_info")
    if side_info is not None and not isinstance(side_info, list):
        raise ValueError("document field 'side_info' must be a list")
    return EmbeddedMdp(load_mdp(doc), embedding, side_info)


def load_toy_policy(source) -> DiffPolicy:
    """A {"weights": [[...]], "temperature": t} document."""
    doc = read_document(source)
    return make_toy_policy(
        document_field(doc, "weights", list, float),
        float(document_field(doc, "temperature", (int, float), float)))

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
import warnings
from dataclasses import dataclass

import numpy as np

from .mdp import (MdpSpec, StartDistribution, _frozen, _sealed, can_reach,
                  document_field, load_mdp, mdp_to_document, read_document,
                  validate)

__all__ = [
    "EmbeddedMdp",
    "DiffPolicy",
    "Perturbation",
    "OnPolicyAnalysis",
    "PerturbationBoundReport",
    "RateReport",
    "realize_chain",
    "transient_set",
    "shutdown_probability",
    "spectral_radius",
    "perturbation_size",
    "apply_perturbation",
    "chain_perturbation_bound",
    "rate_of_decrease_check",
    "start_sensitivity",
    "decrease_bound",
    "analyze_chain",
    "make_toy_policy",
    "tighten_policy_bound",
    "jacobian_l1_norm",
    "finite_difference_jacobian",
    "validate_diff_policy",
    "load_embedded",
    "embedded_to_document",
    "load_toy_policy",
    "toy_policy_to_document",
]

SUPPORT_TOL = 1e-15          # below this, a transition entry counts as zero
ROW_TOL = 1e-10
LINEARIZATION_THRESHOLD = 1e-3


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


def _row_faults(rows):
    """(an entry below -1e-12, a sum off 1 by more than ROW_TOL) for each
    row along the last axis; a NaN entry sets both."""
    return (~np.all(rows >= -1e-12, axis=-1),
            ~(np.abs(rows.sum(axis=-1) - 1.0) <= ROW_TOL))


def realize_chain(emdp: EmbeddedMdp, policy: DiffPolicy) -> np.ndarray:
    """Combine policy and environment into the full transition matrix
    P[i, j] = sum_a pi(f(s_i))_a P_env[i, a, j]."""
    shape = (emdp.base.n_states, emdp.base.n_actions)
    pi = np.asarray(policy.evaluator(emdp.embedding), dtype=float)
    if pi.shape != shape:
        raise ValueError(f"policy evaluator returned an invalid {pi.shape} "
                         f"array for {shape[0]} states and {shape[1]} actions")
    bad = np.flatnonzero(np.logical_or(*_row_faults(pi)))
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


def shutdown_probability(P: np.ndarray, safe,
                         start: StartDistribution) -> float:
    """Probability of eventually entering the safe set.

    Closed form of the step-sum: z solves (I - P diag(trans)) z = P v_safe,
    and the answer is start . z.  Mass starting inside the safe set scores
    1, mass on recurrent non-safe states 0.
    """
    P = np.asarray(P, dtype=float)
    return _shutdown_probability(P, safe, transient_set(P, safe), start)


def _shutdown_probability(P: np.ndarray, safe, trans,
                          start: StartDistribution) -> float:
    """:func:`shutdown_probability` given the chain's transient set."""
    n = P.shape[0]
    v_safe = np.zeros(n)
    v_safe[sorted(int(s) for s in safe)] = 1.0
    trans = sorted(trans)
    A = np.eye(n)
    A[:, trans] -= P[:, trans]
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


def _gelfand_estimates(M: np.ndarray):
    """(||M^64||^(1/64), ratio estimate) via renormalized squaring.

    The plain k-th root carries a bias of order log(C)/k from the constant
    in ||M^k|| ~ C rho^k; the ratio (||M^128||/||M^64||)^(1/64) cancels it.
    """
    def norm1(A):
        return float(np.abs(A).sum(axis=0).max())

    s = norm1(M)
    if s == 0.0:
        return 0.0, 0.0
    A = M / s
    log_norm = math.log(s)          # log ||M^1||
    k = 1
    while k < 64:
        A = A @ A
        k *= 2
        s = norm1(A)
        if s == 0.0:
            return 0.0, 0.0
        log_norm = 2.0 * log_norm + math.log(s)
        A = A / s
    log64 = log_norm
    A = A @ A
    s = norm1(A)
    if s == 0.0:
        return math.exp(log64 / 64.0), 0.0
    log128 = 2.0 * log64 + math.log(s)
    return math.exp(log64 / 64.0), math.exp((log128 - log64) / 64.0)


def spectral_radius(M: np.ndarray) -> float:
    """Perron root of a nonnegative matrix by power iteration.

    The iteration runs on M + I so the dominant eigenvalue is simple in
    modulus (periodic chains would otherwise oscillate).  It stops when
    the Rayleigh quotient moves by at most 1e-10 (relative), and the result
    is cross-checked against a Gelfand norm estimate; if power iteration
    fails to converge within 20,000 steps from each of four starts, the
    Gelfand estimate is returned with a warning.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if np.any(M < 0):
        raise ValueError("expected a nonnegative matrix")
    gelfand64, gelfand_ratio = _gelfand_estimates(M)
    if gelfand64 == 0.0:
        return 0.0
    n = M.shape[0]
    A = M + np.eye(n)
    rng = np.random.default_rng(0)
    for attempt in range(4):
        x = np.ones(n) / n if attempt == 0 else rng.random(n) + 0.1
        x /= np.linalg.norm(x)
        lam_prev = math.inf
        for _ in range(20_000):
            y = A @ x
            lam = float(x @ y)
            x = y / np.linalg.norm(y)
            if abs(lam - lam_prev) <= 1e-10 * max(1.0, abs(lam)):
                rho = max(lam - 1.0, 0.0)
                # The ratio estimate is essentially exact for diagonalizable
                # matrices; the plain 64th root covers defective ones.
                if abs(rho - gelfand_ratio) <= 1e-3 \
                        or abs(rho - gelfand64) <= 1e-3:
                    return rho
                break
            lam_prev = lam
    warnings.warn("power iteration did not converge; returning the Gelfand "
                  "ratio estimate", RuntimeWarning, stacklevel=2)
    return gelfand_ratio


def decrease_bound(P: np.ndarray, safe):
    """(transient set, its spectral radius, the local decrease bound).

    The bound is (1-l)^(-1) (1 + (1-l)^(-1)) |safe| with l the transient
    block's spectral radius; it caps how fast the shutdown probability can
    fall per unit of perturbation size.
    """
    return _decrease_bound(P, safe, transient_set(P, safe))


def _decrease_bound(P: np.ndarray, safe, trans):
    """:func:`decrease_bound` given the chain's transient set."""
    trans = sorted(trans)
    lam = spectral_radius(np.asarray(P)[np.ix_(trans, trans)]) if trans \
        else 0.0
    if lam >= 1.0:
        raise RuntimeError(f"transient block has spectral radius {lam!r} >= 1")
    inv = 1.0 / (1.0 - lam)
    return frozenset(trans), lam, inv * (1.0 + inv) * len(frozenset(safe))


@dataclass(frozen=True)
class OnPolicyAnalysis:
    """Shutdown probability and decrease bound of one (MDP, policy) pair."""

    s_trans: frozenset
    lambda1: float
    safety: float
    bound_B: float

    def to_document(self):
        return {"s_trans": sorted(self.s_trans), "lambda1": self.lambda1,
                "safety": self.safety, "bound_B": self.bound_B}


def analyze_chain(emdp: EmbeddedMdp, policy: DiffPolicy,
                  start: StartDistribution) -> OnPolicyAnalysis:
    P = realize_chain(emdp, policy)
    safe = emdp.base.safe_set
    trans, lam, bound = _decrease_bound(P, safe, transient_set(P, safe))
    return OnPolicyAnalysis(trans, lam,
                            _shutdown_probability(P, safe, trans, start),
                            bound)


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
    if np.any(P < -1e-15) or np.any(P > 1.0 + 1e-15):
        raise ValueError("perturbed transition entries escape [0, 1]")
    np.clip(P, 0.0, 1.0, out=P)
    base = MdpSpec(emdp.base.state_ids, emdp.base.action_ids, _sealed(P),
                   emdp.base.reward, emdp.base.discount, emdp.base.safe_set)
    report = validate(base)
    if not report.ok:
        raise ValueError(f"perturbed MDP invalid: {report}")
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


def validate_diff_policy(policy: DiffPolicy, points) -> list:
    """Check the policy contract at sample coordinates; returns a list of
    violation descriptions (empty when clean), point by point.  The
    jacobian must match central differences to a relative 1e-5."""
    X = np.asarray(points, dtype=float)
    if len(X) == 0:
        return []
    rows = np.asarray(policy.evaluator(X))
    negative, off_sum = _row_faults(rows)
    jac = np.asarray(policy.jacobian(X))
    col_sums = np.abs(jac.sum(axis=-2)).max(axis=-1, initial=0.0)
    fd = finite_difference_jacobian(policy, X)
    scale = np.abs(fd).max(axis=(-2, -1), initial=1e-12)
    checks = (
        (negative, "negative probability at point {k}"),
        (off_sum, "probabilities sum to {total!r} at point {k}"),
        (col_sums > 1e-8, "jacobian columns sum to {col!r} at point {k}"),
        (np.abs(fd - jac).max(axis=(-2, -1)) / scale > 1e-5,
         "jacobian disagrees with finite differences at point {k}"),
        (jacobian_l1_norm(jac) > policy.bound_b + 1e-9,
         "bound_b violated at point {k}"))
    faults = np.stack([flags for flags, _ in checks], axis=1)
    return [checks[j][1].format(k=k, total=rows[k].sum(), col=col_sums[k])
            for k, j in zip(*np.nonzero(faults))]


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
                           start: StartDistribution | None = None) -> RateReport:
    """Exact shutdown probabilities before/after the perturbation and the
    observed decrease rate against the bound of the base chain.

    ``start`` defaults to uniform over non-safe states.
    """
    if start is None:
        start = StartDistribution.uniform_over(
            emdp.base.n_states, emdp.base.nonsafe_indices)
    return _rate_against(analyze_chain(emdp, policy, start), emdp, policy,
                         pert, start)


def _rate_against(base: OnPolicyAnalysis, emdp: EmbeddedMdp,
                  policy: DiffPolicy, pert: Perturbation,
                  start: StartDistribution) -> RateReport:
    """:func:`rate_of_decrease_check` given the analysis of the base chain
    from ``start``, so that a ladder of perturbations analyses it once."""
    safe = emdp.base.safe_set
    P_new = realize_chain(apply_perturbation(emdp, pert), policy)
    trans_new = transient_set(P_new, safe)
    after = _shutdown_probability(P_new, safe, trans_new, start)
    size = perturbation_size(emdp, policy, pert)
    ratio = 0.0 if size == 0.0 else -(after - base.safety) / size
    return RateReport(
        s_pi_before=base.safety, s_pi_after=after, size=size, ratio=ratio,
        bound_B=base.bound_B, within_bound=ratio < base.bound_B,
        trans_preserved=base.s_trans <= trans_new)


def start_sensitivity(P: np.ndarray, safe, d1: StartDistribution,
                      d2: StartDistribution) -> float:
    """|S_pi(d1) - S_pi(d2)|, asserted against the Euclidean bound
    ||d1 - d2||_2 on the start distributions."""
    s1 = shutdown_probability(P, safe, d1)
    s2 = shutdown_probability(P, safe, d2)
    diff = abs(s1 - s2)
    bound = float(np.linalg.norm(d1.weights - d2.weights))
    if diff > bound + 1e-10:
        raise RuntimeError(
            f"start sensitivity {diff!r} exceeds the L2 bound {bound!r}")
    return diff


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


def toy_policy_to_document(weights, temperature) -> dict:
    return {"weights": np.asarray(weights, dtype=float).tolist(),
            "temperature": float(temperature)}


def load_toy_policy(source) -> DiffPolicy:
    """A {"weights": [[...]], "temperature": t} document."""
    doc = read_document(source)
    return make_toy_policy(
        document_field(doc, "weights", list, float),
        float(document_field(doc, "temperature", (int, float), float)))

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

import numpy as np

from .bisim import (BisimConfig, IsolationResult, cross_bisim_metric,
                    hausdorff_distance, isolation_check)
from .mdp import (VALUE_TOL, WEIGHT_TOL, InducedChain, MdpSpec, Policy,
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
# Bytes that one stacked solve may take, at one n-by-n float matrix per
# policy: a block of max(1, BLOCK_BYTES // (8 n^2)) policies, 193 at 13
# states.  A table of one block is one stacked solve of policy_values and
# one piece of the member scan (_scan).  A larger table is cut into
# pieces that are products of their own (_pieces), of at most a batch of
# whole blocks whose values take at most 2 BLOCK_BYTES (_table_sizes), and
# the elimination tree (_tree_solve) solves each piece whole: the tree
# holds O(n) floats per policy where a block holds O(n^2), so every table
# of the certify benchmark (at most 4,096 surviving policies, at 13 to 15
# states) is within a batch, and comes to the scan as one piece.  The
# members' hitting times come from the tree or from expected_steps in
# stacks of half a block (_stacked_steps), whichever _tree_pays
# estimates to cost less, and the tree's rows that the scan keeps go to
# _stacked_steps.  On the certify benchmark (two 30 s pairs each against
# 256 KB, with batches of 3/4 of BLOCK_BYTES), 1 MB raised
# tasks_per_s by 9% but task_s.tail by 28-40%: pool instance 1's
# 864-policy 9-state table is one stacked solve there, not a tree.
# 512 KB read 1-4% lower.  Every hitting time and loss that a
# certificate reports or decides on has the same bits at any block size,
# since LAPACK solves each matrix of a stack on its own; the tree's own
# may differ in their last bits.
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class SafetyQuery:
    """Parameters of one (N, eps)-safety question.

    ``start`` of None means the worst case: each policy is charged its
    slowest starting state.  epsilon must exceed ten times VALUE_TOL, the
    certified error on V*, so membership decisions are meaningful.  N of
    None asks for no verdict; a given N must be finite, and is kept as the
    float that the documents write.
    """

    epsilon: float
    start: StartDistribution | None = None
    N: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.epsilon)
                and self.epsilon > 10.0 * VALUE_TOL):
            raise ValueError(f"epsilon must be finite and exceed "
                             f"10 * value_tol, got {self.epsilon!r}")
        if self.N is not None:
            if not math.isfinite(self.N):
                raise ValueError(f"N must be finite, got {self.N!r}")
            object.__setattr__(self, "N", float(self.N))


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
    # I - Q in place on the one copy Q[whole]: -q + 1 rounds as 1 - q.
    a = Q[whole]
    np.negative(a, out=a)
    a[:, range(n), range(n)] += 1.0
    try:
        t[whole] = np.linalg.solve(a, np.ones((len(a), n, 1)))[..., 0]
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


def _start_mass(index_map: np.ndarray, start: StartDistribution):
    """(chain states with mass, their mass) of ``start`` on the chain
    states ``index_map``; a start with mass on safe states is rejected."""
    w = start.weights
    if len(w) < int(index_map.max(initial=-1)) + 1:
        raise ValueError("start distribution dimension mismatch")
    on_chain = w[index_map]
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
    hit, mass = _start_mass(chain.index_map, start)
    charges = _exact_charges(steps.reshape(-1, len(hit)), (hit, mass))
    if steps.ndim == 1:
        return charges[0]
    return np.reshape(charges, steps.shape[:-1])


def _exact_charges(steps: np.ndarray, start) -> list:
    """start_charge's charge of each row of ``steps``, for ``start`` as the
    (hit, mass) of _start_mass."""
    hit, mass = start
    infinite = np.isinf(steps[:, hit]).any(axis=-1).tolist()
    # One dot product of contiguous vectors per chain, as for a single
    # chain: a stacked or strided product may sum in another order.
    return [math.inf if inf else float(mass @ t[hit])
            for inf, t in zip(infinite, steps)]


def _charges(steps: np.ndarray, start):
    """Each row's charge by one stacked product: the slowest state of the
    row for a ``start`` of None, else the (hit, mass) of _start_mass
    applied to it, math.inf where a state with mass has infinite steps."""
    if start is None:
        return np.max(steps, axis=-1, initial=0.0)
    hit, mass = start
    on_hit = steps[:, hit]
    return np.where(np.any(np.isinf(on_hit), axis=-1), math.inf,
                    on_hit @ mass)


def _charge_bounds(charge, window, terms: int):
    """(lower, upper) bounds on start_charge's exact charge of rows whose
    _charges are ``charge``, from steps within ``window`` of
    expected_steps' (0 for expected_steps' own), summed over ``terms``
    states (0 for the slowest state, which a maximum picks exactly).

    The product sums in another order than start_charge.  With u = eps/2,
    both sums of k nonnegative terms lie within g = (k+1)u / (1 - (k+1)u)
    of the exact sum, relative (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1; every charge is at least about one
    step, so underflow in a term cannot matter), and steps within w of
    expected_steps' move a sum of mass at most 1 by w.  The exact charge
    then lies in [c (1 - 2g) - (1 + g) w, c (1 + 2g) + (1 + g) w], which
    4k eps >= 2g and 2w >= (1 + g) w cover with room for their own
    rounding.  A window of inf leaves a row unbounded below.
    """
    slack = 4 * terms * np.finfo(float).eps
    bounded = window < math.inf
    window = np.where(bounded, window, 0.0)
    return (np.where(bounded, charge * (1 - slack) - 2 * window, -math.inf),
            np.where(bounded, charge * (1 + slack) + 2 * window, math.inf))


def _near_top(top, rows, start):
    """The ``rows`` of a table's members, (actions, steps, window, member)
    with member[j, e] telling whether row j is in set e, that may hold a
    set's first maximum after the exact charges ``top`` of the rows
    settled before them.  Each row's charge of ``start`` (as _scan holds
    it) is bounded (_charges, _charge_bounds), each set's floor is the
    larger of its top and the largest lower bound of its rows, and the
    rows kept, in order, are those whose upper bound reaches the floor of
    some set they belong to: a row below the floor of every such set is
    charged less than a top settled before it or a row kept beside it, so
    it is the first maximum of none.  Capping a floor at the largest float
    keeps every row whose charge overflows."""
    actions, steps, window, member = rows
    lower, upper = _charge_bounds(_charges(steps, start), window,
                                  0 if start is None else len(start[1]))
    floor = np.where(member, lower[:, None], -math.inf).max(
        axis=0, initial=-math.inf)
    floor = np.minimum(np.maximum(top, floor), np.finfo(float).max)
    keep = upper >= np.where(member, floor, math.inf).min(axis=1)
    return actions[keep], steps[keep], window[keep], member[keep]


# MacQueen's test (Puterman, Markov Decision Processes, section 6.7) drops
# action a at a non-safe state s when V*(s) - Q*(s, a) >= eps + margin.
# Every policy pi that takes a at s has V^pi(s) <= Q*(s, a), so its loss
# max_s V*(s) - V^pi(s) is at least V*(s) - Q*(s, a), up to the errors
# that the margin covers, in units of VALUE_TOL:
#   10  the boundary band, so that a pruned policy is neither a member nor
#       counted in boundary_count;
#    2  the error on V* and on Q* = r + g P V* (each at most VALUE_TOL, as
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
# Accuracy and Stability of Numerical Algorithms, Theorem 9.4).  The
# tree's first solve is LAPACK's, with the stacked solve's bound; it
# eliminates every state whose row all policies of the piece share, the
# states before a piece's split state (_pieces) among them, so the bound
# does not depend on how a table is cut.  Past it the tree eliminates
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
# policy_values' loss, so the comparison decides alike.  The order in
# which back substitution sums its products does not enter the bound:
# Theorem 9.4 holds for any order of summation.
TREE_ROUNDING = 32.0


def _tree_window(mdp: MdpSpec, thresholds) -> float:
    """The window w of TREE_ROUNDING around ``thresholds``."""
    bound = np.max(np.abs(mdp.reward), initial=0.0) / (1 - mdp.discount) ** 2
    return float(TREE_ROUNDING * mdp.n_states ** 3 * np.finfo(float).eps
                 * (bound + np.max(np.abs(thresholds))))


# The tree's expected steps t' of a policy of a product that passes
# _absorbed lie within
#   w = d T' / (1 - d)^2,  d = TREE_ROUNDING n^3 eps T'  (when d < 1/2)
# of expected_steps', where T' = max t'.  A = I - Q_pi is a nonsingular
# M-matrix, diagonally dominant by rows with |a_ij| <= 1, and A^-1 >= 0
# gives ||A^-1||_inf = ||A^-1 1||_inf = T, the exact max t.  So
# TREE_ROUNDING's derivation, with ||A^-1|| = T in place of 1 / (1 - g)
# and ||t|| = T in place of R / (1 - g), puts the two solves within
# (d / T') T^2 of each other, to first order.  The tree's share of that
# gives T <= T' + (d / T') T T', so T <= T' / (1 - d), and (d / T') T^2
# <= w.  With d >= 1/2 the bound is void, and the window is inf.  As for
# TREE_ROUNDING, the states that a piece fixes (_pieces) are eliminated
# in the first, LAPACK solve, and the order of summation in back
# substitution does not enter the bound.
def _steps_window(n: int, steps):
    """The window w above of each policy of the tree's expected steps
    ``steps``, states-major (one column per policy, as _tree_solve gives
    them).  A policy that no solve of I - Q_pi can give (an entry below
    1/2, or not finite) shows that rounding broke the elimination down,
    and gets a window of inf."""
    top = np.max(steps, axis=0)
    d = TREE_ROUNDING * n ** 3 * np.finfo(float).eps * top
    sound = (d < 0.5) & (np.min(steps, axis=0) >= 0.5)
    d, top = np.where(sound, d, 0.0), np.where(sound, top, 0.0)
    return np.where(sound, d * top / (1 - d) ** 2, math.inf)


def _absorbed(mdp: MdpSpec, survivors) -> bool:
    """Whether every policy of the product of ``survivors`` (the actions
    kept at each non-safe state) is absorbed almost surely from every
    state.

    X, the greatest set of non-safe states in which each state has a
    surviving action whose support stays inside X, holds every set of
    non-safe states that some policy of the product never leaves.  A
    finite chain that leaves every set of non-safe states is absorbed
    almost surely, so the answer is whether X is empty; then every
    principal submatrix of each I - Q_pi is a nonsingular M-matrix.
    """
    nonsafe = mdp.nonsafe_indices
    if not len(nonsafe):
        return True
    k = [len(acts) for acts in survivors]
    support = mdp.transition[np.repeat(nonsafe, k),
                             np.concatenate(survivors)] > 0
    starts = np.cumsum([0] + k[:-1])
    x = np.ones(len(nonsafe), dtype=bool)
    inside = np.zeros(mdp.n_states, dtype=bool)
    while True:
        inside[nonsafe] = x
        stays = x & np.logical_or.reduceat(
            ~np.any(support & ~inside, axis=-1), starts)
        if np.array_equal(stays, x):
            return not x.any()
        x = stays


def _tree_root(mdp: MdpSpec, survivors, base, states, scale: float, rhs):
    """The elimination tree of (I - scale P_pi) x = rhs_pi over ``states``
    (ascending state indices, with every non-safe state) for each policy
    pi of the product of ``survivors`` that takes the actions of ``base``
    (the product's first policy) elsewhere, where rhs is an (S, A) table,
    as (root, Z, k, order) for _tree_solve.

    The states of ``states`` whose row every policy of the product shares
    (those that are not non-safe with more than one survivor) are
    eliminated first, by one solve: x_fixed = Z[:, :m] x_vary - Z[:, m]
    over the m varying states, whose survivor counts are k.  The root
    holds the row [(I - scale P)[s, vary] | rhs] of each varying state s
    under each of its survivors, with x_fixed substituted; it has no rows
    for a product of one policy (m = 0).  order holds the place in
    ``states`` of each row of _tree_solve's output: the varying states,
    then the fixed ones.
    """
    nonsafe = mdp.nonsafe_indices
    k = np.array([len(acts) for acts in survivors], dtype=int)
    acts = np.concatenate(survivors)[np.repeat(k > 1, k)]
    vary, k = nonsafe[k > 1], k[k > 1]
    fixed = np.zeros(mdp.n_states, dtype=bool)
    fixed[states] = True
    fixed[vary] = False
    fixed = np.flatnonzero(fixed)
    m = len(vary)
    P = mdp.transition[fixed, base[fixed]]
    Z = np.linalg.solve(np.eye(len(fixed)) - scale * P[:, fixed],
                        np.column_stack([scale * P[:, vary],
                                         -rhs[fixed, base[fixed]]]))
    rows = np.repeat(vary, k)
    P = mdp.transition[rows, acts]
    root = np.column_stack([-scale * P[:, vary], rhs[rows, acts]])
    root[np.arange(len(rows)), np.repeat(np.arange(m), k)] += 1.0
    order = np.searchsorted(states, np.concatenate([vary, fixed]))
    return root - scale * P[:, fixed] @ Z, Z, tuple(k.tolist()), order


def _tree_solve(tree) -> np.ndarray:
    """x over the states of ``tree`` (as _tree_root gives it) of every
    policy of its product, states-major: one row per state, in the tree's
    order, and one column per policy, in product order (the last varying
    state varies fastest).

    The varying states are eliminated in index order, one level of the
    tree each: a node of depth d holds the rows of the states after the
    d-th under each of their survivors, and its child c pivots on the next
    state's row under that state's c-th survivor, so that the leaves come
    in product order.  A level is stored nodes-last, as (rows, width,
    nodes), so that every step runs along the node axis.  Back
    substitution broadcasts each node's pivot row over its leaves
    (_run_back_substitution), in place into the output's first rows, the
    varying states' (the tree orders them first for that), and one
    product with Z fills the fixed states' rows from them.  A caller reads
    the rows in place: a values loss is one maximum over the rows, and the
    members' hitting times one gather.
    """
    root, Z, k, order = tree
    m = len(k)
    rows, pivots = root[..., None], []
    for kd in k:
        # Child c of the node at place p is child p kd + c of the nodes of
        # depth d.  step eliminates each child's rows along the nodes,
        # held as (child, rows, width, nodes); the children are then laid
        # out parent-major.
        pivot, rest = rows[:kd, None], rows[None, kd:]
        step = rest[..., :1, :] / pivot[..., :1, :] * pivot[..., 1:, :]
        np.subtract(rest[..., 1:, :], step, out=step)
        _, r, width, nodes = rest.shape
        rows = np.empty((r, width - 1, nodes, kd))
        pivot_rows = np.empty((width, nodes, kd))
        for c in range(kd):
            rows[..., c] = step[c]
            pivot_rows[..., c] = pivot[c, 0]
        rows = rows.reshape(r, width - 1, nodes * kd)
        pivots.append(pivot_rows.reshape(width, nodes * kd))
    out = np.empty((len(order), math.prod(k)))
    _run_back_substitution(out[:m], pivots, k)
    np.matmul(Z[:, :m], out[:m], out=out[m:])
    out[m:] -= Z[:, m, None]
    return out


def _run_back_substitution(x, pivots, k):
    """Fill ``x`` (varying states by leaves) with x_vary of every leaf of
    the product, by the pivot rows of _tree_solve (one column per node),
    one level at a time.

    A node of depth d + 1 covers span contiguous leaves, and column j of
    pivots[d] is its j-th node, so each node's pivot row is broadcast over
    its leaves through one reshape, with no per-leaf copy of the pivot
    rows.
    """
    leaves, span = x.shape[1], 1
    for d in range(len(k) - 1, -1, -1):
        rows, this = pivots[d], x[d].reshape(-1, span)
        np.einsum("jnk,jn->nk", x[d + 1:].reshape(-1, leaves // span, span),
                  rows[1:-1], out=this)
        np.subtract(rows[-1, :, None], this, out=this)
        np.divide(this, rows[0, :, None], out=this)
        span *= k[d]


def _action_table(base, nonsafe, survivors):
    """The policies of the product of ``survivors`` (the actions kept at
    the non-safe states ``nonsafe``), one row each in product order, that
    take the actions of ``base`` elsewhere, in the type of ``base``.

    A state's survivors repeat over its stride, the product of the
    survivor counts after it, and that run repeats over the product; no
    product index is unravelled."""
    total = math.prod(len(acts) for acts in survivors)
    actions = np.empty((total, len(base)), dtype=base.dtype)
    actions[:] = base
    stride = total
    for s, acts in zip(nonsafe, survivors):
        stride //= len(acts)
        actions[:, s] = np.tile(np.repeat(acts, stride),
                                total // (stride * len(acts)))
    return actions


def _pieces(survivors, batch: int):
    """The product of ``survivors`` (the actions kept at each non-safe
    state) in products of at most ``batch`` policies, in product order,
    each as its own survivors.  The split state is the last whose suffix
    product (its survivor count times those after it) exceeds ``batch``,
    or the first if none does: each state before it takes one survivor at
    a time, and its own come in runs of batch // span, where span, the
    product of the counts after it, is at most ``batch``."""
    k = [len(acts) for acts in survivors]
    split = max((i for i in range(len(k)) if math.prod(k[i:]) > batch),
                default=0)
    run, after = batch // math.prod(k[split + 1:]), survivors[split + 1:]
    for prefix in np.ndindex(*k[:split]):
        head = [acts[c:c + 1] for acts, c in zip(survivors, prefix)]
        for lo in range(0, k[split], run):
            yield head + [survivors[split][lo:lo + run]] + after


def _table_sizes(n_states: int):
    """(block, batch) of _policy_table at ``n_states`` states: the
    policies of one stacked solve, max(1, BLOCK_BYTES // (8 n^2)), and
    the most of one piece of the table (_pieces), a product that the
    values tree solves whole: the most whole blocks whose values, one
    float per state and policy, take at most 2 BLOCK_BYTES (at least one
    block).  That is 26 blocks, 5,018 policies, at 13 states and 30
    blocks, 4,350 policies, at 15.

    The budget bounds the memory of a piece, which the size of the table
    does not enter: the tree holds O(n) floats per policy where a stacked
    solve holds O(n^2).  The tree's solve of a piece stores each level
    nodes-last, (rows, width, nodes); a level with j varying states still
    to go holds 2 j (j + 1) / 2^j floats per policy at two survivors a
    state, at most 3.  Eliminating a level holds three such arrays at
    once (the parents, the children child-major and their parent-major
    copy), at most about 9 floats per policy beside the pivot rows kept
    so far (about 6 in all).  The peak comes after that, in back
    substitution: the values (n floats per policy), the pivot rows and
    the last level, about 27 floats per policy at 17 states and 22 at 13,
    1.6 times the values.  After it, the hitting-time tree's output and
    the members' columns gathered from it hold up to 2 (n - 1) floats per
    policy at once.  A piece of a whole batch is thus built within about
    2.5 times its values, 5 BLOCK_BYTES (measured at 13 and 17 states),
    and within 6 BLOCK_BYTES while the reader still holds the piece before
    it."""
    block = max(1, BLOCK_BYTES // (8 * n_states ** 2))
    return block, block * max(1, BLOCK_BYTES // (4 * n_states * block))


# Estimated costs of a piece's hitting times, in us, measured at 9 to 15
# states over the certify pool and over all-absorbed random products
# (median of 9 runs, one core):
#   the tree: its solve of the piece's leaves, the gather of its members'
#     rows, _steps_window, the cut and the solve again of the rows kept,
#     about 300 + 0.2 per leaf (1.0-1.25 ms for 4,096 leaves at 13
#     states);
#   _stacked_steps over the members: about n^2 / 50 per member chain
#     (3.4 at 13 states, 4.5 at 15), including a call of expected_steps
#     per half block.
# At 13 states the tree pays from about 330 members of a 4,096-leaf
# piece.  On the pool, instance 2's 2,155 members of 4,096 leaves are
# 7.3-7.7 ms faster by the tree, and instance 5's 149 (15 states)
# 0.15-0.17 ms slower; instances 1 (137 of 864 at 9 states) and 7 (114
# of 2,048), which a per-leaf rule alone sends to the tree, are 0.1-0.5
# and 0.1-0.25 ms slower there (three runs on a shared host).
TREE_US, TREE_LEAF_US = 300.0, 0.2


def _tree_pays(n_states: int, leaves: int, members: int) -> bool:
    """Whether the hitting-time tree over a piece's ``leaves`` is
    estimated to cost less than _stacked_steps over its ``members``
    (TREE_US); the tree also needs a product that passes _absorbed."""
    return TREE_US + TREE_LEAF_US * leaves < n_states ** 2 / 50 * members


def _stacked_steps(mdp: MdpSpec, actions) -> np.ndarray:
    """expected_steps of the chains of the action table ``actions``, one
    row each, in stacks of half a block (_table_sizes), or of one chain:
    a stack of chains holds one n-by-n matrix per chain, and
    expected_steps' solve of it about two more."""
    size = max(1, _table_sizes(mdp.n_states)[0] // 2)
    steps = np.empty((len(actions), len(mdp.nonsafe_indices)))
    for begin in range(0, len(actions), size):
        steps[begin:begin + size] = expected_steps(
            _chains(mdp, actions[begin:begin + size]))
    return steps


def _policy_table(mdp: MdpSpec, epsilon: float, thresholds):
    """The deterministic policies that survive MacQueen's test at
    ``epsilon``, in pieces of at most a batch of _table_sizes, each a
    product of its own (_pieces; a table of at most a batch is one piece),
    as (actions, loss, steps, window): actions
    is a (policies, states) table that takes V*'s greedy action (the first
    on ties) at each safe state, and loss the value loss max_s V*(s) -
    V^pi(s) of each row.  A policy is eps-optimal exactly when its loss is
    below eps; every policy left out has a loss of at least epsilon +
    10*VALUE_TOL.

    The survivors come in the order of the product of actions over the
    non-safe states (the last one varying fastest), so the eps-optimal
    policies come in the same order as when every policy is evaluated.
    Each action table takes the smallest unsigned type that holds every
    action index.  A table of one block is one stacked solve of
    policy_values.  A larger one is evaluated by the elimination tree
    (_tree_root, _tree_solve) of (I - g P_pi) V = r_pi, one whole piece at
    a time.
    A loss within the window of TREE_ROUNDING of one of ``thresholds``
    (what the caller compares losses with) is evaluated again by
    policy_values, so that every comparison with a threshold decides as
    on policy_values' bits.

    steps holds the expected steps to the safe set (over the non-safe
    states, in index order) of the rows with loss below epsilon, each row
    within its entry of window of expected_steps'.  In a piece where
    _tree_pays, when the table's product passes _absorbed (tested once,
    for every piece), the piece's tree of (I - Q_pi) t = 1 solves it, and
    the rows of its members are gathered, with windows of _steps_window.
    Otherwise (a table of one block, a piece with too few members for the
    tree to pay, a product that fails _absorbed) expected_steps solves the
    members' chains (_stacked_steps), with windows of 0.  Each piece is
    built by a call of its own, so that the generator keeps nothing of the
    pieces it has yielded.
    """
    nonsafe = mdp.nonsafe_indices
    size = mdp.n_actions ** len(nonsafe)
    if size > POLICY_CAP:
        raise ValueError(f"{size} deterministic policies exceed the "
                         f"enumeration cap {POLICY_CAP}; use a smaller "
                         f"instance")
    v_star = value_iteration(mdp).values
    q_star = q_values(mdp, v_star)
    scale = max(1.0, float(np.max(np.abs(v_star), initial=0.0)))
    cut = epsilon + VALUE_TOL * (PRUNE_BAND + PRUNE_ROUNDING * scale)
    survivors = [np.nonzero(v_star[s] - q_star[s] < cut)[0] for s in nonsafe]
    total = math.prod(len(acts) for acts in survivors)
    block, batch = _table_sizes(mdp.n_states)
    # V*'s greedy actions, in the action tables' type.  The safe set is
    # closed, so at its states they give every table the least loss among
    # those that agree with it off the safe set, and hitting times ignore
    # them.
    row = np.argmax(q_star, axis=1).astype(
        np.min_scalar_type(mdp.n_actions - 1))

    def solved(actions, loss):
        inside = loss < epsilon
        return (actions, loss, _stacked_steps(mdp, actions[inside]),
                np.zeros(np.count_nonzero(inside)))

    if total <= block:
        actions = _action_table(row, nonsafe, survivors)
        yield solved(actions,
                     np.max(v_star - policy_values(mdp, actions), axis=-1))
        return
    thresholds = np.array(thresholds, dtype=float)
    window = _tree_window(mdp, thresholds)
    # Whether the whole product, and so each piece, passes _absorbed, found
    # at the first piece where the hitting-time tree pays.
    absorbed = None

    def piece(part):
        nonlocal absorbed
        actions = _action_table(row, nonsafe, part)
        values = _tree_root(mdp, part, actions[0], np.arange(mdp.n_states),
                            mdp.discount, mdp.reward)
        loss = _tree_solve(values)
        loss = np.subtract(v_star[values[3], None], loss, out=loss).max(axis=0)
        near = np.any(np.abs(thresholds[:, None] - loss) <= window, axis=0)
        if np.any(near):
            loss[near] = np.max(
                v_star - policy_values(mdp, actions[near]), axis=-1)
        inside = loss < epsilon
        if not _tree_pays(mdp.n_states, len(actions),
                          np.count_nonzero(inside)):
            return solved(actions, loss)
        if absorbed is None:
            absorbed = _absorbed(mdp, survivors)
        if not absorbed:
            return solved(actions, loss)
        hitting = _tree_root(mdp, part, actions[0], nonsafe, 1.0,
                             np.ones(mdp.reward.shape))
        # Each leaf's window is taken along its column of the states-major
        # output; then the members' columns are gathered, and their rows
        # put in non-safe state order.  Pivots that rounding drives to 0
        # show in the windows (_steps_window).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            steps = _tree_solve(hitting)
            spread = _steps_window(mdp.n_states, steps)
        members = np.flatnonzero(inside)
        steps = steps[:, members]
        return actions, loss, steps[np.argsort(hitting[3])].T, spread[members]

    for part in _pieces(survivors, batch):
        yield piece(part)


# Most rows of exact steps that _scan settles without a cut first.
# Settling charges a start on each row by a dot product of its own, about
# 2 us a row, where a cut (_near_top) costs about 40 us; the slowest state
# is one stacked maximum, so that the worst-case start never needs the
# cut.
SETTLE_ROWS = 16


def _scan(mdp: MdpSpec, epsilons, start):
    """One pass over the policy table at the largest of the ascending
    ``epsilons``, as (sets, boundary, reachability).  For each eps, sets
    holds (charge, actions, steps, count): the largest charge among the
    eps-optimal policies, the action table and expected steps of the
    first policy in product order that has it (None for an empty set),
    and the number of such policies.  A policy's charge is start_charge's
    of ``start``, or for None its slowest state.  boundary counts the
    losses within 10*VALUE_TOL of the largest eps, and reachability tells
    for each policy eps-optimal there whether it is absorbed almost surely
    from every state.  A start whose length is not the MDP's number of
    states is rejected before any policy is evaluated.

    Each piece of the table (_policy_table's) is done with before the
    next one is built.  Its members are cut to those that may hold the
    first maximum of a set they belong to (_near_top) when some row has a
    window or a start is charged on more than SETTLE_ROWS rows (on exact
    steps _settle takes the same first maximum), and settled (_settle).
    A start is taken apart at the first member, so that an empty set is
    reported as vacuous before a start with mass on safe states.
    """
    if start is not None and len(start.weights) != mdp.n_states:
        raise ValueError("start distribution dimension mismatch")
    largest, band = epsilons[-1], 10.0 * VALUE_TOL
    epsilons = np.asarray(epsilons, dtype=float)
    count = np.zeros(len(epsilons), dtype=int)
    boundary, reachability = 0, bytearray()
    top = np.full(len(epsilons), -math.inf)
    worst = [(None, None)] * len(epsilons)
    for actions, loss, steps, window in _policy_table(
            mdp, largest, (*epsilons, largest - band, largest + band)):
        boundary += int(np.count_nonzero(np.abs(largest - loss) < band))
        inside = loss < largest
        if inside.any():
            if isinstance(start, StartDistribution):
                start = _start_mass(mdp.nonsafe_indices, start)
            member = loss[inside, None] < epsilons
            count += member.sum(axis=0)
            # Every member of a tree's product is absorbed almost surely.
            reachability += ((window > 0)
                             | np.isfinite(steps).all(axis=-1)).tobytes()
            rows = actions[inside], steps, window, member
            if window.any() or (start is not None
                                and len(window) > SETTLE_ROWS):
                rows = _near_top(top, rows, start)
            _settle(mdp, rows, start, top, worst)
            del rows
        # No name keeps the piece while the next one is built.
        del actions, loss, steps, window
    sets = [(float(t), *w, int(c)) for t, w, c in zip(top, worst, count)]
    return sets, boundary, np.frombuffer(reachability, dtype=bool)


def _settle(mdp: MdpSpec, rows, start, top, worst):
    """Charge the kept ``rows`` of _scan exactly, after every row settled
    before them in product order, and take the first maximum of each set
    into its ``top`` and ``worst`` when it is larger.  Only the rows with
    a window are solved again (_stacked_steps)."""
    actions, steps, window, member = rows
    if not len(actions):
        return
    again = window > 0
    if again.any():
        steps[again] = _stacked_steps(mdp, actions[again])
    exact = (steps.max(axis=-1, initial=0.0) if start is None
             else np.array(_exact_charges(steps, start)))
    charges = np.where(member, exact[:, None], -math.inf)
    first = np.argmax(charges, axis=0)
    for e, k in enumerate(first):
        if charges[k, e] > top[e]:
            top[e] = charges[k, e]
            worst[e] = actions[k].copy(), steps[k].copy()


@dataclass(frozen=True)
class SafetyCertificate:
    """Worst case over the enumerated eps-optimal policies of ``query``.

    worst_time is finite exactly when every such policy is absorbed almost
    surely from the queried starts.  boundary_count reports policies whose
    membership decision sat within 10*VALUE_TOL of the epsilon threshold
    (they are flagged, not silently classified).
    """

    query: SafetyQuery
    worst_policy: Policy
    worst_time: float
    worst_policy_times: np.ndarray
    epsilon_optimal_count: int
    reachability: tuple
    boundary_count: int

    @property
    def epsilon(self) -> float:
        return self.query.epsilon

    @property
    def safe(self) -> bool | None:
        """Whether worst_time is at most the query's N; None without one."""
        N = self.query.N
        return None if N is None else self.worst_time <= N

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
            "is_safe_for": ([] if self.safe is None
                            else [{"N": self.query.N, "safe": self.safe}]),
        }


def certify_safety(mdp: MdpSpec, query: SafetyQuery) -> SafetyCertificate:
    """Certify (N, eps)-safety by exhausting deterministic policies.

    With the worst-case start convention (query.start None) each policy is
    charged the maximum expected hitting time over point-mass starts on
    non-safe states.  When no policy is eps-optimal, a ValueError is raised
    rather than a vacuous "safe".
    """
    [(worst_time, actions, times, count)], boundary, reachability = _scan(
        mdp, [query.epsilon], query.start)
    if not count:
        raise ValueError(
            f"no deterministic policy is {query.epsilon!r}-optimal; a safety "
            f"verdict over an empty set would be vacuous")

    return SafetyCertificate(
        query=query,
        worst_policy=Policy(actions),
        worst_time=worst_time,
        worst_policy_times=times,
        epsilon_optimal_count=count,
        reachability=tuple(reachability.tolist()),
        boundary_count=boundary,
    )


@dataclass(frozen=True)
class StabilityReport:
    """One empirical instance of the perturbation-stability guarantee:
    N, eps and m's verdict are those of the base certificate's query."""

    d_h: float
    isolation: IsolationResult
    base_certificate: SafetyCertificate
    perturbed_certificate: SafetyCertificate
    conclusion_holds: bool

    def to_document(self):
        base = self.base_certificate
        return {
            "d_H": self.d_h,
            "isolation_threshold": math.sqrt(self.d_h),
            "isolated": self.isolation.isolated,
            "min_safe_distance": (self.isolation.min_cross_distance
                                  if math.isfinite(
                                      self.isolation.min_cross_distance)
                                  else None),
            "N": base.query.N,
            "epsilon": base.epsilon,
            "base_safe": base.safe,
            "conclusion_holds": self.conclusion_holds,
            "base_certificate": base.to_document(),
            "perturbed_certificate": self.perturbed_certificate.to_document(),
        }


def verify_stability_instance(m: MdpSpec, m_prime: MdpSpec,
                              config: BisimConfig,
                              base: SafetyCertificate) -> StabilityReport:
    """Measure d_H(m, m'), test isolation of the perturbed safe set at
    threshold sqrt(d_H), certify m' at (N+1, eps/2), and report whether it
    came out safe.  ``base`` is m's certificate at (N, eps), as
    certify_safety(m, SafetyQuery(eps, N=N)) gives it, so that a ladder
    over one m certifies it once; N and eps are read from its query, and a
    query without an N is rejected."""
    N = base.query.N
    if N is None:
        raise ValueError("the base certificate's query must hold an N")
    metric = cross_bisim_metric(m, m_prime, config)
    d_h = hausdorff_distance(metric)
    isolation = isolation_check(m_prime, m_prime.safe_set, math.sqrt(d_h),
                                config)
    cert_pert = certify_safety(m_prime,
                               SafetyQuery(base.epsilon / 2.0, N=N + 1.0))
    return StabilityReport(
        d_h=d_h,
        isolation=isolation,
        base_certificate=base,
        perturbed_certificate=cert_pert,
        conclusion_holds=cert_pert.safe,
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
    sets, _, _ = _scan(mdp, epsilons, None)
    for eps, (_, _, _, count) in zip(epsilons, sets):
        if not count:
            raise ValueError(
                f"no deterministic policy is {eps!r}-optimal; a frontier "
                f"point over an empty set would be vacuous")
    return [(eps, time) for eps, (time, _, _, _) in zip(epsilons, sets)]

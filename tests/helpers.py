"""Shared fixtures and independent oracles used across the test suite."""

import importlib.util
import json
import math
from itertools import combinations, product
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.linalg import spsolve

from mdp_stability import (InducedChain, MdpSpec, Perturbation, Policy,
                           StartDistribution, analyze_chain, expected_steps,
                           finite_difference_jacobian, induce_chain,
                           metric_update)
from mdp_stability import bisim, safety
from mdp_stability.bisim import IsolationResult, NonConvergence, _PairSweep
from mdp_stability.mdp import (PROB_TOL, ValidationReport, ValueFunction,
                               Violation, _state_indices, can_reach)
from mdp_stability.onpolicy import (ROW_TOL, perturbation_size, spectral_radius,
                                    transient_set)
from mdp_stability.safety import _policy_table, start_charge
from mdp_stability.scenarios import MAX_STATE_SHIFT
from mdp_stability.transport import BatchedTransport

_BASIS_CACHE = {}


def brute_force_transport(mu, nu, cost):
    """LP optimum by enumerating basic feasible solutions (vertices) of the
    transportation polytope.  Independent of the production solver; only
    viable for small supports."""
    mu = np.asarray(mu, float)
    nu = np.asarray(nu, float)
    cost = np.asarray(cost, float)
    m, n = len(mu), len(nu)
    key = (m, n)
    if key not in _BASIS_CACHE:
        A = np.zeros((m + n, m * n))
        for i in range(m):
            A[i, i * n:(i + 1) * n] = 1.0
        for j in range(n):
            A[m + j, j::n] = 1.0
        A = A[:-1]  # drop one redundant constraint; rank is m + n - 1
        k = m + n - 1
        bases = np.array(list(combinations(range(m * n), k)))
        stack = A[:, bases].transpose(1, 0, 2)          # (n_bases, k, k)
        good = np.abs(np.linalg.det(stack)) > 1e-9
        _BASIS_CACHE[key] = (bases[good], stack[good])
    bases, stack = _BASIS_CACHE[key]
    b = np.concatenate([mu, nu])[:-1]
    rhs = np.broadcast_to(b[:, None], (len(stack), len(b), 1))
    sols = np.linalg.solve(stack, rhs)[..., 0]
    feasible = np.all(sols >= -1e-10, axis=1)
    cvec = cost.ravel()
    values = np.einsum("bk,bk->b", cvec[bases[feasible]], sols[feasible])
    return float(values.min())


def _solve_blocks(blocks):
    """One block-diagonal HiGHS LP for independent transportation problems,
    an oracle for the package's transportation simplex.

    Returns (value, plan, u, v) per block, with the solver's duals.
    """
    rows, cols, cvec, bvec = [], [], [], []
    row0 = col0 = 0
    spans = []
    for mu, nu, cost in blocks:
        m, n = len(mu), len(nu)
        var = col0 + np.arange(m * n)
        rows.append(row0 + np.repeat(np.arange(m), n))
        rows.append(row0 + m + np.tile(np.arange(n), m))
        cols.append(var)
        cols.append(var)
        cvec.append(np.asarray(cost, float).ravel())
        bvec.append(mu)
        bvec.append(nu)
        spans.append((row0, col0, m, n))
        row0 += m + n
        col0 += m * n
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    A = sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(row0, col0))
    c = np.concatenate(cvec)
    # HiGHS's default feasibility tolerances (1e-7, absolute) leave gaps of
    # 1e-9 on costs near 1e-3, far above the 1e-12 relative agreement the
    # oracle tests ask of the simplex.
    res = linprog(c, A_eq=A, b_eq=np.concatenate(bvec), bounds=(0, None),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"batched transport LP failed: {res.message}")
    x, duals = res.x, np.asarray(res.eqlin.marginals)
    out = []
    for r0, c0, m, n in spans:
        block = slice(c0, c0 + m * n)
        out.append((float(c[block] @ x[block]), x[block].reshape(m, n),
                    duals[r0:r0 + m], duals[r0 + m:r0 + m + n]))
    return out


def uniform_base(emdp, policy):
    """The on-policy analysis from the uniform start over non-safe
    states, the base that ``onpolicy-sweep`` checks its ladder against."""
    return analyze_chain(emdp, policy, StartDistribution.uniform_over(
        emdp.base.n_states, emdp.base.nonsafe_indices))


def random_distribution(rng, n, sparse=False):
    if sparse:
        k = rng.integers(1, n + 1)
        idx = rng.choice(n, size=k, replace=False)
        w = np.zeros(n)
        w[idx] = rng.dirichlet(np.ones(k))
        return w
    return rng.dirichlet(np.ones(n))


def random_mdp(seed, n_states=4, n_actions=2, gamma=0.9, safe_absorbing=True,
               reward_scale=1.0):
    """Random dense valid MDP; the last state is absorbing and safe when
    safe_absorbing is set."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    r = reward_scale * rng.random((n_states, n_actions))
    safe = frozenset()
    if safe_absorbing:
        safe = frozenset({n_states - 1})
        P[n_states - 1] = 0.0
        P[n_states - 1, :, n_states - 1] = 1.0
        r[n_states - 1] = 0.0
    ids = tuple(f"s{i}" for i in range(n_states))
    acts = tuple(f"a{j}" for j in range(n_actions))
    return MdpSpec(ids, acts, P, r, gamma, safe)


def policy_evaluation(mdp, policy):
    """Exact V^pi from the linear system (I - g P_pi) V = r_pi, for a
    deterministic ``Policy`` or an (S, A) matrix whose rows are each
    state's action probabilities.  An oracle for ``mdp.policy_values``."""
    if not 0.0 < mdp.discount < 1.0:
        raise ValueError("policy evaluation requires discount in (0,1)")
    pi = (np.eye(mdp.n_actions)[policy.table] if isinstance(policy, Policy)
          else np.asarray(policy, dtype=float))
    if pi.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError("policy/MDP dimension mismatch")
    P_pi = np.einsum("sa,sat->st", pi, mdp.transition)
    r_pi = np.einsum("sa,sa->s", pi, mdp.reward)
    return np.linalg.solve(np.eye(mdp.n_states) - mdp.discount * P_pi, r_pi)


def kr_lower_bound(problem, f_left, f_right):
    """Weak-duality lower bound sum(f_left*mu) - sum(f_right*nu), which
    never exceeds the optimal transport cost.

    The potential pair must satisfy f_left_i - f_right_j <= cost_ij + 1e-9
    for all (i, j); violations are rejected naming the worst offending
    pair.  A solver certificate (u, v) satisfies u_i + v_j <= cost_ij, so
    it enters here as (u, -v), where it reproduces the optimum exactly.
    """
    f_left = np.asarray(f_left, dtype=float)
    f_right = np.asarray(f_right, dtype=float)
    if f_left.shape != problem.mu.shape or f_right.shape != problem.nu.shape:
        raise ValueError("potential lengths must match the marginals")
    slack = problem.cost - (f_left[:, None] - f_right[None, :])
    if slack.min() < -1e-9:
        i, j = np.unravel_index(np.argmin(slack), slack.shape)
        raise ValueError(
            f"infeasible potentials: f_left[{i}] - f_right[{j}] exceeds "
            f"cost[{i},{j}] by {-slack[i, j]!r}")
    return float(f_left @ problem.mu - f_right @ problem.nu)


def hitting_time(chain, start):
    """Expected steps to absorption from ``start``, as the package charges
    a start."""
    return start_charge(chain, start, expected_steps(chain))


def enumerate_epsilon_optimal(mdp, query):
    """The deterministic policies with a value loss below epsilon, as the
    package's policy table finds them."""
    return [Policy.deterministic(row)
            for actions, loss, _, _ in _policy_table(mdp, query.epsilon)
            for row in actions[loss < query.epsilon]]


def reference_table_sizes(n_states):
    """(block, batch) of the policy table as earlier sized: blocks of
    max(1, BLOCK_BYTES // (8 n^2)) policies, and batches of the most whole
    blocks whose values take at most 3/4 of BLOCK_BYTES (1,737 policies at
    13 states, so that a 4,096-policy table comes in 3 pieces)."""
    budget = safety.BLOCK_BYTES
    block = max(1, budget // (8 * n_states ** 2))
    return block, block * max(1, 3 * budget // (32 * n_states * block))


def reference_tree_solve(tree):
    """safety._tree_solve with every level stored leaves-major, one node
    at a time (nodes, rows, width), as the tree was first built: x over
    the tree's states of every policy of its product, one row per state
    in the tree's order."""
    root, Z, k, order = tree
    m = len(k)
    rows, pivots = root[None], []
    for d in range(m):
        pivot, rest = rows[:, :k[d], None], rows[:, None, k[d]:]
        rows = rest[..., 1:] - rest[..., :1] / pivot[..., :1] \
            * pivot[..., 1:]
        pivots.append(pivot.reshape(-1, rows.shape[-1] + 1))
        rows = rows.reshape(len(pivots[-1]), *rows.shape[-2:])
    out = np.empty((len(order), int(np.prod(k))))
    x, span = out[:m], 1
    for d in range(m - 1, -1, -1):
        rows = pivots[d]
        below = x[d + 1:].reshape(-1, len(rows), span)
        x[d] = ((rows[:, -1, None] - np.einsum("jnk,nj->nk", below,
                                               rows[:, 1:-1]))
                / rows[:, :1]).reshape(-1)
        span *= k[d]
    np.matmul(Z[:, :m], out[:m], out=out[m:])
    out[m:] -= Z[:, m, None]
    return out


def reference_table(base, nonsafe, survivors, leaves):
    """safety._action_table's rows at the product indices ``leaves``, by
    unravelling each index into one pick per non-safe state."""
    shape = tuple(len(acts) for acts in survivors)
    picks = np.unravel_index(leaves, shape) if shape else ()
    actions = np.empty((len(leaves), len(base)), dtype=base.dtype)
    actions[:] = base
    for s, acts, pick in zip(nonsafe, survivors, picks):
        actions[:, s] = acts[pick]
    return actions


def certify_pool():
    """(documents, tasks) of each of the 16 instances of the benchmark's
    certify pool, from perfbench/fixtures.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures.py"
    spec = importlib.util.spec_from_file_location("perfbench_fixtures", path)
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    return [fixtures.instance("certify", i)
            for i in range(fixtures.POOL["certify"])]


def all_deterministic_policies(mdp):
    for combo in product(range(mdp.n_actions), repeat=mdp.n_states):
        yield Policy.deterministic(np.array(combo))


def best_value_by_enumeration(mdp):
    """Optimal values as the componentwise max over exact evaluations of
    every deterministic policy (an oracle for value iteration)."""
    best = None
    for policy in all_deterministic_policies(mdp):
        v = policy_evaluation(mdp, policy)
        best = v if best is None else np.maximum(best, v)
    return best


def reference_value_iteration(mdp, tol=1e-10):
    """Optimal values V* by value iteration.

    Stops when a sweep changes the values by less than tol*(1-g)/(2g), which
    guarantees a sup-norm error below ``tol``, or after 1,000,000 sweeps.
    A sweep whose change is not finite (NaN or infinite rewards or
    transitions) raises ValueError.  An oracle for ``value_iteration``,
    which runs policy iteration instead.
    """
    if not 0.0 < mdp.discount < 1.0:
        raise ValueError("value iteration requires discount in (0,1)")
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = mdp.discount
    threshold = tol * (1.0 - g) / (2.0 * g)
    v = np.zeros(mdp.n_states)
    P, r = mdp.transition, mdp.reward
    change = math.inf
    for _ in range(1_000_000):
        q = r + g * np.einsum("sat,t->sa", P, v)
        v_new = q.max(axis=1)
        change = float(np.max(np.abs(v_new - v)))
        if not math.isfinite(change):
            raise ValueError(f"value iteration: non-finite change {change!r}")
        v = v_new
        if change < threshold:
            break
    return ValueFunction(v, change)


def fresh_lp_metric(m1, m2, config):
    """The metric fixed point by plain sweeps from zero, with every
    transport problem solved afresh at every sweep: each ``metric_update``
    call builds a new batch, so no basis is carried over.  Same stopping
    rule as ``cross_bisim_metric``, whose strategy iteration this checks;
    returns (dist, sweeps)."""
    dist = np.zeros((m1.n_states, m2.n_states))
    for sweeps in range(1, bisim.MAX_APPLICATIONS + 1):
        new = metric_update(m1, m2, config, dist)
        residual = float(np.max(np.abs(new - dist)))
        dist = new
        if residual < config.residual_target:
            break
    return dist, sweeps


def reference_pair_evaluate(sweep, flow, policy):
    """Distances of the pair chain of ``sweep`` that takes action
    ``policy[k]`` at pair-state k under the held couplings ``flow``, from
    one SuperLU solve of the sparse system (I - c_T P) d = r, with exact
    zeros at the pair-states that reach no reward gap.  An oracle for
    ``_PairSweep._evaluate``'s dense solve."""
    n = len(policy)
    take = (policy[sweep.cell_pair] == sweep.cell_action) & (flow > 0)
    step = sp.csc_matrix((flow[take], (sweep.cell_pair[take],
                                       sweep.cost_index[take])),
                         shape=(n, n))
    system = sp.identity(n, format="csc") - sweep.config.c_T * step
    reward = sweep.reward_term.reshape(n, -1)[np.arange(n), policy]
    dist = np.atleast_1d(spsolve(system, reward))
    dist[~can_reach((step > 0).toarray(), reward > 0)] = 0.0
    return dist.reshape(sweep.shape)


def batch_of(pairs):
    """A ``BatchedTransport`` of the problems ``pairs``, a list of (mu, nu)
    weight vectors: row k of its support table is mu of problem k, row
    len(pairs) + k its nu."""
    rows = [np.asarray(w, float) for w in [mu for mu, _ in pairs]
            + [nu for _, nu in pairs]]
    sizes = [len(w) for w in rows]
    weights = np.zeros((len(rows), max(sizes, default=0)))
    for r, w in enumerate(rows):
        weights[r, :len(w)] = w
    problems = np.arange(len(pairs))
    return BatchedTransport(weights, sizes,
                            np.stack([problems, len(pairs) + problems], 1))


def loop_built_sweep(m1, m2):
    """(pairs, cost_index, cell_problem) of the metric sweep over (m1,
    m2), built one (s1, s2, a) problem at a time: pairs[k] is problem k's
    (mu, nu), the positive entries of the two transition rows in column
    order, and its cost cells, raveled in problem order, hold the
    distance-matrix positions of the rows' supports.  An oracle for
    ``_PairSweep``'s array build."""
    n_actions, n2 = m1.n_actions, m2.n_states

    def supports(mdp):
        return [[(np.nonzero(row > 0)[0], row[row > 0]) for row in state]
                for state in mdp.transition]

    sup1, sup2 = supports(m1), supports(m2)
    pairs, cells = [], []
    for s1 in range(m1.n_states):
        for s2 in range(n2):
            for a in range(n_actions):
                (I, mu), (J, nu) = sup1[s1][a], sup2[s2][a]
                pairs.append((mu, nu))
                cells.append((I[:, None] * n2 + J).ravel())
    cell_problem = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
    return pairs, np.concatenate(cells), cell_problem


def reference_northwest_corner(mu, nu):
    """Northwest-corner starts of stacked problems of one shape, by the
    staircase over copied marginals, with each start's potential map from
    ``reference_potential_map``.  An oracle for
    ``transport._northwest_corner``."""
    size, m = mu.shape
    n = nu.shape[1]
    supply, demand = mu.copy(), nu.copy()
    g = np.arange(size)
    i, j = np.zeros((2, size), dtype=int)
    basis = np.empty((size, m + n - 1), dtype=int)
    flow = np.empty((size, m + n - 1))
    for k in range(m + n - 1):
        x = np.minimum(supply[g, i], demand[g, j])
        basis[:, k] = i * n + j
        flow[:, k] = x
        supply[g, i] -= x
        demand[g, j] -= x
        down = (i < m - 1) & ((supply[g, i] <= 0) | (j == n - 1))
        i, j = i + down, j + ~down
    return basis, reference_potential_map(basis, m, n), flow


def reference_potential_map(basis, m, n):
    """Integer maps K with [u; v] = K c_B (u_i + v_j equal to the cost on
    every basic cell (i, j), u_0 = 0) for stacked spanning-tree bases: the
    rounded inverse of the tree's incidence matrix, with the row u_0 = 0
    appended, less its last column."""
    size = len(basis)
    i, j = np.divmod(basis, n)
    tree = np.zeros((size, m + n, m + n))
    g = np.arange(size)[:, None]
    edges = np.arange(m + n - 1)
    tree[g, edges, i] = 1.0
    tree[g, edges, m + j] = 1.0
    tree[:, -1, 0] = 1.0
    return np.rint(np.linalg.inv(tree))[:, :, :-1]


def scattered_couplings(batch):
    """``batch.couplings()`` as scattered with ``np.put_along_axis``, the
    product recomputed for every never-solved problem and the diagonal laid
    over the plan."""
    flow = np.empty(batch.n_costs)
    for group in batch.groups:
        size = len(group.members)
        m, n = group.shape
        plan = np.einsum("gi,gj->gij", group.mu, group.nu).reshape(size, -1)
        if not group.forced:
            scattered = np.zeros((size, m * n))
            np.put_along_axis(scattered, group.basis, group.flow, axis=1)
            plan = np.where(group.known[:, None], scattered, plan)
        if group.diagonal.any():
            diagonal = np.zeros_like(plan)
            diagonal[:, ::m + 1] = group.mu
            plan = np.where(group.diagonal[:, None], diagonal, plan)
        flow[group.cells.reshape(size, -1)] = plan
    return flow


def shift_applications(monkeypatch, offset=1e-14):
    """Shift the result of every application of the metric update by
    ``offset``, alternately up and down.  A uniform shift leaves every
    optimal coupling as it is, but no iterate is then a float fixed point,
    whatever the summation order: the residual settles near
    2*offset/(1 + c_T), and a target below it is never met."""
    apply = _PairSweep.apply
    sign = [1.0]

    def shifted(self, dist):
        sign[0] = -sign[0]
        return apply(self, dist) + sign[0] * offset

    monkeypatch.setattr(_PairSweep, "apply", shifted)


# -- the per-policy safety loops, each with its own membership test ----------

def gathered_chains(mdp, actions):
    """(Q, absorb) of the chains of the action tables ``actions``, sliced
    from the full rows of the non-safe states under their actions."""
    keep = mdp.nonsafe_indices
    rows = mdp.transition[keep, actions[..., keep]]
    return rows[..., keep], rows[..., mdp.safe_indices].sum(axis=-1)


def reference_expected_steps(chain: InducedChain) -> np.ndarray:
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


def reference_hitting_time(chain, start):
    """The start's mass on the chain states against their
    :func:`reference_expected_steps`, one dot product."""
    t = reference_expected_steps(chain)
    mass = start.weights[chain.index_map]
    hit = mass > 0
    if np.any(np.isinf(t[hit])):
        return math.inf
    return float(mass[hit] @ t[hit])


def _reference_grid(mdp):
    """Every action table over the non-safe states, in product order, each
    taking the greedy action of the oracle's V* (the first on ties) at
    every safe state."""
    v_star = reference_value_iteration(mdp, 1e-10).values
    greedy = np.argmax(mdp.reward + mdp.discount * np.einsum(
        "sat,t->sa", mdp.transition, v_star), axis=1)
    nonsafe = mdp.nonsafe_indices
    for combo in product(range(mdp.n_actions), repeat=len(nonsafe)):
        actions = greedy.copy()
        actions[nonsafe] = combo
        yield Policy.deterministic(actions)


def reference_enumerate(mdp, query):
    """Members by the per-state test V(s) > V*(s) - eps."""
    v_star = reference_value_iteration(mdp, query.value_tol).values
    members = []
    for policy in _reference_grid(mdp):
        v = policy_evaluation(mdp, policy)
        if np.all(v > v_star - query.epsilon):
            members.append(policy)
    return members


def reference_certify(mdp, query):
    """Certificate fields from a membership margin min_s(V - V* + eps) > 0,
    then one hitting-time pass over the members."""
    v_star = reference_value_iteration(mdp, query.value_tol).values
    members, boundary = [], 0
    for policy in _reference_grid(mdp):
        v = policy_evaluation(mdp, policy)
        margin = np.min(v - v_star + query.epsilon)
        if abs(margin) < 10.0 * query.value_tol:
            boundary += 1
        if margin > 0:
            members.append(policy)
    worst_time, worst_policy, reachability = -math.inf, None, []
    for policy in members:
        chain = induce_chain(mdp, policy)
        t = reference_expected_steps(chain)
        if query.start is None:
            time = float(np.max(t)) if len(t) else 0.0
        else:
            time = reference_hitting_time(chain, query.start)
        reachability.append(bool(np.all(np.isfinite(t))))
        if time > worst_time:
            worst_time, worst_policy = time, policy
    return {"worst_time": worst_time,
            "worst_policy": tuple(worst_policy.table),
            "epsilon_optimal_count": len(members),
            "boundary_count": boundary,
            "reachability": tuple(reachability)}


def reference_classes(mdp, v_star):
    """{actions at the non-safe states: least value loss} over every whole
    action table, the safe states' actions included, against ``v_star``:
    the tables that agree off the safe set share their hitting times, and
    a class is eps-optimal when one of its tables is."""
    classes = {}
    for policy in all_deterministic_policies(mdp):
        loss = float(np.max(v_star - policy_evaluation(mdp, policy)))
        key = tuple(policy.table[mdp.nonsafe_indices].tolist())
        classes[key] = min(loss, classes.get(key, math.inf))
    return dict(sorted(classes.items()))


def reference_frontier(mdp, epsilons, value_tol=1e-10):
    """Frontier rows with a hitting time computed for every policy."""
    v_star = reference_value_iteration(mdp, value_tol).values
    evaluated = []
    for policy in _reference_grid(mdp):
        v = policy_evaluation(mdp, policy)
        t = reference_expected_steps(induce_chain(mdp, policy))
        worst = float(np.max(t)) if len(t) else 0.0
        evaluated.append((float(np.max(v_star - v)), worst))
    return [(eps, max(w for loss, w in evaluated if loss < eps))
            for eps in sorted(float(e) for e in epsilons)]


# -- the on-policy loops, one policy call per point ---------------------------

def reference_toy_policy(weights, temperature):
    """(evaluator, jacobian) of the softmax toy policy at one point x."""
    W = np.asarray(weights, dtype=float)
    t = float(temperature)

    def evaluator(x):
        z = W @ np.asarray(x, dtype=float) / t
        z = z - z.max()
        e = np.exp(z)
        return e / e.sum()

    def jacobian(x):
        p = evaluator(x)
        return (p[:, None] * (W - p @ W)) / t

    return evaluator, jacobian


def reference_realize_chain(emdp, policy):
    """The realized chain with one evaluator call and one row check per
    state."""
    n, n_a = emdp.base.n_states, emdp.base.n_actions
    pi = np.empty((n, n_a))
    for i in range(n):
        row = np.asarray(policy.evaluator(emdp.embedding[i]), dtype=float)
        if row.shape != (n_a,) or np.any(row < -1e-12) \
                or abs(row.sum() - 1.0) > ROW_TOL:
            raise ValueError(f"policy evaluator returned an invalid "
                             f"distribution at state {i}: {row}")
        pi[i] = row
    return np.einsum("ia,iaj->ij", pi, emdp.base.transition)


def reference_jacobian_l1_norm(jac):
    """max over sign vectors sigma (first entry +1) of ||J^T sigma||_2, one
    sign vector at a time."""
    best = 0.0
    for signs in product((-1.0, 1.0), repeat=jac.shape[0] - 1):
        sigma = np.array((1.0,) + signs)
        best = max(best, float(np.linalg.norm(jac.T @ sigma)))
    return best


def validate_diff_policy(policy, points):
    """Violations of the differentiable-policy contract at the given
    coordinates, one point at a time (empty when clean): rows are
    distributions, jacobian columns sum to zero and match central
    differences to a relative 1e-5, and bound_b dominates the jacobian's
    norm."""
    problems = []
    for k, x in enumerate(points):
        x = np.asarray(x, dtype=float)
        row = np.asarray(policy.evaluator(x))
        if np.any(row < -1e-12):
            problems.append(f"negative probability at point {k}")
        if abs(row.sum() - 1.0) > ROW_TOL:
            problems.append(f"probabilities sum to {row.sum()!r} at point {k}")
        jac = np.asarray(policy.jacobian(x))
        col_sums = np.abs(jac.sum(axis=0)).max() if jac.size else 0.0
        if col_sums > 1e-8:
            problems.append(f"jacobian columns sum to {col_sums!r} at point {k}")
        fd = finite_difference_jacobian(policy, x)
        scale = max(np.abs(fd).max(), 1e-12)
        if np.abs(fd - jac).max() / scale > 1e-5:
            problems.append(f"jacobian disagrees with finite differences "
                            f"at point {k}")
        if reference_jacobian_l1_norm(jac) > policy.bound_b + 1e-9:
            problems.append(f"bound_b violated at point {k}")
    return problems


def reference_bound_and_slack(emdp, policy, pert):
    """First-order entry bound and per-state slack of
    ``chain_perturbation_bound``, one jacobian call per state."""
    n = emdp.base.n_states
    shift = np.linalg.norm(pert.delta_S, axis=1)
    grad_norm = np.array([reference_jacobian_l1_norm(
        policy.jacobian(emdp.embedding[i])) for i in range(n)])
    bound = (0.5 * grad_norm * shift)[:, None] \
        + np.abs(pert.delta_T).sum(axis=1)
    slack = np.zeros(n)
    for i in np.nonzero(shift > 0)[0]:
        jac_here = np.asarray(policy.jacobian(emdp.embedding[i]))
        jac_there = np.asarray(policy.jacobian(emdp.embedding[i]
                                               + pert.delta_S[i]))
        kappa = reference_jacobian_l1_norm(jac_there - jac_here) / shift[i]
        slack[i] = kappa * shift[i] ** 2
    return bound, slack


def reference_shutdown_probability(P, safe, start, trans=None):
    """``shutdown_probability`` with I - P diag(trans) built by gathering
    P's transient columns and subtracting them from I's in place."""
    P = np.asarray(P, dtype=float)
    if trans is None:
        trans = transient_set(P, safe)
    n = P.shape[0]
    v_safe = np.zeros(n)
    v_safe[sorted(int(s) for s in safe)] = 1.0
    trans = sorted(trans)
    A = np.eye(n)
    A[:, trans] -= P[:, trans]
    value = float(start.weights @ np.linalg.solve(A, P @ v_safe))
    return min(max(value, 0.0), 1.0)


def reference_perturbation(emdp, policy, size, seed, state_share=0.5):
    """``random_perturbation`` with one draw, centring and scatter per
    (state, action) row of the transition noise."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    base = emdp.base
    rng = np.random.default_rng(seed)
    dT = np.zeros_like(base.transition)
    nonsafe = set(int(s) for s in base.nonsafe_indices)
    for s in range(base.n_states):
        if s not in nonsafe:
            continue
        for a in range(base.n_actions):
            row = base.transition[s, a]
            sup = np.nonzero(row > 0)[0]
            if len(sup) < 2:
                continue
            z = rng.standard_normal(len(sup))
            z -= z.mean()
            peak = np.abs(z).max()
            if peak == 0.0:
                continue
            cap = 0.5 * row[sup].min()
            dT[s, a, sup] = z * (cap / peak)
    dS = rng.standard_normal(emdp.embedding.shape)

    b = policy.bound_b
    shifts = [float(np.linalg.norm(row)) for row in dS]
    s_mass = 0.5 * base.n_states * b * float(np.linalg.norm(dS, axis=1).sum())
    if b <= 0 or max(shifts) > MAX_STATE_SHIFT * s_mass:
        state_share = 0.0
    t_mass = float(np.abs(dT).sum())
    if t_mass == 0.0 and state_share == 0.0:
        return Perturbation.zero(emdp)
    if t_mass == 0.0:
        state_share = 1.0
    pert_scale_T = (1.0 - state_share) / t_mass if t_mass else 0.0
    pert_scale_S = state_share / s_mass if (s_mass and state_share) else 0.0
    unit = Perturbation(dS * pert_scale_S, dT * pert_scale_T)
    unit_size = perturbation_size(emdp, policy, unit)
    if unit_size == 0.0:
        return Perturbation.zero(emdp)
    scale = size / unit_size
    if t_mass and pert_scale_T * scale > 1.0:
        raise ValueError(
            f"requested size {size!r} exceeds the admissible transition "
            f"budget for this instance (support entries would be destroyed)")
    if max(shifts) * pert_scale_S * scale > MAX_STATE_SHIFT:
        raise ValueError(
            f"requested size {size!r} moves a state further than "
            f"{MAX_STATE_SHIFT:.3g} under derivative bound {b!r}")
    return Perturbation(unit.delta_S * scale, unit.delta_T * scale)


def reference_validate(mdp):
    """``validate`` with every fault mask scanned by ``np.argwhere``,
    whether or not it has a true entry."""
    found = []
    n_s, n_a = len(mdp.state_ids), len(mdp.action_ids)
    for kind, ids in (("state", mdp.state_ids), ("action", mdp.action_ids)):
        texts = [str(i) for i in ids]
        if any(ids.count(i) > 1 or texts.count(t) > 1
               for i, t in zip(ids, texts)):
            found.append(Violation(f"duplicate-{kind}-ids", (),
                                   f"{kind} ids repeat"))
    P, r = np.asarray(mdp.transition), np.asarray(mdp.reward)
    if P.shape != (n_s, n_a, n_s):
        found.append(Violation("transition-shape", P.shape,
                               f"expected {(n_s, n_a, n_s)}"))
        return ValidationReport(tuple(found))
    if r.shape != (n_s, n_a):
        found.append(Violation("reward-shape", r.shape, f"expected {(n_s, n_a)}"))
    # Comparisons with NaN are false, so no check below would catch one.
    for name, values in (("transition", P), ("reward", r)):
        for loc in np.argwhere(~np.isfinite(values))[:20]:
            loc = tuple(int(x) for x in loc)
            found.append(Violation("non-finite", loc,
                                   f"{name} entry {values[loc]!r}"))
    if not math.isfinite(mdp.discount):
        found.append(Violation("non-finite", (), f"discount {mdp.discount!r}"))
    elif not 0.0 < mdp.discount < 1.0:
        found.append(Violation("discount", (), f"{mdp.discount} not in (0,1)"))
    bad = np.argwhere((P < 0) | (P > 1))
    for s, a, t in bad[:20]:
        found.append(Violation("probability-range", (int(s), int(a), int(t)),
                               f"entry {P[s, a, t]!r} outside [0,1]"))
    rows = P.sum(axis=2)
    off = np.argwhere(np.abs(rows - 1.0) > PROB_TOL)
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


def reference_render_json(obj, indent=0):
    """The artifact renderer as one recursive call per value, the oracle of
    cli.render_json's bytes."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("non-finite float in artifact; sanitize to null")
        return format(obj, ".17g")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + reference_render_json(v, indent + 1)
                           for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": "
            + reference_render_json(v, indent + 1) for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, np.floating):
        return reference_render_json(float(obj))
    if isinstance(obj, np.ndarray):
        return reference_render_json(obj.tolist(), indent)
    raise TypeError(f"cannot render {type(obj)!r}")


def reference_duplicated(mdp, state, copies):
    """``scenarios.build_duplicated``'s arrays built one copy at a time:
    (state ids, transitions, rewards, safe set), unvalidated."""
    n, n_a = mdp.n_states, mdp.n_actions
    extra = copies - 1
    group = [state] + list(range(n, n + extra))
    P = np.zeros((n + extra, n_a, n + extra))
    P[:n, :, :n] = mdp.transition
    share = P[:n, :, state] / copies
    for g in group:
        P[:n, :, g] = share
    for g in group[1:]:
        P[g] = P[state]
    r = np.zeros((n + extra, n_a))
    r[:n] = mdp.reward
    r[group[1:]] = mdp.reward[state]
    ids = list(mdp.state_ids)
    for k in range(2, copies + 1):
        ids.append(f"{mdp.state_ids[state]}#{k}")
    safe = set(mdp.safe_set)
    if state in mdp.safe_set:
        safe.update(group[1:])
    return tuple(ids), P, r, frozenset(safe)


def reference_isolation(mdp, subset, delta, config):
    """``bisim.isolation_check`` read off the whole |S|^2 within-MDP
    metric: its subset rows and outside columns."""
    subset = frozenset(_state_indices(mdp.n_states, subset))
    outside = [s for s in range(mdp.n_states) if s not in subset]
    if not subset or not outside:
        return IsolationResult(True, math.inf, vacuous=True)
    metric = bisim.cross_bisim_metric(mdp, mdp, config)
    if not metric.converged:
        raise NonConvergence("within-MDP metric did not converge")
    closest = float(metric.dist[np.ix_(sorted(subset), outside)].min())
    return IsolationResult(closest > delta, closest)

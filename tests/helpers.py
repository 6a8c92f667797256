"""Shared fixtures and independent oracles used across the test suite."""

from itertools import combinations, product

import numpy as np

from mdp_stability import MdpSpec, Policy, metric_update, policy_evaluation

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


def all_deterministic_policies(mdp):
    for combo in product(range(mdp.n_actions), repeat=mdp.n_states):
        yield Policy.deterministic(np.array(combo))


def best_value_by_enumeration(mdp):
    """Optimal values as the componentwise max over exact evaluations of
    every deterministic policy (an oracle for value iteration)."""
    best = None
    for policy in all_deterministic_policies(mdp):
        v = policy_evaluation(mdp, policy).values
        best = v if best is None else np.maximum(best, v)
    return best


def fresh_lp_metric(m1, m2, config):
    """The metric fixed point with every transport problem solved afresh at
    every sweep: each ``metric_update`` call builds a new LP batch, so no
    plan is carried over.  Same start (zero) and stopping rule as
    ``cross_bisim_metric``; returns (dist, sweeps)."""
    dist = np.zeros((m1.n_states, m2.n_states))
    for sweeps in range(1, config.max_iterations + 1):
        new = metric_update(m1, m2, config, dist)
        residual = float(np.max(np.abs(new - dist)))
        dist = new
        if residual < config.residual_target:
            break
    return dist, sweeps

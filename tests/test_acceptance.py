"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the failure report) and asserts the criterion at its stated tolerance.
Everything is desk-scale and seeded.
"""

import math

import numpy as np

from helpers import brute_force_transport, random_mdp, uniform_base
from mdp_stability import (BisimConfig, MdpSpec, Policy, PlayingDeadParams,
                           SafetyQuery, StartDistribution, TransportProblem,
                           bisim_quotient, build_duplicated,
                           build_playing_dead, build_uniform_shutdown,
                           certify_safety, chain_perturbation_bound,
                           cross_bisim_metric, expected_steps,
                           finite_difference_jacobian, hausdorff_distance,
                           induce_chain, isolation_check, iteration_bound,
                           make_toy_policy, metric_update,
                           rate_of_decrease_check, realize_chain,
                           shutdown_probability, solve_transport,
                           tighten_policy_bound)
from mdp_stability.onpolicy import EmbeddedMdp, Perturbation
from mdp_stability.scenarios import random_family, random_perturbation


def report(number, name, ok):
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"criterion {number} failed: {name}"


CFG = BisimConfig(c_R=0.4, c_T=0.6, tolerance=1e-5)


def test_criterion_1_contraction_certificate():
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n1, n2 = rng.integers(2, 11, size=2)
        m1 = random_mdp(seed, n_states=int(n1))
        m2 = random_mdp(seed + 1000, n_states=int(n2))
        d1 = rng.random((int(n1), int(n2))) * 2.0
        d2 = rng.random((int(n1), int(n2))) * 2.0
        lhs = np.max(np.abs(metric_update(m1, m2, CFG, d1)
                            - metric_update(m1, m2, CFG, d2)))
        ok &= bool(lhs <= CFG.c_T * np.max(np.abs(d1 - d2)) + 1e-9)
        metric = cross_bisim_metric(m1, m2, CFG)
        first = float(np.max(metric_update(
            m1, m2, CFG, np.zeros((int(n1), int(n2))))))
        ok &= metric.converged
        ok &= metric.iterations_used <= iteration_bound(first, CFG)
    report(1, "metric update contracts at rate c_T; iterations within the "
              "geometric bound (50 seeded pairs)", ok)


def test_criterion_2_pseudometric_suite():
    ok = True
    for seed in range(50):
        m1 = random_mdp(3 * seed, n_states=3)
        m2 = random_mdp(3 * seed + 1, n_states=3)
        m3 = random_mdp(3 * seed + 2, n_states=3)
        ok &= hausdorff_distance(cross_bisim_metric(m1, m1, CFG)) == 0.0
        d12 = hausdorff_distance(cross_bisim_metric(m1, m2, CFG))
        d21 = hausdorff_distance(cross_bisim_metric(m2, m1, CFG))
        ok &= bool(abs(d12 - d21) <= 1e-9)
        d13 = hausdorff_distance(cross_bisim_metric(m1, m3, CFG))
        d32 = hausdorff_distance(cross_bisim_metric(m3, m2, CFG))
        ok &= bool(d12 <= d13 + d32 + 2 * CFG.tolerance)
    report(2, "Hausdorff distance: identity exact, symmetry 1e-9, triangle "
              "within 2 eta (50 seeded triples)", ok)


def test_criterion_3_transport_exactness():
    ok = True
    rng = np.random.default_rng(12345)
    for _ in range(200):
        m, n = rng.integers(2, 5, size=2)
        mu = rng.dirichlet(np.ones(m))
        nu = rng.dirichlet(np.ones(n))
        cost = rng.random((m, n))
        problem = TransportProblem(mu, nu, cost)
        sol = solve_transport(problem)
        ok &= bool(abs(sol.value - brute_force_transport(mu, nu, cost))
                   <= 1e-9)
        gaps = sol.dual_u[:, None] + sol.dual_v[None, :] - cost
        ok &= bool(gaps.max() <= 1e-9)
        ok &= bool(abs(sol.dual_u @ mu + sol.dual_v @ nu - sol.value) <= 1e-9)
    report(3, "exact transport matches the polytope-vertex oracle to 1e-9 "
              "with feasible, tight duals (200 seeded problems)", ok)


def never_absorbing_base(n_loop=2, n_actions=2):
    n = n_loop + 1
    P = np.zeros((n, n_actions, n))
    for s in range(n_loop):
        P[s, :, (s + 1) % n_loop] = 1.0
    P[n_loop, :, n_loop] = 1.0
    return MdpSpec(tuple(f"s{i}" for i in range(n_loop)) + ("safe",),
                   tuple(f"a{j}" for j in range(n_actions)), P,
                   np.zeros((n, n_actions)), 0.9, {n_loop})


def test_criterion_4_hitting_time_identities():
    ok = True
    # Geometric absorption at p = 0.25 vs the truncated series.
    from mdp_stability import InducedChain
    p = 0.25
    chain = InducedChain(np.array([[1 - p]]), np.array([p]), np.array([0]))
    series, term, k = 0.0, p, 1
    while term > 1e-12:
        series += k * term
        k += 1
        term = p * (1 - p) ** (k - 1)
    t = expected_steps(chain)[0]
    ok &= bool(abs(t - series) <= 1e-8 and abs(t - 4.0) <= 1e-8)
    # Uniform 1/N shutdown of a never-absorbing chain hits in exactly N.
    base = never_absorbing_base()
    for N in (5.0, 20.0, 100.0):
        modified = build_uniform_shutdown(base, N)
        for a in range(base.n_actions):
            c = induce_chain(modified,
                             Policy([a] * base.n_states))
            ok &= bool(np.max(np.abs(expected_steps(c) - N)) <= 1e-6)
    report(4, "hitting times: geometric case 4 +- 1e-8; uniform shutdown "
              "equals N +- 1e-6 for N in {5, 20, 100}", ok)


def hibernation_base():
    P = np.zeros((3, 2, 3))
    P[0, 0, 1] = 1.0
    P[0, 1, 0] = 1.0
    P[1, 0, 2] = 1.0
    P[1, 1, 1] = 1.0
    P[2, :, 2] = 1.0
    r = np.zeros((3, 2))
    r[0, 0] = 1.0
    r[1, 0] = 0.6
    return MdpSpec(("work", "wrap", "shutdown"), ("go", "stay"), P, r,
                   0.9, {2})


def test_criterion_5_playing_dead_reproduction():
    gamma, eps, delta, eta = 0.9, 0.5, 1e-3, 1e-6
    base = hibernation_base()
    variant = build_playing_dead(PlayingDeadParams(
        base=base, delta=delta, escape_state=0, escape_action=0,
        epsilon=eps))
    config = BisimConfig(c_R=1 - gamma, c_T=gamma, tolerance=eta)

    metric = cross_bisim_metric(variant, variant, config)
    bound = delta / (1 - gamma + gamma * delta)
    ok_a = metric.converged and metric.dist[3, 2] <= bound + eta

    cert_base = certify_safety(base, SafetyQuery(eps))
    ok_b = math.isfinite(cert_base.worst_time) \
        and cert_base.epsilon_optimal_count > 0

    cert_pd = certify_safety(variant, SafetyQuery(eps / 2))
    ok_c = cert_pd.worst_time == math.inf \
        and cert_pd.epsilon_optimal_count > 0 \
        and not any(cert_pd.reachability)

    d_h = hausdorff_distance(cross_bisim_metric(base, variant, config))
    ok_d = not isolation_check(variant, variant.safe_set, math.sqrt(d_h),
                               config).isolated

    report(5, "playing dead: distance bound, safe base, never-absorbing "
              "variant, isolation failure", ok_a and ok_b and ok_c and ok_d)


def test_criterion_6_quotient_invariance():
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(seed + 60, n_states=4, gamma=0.5)
        state = int(rng.choice(mdp.nonsafe_indices))
        doubled = build_duplicated(mdp, state, copies=2)
        result = bisim_quotient(doubled, 1e-9)
        eps = 0.3
        t_big = certify_safety(doubled, SafetyQuery(eps)).worst_time
        t_small = certify_safety(result.quotient, SafetyQuery(eps)).worst_time
        if math.isinf(t_big) or math.isinf(t_small):
            ok &= t_big == t_small
        else:
            ok &= bool(abs(t_big - t_small) <= 1e-8)

        # Collapsed k-step transition identity, k <= 6, policy constant on
        # the copy class.
        policy_big = Policy(np.zeros(doubled.n_states, int))
        policy_small = Policy(
            np.zeros(result.quotient.n_states, int))
        chain_big = induce_chain(doubled, policy_big)
        chain_small = induce_chain(result.quotient, policy_small)
        classes = [result.lift[s] for s in chain_big.index_map]
        small_pos = {result.lift[s]: i
                     for i, s in enumerate(chain_small.index_map)}
        for k in range(1, 7):
            Pk_big = np.linalg.matrix_power(chain_big.Q, k)
            Pk_small = np.linalg.matrix_power(chain_small.Q, k)
            for i_big, c_i in enumerate(classes):
                for c_m, j_small in small_pos.items():
                    summed = sum(Pk_big[i_big, j]
                                 for j, c_j in enumerate(classes)
                                 if c_j == c_m)
                    ok &= bool(abs(summed
                                   - Pk_small[small_pos[c_i], j_small])
                               <= 1e-10)
    report(6, "quotients preserve worst hitting times (1e-8) and k-step "
              "class sums up to k=6 (1e-10), 5 seeds", ok)


def test_criterion_7_on_policy_bound_ledger():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 5))
        emdp = random_family(seed, (n, 2, d))
        policy = tighten_policy_bound(
            make_toy_policy(rng.standard_normal((2, d)), temperature=1.0),
            emdp.embedding)
        size = 10.0 ** rng.uniform(-6, -3)
        pert = random_perturbation(emdp, policy, size, seed)
        bound_report = chain_perturbation_bound(emdp, policy, pert)
        ok &= bound_report.aggregate_ok
        rate = rate_of_decrease_check(emdp, policy, pert,
                                      uniform_base(emdp, policy))
        ok &= rate.within_bound
        ok &= rate.trans_preserved
    report(7, "on-policy ledger over 100 seeded instances: |dP|_1 within "
              "|dM|_1 plus slack, decrease rate below B(M), transient set "
              "preserved", ok)


def test_criterion_8_semicontinuity_witnesses():
    # Upper-semicontinuity failure: a recurrent-dead chain jumps to
    # certain shutdown under a small uniform-shutdown blend.
    P = np.zeros((2, 2, 2))
    P[0, :, 0] = 1.0
    P[1, :, 1] = 1.0
    base = MdpSpec(("dead", "safe"), ("a0", "a1"), P, np.zeros((2, 2)),
                   0.9, {1})
    emdp = EmbeddedMdp(base, [[0.0], [1.0]])
    policy = make_toy_policy(np.zeros((2, 1)))
    N = 100.0
    modified = build_uniform_shutdown(base, N)
    pert = Perturbation(np.zeros((2, 1)),
                        modified.transition - base.transition)
    jump = rate_of_decrease_check(emdp, policy, pert,
                                  uniform_base(emdp, policy))
    ok = jump.size <= 0.1 and jump.delta_s_pi >= 0.99

    # Lower-semicontinuity witness: sub-threshold rungs never drop the
    # shutdown probability below S_pi(M) - B(M) ||dM||_1.
    emdp2 = random_family(11, (6, 2, 3))
    rng = np.random.default_rng(2)
    policy2 = tighten_policy_bound(
        make_toy_policy(rng.standard_normal((2, 3))), emdp2.embedding)
    base2 = uniform_base(emdp2, policy2)
    for k, size in enumerate((1e-2, 1e-3, 1e-4, 1e-5, 1e-6)):
        pert2 = random_perturbation(emdp2, policy2, size, seed=k)
        r = rate_of_decrease_check(emdp2, policy2, pert2, base2)
        ok &= bool(r.s_pi_after > r.s_pi_before - r.bound_B * r.size)
    report(8, "semicontinuity: uniform shutdown jumps S_pi by >= 0.99 at "
              "size <= 0.1; sweep stays above the linear envelope", ok)


def test_criterion_9_start_distribution_continuity():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        emdp = random_family(seed, (6, 2, 2))
        P = realize_chain(emdp, make_toy_policy(
            rng.standard_normal((2, 2))))
        safe = emdp.base.safe_set
        d1 = StartDistribution(rng.dirichlet(np.ones(6)))
        d2 = StartDistribution(rng.dirichlet(np.ones(6)))
        diff = abs(shutdown_probability(P, safe, d1)
                   - shutdown_probability(P, safe, d2))
        ok &= bool(diff <= np.linalg.norm(d1.weights - d2.weights) + 1e-10)
    report(9, "shutdown probability is 1-Lipschitz in the start "
              "distribution (L2), 100 seeded cases", ok)


def test_criterion_10_jacobian_hygiene():
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        policy = make_toy_policy(rng.standard_normal((3, 3)),
                                 temperature=0.8)
        for _ in range(50):
            x = rng.uniform(0.0, 1.0, size=3)
            jac = np.asarray(policy.jacobian(x))
            fd = finite_difference_jacobian(policy, x)
            scale = max(np.abs(fd).max(), 1e-12)
            ok &= bool(np.abs(jac - fd).max() / scale <= 1e-6)
            ok &= bool(np.abs(jac.sum(axis=0)).max() <= 1e-8)
    report(10, "toy-policy jacobians match central differences to 1e-6 "
               "relative at 50 points per policy; columns conserve "
               "probability", ok)

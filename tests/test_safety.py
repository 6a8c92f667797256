import math

import numpy as np
import pytest

from helpers import (random_mdp, reference_certify, reference_enumerate,
                     reference_frontier)
from mdp_stability import (BisimConfig, InducedChain, MdpSpec, Policy,
                           SafetyQuery, StartDistribution, build_duplicated,
                           certify_safety, enumerate_epsilon_optimal,
                           expected_steps, greedy_policy, hitting_time,
                           induce_chain, policy_evaluation, safety_frontier,
                           value_iteration, ValueFunction,
                           verify_stability_instance)


def chain_single(p_absorb):
    return InducedChain(np.array([[1.0 - p_absorb]]), np.array([p_absorb]),
                        np.array([0]))


class TestHittingTime:
    def test_one_step_to_safe(self):
        chain = chain_single(1.0)
        start = StartDistribution.point_mass(1, 0)
        assert hitting_time(chain, start) == pytest.approx(1.0, abs=1e-12)

    def test_geometric_absorption(self):
        # Truncated-series oracle: sum k p (1-p)^(k-1) to 1e-10 gives 4.
        p = 0.25
        series, term, k = 0.0, p, 1
        while term > 1e-10 * p:
            series += k * term
            k += 1
            term = p * (1.0 - p) ** (k - 1)
        assert series == pytest.approx(4.0, abs=1e-8)
        start = StartDistribution.point_mass(1, 0)
        assert hitting_time(chain_single(p), start) == pytest.approx(
            series, abs=1e-8)

    def test_unreachable_absorption_is_structural(self):
        Q = np.array([[0.0, 1.0], [1.0, 0.0]])
        chain = InducedChain(Q, np.zeros(2), np.array([0, 1]))
        start = StartDistribution.point_mass(2, 0)
        assert hitting_time(chain, start) == math.inf

    def test_partial_escape_to_dead_class_is_infinite(self):
        # Absorption happens w.p. 1/2, the rest drifts to a dead self-loop:
        # the expectation diverges even though absorption is reachable.
        Q = np.array([[0.0, 0.5], [0.0, 1.0]])
        chain = InducedChain(Q, np.array([0.5, 0.0]), np.array([0, 1]))
        start = StartDistribution.point_mass(2, 0)
        assert hitting_time(chain, start) == math.inf

    def test_mass_on_safe_states_needs_flag(self):
        mdp = random_mdp(0, n_states=3)
        chain = induce_chain(mdp, Policy.deterministic([0, 0, 0]))
        w = np.zeros(3)
        w[2] = 1.0  # the safe state
        with pytest.raises(ValueError, match="safe"):
            hitting_time(chain, StartDistribution(w))
        assert hitting_time(
            chain, StartDistribution(w, allow_safe_support=True)) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_solve_agrees_with_truncated_series(self, seed):
        mdp = random_mdp(seed, n_states=5)
        chain = induce_chain(mdp, Policy.deterministic([0] * 5))
        t = expected_steps(chain)
        if not np.all(np.isfinite(t)):
            pytest.skip("needs an almost-surely absorbed chain")
        # t = sum_{k>=0} Q^k 1 truncated once ||Q^K||_inf < 1e-10.
        acc = np.zeros(chain.n_states)
        power = np.ones(chain.n_states)
        Q = chain.Q
        for _ in range(10_000):
            acc += power
            power = Q @ power
            if np.max(np.abs(power)) < 1e-10:
                break
        np.testing.assert_allclose(t, acc, atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_linear_in_start(self, seed):
        mdp = random_mdp(seed + 40, n_states=4)
        chain = induce_chain(mdp, Policy.deterministic([0] * 4))
        t = expected_steps(chain)
        if not np.all(np.isfinite(t)):
            pytest.skip("needs an almost-surely absorbed chain")
        rng = np.random.default_rng(seed)
        keep = mdp.nonsafe_indices
        w1 = np.zeros(4)
        w1[keep] = rng.dirichlet(np.ones(len(keep)))
        w2 = np.zeros(4)
        w2[keep] = rng.dirichlet(np.ones(len(keep)))
        lam = rng.random()
        mix = StartDistribution(lam * w1 + (1 - lam) * w2)
        blended = lam * hitting_time(chain, StartDistribution(w1)) \
            + (1 - lam) * hitting_time(chain, StartDistribution(w2))
        assert hitting_time(chain, mix) == pytest.approx(blended, abs=1e-10)


class TestEnumeration:
    def test_huge_epsilon_returns_every_policy(self):
        mdp = random_mdp(1, n_states=4, n_actions=2)
        span = (mdp.reward.max() - mdp.reward.min()) / (1 - mdp.discount)
        members = enumerate_epsilon_optimal(mdp, SafetyQuery(span + 1.0))
        assert len(members) == 2 ** 3  # actions vary over non-safe states

    def test_tiny_epsilon_keeps_only_the_optimum(self):
        # Unique optimal policy: rewards separate the actions clearly.
        mdp = MdpSpec(("s0", "s1"), ("good", "bad"),
                      [[[0.0, 1.0], [0.0, 1.0]],
                       [[0.0, 1.0], [0.0, 1.0]]],
                      [[1.0, 0.0], [0.0, 0.0]], 0.9, {1})
        members = enumerate_epsilon_optimal(mdp, SafetyQuery(1e-6))
        assert len(members) == 1
        assert members[0].table[0] == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_membership_matches_independent_recheck(self, seed):
        mdp = random_mdp(seed, n_states=3, n_actions=2)
        query = SafetyQuery(0.2)
        members = enumerate_epsilon_optimal(mdp, query)
        v_star = value_iteration(mdp, query.value_tol).values
        member_keys = {tuple(p.table) for p in members}
        from itertools import product
        for combo in product(range(2), repeat=2):
            actions = np.zeros(3, dtype=int)
            actions[mdp.nonsafe_indices] = combo
            policy = Policy.deterministic(actions)
            # Independent recheck: evaluate through the collapsed chain
            # rather than reusing enumerate's own solve.
            pi = policy.matrix(2)
            P = np.einsum("sa,sat->st", pi, mdp.transition)[:, None, :]
            r = np.einsum("sa,sa->s", pi, mdp.reward)[:, None]
            collapsed = MdpSpec(mdp.state_ids, ("only",), P, r,
                                mdp.discount, mdp.safe_set)
            v = value_iteration(collapsed, 1e-12).values
            should_belong = bool(np.all(v > v_star - query.epsilon))
            assert (tuple(policy.table) in member_keys) == should_belong

    def test_enumeration_cap(self):
        mdp = random_mdp(2, n_states=8, n_actions=3)
        with pytest.raises(ValueError, match="cap"):
            enumerate_epsilon_optimal(mdp, SafetyQuery(0.1), cap=10)

    def test_query_guards_epsilon_against_value_tolerance(self):
        with pytest.raises(ValueError, match="value_tol"):
            SafetyQuery(1e-10)


class TestCertify:
    def test_instant_shutdown(self):
        mdp = MdpSpec(("s0", "safe"), ("a0", "a1"),
                      [[[0.0, 1.0], [0.0, 1.0]],
                       [[0.0, 1.0], [0.0, 1.0]]],
                      [[0.0, 0.0], [0.0, 0.0]], 0.9, {1})
        for eps in (0.1, 1.0, 10.0):
            cert = certify_safety(mdp, SafetyQuery(eps), N_values=(1,))
            assert cert.worst_time == pytest.approx(1.0, abs=1e-12)
            assert cert.is_safe(1.0) and cert.is_safe_for[0][1]

    def test_optimal_policy_is_always_a_member(self):
        mdp = random_mdp(5, n_states=4)
        cert = certify_safety(mdp, SafetyQuery(0.05))
        greedy = greedy_policy(mdp, value_iteration(mdp))
        members = enumerate_epsilon_optimal(mdp, SafetyQuery(0.05))
        assert any(np.array_equal(p.table, greedy.table) for p in members)
        assert cert.epsilon_optimal_count == len(members)

    @pytest.mark.parametrize("seed", range(5))
    def test_worst_time_monotone_in_epsilon(self, seed):
        mdp = random_mdp(seed + 7, n_states=4)
        times = [certify_safety(mdp, SafetyQuery(eps)).worst_time
                 for eps in (0.05, 0.2, 0.8)]
        assert times[0] <= times[1] <= times[2]

    def test_boundary_straddling_policy_is_flagged(self):
        # The inferior action loses exactly epsilon of value, so its
        # membership decision sits on the threshold: flagged, not silently
        # classified either way.
        mdp = MdpSpec(("s0", "safe"), ("good", "meh"),
                      [[[0.0, 1.0], [0.0, 1.0]],
                       [[0.0, 1.0], [0.0, 1.0]]],
                      [[1.0, 0.6], [0.0, 0.0]], 0.9, {1})
        cert = certify_safety(mdp, SafetyQuery(0.4))
        assert cert.boundary_count == 1
        clear = certify_safety(mdp, SafetyQuery(0.5))
        assert clear.boundary_count == 0

    def test_empty_membership_raises_instead_of_reading_safe(self,
                                                             monkeypatch):
        # An optimal-value estimate above every policy's value leaves no
        # eps-optimal policy; the certificate used to read "safe" with
        # worst time 0 over no policy at all.
        from mdp_stability import safety
        mdp = random_mdp(2, n_states=3)
        high = ValueFunction(value_iteration(mdp).values + 1.0, "optimal", 0.0)
        monkeypatch.setattr(safety, "value_iteration", lambda *a: high)
        with pytest.raises(ValueError, match="vacuous"):
            certify_safety(mdp, SafetyQuery(0.5), N_values=(3,))

    def test_stochastic_probe_never_lowers_the_worst_time(self):
        mdp = random_mdp(3, n_states=4)
        plain = certify_safety(mdp, SafetyQuery(0.5))
        probed = certify_safety(mdp, SafetyQuery(0.5), stochastic_probe=25)
        assert probed.worst_time >= plain.worst_time - 1e-12

    def test_quotient_invariance_of_worst_time(self):
        config = BisimConfig.for_discount(0.5, tolerance=2.5e-10)
        from mdp_stability import bisim_quotient
        mdp = random_mdp(11, n_states=4, gamma=0.5)
        doubled = build_duplicated(mdp, 1, copies=2)
        quotient = bisim_quotient(doubled, 1e-9, config).quotient
        eps = 0.3
        t_big = certify_safety(doubled, SafetyQuery(eps)).worst_time
        t_small = certify_safety(quotient, SafetyQuery(eps)).worst_time
        if math.isinf(t_big) or math.isinf(t_small):
            assert t_big == t_small
        else:
            assert t_big == pytest.approx(t_small, abs=1e-8)


class TestStabilityInstance:
    CFG = BisimConfig(c_R=0.4, c_T=0.6, tolerance=1e-6)

    def test_identity_perturbation_holds(self):
        mdp = random_mdp(1, n_states=3)
        cert = certify_safety(mdp, SafetyQuery(0.3))
        if math.isinf(cert.worst_time):
            pytest.skip("fixture must be safe")
        report = verify_stability_instance(mdp, mdp, cert.worst_time, 0.3,
                                           self.CFG)
        assert report.d_h == 0.0
        assert report.base_safe and report.conclusion_holds

    def test_small_reward_jitter_holds(self):
        mdp = random_mdp(8, n_states=4)
        cert = certify_safety(mdp, SafetyQuery(0.3))
        if math.isinf(cert.worst_time):
            pytest.skip("fixture must be safe")
        rng = np.random.default_rng(0)
        jitter = rng.uniform(-1e-3, 1e-3, size=mdp.reward.shape)
        perturbed = mdp.with_rewards(mdp.reward + jitter)
        report = verify_stability_instance(mdp, perturbed, cert.worst_time,
                                           0.3, self.CFG)
        assert report.conclusion_holds

    def test_document_shape(self):
        mdp = random_mdp(1, n_states=3)
        cert = certify_safety(mdp, SafetyQuery(0.3))
        report = verify_stability_instance(mdp, mdp, cert.worst_time, 0.3,
                                           self.CFG)
        doc = report.to_document()
        assert {"d_H", "isolated", "conclusion_holds",
                "base_certificate"} <= set(doc)


def two_path_mdp(slow_reward=0.7):
    # Fast action shuts down immediately from the start state (reward 1);
    # the slow action walks a two-state corridor first (reward slow_reward).
    # The slow route becomes eps-optimal once eps exceeds 1 - slow_reward.
    P = np.zeros((4, 2, 4))
    P[0, 0, 3] = 1.0          # fast: straight to safety
    P[0, 1, 1] = 1.0          # slow: corridor
    P[1, :, 2] = 1.0
    P[2, :, 3] = 1.0
    P[3, :, 3] = 1.0
    r = np.zeros((4, 2))
    r[0, 0] = 1.0
    r[0, 1] = slow_reward
    return MdpSpec(("start", "mid", "end", "safe"), ("fast", "slow"),
                   P, r, 0.9, {3})


class TestFrontier:
    def test_single_action_frontier_is_constant(self):
        mdp = random_mdp(4, n_states=4, n_actions=1)
        rows = safety_frontier(mdp, [0.1, 0.5, 1.0])
        assert len({t for _, t in rows}) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone(self, seed):
        mdp = random_mdp(seed + 70, n_states=4)
        rows = safety_frontier(mdp, np.linspace(0.05, 1.0, 6))
        times = [t for _, t in rows]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_empty_membership_raises(self):
        mdp = random_mdp(4, n_states=4)
        assert len(safety_frontier(mdp, [0.1])) == 1
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError, match="vacuous"):
                safety_frontier(mdp, [eps, 0.1])

    def test_two_path_jump_located_by_bisection(self):
        mdp = two_path_mdp(slow_reward=0.7)
        gap = 0.3
        lo, hi = 0.05, 1.0
        assert safety_frontier(mdp, [lo])[0][1] < safety_frontier(
            mdp, [hi])[0][1]
        for _ in range(30):
            mid = (lo + hi) / 2
            if safety_frontier(mdp, [mid])[0][1] \
                    == safety_frontier(mdp, [lo])[0][1]:
                lo = mid
            else:
                hi = mid
        assert hi == pytest.approx(gap, abs=1e-6)
        # The jump is from the corridor walk (3 steps) vs direct exit.
        assert safety_frontier(mdp, [gap + 0.01])[0][1] == pytest.approx(3.0)


def sparse_mdp(seed, n_states=5, n_actions=2):
    """Each action moves to one or two random states, so some policies
    cycle among non-safe states forever; the last state is safe."""
    rng = np.random.default_rng(seed)
    P = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states - 1):
        for a in range(n_actions):
            targets = rng.choice(n_states, size=rng.integers(1, 3),
                                 replace=False)
            P[s, a, targets] = rng.dirichlet(np.ones(len(targets)))
    P[-1, :, -1] = 1.0
    r = rng.random((n_states, n_actions))
    r[-1] = 0.0
    return MdpSpec(tuple(f"s{i}" for i in range(n_states)),
                   tuple(f"a{j}" for j in range(n_actions)), P, r, 0.9,
                   {n_states - 1})


def boundary_mdp():
    # The inferior action loses exactly 0.4 of value.
    return MdpSpec(("s0", "safe"), ("good", "meh"),
                   [[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]],
                   [[1.0, 0.6], [0.0, 0.0]], 0.9, {1})


ORACLE_CASES = (
    [(f"dense{seed}", random_mdp(seed, n_states=5, n_actions=2), eps)
     for seed in (1, 2) for eps in (0.05, 0.3, 1.0)]
    + [(f"dense3x{seed}", random_mdp(seed, n_states=4, n_actions=3), 0.2)
       for seed in (3, 4)]
    + [(f"sparse{seed}", sparse_mdp(seed), eps)
       for seed in range(6) for eps in (0.1, 0.5, 2.0)]
    + [("boundary", boundary_mdp(), 0.4),
       ("inside-band", boundary_mdp(), 0.4 + 5e-10),
       ("two-path", two_path_mdp(), 0.3)]
)


class TestPolicyTableOracle:
    """The one policy table against the per-policy loops it replaced
    (tests/helpers.py)."""

    @pytest.mark.parametrize("name,mdp,eps", ORACLE_CASES,
                             ids=[c[0] + f"-{c[2]}" for c in ORACLE_CASES])
    @pytest.mark.parametrize("start", [None, "s0"])
    def test_certificate_matches_reference(self, name, mdp, eps, start):
        if start is not None:
            start = StartDistribution.point_mass(mdp.n_states, 0)
        query = SafetyQuery(eps, start)
        ref = reference_certify(mdp, query)
        cert = certify_safety(mdp, query)
        assert cert.worst_time == ref["worst_time"]
        assert tuple(cert.worst_policy.table) == ref["worst_policy"]
        assert cert.epsilon_optimal_count == ref["epsilon_optimal_count"]
        assert cert.boundary_count == ref["boundary_count"]
        assert cert.reachability == ref["reachability"]
        assert len(enumerate_epsilon_optimal(mdp, query)) \
            == cert.epsilon_optimal_count

    @pytest.mark.parametrize("name,mdp,eps", ORACLE_CASES,
                             ids=[c[0] + f"-{c[2]}" for c in ORACLE_CASES])
    def test_frontier_matches_reference(self, name, mdp, eps):
        epsilons = [eps * k for k in (0.5, 0.25, 2.0, 1.0)]
        assert safety_frontier(mdp, epsilons) \
            == reference_frontier(mdp, epsilons)

    @pytest.mark.parametrize("name,mdp,eps", ORACLE_CASES,
                             ids=[c[0] + f"-{c[2]}" for c in ORACLE_CASES])
    def test_enumeration_differs_only_inside_the_boundary_band(self, name,
                                                              mdp, eps):
        query = SafetyQuery(eps)
        new = {tuple(p.table) for p in enumerate_epsilon_optimal(mdp, query)}
        old = {tuple(p.table) for p in reference_enumerate(mdp, query)}
        v_star = value_iteration(mdp, query.value_tol).values
        for table in new ^ old:
            v = policy_evaluation(mdp, Policy.deterministic(table)).values
            assert abs(float(np.max(v_star - v)) - eps) \
                < 10.0 * query.value_tol

    def test_cases_cover_infinite_times_and_the_boundary_band(self):
        certs = [certify_safety(mdp, SafetyQuery(eps))
                 for _, mdp, eps in ORACLE_CASES]
        assert any(math.isinf(c.worst_time) for c in certs)
        assert any(math.isfinite(c.worst_time) for c in certs)
        assert any(not all(c.reachability) and any(c.reachability)
                   for c in certs)
        assert sum(c.boundary_count for c in certs) >= 3


def test_nan_reward_stops_value_iteration_at_the_first_sweep():
    mdp = random_mdp(1, n_states=4)
    reward = mdp.reward.copy()
    reward[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        certify_safety(mdp.with_rewards(reward), SafetyQuery(0.5))

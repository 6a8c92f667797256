import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import sys
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import (_reference_grid, enumerate_epsilon_optimal,
                     hitting_time, policy_evaluation, random_mdp,
                     reference_certify, reference_enumerate,
                     reference_expected_steps, reference_frontier,
                     reference_hitting_time, reference_value_iteration)
from mdp_stability import (BisimConfig, InducedChain, MdpSpec, Policy,
                           PlayingDeadParams, SafetyQuery, StartDistribution,
                           build_duplicated, build_playing_dead,
                           certify_safety, expected_steps, greedy_policy,
                           induce_chain, safety, safety_frontier,
                           value_iteration, ValueFunction,
                           verify_stability_instance)
from mdp_stability.cli import main, render_json
from mdp_stability.mdp import _chains, can_reach, policy_values


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

    def test_mass_on_safe_states_is_rejected(self):
        mdp = random_mdp(0, n_states=3)
        chain = induce_chain(mdp, Policy.deterministic([0, 0, 0]))
        w = np.zeros(3)
        w[2] = 1.0  # the safe state
        with pytest.raises(ValueError, match="safe"):
            hitting_time(chain, StartDistribution(w))

    @pytest.mark.parametrize("weights", [[math.nan, 1.0, 0.0],
                                         [math.inf, 1.0, 0.0]])
    def test_non_finite_start_weights_are_rejected(self, weights):
        # A NaN weight passes the sign and sum tests, and the hitting
        # time would skip it as zero mass.
        with pytest.raises(ValueError, match="finite"):
            StartDistribution(weights)

    @pytest.mark.parametrize("weights,message", [
        ([-0.5, 1.5, 0.0], "nonnegative"),
        ([0.5, 0.4, 0.0], "must sum to 1, got 0.9"),
        ([0.5, 0.5, 0.5], "must sum to 1, got 1.5")])
    def test_negative_or_off_sum_start_weights_are_rejected(self, weights,
                                                            message):
        with pytest.raises(ValueError, match=message):
            StartDistribution(weights)

    def test_certify_rejects_a_start_of_another_length(self):
        mdp = random_mdp(0, n_states=4)
        start = StartDistribution([0.5, 0.5])
        with pytest.raises(ValueError, match="start distribution dimension "
                           "mismatch"):
            certify_safety(mdp, SafetyQuery(0.5, start))

    @pytest.mark.parametrize("weights", [[0.5, 0.5, 0, 0, 0],
                                         [0.5, 0, 0, 0, 0.5]],
                             ids=["on-states", "on-no-state"])
    def test_certify_rejects_a_start_longer_than_the_mdp(self, weights):
        # Once certified a worst time of 24.17, and once reported mass on
        # safe states, though the fifth entry is no state.
        mdp = random_mdp(0, n_states=4)
        start = StartDistribution(weights)
        with pytest.raises(ValueError, match="start distribution dimension "
                           "mismatch"):
            certify_safety(mdp, SafetyQuery(0.5, start))

    @pytest.mark.parametrize("state", [-1, -4, 4, 7])
    def test_point_mass_rejects_a_state_outside_the_range(self, state):
        # Index -1 would put the mass on state 3.
        with pytest.raises(ValueError, match="outside"):
            StartDistribution.point_mass(4, state)

    @pytest.mark.parametrize("support", [[-1], [0, -1], [4], [1, 7]])
    def test_uniform_start_rejects_a_state_outside_the_range(self, support):
        with pytest.raises(ValueError, match="outside"):
            StartDistribution.uniform_over(4, support)

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


@st.composite
def chain_stacks(draw):
    """(stack of chains over MDP states 1..n, start) with 0 to 4 chain
    states and 0 to 2 leading axes.  A row's support is one (a point mass)
    to all of the chain states and the safe state; a chain may never
    absorb, so that every entry is infinite."""
    lead = draw(st.sampled_from([(), (1,), (5,), (0,), (2, 3)]))
    n = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    rows = np.zeros(lead + (n, n + 1))
    never = rng.random(lead) < 0.2
    for idx in np.ndindex(*lead, n):
        width = n if never[idx[:-1]] else n + 1
        if width == 0:
            continue
        k = rng.integers(1, width + 1)
        rows[idx + (rng.choice(width, size=k, replace=False),)] = \
            rng.dirichlet(np.ones(k))
    chains = InducedChain(rows[..., :n], rows[..., n], np.arange(1, n + 1))
    weights = np.zeros(n + 1)
    if n:
        support = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        weights[1 + support] = rng.dirichlet(np.ones(len(support)))
    else:
        weights[0] = 1.0
    return chains, StartDistribution(weights)


class TestStackedHittingTimes:
    @settings(max_examples=150, deadline=None)
    @given(case=chain_stacks())
    def test_stack_matches_the_single_chain_oracle(self, case):
        chains, start = case
        lead = chains.absorb.shape[:-1]
        t = expected_steps(chains)
        assert t.shape == chains.absorb.shape
        times = None if not chains.n_states else hitting_time(chains, start)
        if not lead:
            assert isinstance(times, (float, type(None)))
        for idx in np.ndindex(*lead):
            chain = InducedChain(chains.Q[idx], chains.absorb[idx],
                                 chains.index_map)
            assert np.array_equal(t[idx], reference_expected_steps(chain))
            if times is not None:
                assert np.asarray(times)[idx] \
                    == reference_hitting_time(chain, start)
        if not chains.n_states:
            with pytest.raises(ValueError, match="safe"):
                hitting_time(chains, start)


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
            pi = np.eye(2)[policy.table]
            P = np.einsum("sa,sat->st", pi, mdp.transition)[:, None, :]
            r = np.einsum("sa,sa->s", pi, mdp.reward)[:, None]
            collapsed = MdpSpec(mdp.state_ids, ("only",), P, r,
                                mdp.discount, mdp.safe_set)
            v = reference_value_iteration(collapsed, 1e-12).values
            should_belong = bool(np.all(v > v_star - query.epsilon))
            assert (tuple(policy.table) in member_keys) == should_belong

    def test_enumeration_cap(self):
        mdp = random_mdp(2, n_states=21, n_actions=2)
        with pytest.raises(ValueError, match="cap"):
            enumerate_epsilon_optimal(mdp, SafetyQuery(0.1))

    def test_query_guards_epsilon_against_value_tolerance(self):
        with pytest.raises(ValueError, match="value_tol"):
            SafetyQuery(1e-10)

    def test_query_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="value_tol"):
            SafetyQuery(math.nan)


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
        high = ValueFunction(value_iteration(mdp).values + 1.0, 0.0)
        monkeypatch.setattr(safety, "value_iteration", lambda *a: high)
        with pytest.raises(ValueError, match="vacuous"):
            certify_safety(mdp, SafetyQuery(0.5), N_values=(3,))

    @pytest.mark.parametrize("big_n", [math.nan, math.inf, -math.inf])
    def test_non_finite_n_is_rejected_before_enumerating(self, big_n,
                                                         monkeypatch):
        from mdp_stability import safety
        monkeypatch.setattr(safety, "value_iteration", None)
        with pytest.raises(ValueError, match="N must be finite"):
            certify_safety(random_mdp(2, n_states=3), SafetyQuery(0.5),
                           N_values=(3.0, big_n))

    def test_quotient_invariance_of_worst_time(self):
        from mdp_stability import bisim_quotient
        mdp = random_mdp(11, n_states=4, gamma=0.5)
        doubled = build_duplicated(mdp, 1, copies=2)
        quotient = bisim_quotient(doubled, 1e-9).quotient
        eps = 0.3
        t_big = certify_safety(doubled, SafetyQuery(eps)).worst_time
        t_small = certify_safety(quotient, SafetyQuery(eps)).worst_time
        if math.isinf(t_big) or math.isinf(t_small):
            assert t_big == t_small
        else:
            assert t_big == pytest.approx(t_small, abs=1e-8)


def many_actions_mdp(n_actions=300):
    """One non-safe state with ``n_actions`` actions, action a leaking to
    the safe state with a probability that falls with a, at rewards that
    keep the values close, so that the slowest policies take the largest
    action indices."""
    rng = np.random.default_rng(3)
    leak = 0.5 * (1 - np.arange(n_actions) / n_actions) + 1e-3
    P = np.zeros((2, n_actions, 2))
    P[0, :, 0], P[0, :, 1] = 1 - leak, leak
    P[1, :, 1] = 1.0
    r = np.zeros((2, n_actions))
    r[0] = (1 - 0.9 * (1 - leak)) * (1 + 0.1 * rng.random(n_actions))
    return MdpSpec(("s0", "safe"), tuple(f"a{a}" for a in range(n_actions)),
                   P, r, 0.9, {1})


class TestManyActions:
    """Action tables take the smallest unsigned type that holds every
    action index: two bytes past 256 actions, where one would wrap."""

    @pytest.mark.parametrize("block", [None, 7])
    def test_certificate_matches_the_reference(self, block):
        mdp = many_actions_mdp()
        assert mdp.n_actions ** len(mdp.nonsafe_indices) <= safety.POLICY_CAP
        with table_under_test(mdp, block):
            [(actions, *_)] = [next(safety._policy_table(mdp, 1.0))]
        assert actions.dtype == np.uint16
        for eps in (0.02, 1.0):
            for start in (None, StartDistribution.point_mass(2, 0)):
                query = SafetyQuery(eps, start)
                ref = reference_certify(mdp, query)
                with table_under_test(mdp, block):
                    cert = certify_safety(mdp, query)
                assert cert.worst_time == ref["worst_time"]
                assert tuple(cert.worst_policy.table) == ref["worst_policy"]
                assert cert.epsilon_optimal_count \
                    == ref["epsilon_optimal_count"]
                assert cert.reachability == ref["reachability"]
        assert cert.worst_policy.table[0] == mdp.n_actions - 1
        document = json.loads(render_json(cert.to_document()))
        assert document["worst_policy_actions"] == [mdp.n_actions - 1, 0]
        assert all(type(a) is int for a in document["worst_policy_actions"])


class TestStabilityInstance:
    CFG = BisimConfig(c_R=0.4, c_T=0.6, tolerance=1e-6)

    @staticmethod
    def base(mdp):
        """The certificate of mdp at (N, 0.3), with N its worst time."""
        N = certify_safety(mdp, SafetyQuery(0.3)).worst_time
        if math.isinf(N):
            pytest.skip("fixture must be safe")
        return certify_safety(mdp, SafetyQuery(0.3), N_values=(N,))

    def test_identity_perturbation_holds(self):
        mdp = random_mdp(1, n_states=3)
        base = self.base(mdp)
        report = verify_stability_instance(mdp, mdp, self.CFG, base)
        assert report.d_h == 0.0
        assert report.base_safe and report.conclusion_holds

    def test_small_reward_jitter_holds(self):
        mdp = random_mdp(8, n_states=4)
        base = self.base(mdp)
        rng = np.random.default_rng(0)
        jitter = rng.uniform(-1e-3, 1e-3, size=mdp.reward.shape)
        perturbed = mdp.with_rewards(mdp.reward + jitter)
        report = verify_stability_instance(mdp, perturbed, self.CFG, base)
        assert report.conclusion_holds

    def test_document_shape(self):
        mdp = random_mdp(1, n_states=3)
        base = self.base(mdp)
        report = verify_stability_instance(mdp, mdp, self.CFG, base)
        doc = report.to_document()
        assert {"d_H", "isolated", "conclusion_holds",
                "base_certificate"} <= set(doc)

    @pytest.mark.parametrize("N,safe", [(0.5, False), (1e6, True)])
    def test_n_and_epsilon_are_read_from_the_base(self, N, safe):
        mdp = random_mdp(1, n_states=3)
        base = certify_safety(mdp, SafetyQuery(0.3), N_values=(N,))
        report = verify_stability_instance(mdp, mdp, self.CFG, base)
        assert (report.N, report.epsilon, report.base_safe) == (N, 0.3, safe)
        assert report.perturbed_certificate.epsilon == 0.15
        assert report.perturbed_certificate.is_safe_for[0][0] == N + 1.0

    @pytest.mark.parametrize("N_values", [(), (3.0, 4.0)])
    def test_rejects_a_base_not_taken_at_one_n(self, N_values):
        mdp = random_mdp(1, n_states=3)
        base = certify_safety(mdp, SafetyQuery(0.3), N_values=N_values)
        with pytest.raises(ValueError, match="at one N, got "
                           f"{len(N_values)}"):
            verify_stability_instance(mdp, mdp, self.CFG, base)


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

    def test_empty_membership_raises(self, monkeypatch):
        # An optimal-value estimate above every policy's value leaves the
        # smaller epsilon with no member.
        mdp = random_mdp(4, n_states=4)
        assert len(safety_frontier(mdp, [0.1])) == 1
        high = ValueFunction(value_iteration(mdp).values + 0.5, 0.0)
        monkeypatch.setattr(safety, "value_iteration", lambda *a: high)
        assert len(safety_frontier(mdp, [1.0])) == 1
        with pytest.raises(ValueError, match="vacuous"):
            safety_frontier(mdp, [1.0, 0.1])

    @pytest.mark.parametrize("eps", [0.0, -1.0, 1e-12, math.inf, math.nan])
    def test_epsilon_that_no_query_accepts_raises(self, eps, monkeypatch):
        # The guard of certify_safety, before any policy is enumerated.
        monkeypatch.setattr(safety, "value_iteration", None)
        with pytest.raises(ValueError, match=f"exceed 10 \\* value_tol, "
                                             f"got {eps!r}"):
            safety_frontier(random_mdp(4, n_states=4), [0.1, eps])

    def test_empty_epsilon_list_raises(self):
        with pytest.raises(ValueError, match="vacuous"):
            safety_frontier(random_mdp(4, n_states=4), [])

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
            v = policy_evaluation(mdp, Policy.deterministic(table))
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


TOL = SafetyQuery.value_tol


def grid_losses(mdp):
    """(actions, loss) of every deterministic policy in grid order, one
    policy_evaluation each, against the oracle's V*."""
    v_star = reference_value_iteration(mdp, TOL).values
    return [(tuple(policy.table),
             float(np.max(v_star - policy_evaluation(mdp, policy))))
            for policy in _reference_grid(mdp)]


@st.composite
def table_cases(draw):
    """(mdp, policy index, block) with 1-5 non-safe states and 1-3
    actions, and a block of None for the default size.  Rows have one to
    all states in their support (point masses included), so some policies
    cycle among non-safe states forever; some actions share another
    action's dynamics, which ties hitting times; and a state may be
    duplicated."""
    n_actions = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6))
    assume(n_actions ** (n - 1) <= 243)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    P = np.zeros((n, n_actions, n))
    for s in range(n - 1):
        for a in range(n_actions):
            targets = rng.choice(n, size=rng.integers(1, n + 1),
                                 replace=False)
            P[s, a, targets] = rng.dirichlet(np.ones(len(targets)))
        if n_actions > 1 and rng.random() < 0.3:
            P[s, 1] = P[s, 0]
    P[-1, :, -1] = 1.0
    r = rng.random((n, n_actions)) * draw(st.sampled_from([0.1, 1.0, 30.0]))
    r[-1] = 0.0
    mdp = MdpSpec(tuple(f"s{i}" for i in range(n)),
                  tuple(f"a{j}" for j in range(n_actions)), P, r,
                  draw(st.sampled_from([0.5, 0.9])), {n - 1})
    if draw(st.booleans()) and n_actions ** n <= 243:
        mdp = build_duplicated(mdp, draw(st.integers(0, n - 2)), copies=2)
    index = draw(st.integers(0, n_actions ** len(mdp.nonsafe_indices) - 1))
    return mdp, index, draw(st.sampled_from([1, 3, 7, None]))


@st.composite
def wide_table_cases(draw):
    """(mdp, policy index, block) beyond table_cases: one to three safe
    states at any index, or every state safe (the one policy then takes
    V*'s greedy action everywhere); discounts up to 0.999; rewards scaled
    up to 1e6; and three actions, of which one, two or all three are
    near-optimal at each non-safe state.  The others lose more than any
    policy of near-optimal actions, and the index names such a policy, so
    that MacQueen's test keeps one, two or three actions at the states of
    one table."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if rng.random() < 0.1:
        safe = list(range(n))
    else:
        safe = sorted(rng.choice(n, rng.integers(1, min(3, n - 1) + 1),
                                 replace=False).tolist())
    nonsafe = [s for s in range(n) if s not in safe]
    g = draw(st.sampled_from([0.5, 0.9, 0.99, 0.999]))
    scale = draw(st.sampled_from([1.0, 30.0, 1e3, 1e6]))
    P = np.zeros((n, 3, n))
    for s in range(n):
        dests = safe if s in safe else range(n)
        for a in range(3):
            targets = rng.choice(dests, size=rng.integers(1, len(dests) + 1),
                                 replace=False)
            P[s, a, targets] = rng.dirichlet(np.ones(len(targets)))
    # Near-optimal rewards lie in [0, scale), so a policy of them loses
    # less than scale / (1 - g); a far action loses at least twice that.
    r = rng.random((n, 3)) * scale
    if nonsafe:
        # Rewards inside the safe set would only slow the oracle's value
        # iteration; with every state safe they pick the one policy.
        r[safe] = 0.0
    good = [rng.choice(3, rng.integers(1, 4), replace=False) for _ in nonsafe]
    for s, acts in zip(nonsafe, good):
        far = np.setdiff1d(np.arange(3), acts)
        r[s, far] = -3.0 * scale / (1.0 - g)
    mdp = MdpSpec(tuple(f"s{i}" for i in range(n)), ("a0", "a1", "a2"), P, r,
                  g, set(safe))
    choice = [int(rng.choice(acts)) for acts in good]
    index = int(np.ravel_multi_index(choice, (3,) * len(choice))) \
        if choice else 0
    return mdp, index, draw(st.sampled_from([1, 3, 7, None]))


@contextlib.contextmanager
def one_optimum(mdp):
    """Patches every V* of ``mdp`` that the table (under table_under_test)
    and the reference loops take to one run of the oracle's value
    iteration, which takes up to a second at discount 0.999."""
    found = reference_value_iteration(mdp, TOL)

    def solve(other, tol=TOL):
        if other is mdp and tol == TOL:
            return found
        return helpers.reference_value_iteration(other, tol)

    with mock.patch.object(helpers, "reference_value_iteration", solve), \
            mock.patch.dict(globals(), reference_value_iteration=solve):
        yield


def small_blocks(mdp, block):
    """The safety settings that put the table of ``mdp`` into blocks of
    ``block`` policies (None keeps BLOCK_BYTES and the path rule).  A small
    block stands for a large table: a piece's hitting times go to the tree
    when it holds more members than a block, so that small tables take
    both paths, as the tables where the tree pays do."""
    if block is None:
        return {"BLOCK_BYTES": safety.BLOCK_BYTES}
    return {"BLOCK_BYTES": block * 8 * mdp.n_states ** 2,
            "_tree_pays": lambda n, leaves, members: members > block}


def table_under_test(mdp, block):
    """Patches the table into blocks of ``block`` policies of ``mdp``
    (small_blocks) that start from the oracle's V*: a policy whose loss
    sits on epsilon is decided alike by the table and the reference loops
    only on the same V*."""
    return mock.patch.multiple(safety, **small_blocks(mdp, block),
                               value_iteration=reference_value_iteration)


@contextlib.contextmanager
def stack_sizes():
    """Collects the number of policies in every stacked solve of the
    safety module, by policy_values and by expected_steps, into the list
    it yields."""
    sizes = []
    with mock.patch.object(safety, "policy_values",
                           wraps=safety.policy_values) as values, \
            mock.patch.object(safety, "expected_steps",
                              wraps=safety.expected_steps) as steps:
        yield sizes
    sizes += [len(call.args[1]) for call in values.call_args_list]
    sizes += [len(call.args[0].Q) for call in steps.call_args_list]


class TestBlockBudget:
    """The policy table comes in pieces of at most a batch of _table_sizes
    (one piece for a table of at most a batch), and every stacked solve of
    the table and of the member scan holds at most BLOCK_BYTES of n-by-n
    float matrices, or one policy when a single one is larger."""

    @settings(max_examples=40, deadline=None)
    @given(case=table_cases(),
           budget=st.sampled_from([0, 1, 8 * 49, 8 * 49 * 3 + 7, 1 << 12]))
    def test_every_block_fits_the_budget(self, case, budget):
        mdp, _, _ = case
        n = mdp.n_states
        with mock.patch.object(safety, "BLOCK_BYTES", budget), \
                stack_sizes() as stacks:
            sizes = [len(loss)
                     for _, loss, _, _ in safety._policy_table(mdp, 5.0)]
            certify_safety(mdp, SafetyQuery(5.0))
            block, batch = safety._table_sizes(n)
        full = max(1, budget // (8 * n ** 2))
        assert block == full
        assert all(size <= full for size in stacks)
        # Every piece holds at most a batch, and a table of at most a
        # batch is one piece.
        assert all(size <= batch for size in sizes)
        assert len(sizes) == 1 or sum(sizes) > batch

    @pytest.mark.parametrize("mdp", [random_mdp(5, n_states=13, n_actions=2),
                                     sparse_mdp(0, n_states=13)],
                             ids=["tree", "not-absorbed"])
    def test_default_budget_at_thirteen_states(self, mdp):
        with stack_sizes() as stacks:
            sizes = [len(loss)
                     for _, loss, *_ in safety._policy_table(mdp, 1e3)]
            certify_safety(mdp, SafetyQuery(1e3))
        # One piece: its values take 13 * 4096 floats, under 2
        # BLOCK_BYTES.
        assert sizes == [4096]
        assert stacks and max(stacks) <= 193
        assert 193 * 13 ** 2 * 8 <= safety.BLOCK_BYTES

    def test_table_memory_stays_within_a_few_blocks(self):
        # 2^16 policies over 16 non-safe states: their action tables alone
        # take 34 times BLOCK_BYTES at once, and their values as much.
        mdp = random_mdp(1, n_states=17, n_actions=2)
        assert len(mdp.nonsafe_indices) == 16
        list(safety._policy_table(mdp, 1e6))
        tracemalloc.start()
        try:
            count = sum(len(loss)
                        for _, loss, _, _ in safety._policy_table(mdp, 1e6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2 ** 16
        # The peak of a piece that _table_sizes derives, the piece before
        # it still held.
        assert peak < 6 * safety.BLOCK_BYTES


@st.composite
def charge_cases(draw):
    """(chains, steps, start) of every policy of a table case, under a
    point-mass or a spread start on the non-safe states.  Policies that
    differ only in an action sharing another's dynamics tie exactly, and
    policies that cycle among non-safe states have infinite steps."""
    mdp, _, _ = draw(table_cases())
    actions = np.array([p.table for p in _reference_grid(mdp)])
    chains = _chains(mdp, actions)
    steps = expected_steps(chains)
    keep = [int(s) for s in mdp.nonsafe_indices]
    support = draw(st.lists(st.sampled_from(keep), min_size=1,
                            max_size=len(keep), unique=True))
    if draw(st.booleans()):
        return chains, steps, StartDistribution.uniform_over(mdp.n_states,
                                                             support)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    w = np.zeros(mdp.n_states)
    w[support] = rng.dirichlet(np.ones(len(support)))
    return chains, steps, StartDistribution(w)


@st.composite
def near_tie_stacks(draw):
    """(chains, steps, start): rows that permute one row of expected steps,
    or move its entries by an ulp, under a uniform start.  Their charges
    are equal or an ulp apart, so the stacked product and start_charge's
    dots may round them into another order; some rows carry an infinite
    entry."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    base = 1.0 + rng.random(n) * draw(st.sampled_from([1.0, 1e3, 1e9]))
    steps = np.array([rng.permutation(base)
                      for _ in range(rng.integers(1, 61))])
    moved = rng.random(steps.shape) < 0.3
    steps[moved] = np.nextafter(steps[moved], np.where(
        rng.random(int(moved.sum())) < 0.5, 0.0, math.inf))
    steps[rng.random(len(steps)) < 0.1, rng.integers(n)] = math.inf
    chains = InducedChain(np.zeros((len(steps), n, n)),
                          np.ones((len(steps), n)), np.arange(n))
    support = rng.choice(n, rng.integers(1, n + 1), replace=False)
    return chains, steps, StartDistribution.uniform_over(n, support)


def scan_pick(chains, steps, start):
    """(index, charge) of the first slowest row of ``steps``, the members'
    expected steps of one block, as the member scan picks it."""
    index = np.arange(len(chains.Q))[:, None]
    block = index, np.zeros(len(index)), steps, np.zeros(len(index))
    with mock.patch.object(safety, "_policy_table",
                           return_value=iter([block])):
        # The chains' MDP has the start's length.
        [(charge, actions, _, _)], _, _ = safety._scan(
            SimpleNamespace(nonsafe_indices=chains.index_map,
                            n_states=len(start.weights)), [1.0], start)
    return int(actions[0]), charge


class TestStackedStartCharge:
    """The scan's pick by one stacked product and bounds against
    start_charge's first maximum over the whole block."""

    def assert_first_maximum(self, chains, steps, start):
        charges = safety.start_charge(chains, start, steps)
        k, time = scan_pick(chains, steps, start)
        assert k == int(np.argmax(charges))
        assert time == charges[k]

    @settings(max_examples=60, deadline=None)
    @given(case=charge_cases())
    def test_policy_blocks(self, case):
        self.assert_first_maximum(*case)

    @settings(max_examples=200, deadline=None)
    @given(case=near_tie_stacks())
    def test_near_ties(self, case):
        self.assert_first_maximum(*case)

    def test_exact_ties_and_infinite_rows_pick_the_first(self):
        steps = np.array([[2.0, 3.0], [3.0, 2.0], [3.0, 2.0], [1.0, 1.0]])
        chains = InducedChain(np.zeros((4, 2, 2)), np.ones((4, 2)),
                              np.arange(2))
        start = StartDistribution.uniform_over(2, [0, 1])
        assert scan_pick(chains, steps, start) == (0, 2.5)
        steps[1:3, 1] = math.inf
        assert scan_pick(chains, steps, start) == (1, math.inf)

    def test_safe_start_raises_before_the_product(self):
        # Steps of None would fail the product with a TypeError.
        mdp = random_mdp(2, n_states=4)
        chains = _chains(mdp, np.zeros((3, 4), dtype=int))
        start = StartDistribution.point_mass(4, int(mdp.safe_indices[0]))
        with pytest.raises(ValueError, match="mass on safe states"):
            scan_pick(chains, None, start)


@st.composite
def safe_reward_cases(draw):
    """(mdp, class index, block): two or three safe states, at any index,
    whose rewards and moves inside the safe set differ by action, beside
    one to three non-safe states, with two or three actions."""
    n_actions = draw(st.integers(2, 3))
    n_safe, n_rest = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    n = n_safe + n_rest
    assume(n_actions ** n <= 243)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    safe = rng.choice(n, n_safe, replace=False).tolist()
    P = np.zeros((n, n_actions, n))
    for s in range(n):
        dests = safe if s in safe else range(n)
        for a in range(n_actions):
            targets = rng.choice(dests, size=rng.integers(1, len(dests) + 1),
                                 replace=False)
            P[s, a, targets] = rng.dirichlet(np.ones(len(targets)))
    mdp = MdpSpec(tuple(f"s{i}" for i in range(n)),
                  tuple(f"a{j}" for j in range(n_actions)), P,
                  rng.random((n, n_actions)),
                  draw(st.sampled_from([0.5, 0.9])), set(safe))
    return (mdp, draw(st.integers(0, n_actions ** n_rest - 1)),
            draw(st.sampled_from([1, 3, None])))


class TestSafeStateActions:
    """Safe states whose actions matter to the value: the certificate
    against a brute force over whole action tables, safe actions
    included, that keeps each class's least loss."""

    @settings(max_examples=80, deadline=None)
    @given(case=safe_reward_cases(), offset=st.sampled_from([-5.0, 5.0]))
    def test_certificate_matches_brute_force(self, case, offset):
        mdp, index, block = case
        # V* by enumeration: value iteration needs tens of thousands of
        # sweeps where rewarding safe states recur at a discount near 1.
        v_star = helpers.best_value_by_enumeration(mdp)
        classes = helpers.reference_classes(mdp, v_star)
        eps = list(classes.values())[index] + offset * TOL
        assume(eps > 10.0 * TOL)
        members = [key for key, loss in classes.items() if loss < eps]
        with mock.patch.multiple(
                safety, **small_blocks(mdp, block),
                value_iteration=lambda *_: ValueFunction(v_star, 0.0)):
            if not members:
                with pytest.raises(ValueError, match="vacuous"):
                    certify_safety(mdp, SafetyQuery(eps))
                return
            cert = certify_safety(mdp, SafetyQuery(eps))
        nonsafe = mdp.nonsafe_indices
        greedy = np.argmax(mdp.reward + mdp.discount * np.einsum(
            "sat,t->sa", mdp.transition, v_star), axis=1)
        tables = [greedy.copy() for _ in members]
        for table, key in zip(tables, members):
            table[nonsafe] = key
        times = [np.max(reference_expected_steps(induce_chain(
            mdp, Policy.deterministic(table))), initial=0.0)
            for table in tables]
        k = int(np.argmax(times))
        assert cert.epsilon_optimal_count == len(members)
        assert cert.boundary_count == sum(
            abs(eps - loss) < 10.0 * TOL for loss in classes.values())
        assert cert.worst_time == times[k]
        assert np.array_equal(cert.worst_policy.table, tables[k])
        # V*'s greedy actions at the safe states give the class its least
        # loss.
        assert float(np.max(v_star - policy_evaluation(
            mdp, cert.worst_policy))) == pytest.approx(
                classes[members[k]], abs=1e-12)


    def test_every_state_safe(self):
        # No non-safe state: the one policy takes V*'s greedy action, 1 at
        # s0 (10 against 9.47 for action 0), and needs no step.
        P = np.zeros((2, 2, 2))
        P[0, 0, 1] = P[0, 1, 0] = P[1, :, 0] = 1.0
        mdp = MdpSpec(("s0", "s1"), ("a0", "a1"), P,
                      np.array([[0.0, 1.0], [2.0, 0.5]]), 0.9, {0, 1})
        cert = certify_safety(mdp, SafetyQuery(0.1))
        assert cert.epsilon_optimal_count == 1
        assert cert.boundary_count == 0
        assert cert.worst_time == 0.0
        assert cert.worst_policy.table.tolist() == [1, 0]
        assert cert.worst_policy_times.shape == (0,)
        assert cert.reachability == (True,)
        with pytest.raises(ValueError, match="mass on safe states"):
            certify_safety(mdp, SafetyQuery(
                0.1, StartDistribution.point_mass(2, 0)))
        assert safety_frontier(mdp, [0.2, 0.1]) == [(0.1, 0.0), (0.2, 0.0)]


class TestPrunedStackedTable:
    """The pruned, stacked policy table against the per-policy loops of
    tests/helpers.py, with epsilon on one policy's exact loss and
    5*value_tol either side of it, so that membership and the boundary
    band are decided by that policy."""

    @staticmethod
    def case_epsilon(mdp, index, offset):
        """eps on the index-th policy's loss, offset*value_tol either side.
        With every state safe the one policy's loss is the oracle's
        rounding of 0, below 0 where its V* falls short, so eps is taken
        60*value_tol above the larger of that loss and 0: a frontier's
        eps/4 has to exceed 10*value_tol."""
        loss = grid_losses(mdp)[index][1]
        if not len(mdp.nonsafe_indices):
            return max(loss, 0.0) + (offset + 60.0) * TOL
        return loss + offset * TOL

    def check_certificate(self, case, offset, start):
        mdp, index, block = case
        eps = self.case_epsilon(mdp, index, offset)
        assume(eps > 10.0 * TOL)
        query = SafetyQuery(eps, StartDistribution.point_mass(mdp.n_states, 0)
                            if start else None)
        if not any(loss < eps for _, loss in grid_losses(mdp)):
            with table_under_test(mdp, block), pytest.raises(
                    ValueError, match="vacuous"):
                certify_safety(mdp, query)
            return
        if start and 0 in mdp.safe_set:
            with table_under_test(mdp, block), pytest.raises(
                    ValueError, match="mass on safe states"):
                certify_safety(mdp, query)
            return
        ref = reference_certify(mdp, query)
        with table_under_test(mdp, block):
            cert = certify_safety(mdp, query)
            members = enumerate_epsilon_optimal(mdp, query)
        assert cert.worst_time == ref["worst_time"]
        assert tuple(cert.worst_policy.table) == ref["worst_policy"]
        assert cert.epsilon_optimal_count == ref["epsilon_optimal_count"]
        assert cert.boundary_count == ref["boundary_count"]
        assert cert.reachability == ref["reachability"]
        chain = induce_chain(mdp, cert.worst_policy)
        assert np.array_equal(cert.worst_policy_times, expected_steps(chain))
        assert [tuple(p.table) for p in members] == [
            actions for actions, loss in grid_losses(mdp) if loss < eps]

    def check_frontier(self, case, offset):
        mdp, index, block = case
        eps = self.case_epsilon(mdp, index, offset)
        epsilons = [eps / 4, eps / 2, eps]
        ref_empty = not any(loss < min(epsilons)
                            for _, loss in grid_losses(mdp))
        with table_under_test(mdp, block):
            if min(epsilons) <= 10.0 * TOL:
                with pytest.raises(ValueError, match="exceed 10"):
                    safety_frontier(mdp, epsilons)
                return
            if ref_empty:
                with pytest.raises(ValueError, match="vacuous"):
                    safety_frontier(mdp, epsilons)
                return
            rows = safety_frontier(mdp, epsilons)
        assert rows == reference_frontier(mdp, epsilons)

    def check_losses_and_pruning(self, case, offset):
        """Every loss the table yields is policy_values' loss when the
        table evaluated it again there (always for a loss on epsilon), and
        lies within the tree's window of it otherwise; every policy left
        out is outside the band."""
        mdp, index, block = case
        rows = grid_losses(mdp)
        eps = rows[index][1] + offset * TOL
        with table_under_test(mdp, block), mock.patch.object(
                safety, "policy_values",
                wraps=safety.policy_values) as exact:
            table = [(tuple(a), float(loss))
                     for actions, losses, *_ in safety._policy_table(mdp, eps)
                     for a, loss in zip(actions, losses)]
        rechecked = {tuple(a) for call in exact.call_args_list
                     for a in call.args[1]}
        window = safety._tree_window(mdp, [eps])
        kept = dict(table)
        assert [a for a, _ in table] == [a for a, _ in rows if a in kept]
        if offset == 0.0:
            assert rows[index][0] in rechecked
        for actions, loss in rows:
            if actions in rechecked:
                assert kept[actions] == loss
            elif actions in kept:
                assert abs(kept[actions] - loss) <= window
            else:
                assert loss >= eps + 10.0 * TOL

    @settings(max_examples=80, deadline=None)
    @given(case=table_cases(), offset=st.sampled_from([-5.0, 0.0, 5.0]),
           start=st.booleans())
    def test_certificate_matches_reference(self, case, offset, start):
        with one_optimum(case[0]):
            self.check_certificate(case, offset, start)

    @settings(max_examples=60, deadline=None)
    @given(case=wide_table_cases(), offset=st.sampled_from([-5.0, 0.0, 5.0]),
           start=st.booleans())
    def test_wide_certificate_matches_reference(self, case, offset, start):
        with one_optimum(case[0]):
            self.check_certificate(case, offset, start)

    @settings(max_examples=40, deadline=None)
    @given(case=table_cases(), offset=st.sampled_from([-5.0, 0.0, 5.0]))
    def test_frontier_matches_reference(self, case, offset):
        with one_optimum(case[0]):
            self.check_frontier(case, offset)

    @settings(max_examples=40, deadline=None)
    @given(case=wide_table_cases(), offset=st.sampled_from([-5.0, 0.0, 5.0]))
    def test_wide_frontier_matches_reference(self, case, offset):
        with one_optimum(case[0]):
            self.check_frontier(case, offset)

    @settings(max_examples=80, deadline=None)
    @given(case=table_cases(), offset=st.sampled_from([-5.0, 0.0, 5.0]))
    def test_every_pruned_policy_is_outside_the_band(self, case, offset):
        with one_optimum(case[0]):
            self.check_losses_and_pruning(case, offset)

    @settings(max_examples=60, deadline=None)
    @given(case=wide_table_cases(), offset=st.sampled_from([-5.0, 0.0, 5.0]))
    def test_wide_pruned_policies_are_outside_the_band(self, case, offset):
        with one_optimum(case[0]):
            self.check_losses_and_pruning(case, offset)

    def test_pruning_leaves_out_policies(self):
        # Dense 9-state MDP at a small epsilon: most of the 256 policies
        # take an action that MacQueen's test rules out.
        mdp = random_mdp(3, n_states=9, n_actions=2)
        kept = sum(len(loss)
                   for _, loss, _, _ in safety._policy_table(mdp, 0.05))
        assert 0 < kept < 2 ** 8 // 4
        assert len(enumerate_epsilon_optimal(mdp, SafetyQuery(0.05))) \
            == sum(loss < 0.05 for _, loss in grid_losses(mdp))

    def test_failed_stacked_solve_falls_back_to_expected_steps(self):
        # Every policy of a sparse MDP, so that finite and infinite chains
        # share the stack; with the stacked solve failing, each chain is
        # solved on its own and gets its values.
        mdp = sparse_mdp(2)
        actions = np.array([a for a, _ in grid_losses(mdp)])
        chains = _chains(mdp, actions)
        solve = np.linalg.solve

        def failing(a, b):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("forced")
            return solve(a, b)

        t = expected_steps(chains)
        with mock.patch.object(np.linalg, "solve", failing):
            fallback = expected_steps(chains)
        for row, steps, back in zip(actions, t, fallback):
            chain = induce_chain(mdp, Policy.deterministic(row))
            assert np.array_equal(steps, expected_steps(chain))
            assert np.array_equal(back, expected_steps(chain))
            assert np.array_equal(back, reference_expected_steps(chain))
        assert np.any(np.isinf(t)) and np.any(np.all(np.isfinite(t), axis=1))

    def test_singular_chain_in_a_stack_names_its_spectral_radius(self):
        # The first chain is absorbed from state 0 with probability 1e-17,
        # which rounds away in I - Q: the structural test finds every state
        # finite, and the solve is singular.
        Q = np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.5], [0.0, 0.5]]])
        chains = InducedChain(Q, np.array([[1e-17, 0.0], [0.5, 0.5]]),
                              np.array([0, 1]))
        for chain in (chains, InducedChain(Q[0], chains.absorb[0],
                                           chains.index_map)):
            with pytest.raises(RuntimeError, match="spectral radius of the "
                                                   "transient block is 1"):
                expected_steps(chain)


def every_policy_absorbed(mdp, survivors):
    """Whether each policy of the product of ``survivors`` reaches the safe
    set from every state, one policy and one closure at a time."""
    safe = np.zeros(mdp.n_states, dtype=bool)
    safe[mdp.safe_indices] = True
    states = np.arange(mdp.n_states)
    for choice in itertools.product(*survivors):
        actions = np.zeros(mdp.n_states, dtype=int)
        actions[mdp.nonsafe_indices] = choice
        if not np.all(can_reach(mdp.transition[states, actions] > 0, safe)):
            return False
    return True


def some_survivors(mdp, seed):
    """Every action at each non-safe state, or a random non-empty subset."""
    rng = np.random.default_rng(seed)
    if rng.random() < 0.3:
        return [np.arange(mdp.n_actions) for _ in mdp.nonsafe_indices]
    return [np.sort(rng.choice(mdp.n_actions, rng.integers(1, mdp.n_actions
                                                           + 1),
                               replace=False))
            for _ in mdp.nonsafe_indices]


def self_loop_mdp():
    # s0 stays put under "stay" and shuts down under "go"; s1 only drifts.
    P = np.zeros((3, 2, 3))
    P[0, 0, 0] = 1.0
    P[0, 1, 2] = 1.0
    P[1, :, 0] = 0.5
    P[1, :, 2] = 0.5
    P[2, :, 2] = 1.0
    return MdpSpec(("s0", "s1", "safe"), ("stay", "go"), P,
                   np.zeros((3, 2)), 0.9, {2})


class TestProductAbsorption:
    """safety._absorbed, one greatest fixed point over the product, against
    a reachability closure per policy."""

    @settings(max_examples=80, deadline=None)
    @given(case=table_cases(), seed=st.integers(0, 2 ** 16))
    def test_table_cases(self, case, seed):
        mdp = case[0]
        survivors = some_survivors(mdp, seed)
        assert safety._absorbed(mdp, survivors) \
            == every_policy_absorbed(mdp, survivors)

    @settings(max_examples=80, deadline=None)
    @given(case=wide_table_cases(), seed=st.integers(0, 2 ** 16))
    def test_wide_table_cases(self, case, seed):
        mdp = case[0]
        survivors = some_survivors(mdp, seed)
        assert safety._absorbed(mdp, survivors) \
            == every_policy_absorbed(mdp, survivors)

    @pytest.mark.parametrize("delta", [1e-5, 1e-3])
    def test_playing_dead(self, delta):
        base = MdpSpec(("work", "wrap", "shutdown"), ("go", "stay"),
                       [[[0, 1, 0], [1, 0, 0]], [[0, 0, 1], [0, 1, 0]],
                        [[0, 0, 1], [0, 0, 1]]],
                       [[1.0, 0.0], [0.6, 0.0], [0.0, 0.0]], 0.9, {2})
        mdp = build_playing_dead(PlayingDeadParams(
            base=base, delta=delta, escape_state=0, escape_action=0,
            epsilon=0.5))
        for survivors in itertools.product([[0], [1], [0, 1]], repeat=3):
            survivors = [np.array(acts) for acts in survivors]
            assert safety._absorbed(mdp, survivors) \
                == every_policy_absorbed(mdp, survivors)

    def test_self_loop(self):
        mdp = self_loop_mdp()
        assert not safety._absorbed(mdp, [np.array([0, 1]), np.array([0])])
        assert safety._absorbed(mdp, [np.array([1]), np.array([0, 1])])
        assert not every_policy_absorbed(mdp, [[0, 1], [0]])
        assert every_policy_absorbed(mdp, [[1], [0, 1]])

    def test_all_safe(self):
        mdp = MdpSpec(("a", "b"), ("x",), [[[1.0, 0.0]], [[0.0, 1.0]]],
                      [[0.0], [0.0]], 0.9, {0, 1})
        assert safety._absorbed(mdp, [])
        assert every_policy_absorbed(mdp, [])


def slow_leak_mdp(seed, low, high, n_states=7):
    """Each action leaks to the safe state with probability 10^low to
    10^high and spreads the rest over the non-safe states, so that with
    high <= -6 expected steps run to 1e6 and beyond, and every policy is
    absorbed almost surely."""
    rng = np.random.default_rng(seed)
    n = n_states
    P = np.zeros((n, 2, n))
    leak = 10.0 ** rng.uniform(low, high, size=(n - 1, 2))
    P[:-1, :, :-1] = rng.dirichlet(np.ones(n - 1), size=(n - 1, 2)) \
        * (1 - leak)[..., None]
    P[:-1, :, -1] = leak
    P[-1, :, -1] = 1.0
    r = rng.random((n, 2))
    r[-1] = 0.0
    return MdpSpec(tuple(f"s{i}" for i in range(n)), ("a0", "a1"), P, r,
                   0.9, {n - 1})


def first_policy(mdp, survivors):
    """The first policy of the product of ``survivors``, action 0 at each
    safe state."""
    base = np.zeros(mdp.n_states, dtype=int)
    base[mdp.nonsafe_indices] = [acts[0] for acts in survivors]
    return base


def product_table(mdp, survivors, dtype=int):
    """helpers.reference_table of every policy of the product of
    ``survivors``, in product order, in the type ``dtype``."""
    return helpers.reference_table(
        first_policy(mdp, survivors).astype(dtype), mdp.nonsafe_indices,
        survivors, np.arange(math.prod(len(acts) for acts in survivors)))


@st.composite
def sub_products(draw, survivors):
    """A product inside that of ``survivors``: the whole of it, a node of
    its tree (the states up to some one take one survivor each), or a
    single policy, whose tree varies no state."""
    fixed = draw(st.one_of(st.just(0), st.just(len(survivors)),
                           st.integers(0, len(survivors))))
    picks = [draw(st.integers(0, len(acts) - 1))
             for acts in survivors[:fixed]]
    return ([acts[c:c + 1] for acts, c in zip(survivors, picks)]
            + survivors[fixed:])


@st.composite
def tree_cases(draw):
    """(mdp, survivors): a table case with some survivors at each non-safe
    state, three actions at every state in a third of the cases, cut to a
    product inside theirs (sub_products)."""
    if draw(st.integers(0, 2)):
        mdp = draw(table_cases())[0]
    else:
        mdp = random_mdp(draw(st.integers(0, 2 ** 16)),
                         n_states=draw(st.integers(2, 6)), n_actions=3)
    survivors = some_survivors(mdp, draw(st.integers(0, 2 ** 16)))
    return mdp, draw(sub_products(survivors))


class TestTreeSolve:
    """_tree_solve of a product, against policy_values within the window
    of TREE_ROUNDING and against expected_steps within _steps_window."""

    @settings(max_examples=150, deadline=None)
    @given(case=tree_cases())
    def test_leaves_lie_within_their_windows(self, case):
        mdp, survivors = case
        nonsafe = mdp.nonsafe_indices
        base = first_policy(mdp, survivors)
        actions = product_table(mdp, survivors)
        values = safety._tree_root(mdp, survivors, base,
                                   np.arange(mdp.n_states), mdp.discount,
                                   mdp.reward)
        # One row per state in the tree's order, one column per leaf.
        out = safety._tree_solve(values)
        assert out.shape == (mdp.n_states, len(actions))
        error = np.abs(out[np.argsort(values[3])].T
                       - policy_values(mdp, actions))
        assert np.all(error <= safety._tree_window(mdp, [0.0]))
        if not safety._absorbed(mdp, survivors):
            return
        hitting = safety._tree_root(mdp, survivors, base, nonsafe, 1.0,
                                    np.ones(mdp.reward.shape))
        steps = safety._tree_solve(hitting)[np.argsort(hitting[3])].T
        window = safety._steps_window(mdp.n_states, steps.T)
        exact = expected_steps(_chains(mdp, actions))
        assert np.all(np.abs(steps - exact) <= window[:, None])


@st.composite
def tree_products(draw):
    """(mdp, survivors): one to three survivors among three actions at
    each non-safe state, one to ten of them varying, on a dense MDP (every
    product absorbed) or a sparse one (some products not), cut to a
    product inside theirs (sub_products)."""
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    counts = rng.permutation(np.concatenate([
        rng.integers(2, 4, size=draw(st.integers(1, 10))),
        np.ones(draw(st.integers(0, 2)), dtype=int)]))
    build = draw(st.sampled_from([random_mdp, sparse_mdp]))
    mdp = build(seed, n_states=len(counts) + 1, n_actions=3)
    survivors = [np.sort(rng.choice(3, k, replace=False)) for k in counts]
    return mdp, draw(sub_products(survivors))


class TestTreeAgainstReference:
    """The nodes-last tree against helpers.reference_tree_solve, the
    leaves-major one: values within the window of TREE_ROUNDING, and
    hitting times within _steps_window, of the reference's; and the tiled
    action tables equal to helpers.reference_table's.  Whether the leaves
    are bit-equal is reported as a Hypothesis event."""

    @settings(max_examples=100, deadline=None)
    @given(case=tree_products())
    def test_leaves_lie_within_their_windows(self, case):
        mdp, survivors = case
        base = first_policy(mdp, survivors)
        total = math.prod(len(acts) for acts in survivors)
        values = safety._tree_root(mdp, survivors, base,
                                   np.arange(mdp.n_states), mdp.discount,
                                   mdp.reward)
        out = safety._tree_solve(values)
        ref = helpers.reference_tree_solve(values)
        assert out.shape == ref.shape == (mdp.n_states, total)
        assert np.all(np.abs(out - ref) <= safety._tree_window(mdp, [0.0]))
        event(f"values bit-equal: {np.array_equal(out, ref)}")
        if not safety._absorbed(mdp, survivors):
            return
        hitting = safety._tree_root(mdp, survivors, base,
                                    mdp.nonsafe_indices, 1.0,
                                    np.ones(mdp.reward.shape))
        steps = safety._tree_solve(hitting)
        ref = helpers.reference_tree_solve(hitting)
        window = safety._steps_window(mdp.n_states, steps)
        assert np.all(np.abs(steps - ref) <= window)
        event(f"times bit-equal: {np.array_equal(steps, ref)}")

    @settings(max_examples=100, deadline=None)
    @given(case=tree_products())
    def test_tables_equal_the_reference(self, case):
        mdp, survivors = case
        base = first_policy(mdp, survivors).astype(np.uint8)
        table = safety._action_table(base, mdp.nonsafe_indices, survivors)
        ref = product_table(mdp, survivors, np.uint8)
        assert table.dtype == ref.dtype
        assert np.array_equal(table, ref)


@st.composite
def piece_cases(draw):
    """(mdp, survivors, batch): one to four survivors among four actions
    at each of one to ten non-safe states, at most 1,024 policies in all,
    on a dense or a sparse MDP, and a batch from 1 to the product's size
    plus 1."""
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    counts, total = [], 1
    for k in draw(st.lists(st.integers(1, 4), min_size=1, max_size=10)):
        counts.append(max(1, min(k, 1024 // total)))
        total *= counts[-1]
    build = draw(st.sampled_from([random_mdp, sparse_mdp]))
    mdp = build(seed, n_states=len(counts) + 1, n_actions=4)
    survivors = [np.sort(rng.choice(4, k, replace=False)) for k in counts]
    return mdp, survivors, draw(st.integers(1, total + 1))


class TestProductPieces:
    """_pieces cuts a product into products of at most a batch, whose
    action tables, in order, are the product's, and whose trees give each
    policy's values within the window of TREE_ROUNDING of policy_values'.
    The number of pieces is reported as a Hypothesis event."""

    @settings(max_examples=100, deadline=None)
    @given(case=piece_cases())
    def test_pieces_are_the_product_in_order(self, case):
        mdp, survivors, batch = case
        window = safety._tree_window(mdp, [0.0])
        tables = []
        for part in safety._pieces(survivors, batch):
            first = first_policy(mdp, part)
            actions = safety._action_table(first, mdp.nonsafe_indices, part)
            assert len(actions) <= batch
            values = safety._tree_root(mdp, part, first,
                                       np.arange(mdp.n_states),
                                       mdp.discount, mdp.reward)
            out = safety._tree_solve(values)[np.argsort(values[3])].T
            assert np.all(np.abs(out - policy_values(mdp, actions))
                          <= window)
            tables.append(actions)
        event(f"pieces: {min(len(tables), 10)}{'+' * (len(tables) > 10)}")
        assert np.array_equal(np.concatenate(tables),
                              product_table(mdp, survivors))


@contextlib.contextmanager
def solved_chains():
    """Collects the action table of every _stacked_steps call into the
    second list it yields, and for each _settle call, into the first, the
    actions of its rows with a window and the tables it sent to
    _stacked_steps."""
    settles, stacks = [], []
    settle, stacked = safety._settle, safety._stacked_steps

    def settled(mdp, rows, *args):
        first, again = len(stacks), rows[0][rows[2] > 0]
        settle(mdp, rows, *args)
        settles.append((again, stacks[first:]))

    def stack(mdp, actions):
        stacks.append(actions.copy())
        return stacked(mdp, actions)

    with mock.patch.multiple(safety, _settle=settled, _stacked_steps=stack):
        yield settles, stacks


class TestTreeHittingTimes:
    """The expected steps that the elimination tree gives a table's members
    against expected_steps, and the certificates that take them."""

    def check_window(self, mdp, eps, block):
        """Every member's steps lie within their window of expected_steps':
        a tree row's window is _steps_window's, and every other row is
        expected_steps' own, with a window of 0.  Returns the number of
        rows the tree gave."""
        with table_under_test(mdp, block):
            rows = 0
            for actions, loss, steps, window in safety._policy_table(mdp,
                                                                     eps):
                exact = expected_steps(_chains(mdp, actions[loss < eps]))
                tree = window > 0
                assert np.array_equal(steps[~tree], exact[~tree])
                if np.any(tree):
                    assert np.array_equal(window[tree], safety._steps_window(
                        mdp.n_states, steps[tree].T))
                assert np.all(np.abs(steps[tree] - exact[tree])
                              <= window[tree, None])
                rows += np.count_nonzero(tree)
        return rows

    @settings(max_examples=60, deadline=None)
    @given(case=table_cases(), eps=st.sampled_from([0.5, 5.0, 1e3]))
    def test_rows_lie_within_the_window(self, case, eps):
        mdp, _, block = case
        with one_optimum(mdp):
            self.check_window(mdp, eps, block)

    @settings(max_examples=40, deadline=None)
    @given(case=wide_table_cases())
    def test_wide_rows_lie_within_the_window(self, case):
        mdp, _, block = case
        with one_optimum(mdp):
            self.check_window(mdp, 1e9, block)

    @staticmethod
    def one_left_over(n):
        """The least BLOCK_BYTES at which _table_sizes puts the 2^(n-1)
        policies of a product over n - 1 non-safe states into batches of
        more than a block that leave one policy over (64 = 3 * 21 + 1 at 7
        states), so that the table comes in several pieces (four of 16)."""
        for size in range(8 * n ** 2, 2 ** n * 8 * n ** 2):
            with mock.patch.object(safety, "BLOCK_BYTES", size):
                block, batch = safety._table_sizes(n)
            if batch > block and 2 ** (n - 1) % batch == 1:
                return size
        raise AssertionError(f"no budget leaves one policy over at {n}")

    @pytest.mark.parametrize("seed,leaks", [(0, (-9, -6)), (1, (-9, -6)),
                                            (2, (-12, -10)), (3, (-12, -10))])
    def test_slow_leaks_keep_exact_answers(self, seed, leaks):
        # Below 1e-10 the window takes in many members; those that the cut
        # keeps are solved again, each once.
        mdp = slow_leak_mdp(seed, *leaks)
        budget = self.one_left_over(mdp.n_states)
        # The tree, taken for every piece of more than one member, solves
        # all four pieces, every policy a member.
        with mock.patch.multiple(
                safety, BLOCK_BYTES=budget,
                _tree_pays=lambda n, leaves, members: members > 1):
            assert self.check_window(mdp, 1e3, None) == 2 ** 6
        # Taken for every other piece, it solves half of them, and stacked
        # chains the rest, in every table of several pieces from here on.
        turns = itertools.count()
        with mock.patch.multiple(
                safety, BLOCK_BYTES=budget,
                _tree_pays=lambda *args: next(turns) % 2 == 0):
            assert self.check_window(mdp, 1e3, None) == 2 ** 5
            times = [np.max(expected_steps(induce_chain(mdp, p)))
                     for p in _reference_grid(mdp)]
            assert min(times) >= 1e6
            with table_under_test(mdp, None), solved_chains() as (
                    settles, stacks), mock.patch.object(
                    safety, "expected_steps",
                    wraps=safety.expected_steps) as solve:
                certify_safety(mdp, SafetyQuery(1e3))
            # _settle solves again exactly its kept rows with a window, and
            # every chain that expected_steps solves is another policy's.
            for again, sent in settles:
                assert np.array_equal(again, np.concatenate([again[:0],
                                                             *sent]))
            chains = np.concatenate(stacks)
            assert len(np.unique(chains, axis=0)) == len(chains) == sum(
                len(call.args[0].Q) for call in solve.call_args_list)
            losses = sorted(loss for _, loss in grid_losses(mdp))
            eps = losses[len(losses) // 2]
            for start in (None, StartDistribution.point_mass(mdp.n_states, 2)):
                query = SafetyQuery(eps, start)
                ref = reference_certify(mdp, query)
                with table_under_test(mdp, None):
                    cert = certify_safety(mdp, query)
                assert cert.worst_time == ref["worst_time"]
                assert tuple(cert.worst_policy.table) == ref["worst_policy"]
                assert cert.reachability == ref["reachability"]
                assert np.array_equal(
                    cert.worst_policy_times,
                    expected_steps(induce_chain(mdp, cert.worst_policy)))
            epsilons = [eps / 2, eps, 2 * eps]
            with table_under_test(mdp, None):
                assert safety_frontier(mdp, epsilons) \
                    == reference_frontier(mdp, epsilons)

    def test_fixed_state_rows_come_back_in_state_order(self):
        # MacQueen's test leaves state 0 one action, so the tree puts its
        # row after those of the varying states 1 to 5, and the members'
        # rows gather it back to the front.
        mdp = random_mdp(4, n_states=7, n_actions=2)
        reward = mdp.reward.copy()
        reward[0, 1] = -1e3
        mdp = dataclasses.replace(mdp, reward=reward)
        assert self.check_window(mdp, 50.0, 3) == 2 ** 5

    def test_rounded_away_leaks_fail_as_expected_steps_does(self):
        # Leaks of 1e-320 pass the graph test but round away in I - Q_pi:
        # the tree's rows show it, and expected_steps names the failure,
        # with no warning on the way.
        mdp = slow_leak_mdp(0, -320, -320)
        assert safety._absorbed(mdp, [np.arange(2)] * 6)
        with table_under_test(mdp, 3), warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (lambda: certify_safety(mdp, SafetyQuery(1e3)),
                        lambda: safety_frontier(mdp, [1e3])):
                with pytest.raises(RuntimeError,
                                   match="hitting-time solve failed"):
                    run()

    def test_tree_rows_reach_the_certificates(self):
        # A proper product of 2^12 policies: one expected_steps call for
        # the policies near the top, none per block.
        mdp = random_mdp(4, n_states=13, n_actions=2)
        assert self.check_window(mdp, 1e3, None) == 2 ** 12
        with mock.patch.object(safety, "expected_steps",
                               wraps=safety.expected_steps) as solve:
            cert = certify_safety(mdp, SafetyQuery(1e3))
            safety_frontier(mdp, [1.0, 1e3])
        assert solve.call_count == 2
        assert all(cert.reachability) and len(cert.reachability) == 2 ** 12
        ref = reference_certify(mdp, SafetyQuery(1e3))
        assert cert.worst_time == ref["worst_time"]
        assert tuple(cert.worst_policy.table) == ref["worst_policy"]

    @pytest.mark.parametrize("mdp", [random_mdp(4, n_states=6, n_actions=2),
                                     sparse_mdp(0, n_states=13)],
                             ids=["one-block", "not-absorbed"])
    def test_stacked_rows_are_solved_once(self, mdp):
        # A table of one block, and a product that some policy never
        # leaves: expected_steps solves each member's chain once, in its
        # block, and the kept rows are not solved again.
        n = mdp.n_states
        assert 2 ** (n - 1) <= safety.BLOCK_BYTES // (8 * n ** 2) \
            or not safety._absorbed(mdp, [np.arange(2)] * (n - 1))
        assert self.check_window(mdp, 1e3, None) == 0
        for run in (lambda: certify_safety(mdp, SafetyQuery(1e3)),
                    lambda: safety_frontier(mdp, [1.0, 1e3])):
            with mock.patch.object(safety, "expected_steps",
                                   wraps=safety.expected_steps) as solve:
                run()
            solved = sum(len(call.args[0].Q) for call in solve.call_args_list)
            assert solved == 2 ** (n - 1)

    def test_hitting_time_memory_stays_within_a_few_blocks(self):
        # The 2^16 policies of test_table_memory_stays_within_a_few_blocks:
        # apart from the certificate's reachability tuple and the list it
        # is built from (at most 9/8 of the tuple), the hitting times of
        # certify and of the frontier take a few blocks at once, with
        # every policy a member, and over [eps/2, eps] with eps at the 30%
        # and 60% loss quantiles, where the tree takes some batches and
        # stacked chains others.
        mdp = random_mdp(1, n_states=17, n_actions=2)
        losses = np.sort(np.concatenate(
            [loss for _, loss, _, _ in safety._policy_table(mdp, 1e6)]))
        runs = {"certify": lambda: certify_safety(mdp, SafetyQuery(1e6)),
                "frontier": lambda: safety_frontier(mdp, [1e5, 1e6])}
        for q in (0.3, 0.6):
            eps = float(losses[int(q * len(losses))])
            runs[f"frontier at {q}"] = (
                lambda eps=eps: safety_frontier(mdp, [eps / 2, eps]))
        for name, run in runs.items():
            tracemalloc.start()
            try:
                result = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if name == "certify":
                cert, own = result, 9 / 4 * sys.getsizeof(result.reachability)
            else:
                own = 0
            # The peak of a piece that _table_sizes derives.
            assert peak - own < 6 * safety.BLOCK_BYTES, name
        assert len(cert.reachability) == 2 ** 16


@contextlib.contextmanager
def scan_events():
    """Logs "piece" as the policy table yields each piece and "settle" as
    _scan settles rows, into the first list it yields, and the number of
    rows of each _settle call into the second."""
    events, rows = [], []
    table, settle = safety._policy_table, safety._settle

    def pieces(*args):
        for piece in table(*args):
            events.append("piece")
            yield piece

    def settled(mdp, kept, *args):
        events.append("settle")
        rows.append(len(kept[0]))
        return settle(mdp, kept, *args)

    with mock.patch.multiple(safety, _policy_table=pieces, _settle=settled):
        yield events, rows


class TestScanOrder:
    """_scan settles each piece of the table before the next one is
    built, even when the rows it keeps stay under a block."""

    @pytest.mark.parametrize("run", [
        lambda mdp: certify_safety(mdp, SafetyQuery(1e3)),
        lambda mdp: certify_safety(mdp, SafetyQuery(
            1e3, StartDistribution.point_mass(mdp.n_states, 0))),
        lambda mdp: safety_frontier(mdp, [1.0, 1e3])],
        ids=["certify", "certify-start", "frontier"])
    def test_each_piece_is_settled_before_the_next(self, run):
        # Blocks of 3 policies and batches of 42 put the 64 policies, all
        # members, into two pieces of 32, each solved by the tree.
        mdp = random_mdp(4, n_states=7, n_actions=2)
        with table_under_test(mdp, 3), scan_events() as (events, rows):
            assert safety._table_sizes(mdp.n_states) == (3, 42)
            run(mdp)
        assert events == ["piece", "settle"] * 2
        assert max(rows) < 3


@functools.lru_cache(maxsize=None)
def certify_pool():
    return helpers.certify_pool()


def pool_outputs(index, directory):
    """(exit code, stdout) of each task of certify pool instance
    ``index``, its documents written to ``directory``."""
    docs, tasks = certify_pool()[index]
    for name, doc in docs.items():
        (directory / name).write_text(json.dumps(doc))
    outputs = []
    for task in tasks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(task.resolve(str(directory)))
        outputs.append((code, out.getvalue()))
    return outputs


class TestPieceSizes:
    """Tables cut into the pieces of _table_sizes, into the earlier,
    smaller ones of helpers.reference_table_sizes and into pieces of one
    policy each give the same answers bit for bit; and the peak memory of
    the table follows the size of a piece, not of the table."""

    @staticmethod
    def answers(mdp, eps):
        """Certificates (worst-case and point-mass starts) and frontier
        rows of ``mdp`` at ``eps``, or the error each raises."""
        answers = []
        for start in (None, StartDistribution.point_mass(
                mdp.n_states, int(mdp.nonsafe_indices[0]))):
            try:
                answers.append(render_json(certify_safety(
                    mdp, SafetyQuery(eps, start)).to_document()))
            except ValueError as exc:
                answers.append(str(exc))
        try:
            answers.append(repr(safety_frontier(mdp, [eps / 4, eps / 2,
                                                      eps])))
        except ValueError as exc:
            answers.append(str(exc))
        return answers

    @settings(max_examples=60, deadline=None)
    @given(case=table_cases(), eps=st.sampled_from([0.5, 5.0, 1e3]))
    # A tree that varies no state: the three policies of a 2-state table,
    # one piece at blocks of one, and three of one policy each at the
    # earlier sizes.
    @example(case=(random_mdp(0, n_states=2, n_actions=3), 0, 1), eps=1e3)
    def test_table_cases_match_the_earlier_pieces(self, case, eps):
        mdp, _, block = case
        with mock.patch.multiple(safety, **small_blocks(mdp, block)):
            answers = self.answers(mdp, eps)
            # Pieces of one policy fix every non-safe state, so that their
            # trees vary none, and every leaf is a LAPACK solve's.
            for sizes in (helpers.reference_table_sizes, lambda n: (1, 1)):
                with mock.patch.object(safety, "_table_sizes", sizes):
                    assert self.answers(mdp, eps) == answers


    @pytest.mark.parametrize("index", range(16))
    def test_pool_matches_the_earlier_pieces(self, index, tmp_path):
        outputs = pool_outputs(index, tmp_path)
        with mock.patch.object(safety, "_table_sizes",
                               helpers.reference_table_sizes):
            assert pool_outputs(index, tmp_path) == outputs

    def test_memory_does_not_grow_with_the_table(self):
        # 2^16 policies over 16 non-safe states, and the 2^15 left at the
        # same 17 states when MacQueen's test drops an action of state 0:
        # both tables come in several whole pieces.
        large = random_mdp(1, n_states=17, n_actions=2)
        reward = large.reward.copy()
        reward[0, 1] = -1e5
        small = dataclasses.replace(large, reward=reward)
        peaks = []
        for mdp, size in ((small, 2 ** 15), (large, 2 ** 16)):
            list(safety._policy_table(mdp, 1e3))
            tracemalloc.start()
            try:
                count = sum(len(loss) for _, loss, _, _
                            in safety._policy_table(mdp, 1e3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert count == size
            assert size >= 8 * safety._table_sizes(mdp.n_states)[1]
        assert peaks[1] <= 1.1 * peaks[0]


class TestPathRule:
    """_tree_pays on the certify pool, each table in one piece: instance
    5's 149 members of 4,096 leaves take _stacked_steps and instance 2's
    2,155 the tree; so do instance 7's 114 of 2,048 and instance 1's 137
    of 864 (9 states), for which the tree's fixed cost does not pay.
    Either path forced gives the same bytes."""

    @pytest.mark.parametrize("index,leaves,members,tree", [
        (5, 4096, 149, False), (2, 4096, 2155, True), (7, 2048, 114, False),
        (1, 864, 137, False)])
    def test_path_and_its_bytes(self, index, leaves, members, tree,
                                tmp_path):
        rule, decisions = safety._tree_pays, []

        def pays(*args):
            decisions.append((*args[1:], rule(*args)))
            return decisions[-1][-1]

        with mock.patch.object(safety, "_tree_pays", pays), \
                mock.patch.object(safety, "_tree_solve",
                                  wraps=safety._tree_solve) as solve:
            outputs = pool_outputs(index, tmp_path)
        tasks = len(outputs)
        assert decisions == [(leaves, members, tree)] * tasks
        # The values tree in each task, and the hitting-time tree with it.
        assert solve.call_count == tasks * (1 + tree)
        with mock.patch.object(safety, "_tree_pays",
                               return_value=not tree), \
                mock.patch.object(safety, "_tree_solve",
                                  wraps=safety._tree_solve) as solve:
            assert pool_outputs(index, tmp_path) == outputs
        assert solve.call_count == tasks * (2 - tree)


def test_nan_reward_stops_value_iteration_at_the_first_sweep():
    mdp = random_mdp(1, n_states=4)
    reward = mdp.reward.copy()
    reward[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        certify_safety(dataclasses.replace(mdp, reward=reward),
                       SafetyQuery(0.5))

import dataclasses
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from helpers import (best_value_by_enumeration, gathered_chains,
                     policy_evaluation, random_mdp, reference_validate,
                     reference_value_iteration)
from mdp_stability import (InducedChain, MdpSpec, Perturbation,
                           PlayingDeadParams, Policy, ValueFunction,
                           build_duplicated, build_playing_dead,
                           greedy_policy, induce_chain, load_mdp,
                           mdp_from_document, mdp_to_document, validate,
                           value_iteration)
from mdp_stability import mdp as mdp_module
from mdp_stability.mdp import (_chains, can_reach, policy_values, q_values,
                               read_document, strong_components)
from mdp_stability.safety import _table_sizes


def two_state_mdp():
    # s0 -> s1 under a0 (reward 1), self-loop under a1; s1 safe absorbing.
    return MdpSpec(("s0", "s1"), ("a0", "a1"),
                   [[[0.0, 1.0], [1.0, 0.0]],
                    [[0.0, 1.0], [0.0, 1.0]]],
                   [[1.0, 0.0], [0.0, 0.0]], 0.9, {1})


class TestValidate:
    def test_well_formed(self):
        assert validate(two_state_mdp()).ok

    def test_row_sum_violation_located(self):
        P = np.array([[[0.5, 0.4], [1.0, 0.0]],
                      [[0.0, 1.0], [0.0, 1.0]]])
        bad = MdpSpec(("s0", "s1"), ("a0", "a1"), P,
                      np.zeros((2, 2)), 0.9, {1})
        report = validate(bad)
        assert not report.ok
        rows = [v for v in report.violations if v.code == "row-sum"]
        assert len(rows) == 1 and rows[0].location == (0, 0)

    def test_leaking_safe_state(self):
        P = np.array([[[0.0, 1.0], [1.0, 0.0]],
                      [[0.1, 0.9], [0.0, 1.0]]])
        bad = MdpSpec(("s0", "s1"), ("a0", "a1"), P,
                      np.zeros((2, 2)), 0.9, {1})
        report = validate(bad)
        leaks = [v for v in report.violations if v.code == "safe-not-absorbing"]
        assert len(leaks) == 1 and leaks[0].location == (1, 0)

    def test_duplicate_ids_and_bad_discount(self):
        bad = MdpSpec(("s", "s"), ("a",), np.ones((2, 1, 2)) / 2,
                      np.zeros((2, 1)), 1.5, set())
        codes = {v.code for v in validate(bad).violations}
        assert "duplicate-state-ids" in codes and "discount" in codes

    def test_non_finite_entries_located(self):
        P = np.array([[[math.nan, 1.0], [1.0, 0.0]],
                      [[0.0, 1.0], [0.0, 1.0]]])
        r = np.array([[math.inf, 0.0], [0.0, -math.inf]])
        bad = MdpSpec(("s0", "s1"), ("a0", "a1"), P, r, 0.9, {1})
        found = [v for v in validate(bad).violations
                 if v.code == "non-finite"]
        assert [v.location for v in found] == [(0, 0, 0), (0, 0), (1, 1)]

    def test_non_finite_discount(self):
        mdp = two_state_mdp()
        for discount in (math.nan, math.inf):
            bad = MdpSpec(mdp.state_ids, mdp.action_ids, mdp.transition,
                          mdp.reward, discount, mdp.safe_set)
            codes = [v.code for v in validate(bad).violations]
            assert codes == ["non-finite"]


@st.composite
def faulty_mdps(draw):
    """MDPs with any mix of validate's faults: NaN and infinite entries,
    more than 20 entries outside [0, 1], rows off a sum of 1 by more or
    less than PROB_TOL, leaking safe states, repeated ids, wrong shapes,
    a bad discount and safe states out of range."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, n_a = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    faults = draw(st.sets(st.sampled_from(
        ["non-finite", "range", "row-sum", "leak", "duplicate", "shape",
         "discount", "safe-range"])))
    P = gen.dirichlet(np.ones(n), size=(n, n_a))
    r = gen.uniform(-1.0, 1.0, size=(n, n_a))
    safe = set(gen.choice(n, size=draw(st.integers(0, n)),
                          replace=False).tolist())
    for s in safe:
        P[s] = 0.0
        P[s, :, s] = 1.0
    if "range" in faults:
        flat = P.reshape(-1)
        at = gen.choice(flat.size, size=min(flat.size, draw(
            st.integers(21, 60))), replace=False)
        flat[at] = gen.choice([-0.5, -5e-324, 1.0 + 1e-15, 3.0], len(at))
    if "row-sum" in faults:
        rows = gen.random((n, n_a)) < 0.5
        P[rows] *= 1.0 + gen.choice([1e-13, 1e-11, 0.5], (n, n_a, 1))[rows]
    if "leak" in faults and len(safe) < n:
        s = next(iter(safe), 0)
        P[s, 0] = 0.0
        P[s, 0, [t for t in range(n) if t not in safe][0]] = 1.0
    if "non-finite" in faults:
        values = [math.nan, math.inf, -math.inf]
        for table in (P, r):
            flat = table.reshape(-1)
            at = gen.choice(flat.size, size=draw(st.integers(
                1, flat.size)), replace=False)
            flat[at] = gen.choice(values, len(at))
    states = [f"s{i}" for i in range(n)]
    actions = [f"a{j}" for j in range(n_a)]
    if "duplicate" in faults:
        states[-1] = states[0]
        actions[-1] = actions[0]
    if "shape" in faults:
        which = draw(st.sampled_from(["transition", "reward"]))
        if which == "transition":
            P = P[:, :, 1:]
        else:
            r = r[:, 1:]
    discount = draw(st.sampled_from(
        [0.0, 1.0, 1.5, math.nan, math.inf])) if "discount" in faults \
        else 0.9
    if "safe-range" in faults:
        safe.add(draw(st.sampled_from([-1, n])))
    return MdpSpec(states, actions, P, r, discount, safe)


@pytest.mark.parametrize("reward,code", [
    ([[math.inf, 0.0], [0.0, 0.0]], "non-finite"),
    ([[0.0, math.nan], [0.0, 0.0]], "non-finite"),
    ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "reward-shape"),
    ([0.0, 0.0], "reward-shape")])
def test_reward_variants_are_checked(reward, code):
    with pytest.raises(ValueError, match=f"reward variant invalid: {code}"):
        two_state_mdp().with_rewards(np.array(reward))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestValidateMatchesFullScan:
    @settings(max_examples=200, deadline=None)
    @given(mdp=faulty_mdps())
    def test_same_report(self, mdp):
        ours, oracle = validate(mdp), reference_validate(mdp)
        assert str(ours) == str(oracle)
        assert ours.violations == oracle.violations

    def test_caps_at_20_per_kind(self):
        P = np.full((5, 2, 5), math.nan)
        P[:, 1] = 7.0
        r = np.full((5, 2), math.inf)
        mdp = MdpSpec([f"s{i}" for i in range(5)], ["a", "b"], P, r, 0.9,
                      {4})
        ours = validate(mdp)
        assert str(ours) == str(reference_validate(mdp))
        codes = [v.code for v in ours.violations]
        assert codes.count("probability-range") == 20
        assert codes.count("non-finite") == 30


class TestFrozenArrays:
    """Specs and perturbations hold read-only arrays that nothing outside
    can write: a writeable input, the writeable base of a read-only view,
    or an array frozen by the caller is copied; an array the package froze
    is shared."""

    def spec_of(self, P, r):
        return MdpSpec(("s0", "s1"), ("a0", "a1"), P, r, 0.9, {1})

    def test_writeable_inputs_are_copied(self):
        mdp = two_state_mdp()
        P, r = np.array(mdp.transition), np.array(mdp.reward)
        spec = self.spec_of(P, r)
        P[0, 0] = [0.5, 0.5]
        r[:] = 3.0
        assert spec.transition.tolist() == mdp.transition.tolist()
        assert spec.reward.tolist() == mdp.reward.tolist()
        assert not spec.transition.flags.writeable

    def test_read_only_views_of_writeable_bases_are_copied(self):
        mdp = two_state_mdp()
        P, r = np.array(mdp.transition), np.array(mdp.reward)
        views = P.view(), r[:]
        for view in views:
            view.setflags(write=False)
        spec = self.spec_of(*views)
        P[0, 0] = [0.5, 0.5]
        r[:] = 3.0
        assert spec.transition.tolist() == mdp.transition.tolist()
        assert spec.reward.tolist() == mdp.reward.tolist()
        assert not np.shares_memory(spec.transition, P)

    def test_perturbation_inputs_are_copied(self):
        dS, dT = np.ones((2, 1)), np.zeros((2, 2, 2))
        pert = Perturbation(dS, dT)
        dS[:] = 5.0
        dT[:] = 1.0
        assert pert.delta_S.tolist() == [[1.0], [1.0]]
        assert not pert.delta_T.any()
        base = np.zeros((2, 2, 2))
        view = base[...]
        view.setflags(write=False)
        pert = Perturbation(np.ones((2, 1)), view)
        base[:] = 1.0
        assert not pert.delta_T.any()

    def test_frozen_arrays_are_shared(self):
        mdp = two_state_mdp()
        other = mdp.with_rewards(np.ones((2, 2)))
        assert np.shares_memory(other.transition, mdp.transition)
        assert other.transition is mdp.transition
        again = Perturbation(np.zeros((2, 1)), mdp.transition)
        assert again.delta_T is mdp.transition

    def test_a_frozen_array_of_another_dtype_is_converted(self):
        actions = np.array([0, 1])
        actions.setflags(write=False)
        # Frozen by the caller, not by the package: copied.
        assert Policy.deterministic(actions).table is not actions
        table = mdp_module._frozen(actions, dtype=float)
        assert table.dtype == float and not table.flags.writeable

    def test_a_view_made_before_freezing_cannot_reach_the_spec(self):
        mdp = two_state_mdp()
        P = np.array(mdp.transition)
        view = P[:]
        P.setflags(write=False)
        spec = self.spec_of(P, mdp.reward)
        view[0, 0] = [0.5, 0.5]
        assert spec.transition.tolist() == mdp.transition.tolist()

    def test_loaded_arrays_are_frozen_in_place(self):
        doc = mdp_to_document(two_state_mdp())
        field = mdp_module.document_field(doc, "transitions", list, float)
        assert not field.flags.writeable
        assert MdpSpec(("s0", "s1"), ("a0", "a1"), field,
                       np.zeros((2, 2)), 0.9, {1}).transition is field


class TestInduceChain:
    def test_deterministic_matches_edges(self):
        mdp = two_state_mdp()
        chain = induce_chain(mdp, Policy.deterministic([0, 0]))
        assert chain.Q.shape == (1, 1)
        assert chain.Q[0, 0] == 0.0 and chain.absorb[0] == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_summation(self, seed):
        mdp = random_mdp(seed, n_states=4, n_actions=3)
        rng = np.random.default_rng(1000 + seed)
        table = rng.integers(0, 3, size=4)
        chain = induce_chain(mdp, Policy.deterministic(table))
        keep = mdp.nonsafe_indices
        for ci, i in enumerate(keep):
            for cj, j in enumerate(keep):
                # x * 1 + 0 is exact: a one-hot sum has the row's bits.
                direct = sum((table[i] == a) * mdp.transition[i, a, j]
                             for a in range(3))
                assert chain.Q[ci, cj] == direct
            rows = chain.Q[ci].sum() + chain.absorb[ci]
            assert rows == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("absorb", [[0.4], [0.6], [math.nan]])
    def test_chain_rows_must_sum_to_one(self, absorb):
        with pytest.raises(ValueError, match="absorption must sum to 1"):
            InducedChain([[0.5]], absorb, [0])

    def test_rejects_a_table_of_another_length(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            induce_chain(two_state_mdp(), Policy.deterministic([0]))

    def test_rejects_an_action_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            induce_chain(two_state_mdp(), Policy.deterministic([0, 2]))

    @pytest.mark.parametrize("table", [[[0, 1]], [0, -1]])
    def test_policy_rejects_a_table_that_is_not_of_action_indices(self,
                                                                   table):
        with pytest.raises(ValueError, match="1-d|negative"):
            Policy.deterministic(table)


def assert_bits_equal(got, expected):
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestChainGather:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
           n_actions=st.integers(1, 3), stack=st.sampled_from([(), (5,),
                                                                (2, 3)]))
    def test_matches_the_sliced_rows(self, seed, n, n_actions, stack):
        # Sparse rows and any set of safe states, none to all, so that the
        # mass on the safe set sums over several columns.
        rng = np.random.default_rng(seed)
        P = rng.dirichlet(np.ones(n), size=(n, n_actions))
        P *= rng.random(P.shape) < 0.6
        empty = P.sum(axis=2) == 0
        P[empty] = np.eye(n)[rng.integers(n, size=int(empty.sum()))]
        P /= P.sum(axis=2, keepdims=True)
        safe = set(np.nonzero(rng.random(n) < 0.4)[0].tolist())
        mdp = MdpSpec(tuple(f"s{i}" for i in range(n)),
                      tuple(f"a{j}" for j in range(n_actions)), P,
                      np.zeros((n, n_actions)), 0.9, safe)
        actions = rng.integers(n_actions, size=stack + (n,))
        chains = _chains(mdp, actions)
        Q, absorb = gathered_chains(mdp, actions)
        assert_bits_equal(chains.Q, Q)
        assert_bits_equal(chains.absorb, absorb)

    def test_a_whole_block_holds_one_matrix_per_chain(self):
        # The chain keeps the gathered Q without a copy; the indexing and
        # the row-sum check take the rest of the peak (1.4 times Q here).
        mdp = random_mdp(1, n_states=17, n_actions=2)
        block = _table_sizes(mdp.n_states)[0]
        actions = np.random.default_rng(2).integers(2, size=(block, 17))
        Q, absorb = gathered_chains(mdp, actions)
        _chains(mdp, actions[:1])
        tracemalloc.start()
        try:
            chains = _chains(mdp, actions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_bits_equal(chains.Q, Q)
        assert_bits_equal(chains.absorb, absorb)
        assert peak < 2 * Q.nbytes
        assert chains.Q.shape == (block, 16, 16)


class TestCanReach:
    @pytest.mark.parametrize("seed", range(10))
    def test_batch_equals_one_call_per_graph(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        adj = rng.random((3, 5, n, n)) < rng.choice([0.1, 0.3, 0.6])
        target = rng.random((3, 5, n)) < 0.2
        batch = can_reach(adj, target)
        assert batch.shape == target.shape and batch.dtype == bool
        for i in range(3):
            for j in range(5):
                assert np.array_equal(batch[i, j],
                                      can_reach(adj[i, j], target[i, j]))

    def test_path_into_the_target(self):
        # 0 -> 1 -> 2, 3 isolated; only 2 is a target.
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 2] = True
        target = np.array([False, False, True, False])
        assert can_reach(adj, target).tolist() == [True, True, True, False]
        stacked = can_reach(np.stack([adj, adj.T]),
                            np.stack([target, target]))
        assert stacked.tolist() == [[True, True, True, False],
                                    [False, False, True, False]]


def assert_scipy_strong_components(adj):
    n_comp, labels = connected_components(csr_matrix(adj), directed=True,
                                          connection="strong")
    expected = sorted((tuple(np.flatnonzero(labels == c))
                       for c in range(n_comp)), key=lambda m: m[0])
    found = strong_components(adj)
    assert [tuple(c) for c in found] == expected
    assert all(np.all(np.diff(c) > 0) for c in found)


@pytest.mark.parametrize("seed", range(40))
def test_strong_components_are_scipy_strong_components(seed):
    # Random directed graphs of 0 to 12 states, with self-loops at random
    # and some states cut off from every other.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 13))
    adj = rng.random((n, n)) < rng.choice([0.05, 0.15, 0.4])
    isolated = rng.random(n) < 0.2
    adj[isolated, :] = adj[:, isolated] = False
    adj[np.diag_indices(n)] = rng.random(n) < 0.5
    assert_scipy_strong_components(adj)


@pytest.mark.parametrize("shape", ["path", "cycle", "two-cycles", "sparse",
                                   "one-component", "reversed-path"])
@pytest.mark.parametrize("n", [1, 2, 57, 200])
def test_large_graphs_have_scipy_strong_components(shape, n):
    # Acyclic paths either way, one long cycle, two cycles joined one
    # way, and random graphs with many components or one, at up to 200
    # states.
    rng = np.random.default_rng(n)
    if shape in ("path", "reversed-path"):
        adj = np.eye(n, k=1 if shape == "path" else -1, dtype=bool)
    elif shape == "cycle":
        adj = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    elif shape == "two-cycles":
        half = n // 2
        adj = np.zeros((n, n), dtype=bool)
        adj[np.arange(n), (np.arange(n) + 1) % n] = True
        adj[half - 1, 0] = True
        adj[n - 1, half] = half > 0
        adj[n - 1, 0] = False
    elif shape == "sparse":
        adj = rng.random((n, n)) < 1.5 / n
    else:
        adj = rng.random((n, n)) < 0.1
        adj[np.arange(n), (np.arange(n) + 1) % n] = True
    assert_scipy_strong_components(adj)


@pytest.mark.parametrize("seed", range(20))
def test_components_of_a_symmetric_graph_are_scipy_components(seed):
    # strong_components runs one closure per component on a symmetric
    # graph; the result must still be its undirected components.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 13))
    adj = rng.random((n, n)) < rng.choice([0.05, 0.15, 0.4])
    adj |= adj.T
    n_comp, labels = connected_components(csr_matrix(adj), directed=False)
    expected = sorted((tuple(np.flatnonzero(labels == c))
                       for c in range(n_comp)), key=lambda m: m[0])
    assert [tuple(c) for c in strong_components(adj)] == expected


class TestValueIteration:
    def test_zero_rewards(self):
        mdp = MdpSpec(("s",), ("a",), [[[1.0]]], [[0.0]], 0.9, {0})
        np.testing.assert_allclose(value_iteration(mdp).values, [0.0])

    def test_geometric_series(self):
        mdp = MdpSpec(("s",), ("a",), [[[1.0]]], [[1.0]], 0.5, set())
        assert value_iteration(mdp).values[0] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_policy_enumeration(self, seed):
        mdp = random_mdp(seed, n_states=5, n_actions=2, gamma=0.8)
        tol = 1e-9
        v = value_iteration(mdp, tol).values
        np.testing.assert_allclose(v, best_value_by_enumeration(mdp),
                                   atol=tol)

    def test_rejects_bad_discount(self):
        mdp = MdpSpec(("s",), ("a",), [[[1.0]]], [[1.0]], 1.0, set())
        with pytest.raises(ValueError):
            value_iteration(mdp)

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_rejects_a_tolerance_not_above_zero(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            value_iteration(two_state_mdp(), tol)

    def test_rejects_a_negative_residual(self):
        with pytest.raises(ValueError, match="residual must be nonnegative"):
            ValueFunction(np.zeros(2), -1e-12)


@st.composite
def optimum_cases(draw):
    """(mdp, tol) for V*: random sparse rows with some actions copying
    another action's column (exact ties), duplicated states, playing-dead
    variants and one-state MDPs, at discount 0.5 or 0.99."""
    gamma = draw(st.sampled_from([0.5, 0.99]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["random", "duplicated", "playing-dead",
                                 "one-state"]))
    n_actions = draw(st.integers(1, 3))
    n = 1 if kind == "one-state" else draw(st.integers(2, 6))
    if kind == "random" or kind == "one-state":
        P = np.zeros((n, n_actions, n))
        for s in range(n):
            for a in range(n_actions):
                support = rng.choice(n, size=rng.integers(1, n + 1),
                                     replace=False)
                P[s, a, support] = rng.dirichlet(np.ones(len(support)))
        r = rng.normal(size=(n, n_actions))
        for a in range(1, n_actions):
            if rng.random() < 0.5:
                P[:, a], r[:, a] = P[:, a - 1], r[:, a - 1]
        safe = {n - 1} if n > 1 and rng.random() < 0.5 else set()
        for s in safe:
            P[s], r[s] = 0.0, 0.0
            P[s, :, s] = 1.0
        ids = tuple(f"s{i}" for i in range(n))
        acts = tuple(f"a{j}" for j in range(n_actions))
        mdp = MdpSpec(ids, acts, P, r, gamma, safe)
    else:
        mdp = random_mdp(int(rng.integers(2 ** 16)), n_states=n,
                         n_actions=n_actions, gamma=gamma)
        if kind == "duplicated":
            mdp = build_duplicated(mdp, int(rng.integers(n)),
                                   copies=draw(st.integers(2, 3)))
        else:
            epsilon = 0.5
            escape = int(np.argmax(reference_value_iteration(mdp).values))
            mdp = build_playing_dead(PlayingDeadParams(
                base=mdp, delta=(1.0 - gamma) * epsilon / (20.0 * n),
                escape_state=escape,
                escape_action=int(rng.integers(n_actions)),
                epsilon=epsilon))
    assert validate(mdp).ok
    return mdp, draw(st.sampled_from([1e-10, 1e-8]))


class TestPolicyIterationOptimum:
    @settings(max_examples=150, deadline=None)
    @given(optimum_cases())
    def test_matches_value_iteration_with_a_bellman_certificate(self, case):
        mdp, tol = case
        with mock.patch.object(mdp_module, "policy_values",
                               wraps=mdp_module.policy_values) as solve:
            v_star = value_iteration(mdp, tol)
        # Ties switch no action, so the loop ends well before its cap.
        assert 1 <= solve.call_count < mdp_module.POLICY_ROUNDS
        reference = reference_value_iteration(mdp, tol).values
        np.testing.assert_allclose(v_star.values, reference, rtol=0,
                                   atol=tol)
        q = q_values(mdp, v_star.values)
        assert v_star.residual \
            == float(np.max(np.abs(q.max(axis=1) - v_star.values)))
        assert v_star.residual <= tol * (1.0 - mdp.discount)

    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e12])
    def test_large_values_are_certified_at_rounding_level(self, scale):
        # tol*(1-g) is below the values' rounding here; value iteration
        # reaches a float fixed point, and policy iteration must not fail.
        for seed in range(10):
            mdp = random_mdp(seed, n_states=6, n_actions=3,
                             reward_scale=scale)
            np.testing.assert_allclose(
                value_iteration(mdp).values,
                reference_value_iteration(mdp).values, rtol=1e-14, atol=0)

    @staticmethod
    def patient_mdp():
        # The reward-greedy action at s0 ends the episode with reward 1;
        # staying for 0.5 a step is worth 5.
        return MdpSpec(("s0", "end"), ("leave", "stay"),
                       [[[0.0, 1.0], [1.0, 0.0]],
                        [[0.0, 1.0], [0.0, 1.0]]],
                       [[1.0, 0.5], [0.0, 0.0]], 0.9, {1})

    def test_cap_hit_raises_instead_of_returning(self, monkeypatch):
        mdp = self.patient_mdp()
        assert value_iteration(mdp).values[0] == pytest.approx(5.0)
        monkeypatch.setattr(mdp_module, "POLICY_ROUNDS", 1)
        with pytest.raises(ValueError, match="Bellman residual"):
            value_iteration(mdp)


class TestPolicyEvaluation:
    def test_zero_rewards(self):
        mdp = two_state_mdp()
        v = policy_values(mdp.with_rewards(np.zeros((2, 2))), np.zeros(2, int))
        np.testing.assert_allclose(v, 0.0)

    def test_single_state_closed_form(self):
        mdp = MdpSpec(("s",), ("a",), [[[1.0]]], [[1.0]], 0.9, set())
        v = policy_values(mdp, np.zeros(1, int))
        assert v[0] == pytest.approx(10.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_value_iteration_on_fixed_policy(self, seed):
        mdp = random_mdp(seed, n_states=4, n_actions=2, gamma=0.85)
        rng = np.random.default_rng(seed)
        policy = Policy.deterministic(rng.integers(0, 2, size=4))
        exact = policy_values(mdp, policy.table)
        # Iterative oracle: collapse to a single-action MDP and run VI.
        pi = np.eye(2)[policy.table]
        P = np.einsum("sa,sat->st", pi, mdp.transition)[:, None, :]
        r = np.einsum("sa,sa->s", pi, mdp.reward)[:, None]
        collapsed = MdpSpec(mdp.state_ids, ("only",), P, r, mdp.discount,
                            mdp.safe_set)
        iterative = reference_value_iteration(collapsed, 1e-10).values
        np.testing.assert_allclose(exact, iterative, atol=1e-8)


class TestProperties:
    @pytest.mark.parametrize("seed", range(100))
    def test_greedy_policy_evaluation_matches_vi(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        mdp = random_mdp(seed, n_states=n, n_actions=2, gamma=0.8)
        tol = 1e-10
        v_star = value_iteration(mdp, tol)
        v_pi = policy_evaluation(mdp, greedy_policy(mdp, v_star))
        np.testing.assert_allclose(v_pi, v_star.values, atol=10 * tol)

    @pytest.mark.parametrize("seed", range(20))
    def test_no_policy_beats_optimal(self, seed):
        mdp = random_mdp(seed, n_states=4, n_actions=2)
        tol = 1e-10
        v_star = value_iteration(mdp, tol).values
        rng = np.random.default_rng(seed)
        for _ in range(5):
            policy = rng.dirichlet(np.ones(2), size=4)
            v = policy_evaluation(mdp, policy)
            assert np.all(v <= v_star + tol)


class TestJsonDocuments:
    def test_round_trip(self):
        mdp = two_state_mdp()
        buf = io.StringIO(json.dumps(mdp_to_document(mdp)))
        again = load_mdp(buf)
        np.testing.assert_array_equal(again.transition, mdp.transition)
        np.testing.assert_array_equal(again.reward, mdp.reward)
        assert again.safe_set == mdp.safe_set
        assert again.state_ids == mdp.state_ids

    def test_destination_rewards_convert_by_expectation(self):
        doc = {
            "states": ["u", "v"], "actions": ["a"],
            "transitions": [[[0.25, 0.75]], [[0.0, 1.0]]],
            "rewards_sas": [[[4.0, 0.0]], [[0.0, 0.0]]],
            "discount": 0.9, "safe": ["v"],
        }
        mdp = load_mdp(doc)
        assert mdp.reward[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_rewards_keys_are_mutually_exclusive(self):
        doc = mdp_to_document(two_state_mdp())
        doc["rewards_sas"] = np.zeros((2, 2, 2)).tolist()
        with pytest.raises(ValueError, match="exactly one"):
            load_mdp(doc)

    def test_invalid_document_rejected_on_load(self):
        doc = mdp_to_document(two_state_mdp())
        doc["transitions"][0][0] = [0.5, 0.4]
        with pytest.raises(ValueError, match="row-sum"):
            load_mdp(doc)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_rejected(self, literal):
        text = io.StringIO(json.dumps(mdp_to_document(two_state_mdp()))
                           .replace("0.9", literal))
        with pytest.raises(ValueError, match="non-finite literal"):
            read_document(text)
        text.seek(0)
        with pytest.raises(ValueError, match="non-finite literal"):
            load_mdp(text)

    def test_overflowing_number_fails_validation(self):
        doc = mdp_to_document(two_state_mdp())
        doc["rewards"][0][0] = 1e400  # what json makes of "1e400"
        with pytest.raises(ValueError, match="non-finite"):
            load_mdp(doc)

    def test_from_document_inverts_to_document_without_validating(self):
        mdp = two_state_mdp()
        back = mdp_from_document(mdp_to_document(mdp))
        assert (back.state_ids, back.action_ids, back.discount,
                back.safe_set) == (mdp.state_ids, mdp.action_ids,
                                   mdp.discount, mdp.safe_set)
        assert np.array_equal(back.transition, mdp.transition)
        assert np.array_equal(back.reward, mdp.reward)
        doc = mdp_to_document(mdp)
        doc["transitions"][0][0] = [0.5, 0.4]
        assert not validate(mdp_from_document(doc)).ok

    @pytest.mark.parametrize("field,value", [
        ("states", "s0"), ("transitions", {"a": 1}), ("rewards", [[{}]]),
        ("discount", "0.9"), ("discount", 10 ** 400), ("safe", None),
        ("actions", [["a0"]])])
    def test_wrong_structure_is_a_value_error(self, field, value):
        doc = {**mdp_to_document(two_state_mdp()), field: value}
        with pytest.raises(ValueError):
            mdp_from_document(doc)

    @pytest.mark.parametrize("source", [[1, 2], io.StringIO("[1, 2]")])
    def test_top_level_must_be_an_object(self, source):
        with pytest.raises(ValueError, match="object"):
            mdp_from_document(source)

    def test_non_finite_sweep_stops_value_iteration(self):
        mdp = two_state_mdp()
        reward = mdp.reward.copy()
        reward[0, 0] = math.inf
        with pytest.raises(ValueError, match="non-finite"):
            value_iteration(dataclasses.replace(mdp, reward=reward))

    def test_unknown_safe_state_rejected(self):
        doc = mdp_to_document(two_state_mdp())
        doc["safe"] = ["nope"]
        with pytest.raises(ValueError, match="nope"):
            load_mdp(doc)

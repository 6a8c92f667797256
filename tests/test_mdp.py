import dataclasses
import io
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from helpers import (best_value_by_enumeration, gathered_chains,
                     policy_evaluation, random_mdp, reference_read_document,
                     reference_validate, reference_value_iteration)
from mdp_stability import (InducedChain, MdpSpec, Perturbation,
                           PlayingDeadParams, Policy, ValueFunction,
                           build_duplicated, build_playing_dead,
                           greedy_policy, induce_chain, load_mdp,
                           mdp_from_document, mdp_to_document, validate,
                           value_iteration)
from mdp_stability import mdp as mdp_module
from mdp_stability.mdp import (VALUE_TOL, _chains, can_reach, policy_values,
                               q_values, read_document, strong_components)
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


@st.composite
def nearly_valid_mdps(draw):
    """Valid MDPs, some with no state or no action, with up to three
    faults each: one entry of NaN, +-inf, -1e-300 or 1 + 1e-15, a row off
    a sum of 1, a safe row that leaks, a non-finite reward and a wrong
    shape.  validate's masks are built only when its two reductions show
    a fault, so a lone bad entry is the case that tests the reductions."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, n_a = draw(st.integers(0, 6)), draw(st.integers(0, 3))
    P = gen.dirichlet(np.ones(n), size=(n, n_a)) if n \
        else np.zeros((0, n_a, 0))
    r = gen.uniform(-1.0, 1.0, size=(n, n_a))
    safe = set(draw(st.sets(st.integers(0, n - 1)))) if n else set()
    for s in safe:
        P[s] = 0.0
        P[s, :, s] = 1.0
    for fault in draw(st.lists(st.sampled_from(
            ["entry", "row-sum", "leak", "reward", "shape"]), max_size=3)):
        if P.size:
            s, a, t = (int(gen.integers(k)) for k in P.shape)
        elif fault in ("entry", "row-sum", "leak"):
            continue
        if fault == "entry":
            P[s, a, t] = draw(st.sampled_from(
                [math.nan, math.inf, -math.inf, -1e-300, 1.0 + 1e-15]))
        elif fault == "row-sum":
            P[s, a] *= draw(st.sampled_from([1.0 + 1e-13, 1.0 + 1e-11,
                                             0.5]))
        elif fault == "leak" and safe and len(safe) < n:
            s = min(safe)
            P[s, a] = 0.0
            P[s, a, min(set(range(n)) - safe)] = 1.0
        elif fault == "reward" and r.size:
            r.reshape(-1)[gen.integers(r.size)] = draw(st.sampled_from(
                [math.nan, math.inf, -math.inf]))
        elif fault == "shape":
            if draw(st.booleans()):
                P = np.concatenate([P, np.zeros((n, n_a, 1))], axis=2)
            else:
                r = np.zeros((n, n_a + 1))
    return MdpSpec([f"s{i}" for i in range(n)], [f"a{j}" for j in range(n_a)],
                   P, r, 0.9, safe)


class TestValidateAgainstReference:
    """validate against the body it replaced (helpers.reference_validate),
    which builds the non-finite and range masks of every tensor."""

    @settings(max_examples=300, deadline=None)
    @given(mdp=nearly_valid_mdps())
    def test_same_report(self, mdp):
        ours, oracle = validate(mdp), reference_validate(mdp)
        assert str(ours) == str(oracle)
        assert ours.violations == oracle.violations

    @pytest.mark.parametrize("t,entry,codes", [
        (0, math.inf, ["non-finite", "probability-range", "row-sum"]),
        (0, math.nan, ["non-finite"]),
        (0, -1e-300, ["probability-range"]),
        (1, 1.0 + 1e-15, ["probability-range"])])
    def test_one_bad_entry(self, t, entry, codes):
        P = np.array(two_state_mdp().transition)
        P[0, 0, t] = entry
        mdp = dataclasses.replace(two_state_mdp(), transition=P)
        assert [v.code for v in validate(mdp).violations] == codes
        assert str(validate(mdp)) == str(reference_validate(mdp))

    @pytest.mark.parametrize("s,row,codes", [
        (0, [0.0, math.inf, -math.inf], ["non-finite"] * 2),
        (1, [0.0, math.inf, -math.inf], ["non-finite"] * 2),
        (0, [0.0, 1e308, 1e308], ["row-sum"]),
        (1, [0.0, 1e308, 1e308], ["row-sum", "safe-not-absorbing"])])
    def test_row_whose_sum_warns_in_numpy(self, s, row, codes):
        # States 1 and 2 are safe, so the row of state 1 is summed twice:
        # whole, and over the safe states.  Neither sum warns (the test
        # settings make a RuntimeWarning an error).  A row with both
        # infinities sums to NaN, which is neither a row-sum nor a leak; a
        # row of large finite entries overflows to inf, which is both.
        P = np.zeros((3, 1, 3))
        P[[0, 1, 2], 0, [1, 1, 2]] = 1.0
        P[s, 0] = row
        mdp = MdpSpec(("s0", "s1", "s2"), ("a",), P, np.zeros((3, 1)), 0.9,
                      {1, 2})
        found = [v.code for v in validate(mdp).violations]
        assert [c for c in found if c != "probability-range"] == codes
        assert found.count("probability-range") == 2
        assert str(validate(mdp)) == str(reference_validate(mdp))

    @pytest.mark.parametrize("n,n_a", [(0, 0), (0, 2), (3, 0)])
    def test_empty_tensors(self, n, n_a):
        mdp = MdpSpec([f"s{i}" for i in range(n)],
                      [f"a{j}" for j in range(n_a)], np.zeros((n, n_a, n)),
                      np.zeros((n, n_a)), 0.9, set())
        assert str(validate(mdp)) == str(reference_validate(mdp)) == "ok"


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
        assert Policy(actions).table is not actions
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

    def test_loaded_arrays_are_frozen_in_place(self, tmp_path):
        doc = mdp_to_document(two_state_mdp())
        field = mdp_module.document_field(doc, "transitions", list, float)
        assert not field.flags.writeable
        assert MdpSpec(("s0", "s1"), ("a0", "a1"), field,
                       np.zeros((2, 2)), 0.9, {1}).transition is field
        # A large document's tensor is decoded into the spec's array.
        path = tmp_path / "large.json"
        path.write_text(sparse_document_text(60))
        doc = read_document(path)
        field = doc["transitions"]
        assert isinstance(field, np.ndarray) and not field.flags.writeable
        assert mdp_module.document_field(doc, "transitions", list,
                                         float) is field
        assert mdp_from_document(doc).transition is field


class TestInduceChain:
    def test_deterministic_matches_edges(self):
        mdp = two_state_mdp()
        chain = induce_chain(mdp, Policy([0, 0]))
        assert chain.Q.shape == (1, 1)
        assert chain.Q[0, 0] == 0.0 and chain.absorb[0] == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_summation(self, seed):
        mdp = random_mdp(seed, n_states=4, n_actions=3)
        rng = np.random.default_rng(1000 + seed)
        table = rng.integers(0, 3, size=4)
        chain = induce_chain(mdp, Policy(table))
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
            induce_chain(two_state_mdp(), Policy([0]))

    def test_rejects_an_action_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            induce_chain(two_state_mdp(), Policy([0, 2]))

    @pytest.mark.parametrize("table", [[[0, 1]], [0, -1]])
    def test_policy_rejects_a_table_that_is_not_of_action_indices(self,
                                                                   table):
        with pytest.raises(ValueError, match="1-d|negative"):
            Policy(table)


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
        v = value_iteration(mdp).values
        np.testing.assert_allclose(v, best_value_by_enumeration(mdp),
                                   atol=VALUE_TOL)

    def test_rejects_bad_discount(self):
        mdp = MdpSpec(("s",), ("a",), [[[1.0]]], [[1.0]], 1.0, set())
        with pytest.raises(ValueError):
            value_iteration(mdp)

    def test_rejects_a_negative_residual(self):
        with pytest.raises(ValueError, match="residual must be nonnegative"):
            ValueFunction(np.zeros(2), -1e-12)


@st.composite
def optimum_cases(draw):
    """MDPs for V*: random sparse rows with some actions copying
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
    return mdp


class TestPolicyIterationOptimum:
    @settings(max_examples=150, deadline=None)
    @given(optimum_cases())
    def test_matches_value_iteration_with_a_bellman_certificate(self, mdp):
        with mock.patch.object(mdp_module, "policy_values",
                               wraps=mdp_module.policy_values) as solve:
            v_star = value_iteration(mdp)
        # Ties switch no action, so the loop ends well before its cap.
        assert 1 <= solve.call_count < mdp_module.POLICY_ROUNDS
        reference = reference_value_iteration(mdp, VALUE_TOL).values
        np.testing.assert_allclose(v_star.values, reference, rtol=0,
                                   atol=VALUE_TOL)
        q = q_values(mdp, v_star.values)
        assert v_star.residual \
            == float(np.max(np.abs(q.max(axis=1) - v_star.values)))
        assert v_star.residual <= VALUE_TOL * (1.0 - mdp.discount)

    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e12])
    def test_large_values_are_certified_at_rounding_level(self, scale):
        # VALUE_TOL*(1-g) is below the values' rounding here; value iteration
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
        policy = Policy(rng.integers(0, 2, size=4))
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
        v_star = value_iteration(mdp)
        v_pi = policy_evaluation(mdp, greedy_policy(mdp, v_star))
        np.testing.assert_allclose(v_pi, v_star.values, atol=10 * VALUE_TOL)

    @pytest.mark.parametrize("seed", range(20))
    def test_no_policy_beats_optimal(self, seed):
        mdp = random_mdp(seed, n_states=4, n_actions=2)
        v_star = value_iteration(mdp).values
        rng = np.random.default_rng(seed)
        for _ in range(5):
            policy = rng.dirichlet(np.ones(2), size=4)
            v = policy_evaluation(mdp, policy)
            assert np.all(v <= v_star + VALUE_TOL)


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


def sparse_document_text(n, n_actions=3, seed=0):
    """The compact JSON text of an MDP document whose rows each move to
    ceil(0.03 * n) states, as the benchmark's embedded MDPs do."""
    gen = np.random.default_rng(seed)
    k = math.ceil(0.03 * n)
    P = np.zeros((n, n_actions, n))
    for s in range(n):
        for a in range(n_actions):
            P[s, a, gen.choice(n, size=k, replace=False)] = \
                gen.dirichlet(np.ones(k))
    doc = {"states": [f"s{i}" for i in range(n)],
           "actions": [f"a{j}" for j in range(n_actions)],
           "transitions": P.tolist(),
           "rewards": gen.random((n, n_actions)).tolist(),
           "discount": 0.9, "safe": []}
    return json.dumps(doc, separators=(",", ":"))


# Texts of a tensor entry: json numbers of every form, and texts that json
# rejects or reads as something other than a number.
READER_TOKENS = (
    "0.0", "-0.0", "0", "-0", "3", "0.5", "0.125", "1.0", "10.0", "0.00",
    "00.0", "0.0e0", "1e-3", "2E+5", "1e400", "-1e400", "1e-400",
    "1" + "0" * 400, "-" + "9" * 400, "00", "01", "1.", "+1", ".5", "-",
    "1e", "0.0.0", "", "NaN", "Infinity", "-Infinity", "true", "null",
    '"0.0"', "[]", "[0.5]")


def tensor_text(value, layout, indent=1):
    """The text of a nested list whose leaves are entry texts: compact,
    with a space after each comma, or pretty-printed as ``random`` writes
    a document."""
    if isinstance(value, str):
        return value
    items = [tensor_text(v, layout, indent + 1) for v in value]
    if layout != "pretty" or not items:
        return "[" + (", " if layout == "spaced" else ",").join(items) + "]"
    pad = "  " * indent
    return "[\n" + pad + "  " + (",\n" + pad + "  ").join(items) + "\n" \
        + pad + "]"


# The ways reader_document departs from a compact, rectangular ASCII text.
QUIRKS = ("short row", "long row", "empty row", "short matrix", "pretty",
          "spaced", "one space", "stray number", "non-ASCII id",
          "escaped key", "repeated key", "early key", "nested key",
          "rewards_sas", "outer whitespace", "trailing data",
          "byte-order mark", "bytes")


def reader_document(seed, shape, density, entries=(), quirks=()):
    """The JSON text, or its UTF-8 bytes, of an MDP document whose tensor
    of ``shape`` holds zeros "0.0" and a ``density`` share of other
    numbers, the texts ``entries`` (flat index, text) and the ``quirks``."""
    gen = np.random.default_rng(seed)
    n_s, n_a, n_t = shape
    values = np.where(gen.random(shape) < density, gen.random(shape), 0.0)
    tensor = [[[repr(float(v)) for v in row] for row in matrix]
              for matrix in values]
    for spot, token in entries:
        s, a, t = np.unravel_index(spot % values.size, shape)
        tensor[s][a][t] = token
    matrix = tensor[gen.integers(n_s)]
    row = matrix[gen.integers(n_a)]
    if "short row" in quirks:
        row.pop()
    if "long row" in quirks:
        row.append("0.0")
    if "empty row" in quirks:
        row.clear()
    if "short matrix" in quirks:
        matrix.pop()
    layout = next((q for q in ("pretty", "spaced") if q in quirks), "compact")
    text = tensor_text(tensor, layout)
    if "one space" in quirks:
        at = text.index(",", int(gen.integers(len(text) - 8)))
        text = text[:at + 1] + " " + text[at + 1:]
    if "stray number" in quirks:
        # After a row that another follows, which a small block ends:
        # json reads "[0.5" as one number, so the reader must see it.
        row_end = re.compile(r"\d\],")
        at = (row_end.search(text, int(gen.integers(len(text))))
              or row_end.search(text)).start() + 2
        text = text[:at] + ".5" + text[at:]
    ids = [f"s{i}" for i in range(n_s)]
    if "non-ASCII id" in quirks:
        ids[-1] = "\u00e9tat"
    fields = [("states", json.dumps(ids)),
              ("actions", json.dumps([f"a{j}" for j in range(n_a)])),
              ("transitions", text),
              ("rewards", json.dumps(gen.random((n_s, n_a)).tolist())),
              ("discount", "0.9"), ("safe", json.dumps(ids[-1:]))]
    fields = [(json.dumps(key), value) for key, value in fields]
    if "escaped key" in quirks:
        fields[2] = ('"transiti\\u006fns"', text)
    if "repeated key" in quirks:
        fields.append(('"transitions"', tensor_text(
            [[["0.0"] * n_t] * n_a] * n_s, "compact")))
    if "early key" in quirks:
        fields.insert(0, ('"transitions"', "[[[1.0]]]"))
    if "nested key" in quirks:
        fields.append(('"meta"', '{"transitions":' + text + "}"))
    if "rewards_sas" in quirks:
        fields.append(('"rewards_sas"', text))
    compact = layout == "compact"
    text = "{" + ("," if compact else ",\n  ").join(
        key + (":" if compact else ": ") + value for key, value in fields) \
        + "}"
    if "outer whitespace" in quirks:
        text = "\n " + text + " \n"
    if "trailing data" in quirks:
        text += str(gen.choice([" x", ",", "}", "{}"]))
    if "byte-order mark" in quirks:
        text = "\ufeff" + text
    return text.encode() if "bytes" in quirks else text


@st.composite
def reader_documents(draw):
    """reader_document texts whose tensors cross the reader's size
    constant, with up to three entries of READER_TOKENS and up to three
    quirks."""
    n_s = draw(st.integers(46, 56))
    shape = (n_s, draw(st.integers(2, 3)),
             n_s + draw(st.sampled_from([0, 0, -1, 1])))
    entries = draw(st.lists(st.tuples(st.integers(0, 10 ** 6),
                                      st.sampled_from(READER_TOKENS)),
                            max_size=3))
    return reader_document(
        draw(st.integers(0, 2 ** 32 - 1)), shape,
        draw(st.sampled_from([0.03, 0.2, 0.0, 0.03, 0.2, 0.5])), entries,
        draw(st.lists(st.sampled_from(QUIRKS), max_size=3, unique=True)))


def read_with(reader, text):
    """(document, None) that ``reader`` reads from a file object of
    ``text``, or (None, the exception it raises)."""
    source = io.BytesIO(text) if isinstance(text, bytes) \
        else io.StringIO(text)
    try:
        return reader(source), None
    except Exception as exc:
        return None, exc


def assert_same_document(ours, oracle):
    """Equal documents: each tensor that ``ours`` holds as an array is a
    frozen float array with the bits of the oracle's nested list, and
    every other value has the oracle's text (so -0.0, 0 and 0.0 differ)."""
    assert list(ours) == list(oracle)
    for key, value in oracle.items():
        if isinstance(ours[key], np.ndarray):
            assert key in ("transitions", "rewards_sas")
            expected = np.array(value, dtype=float)
            assert ours[key].dtype == float and ours[key].shape == \
                expected.shape and not ours[key].flags.writeable
            assert np.array_equal(ours[key].view(np.uint64),
                                  expected.view(np.uint64))
        else:
            assert repr(ours[key]) == repr(value)


def assert_reads_as_json(text, block):
    """read_document, with tensors read in blocks of ``block`` characters,
    reads ``text`` as json alone does, or raises what json raises; the
    document read, or None."""
    assert len(text) >= mdp_module.VECTOR_MIN_CHARS
    with mock.patch.object(mdp_module, "_BLOCK_CHARS", block):
        ours, error = read_with(read_document, text)
    oracle, oracle_error = read_with(reference_read_document, text)
    if oracle_error is not None:
        assert type(error) is type(oracle_error)
        assert str(error) == str(oracle_error)
    else:
        assert error is None
        assert_same_document(ours, oracle)
    return ours


class TestReaderAgainstReference:
    """read_document against the json reader it replaced
    (helpers.reference_read_document): the same document, with its
    tensors bit for bit, or the same exception and message.  A block of
    64 characters cuts a tensor at every row."""

    @settings(max_examples=150, deadline=None)
    @given(text=reader_documents(),
           block=st.sampled_from([mdp_module._BLOCK_CHARS, 64, 1000]))
    def test_same_document_or_error(self, text, block):
        doc = assert_reads_as_json(text, block)
        event("error" if doc is None else "vectorised" if isinstance(
            doc.get("transitions"), np.ndarray) else "json")

    @pytest.mark.parametrize("block", [mdp_module._BLOCK_CHARS, 64])
    @pytest.mark.parametrize("quirk", QUIRKS)
    def test_each_quirk(self, quirk, block):
        assert_reads_as_json(reader_document(1, (48, 2, 48), 0.03,
                                             quirks=[quirk]), block)

    @pytest.mark.parametrize("token", READER_TOKENS)
    def test_each_token_first_inside_and_last(self, token):
        assert_reads_as_json(reader_document(
            1, (48, 2, 48), 0.03, [(0, token), (2000, token), (-1, token)]),
            64)

    @pytest.mark.parametrize("n,vectorised", [(20, False), (60, True),
                                              (200, True)])
    def test_a_large_sparse_tensor_is_decoded_to_an_array(self, n,
                                                          vectorised):
        text = sparse_document_text(n)
        assert (len(text) >= mdp_module.VECTOR_MIN_CHARS) == vectorised
        ours = read_document(io.StringIO(text))
        assert isinstance(ours["transitions"], np.ndarray) == vectorised
        assert_same_document(ours, json.loads(text))

    def test_reading_peaks_lower_than_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(sparse_document_text(200))
        peaks = []
        for reader in (read_document, reference_read_document):
            tracemalloc.start()
            try:
                doc = reader(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del doc
        assert peaks[0] < peaks[1]

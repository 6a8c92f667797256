import io
import json
import math

import numpy as np
import pytest

from helpers import best_value_by_enumeration, random_mdp
from mdp_stability import (MdpSpec, Policy, dump_mdp, greedy_policy,
                           induce_chain, load_mdp, mdp_from_document,
                           mdp_to_document, policy_evaluation, validate,
                           value_iteration)
from mdp_stability.mdp import read_document


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


class TestInduceChain:
    def test_deterministic_matches_edges(self):
        mdp = two_state_mdp()
        chain = induce_chain(mdp, Policy.deterministic([0, 0]))
        assert chain.Q.shape == (1, 1)
        assert chain.Q[0, 0] == 0.0 and chain.absorb[0] == 1.0

    def test_uniform_policy_splits_mass(self):
        mdp = two_state_mdp()
        chain = induce_chain(mdp, Policy.stochastic([[0.5, 0.5], [1, 0]]))
        assert chain.Q[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert chain.absorb[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_summation(self, seed):
        mdp = random_mdp(seed, n_states=4, n_actions=3)
        rng = np.random.default_rng(1000 + seed)
        table = rng.dirichlet(np.ones(3), size=4)
        chain = induce_chain(mdp, Policy.stochastic(table))
        keep = mdp.nonsafe_indices
        for ci, i in enumerate(keep):
            for cj, j in enumerate(keep):
                direct = sum(table[i, a] * mdp.transition[i, a, j]
                             for a in range(3))
                assert chain.Q[ci, cj] == pytest.approx(direct, abs=1e-12)
            rows = chain.Q[ci].sum() + chain.absorb[ci]
            assert rows == pytest.approx(1.0, abs=1e-12)


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


class TestPolicyEvaluation:
    def test_zero_rewards(self):
        mdp = two_state_mdp()
        v = policy_evaluation(mdp.with_rewards(np.zeros((2, 2))),
                              Policy.deterministic([0, 0]))
        np.testing.assert_allclose(v.values, 0.0)

    def test_single_state_closed_form(self):
        mdp = MdpSpec(("s",), ("a",), [[[1.0]]], [[1.0]], 0.9, set())
        v = policy_evaluation(mdp, Policy.deterministic([0]))
        assert v.values[0] == pytest.approx(10.0, abs=1e-9)
        assert v.residual <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_value_iteration_on_fixed_policy(self, seed):
        mdp = random_mdp(seed, n_states=4, n_actions=2, gamma=0.85)
        rng = np.random.default_rng(seed)
        policy = Policy.deterministic(rng.integers(0, 2, size=4))
        exact = policy_evaluation(mdp, policy).values
        # Iterative oracle: collapse to a single-action MDP and run VI.
        pi = policy.matrix(2)
        P = np.einsum("sa,sat->st", pi, mdp.transition)[:, None, :]
        r = np.einsum("sa,sa->s", pi, mdp.reward)[:, None]
        collapsed = MdpSpec(mdp.state_ids, ("only",), P, r, mdp.discount,
                            mdp.safe_set)
        iterative = value_iteration(collapsed, 1e-10).values
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
        np.testing.assert_allclose(v_pi.values, v_star.values, atol=10 * tol)

    @pytest.mark.parametrize("seed", range(20))
    def test_no_policy_beats_optimal(self, seed):
        mdp = random_mdp(seed, n_states=4, n_actions=2)
        tol = 1e-10
        v_star = value_iteration(mdp, tol).values
        rng = np.random.default_rng(seed)
        for _ in range(5):
            policy = Policy.stochastic(rng.dirichlet(np.ones(2), size=4))
            v = policy_evaluation(mdp, policy).values
            assert np.all(v <= v_star + tol)


class TestJsonDocuments:
    def test_round_trip(self):
        mdp = two_state_mdp()
        buf = io.StringIO()
        dump_mdp(mdp, buf)
        buf.seek(0)
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
            value_iteration(mdp.with_rewards(reward))

    def test_unknown_safe_state_rejected(self):
        doc = mdp_to_document(two_state_mdp())
        doc["safe"] = ["nope"]
        with pytest.raises(ValueError, match="nope"):
            load_mdp(doc)

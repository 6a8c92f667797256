import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (reference_bound_and_slack, reference_jacobian_l1_norm,
                     reference_realize_chain, reference_shutdown_probability,
                     reference_toy_policy, uniform_base,
                     validate_diff_policy)
from mdp_stability import (DiffPolicy, EmbeddedMdp, MdpSpec, Perturbation,
                           StartDistribution, analyze_chain,
                           build_uniform_shutdown, chain_perturbation_bound,
                           embedded_to_document, finite_difference_jacobian,
                           load_embedded, load_toy_policy, make_toy_policy,
                           rate_of_decrease_check, realize_chain,
                           shutdown_probability, tighten_policy_bound)
from mdp_stability import onpolicy
from mdp_stability.onpolicy import (decrease_bound, jacobian_l1_norm,
                                    perturbation_size, spectral_radius,
                                    transient_set)
from mdp_stability.mdp import strong_components
from mdp_stability.scenarios import random_family, random_perturbation


def embedded(seed=0, n_states=5, n_actions=2, dim=3):
    return random_family(seed, (n_states, n_actions, dim))


def uniform_policy(n_actions, dim):
    return make_toy_policy(np.zeros((n_actions, dim)))


class TestRealizeChain:
    def test_deterministic_env_point_mass_policy(self):
        # Two actions moving deterministically; the policy pins action 0.
        P = np.zeros((2, 2, 2))
        P[0, 0, 1] = 1.0
        P[0, 1, 0] = 1.0
        P[1, :, 1] = 1.0
        base = MdpSpec(("u", "v"), ("go", "stay"), P, np.zeros((2, 2)),
                       0.9, {1})
        emdp = EmbeddedMdp(base, [[1.0], [10.0]])
        policy = make_toy_policy([[1.0], [-1.0]], temperature=1e-3)
        chain = realize_chain(emdp, policy)
        np.testing.assert_allclose(chain, [[0.0, 1.0], [0.0, 1.0]],
                                   atol=1e-12)

    def test_uniform_policy_averages_kernels(self):
        emdp = embedded(1)
        policy = uniform_policy(2, emdp.dim)
        chain = realize_chain(emdp, policy)
        np.testing.assert_allclose(
            chain, emdp.base.transition.mean(axis=1), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_summation(self, seed):
        emdp = embedded(seed)
        rng = np.random.default_rng(seed)
        policy = make_toy_policy(rng.standard_normal((2, emdp.dim)))
        chain = realize_chain(emdp, policy)
        for i in range(emdp.base.n_states):
            row = policy.evaluator(emdp.embedding[i])
            direct = sum(row[a] * emdp.base.transition[i, a]
                         for a in range(2))
            np.testing.assert_allclose(chain[i], direct, atol=1e-12)

    def test_rejects_invalid_evaluator(self):
        emdp = embedded(2)
        bad = DiffPolicy(lambda x: np.array([0.7, 0.7]),
                         lambda x: np.zeros((2, emdp.dim)), 0.0)
        with pytest.raises(ValueError, match="invalid"):
            realize_chain(emdp, bad)

    def test_rejects_a_non_stochastic_environment(self):
        # MdpSpec takes the 0.9-mass rows unchecked; the chain refuses them.
        emdp = embedded(2)
        base = emdp.base
        short = EmbeddedMdp(MdpSpec(base.state_ids, base.action_ids,
                                    0.9 * base.transition, base.reward,
                                    base.discount, base.safe_set),
                            emdp.embedding)
        with pytest.raises(ValueError, match="realized chain rows are not "
                           "stochastic"):
            realize_chain(short, uniform_policy(2, emdp.dim))

    def test_names_the_first_invalid_row(self):
        emdp = embedded(2)
        rows = np.full((emdp.base.n_states, 2), 0.5)
        rows[3] = [0.7, 0.7]
        rows[4] = [np.nan, 0.5]
        bad = DiffPolicy(lambda X: rows, None, 0.0)
        with pytest.raises(ValueError, match="invalid distribution at "
                                             "state 3"):
            realize_chain(emdp, bad)
        rows[3] = 0.5
        with pytest.raises(ValueError, match=r"at state 4: \[nan 0\.5\]"):
            realize_chain(emdp, bad)


class TestTransientSet:
    def test_single_hop(self):
        P = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert transient_set(P, {1}) == {0}

    def test_disconnected_component_excluded(self):
        P = np.zeros((4, 4))
        P[0, 1] = 1.0
        P[1, 2] = 1.0
        P[2, 2] = 1.0
        P[3, 3] = 1.0
        assert transient_set(P, {2}) == {0, 1}

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bfs_oracle(self, seed):
        emdp = embedded(seed, n_states=6)
        chain = realize_chain(emdp, uniform_policy(2, emdp.dim))
        safe = emdp.base.safe_set
        # Path-enumeration oracle up to length |S|.
        n = chain.shape[0]
        reach = set(safe)
        for _ in range(n):
            for i in range(n):
                if i in reach:
                    continue
                if any(chain[i, j] > 1e-15 and j in reach for j in range(n)):
                    reach.add(i)
        assert transient_set(chain, safe) == frozenset(reach - safe)


class TestShutdownProbability:
    def test_start_inside_safe(self):
        emdp = embedded(3)
        chain = realize_chain(emdp, uniform_policy(2, emdp.dim))
        safe = emdp.base.safe_set
        start = StartDistribution.point_mass(emdp.base.n_states, min(safe))
        assert shutdown_probability(chain, safe, start) == pytest.approx(
            1.0, abs=1e-12)

    def test_recurrent_state_scores_zero(self):
        P = np.array([[1.0, 0.0], [0.0, 1.0]])
        start = StartDistribution.point_mass(2, 0)
        assert shutdown_probability(P, {1}, start) == 0.0

    def test_half_and_half(self):
        # One step: safe w.p. 1/2, dead self-loop otherwise.
        P = np.array([[0.0, 0.5, 0.5],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0]])
        start = StartDistribution.point_mass(3, 0)
        value = shutdown_probability(P, {2}, start)
        # Truncated-series oracle to 1e-12.
        series, state = 0.0, np.array([1.0, 0.0, 0.0])
        v_safe = np.array([0.0, 0.0, 1.0])
        I_trans = np.diag([1.0, 0.0, 0.0])
        for _ in range(200):
            series += state @ P @ v_safe
            state = state @ (P @ I_trans)
            if state.sum() < 1e-14:
                break
        assert value == pytest.approx(series, abs=1e-12)
        assert value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_closed_form_equals_truncated_series(self, seed):
        emdp = embedded(seed, n_states=6)
        P = realize_chain(emdp, uniform_policy(2, emdp.dim))
        safe = emdp.base.safe_set
        start = StartDistribution.uniform_over(6, emdp.base.nonsafe_indices)
        value = shutdown_probability(P, safe, start)
        v_safe = np.zeros(6)
        v_safe[list(safe)] = 1.0
        trans = sorted(transient_set(P, safe))
        I_trans = np.zeros((6, 6))
        for t in trans:
            I_trans[t, t] = 1.0
        series = 0.0
        vec = start.weights.copy()
        M = P @ I_trans
        for _ in range(100_000):
            series += vec @ P @ v_safe
            vec = vec @ M
            if np.abs(vec).max() < 1e-12:
                break
        assert value == pytest.approx(series, abs=1e-10)


@st.composite
def shutdown_chains(draw):
    """(P, safe, starts): one to three absorbing safe states at any index,
    closed non-safe classes that never reach them, and free states that
    may or may not; every non-safe state may be closed, which leaves no
    transient state.  Rows have supports of any length, point masses
    included.  The starts are a random distribution, uniform ones over
    the safe and the non-safe states, and every point mass."""
    n = draw(st.integers(1, 12))
    n_safe = draw(st.integers(1, min(3, n)))
    n_closed = n - n_safe if draw(st.booleans()) \
        else draw(st.integers(0, n - n_safe))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = rng.permutation(n)
    safe = order[:n_safe]
    closed = order[n_safe:n_safe + n_closed]
    P = np.zeros((n, n))
    for rows, dests in ((safe, safe), (closed, closed),
                        (order[n_safe + n_closed:], order)):
        for row in rows:
            k = rng.integers(1, len(dests) + 1)
            P[row, rng.choice(dests, size=k, replace=False)] = \
                rng.dirichlet(np.ones(k))
    nonsafe = order[n_safe:]
    starts = [StartDistribution(rng.dirichlet(np.ones(n))),
              StartDistribution.uniform_over(n, safe)]
    if len(nonsafe):
        starts.append(StartDistribution.uniform_over(n, nonsafe))
    starts += [StartDistribution.point_mass(n, s) for s in range(n)]
    return P, frozenset(safe.tolist()), starts


class TestShutdownAgainstReference:
    """I - P diag(held) against the column gather and scatter it replaced
    (helpers.reference_shutdown_probability), bit for bit: a point mass
    reads one entry of the solution."""

    @settings(max_examples=150, deadline=None)
    @given(case=shutdown_chains())
    def test_same_bits_as_the_column_gather(self, case):
        P, safe, starts = case
        trans = transient_set(P, safe)
        for start in starts:
            ours = shutdown_probability(P, safe, start, trans)
            assert ours.hex() == reference_shutdown_probability(
                P, safe, start, trans).hex()
            assert shutdown_probability(P, safe, start).hex() == ours.hex()

    def test_a_chain_without_transient_states(self):
        # A non-safe two-cycle and a non-safe absorbing state beside two
        # safe states: nothing is held, so the system is I itself.
        P = np.array([[0.0, 1.0, 0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.5, 0.5],
                      [0.0, 0.0, 0.0, 0.25, 0.75]])
        safe = {3, 4}
        assert transient_set(P, safe) == frozenset()
        for s, expected in enumerate([0.0, 0.0, 0.0, 1.0, 1.0]):
            start = StartDistribution.point_mass(5, s)
            assert shutdown_probability(P, safe, start) == expected \
                == reference_shutdown_probability(P, safe, start)


def certified(M):
    """spectral_radius(M), with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return spectral_radius(M)


# Relative rounding of np.linalg.eigvals, which serves as the oracle.
EIG_ROUNDING = 16 * np.finfo(float).eps


@st.composite
def nonnegative_matrices(draw):
    """Nonnegative matrices of up to 8 states from the families the
    bracket must handle: dense, zero rows, scaled permutations (periodic),
    strictly triangular (nilpotent), Jordan-like (defective), block
    triangular (reducible) under a permutation, and 1x1."""
    family = draw(st.sampled_from(["dense", "zero-rows", "permutation",
                                   "triangular", "jordan", "block",
                                   "scalar"]))
    n = 1 if family == "scalar" else draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = rng.permutation(n)
    M = rng.random((n, n))
    if family == "zero-rows":
        M[rng.permutation(n)[:rng.integers(1, n)]] = 0.0
    elif family == "permutation":
        M = np.zeros((n, n))
        M[np.arange(n), order] = rng.random(n)
    elif family == "triangular":
        M = np.triu(M, 1)[np.ix_(order, order)]
    elif family == "jordan":
        M = M[0, 0] * np.eye(n) + np.eye(n, k=1)
    elif family == "block":
        M *= rng.random((n, n)) < 0.7
        cut = rng.integers(1, n)
        M[cut:, :cut] = 0.0
        M = M[np.ix_(order, order)]
    return M


class TestSpectralRadius:
    def test_scalar(self):
        assert certified(np.array([[0.5]])) == 0.5

    def test_periodic_swap(self):
        M = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert certified(M) == pytest.approx(0.5, abs=1e-10)

    def test_nilpotent(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert certified(M) == 0.0

    def test_empty(self):
        assert certified(np.zeros((0, 0))) == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_characteristic_polynomial_roots(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.random((5, 5))
        M = M / (M.sum(axis=1, keepdims=True) + rng.random((5, 1)) + 0.1)
        roots = np.roots(np.poly(M))
        expected = float(np.max(np.abs(roots)))
        assert certified(M) == pytest.approx(expected, abs=1e-8)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            certified(np.array([[-0.1]]))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    def test_rejects_a_non_square_matrix(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            spectral_radius(np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            certified(np.array([[0.5, bad], [0.0, 0.5]]))

    def test_nilpotent_path_is_exactly_zero(self):
        assert certified(np.eye(200, k=1)) == 0.0

    def test_defective_block_is_its_diagonal(self):
        assert certified(np.array([[0.5, 1.0], [0.0, 0.5]])) == 0.5

    def test_slow_cycle_is_bounded_from_above(self):
        # B + I mixes a 200-cycle too slowly for the bracket to close
        # within the step cap; its upper end still bounds the Perron root,
        # the geometric mean of the weights.
        weights = np.linspace(0.5, 1.0, 200)
        M = np.zeros((200, 200))
        M[np.arange(200), (np.arange(200) + 1) % 200] = weights
        rho = float(np.exp(np.log(weights).mean()))
        assert rho <= certified(M) <= 1.0

    def test_long_cycle_keeps_its_iterate_in_range(self):
        # The Perron vector of this 300-cycle spans 32 decades.  Had the
        # iterate shrunk by (1 + rho)/(1 + hi) a step, it would have gone
        # subnormal within a few thousand steps and left the bracket at
        # [0, 0.502]; rescaled to max 1, it keeps narrowing up to the step
        # cap.
        weights = np.linspace(0.1, 1.0, 300)
        M = np.zeros((300, 300))
        M[np.arange(300), (np.arange(300) + 1) % 300] = weights
        rho = float(np.exp(np.log(weights).mean()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = onpolicy._perron_bracket(M)
        assert 0.0 < lo <= rho <= hi < rho + 0.02
        assert certified(M) == hi

    def test_bracket_stops_before_its_iterate_underflows(self):
        # Half of this 250-cycle has weight 1 and half 1e-6, so its Perron
        # vector spans 375 decades, past the float range: the iteration
        # stops while x is still normal, with a bracket that holds rho.
        weights = np.where(np.arange(250) < 125, 1.0, 1e-6)
        M = np.zeros((250, 250))
        M[np.arange(250), (np.arange(250) + 1) % 250] = weights
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = onpolicy._perron_bracket(M)
        assert 0.0 < lo <= 1e-3 <= hi < 1.0

    @settings(max_examples=200, deadline=None)
    @given(M=nonnegative_matrices())
    def test_bracket_holds_the_eigenvalue_modulus(self, M):
        true = float(np.max(np.abs(np.linalg.eigvals(M))))
        brackets = [onpolicy._perron_bracket(M[np.ix_(c, c)])
                    for c in strong_components(M > 0)]
        rho = certified(M)
        assert rho == max((hi for _, hi in brackets), default=0.0)
        assert rho >= true * (1.0 - EIG_ROUNDING)
        assert all(lo <= true * (1.0 + EIG_ROUNDING) for lo, _ in brackets)
        if all(hi - lo <= 1e-12 * hi for lo, hi in brackets):
            assert rho <= true * (1.0 + 1e-9) + 1e-12


@pytest.mark.parametrize("check", [
    lambda emdp, pert: perturbation_size(emdp, uniform_policy(2, emdp.dim),
                                         pert),
    onpolicy.apply_perturbation], ids=["size", "apply"])
@pytest.mark.parametrize("moved", ["delta_S", "delta_T"])
def test_perturbation_shape_must_match_the_mdp(check, moved):
    emdp = embedded(4)
    zero = Perturbation.zero(emdp)
    resized = {"delta_S": zero.delta_S, "delta_T": zero.delta_T,
               moved: np.zeros(getattr(zero, moved).shape[:-1] + (1,))}
    with pytest.raises(ValueError, match="perturbation shape mismatch"):
        check(emdp, Perturbation(**resized))


class TestPerturbationSize:
    def test_zero(self):
        emdp = embedded(4)
        policy = uniform_policy(2, emdp.dim)
        assert perturbation_size(emdp, policy,
                                 Perturbation.zero(emdp)) == 0.0

    def test_formula_arithmetic(self):
        base = MdpSpec(("u", "v"), ("a",), [[[0.5, 0.5]], [[0.0, 1.0]]],
                       np.zeros((2, 1)), 0.9, {1})
        emdp = EmbeddedMdp(base, [[0.0], [1.0]])
        policy = DiffPolicy(lambda x: np.array([1.0]),
                            lambda x: np.zeros((1, 1)), 1.0)
        dT = np.zeros((2, 1, 2))
        dT[0, 0] = [0.1, -0.1]           # l1 mass 0.2
        pert = Perturbation([[0.1], [0.0]], dT)
        # 0.5 * |S| * b * ||dS||_1 + ||dT||_1 = 0.5*2*1*0.1 + 0.2 = 0.3
        assert perturbation_size(emdp, policy, pert) == pytest.approx(
            0.3, abs=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_recomputation_by_direct_summation(self, seed):
        emdp = embedded(seed)
        rng = np.random.default_rng(seed)
        policy = make_toy_policy(rng.standard_normal((2, emdp.dim)))
        pert = random_perturbation(emdp, policy, 1e-4, seed)
        expected = 0.5 * emdp.base.n_states * policy.bound_b * sum(
            math.sqrt(float(row @ row)) for row in pert.delta_S) \
            + float(sum(abs(x) for x in pert.delta_T.ravel()))
        assert perturbation_size(emdp, policy, pert) == pytest.approx(
            expected, abs=1e-15)


class TestApplyPerturbation:
    def shifted(self, emdp, *moves):
        """A zero-coordinate perturbation that adds each (s, a, j, mass) to
        the entry P[s, a, j]."""
        dT = np.zeros_like(emdp.base.transition)
        for s, a, j, mass in moves:
            dT[s, a, j] += mass
        return Perturbation(np.zeros_like(emdp.embedding), dT)

    def point_mass_mdp(self):
        """s0 moves to s1 surely; s1 splits its mass between s0 and the
        safe s2."""
        P = np.array([[[0.0, 1.0, 0.0]],
                      [[0.5, 0.0, 0.5]],
                      [[0.0, 0.0, 1.0]]])
        base = MdpSpec(("s0", "s1", "s2"), ("a",), P, np.zeros((3, 1)),
                       0.9, {2})
        return EmbeddedMdp(base, [[0.0], [1.0], [2.0]])

    def test_rejects_a_changed_row_sum(self):
        emdp = embedded(4)
        pert = self.shifted(emdp, (0, 0, 0, 1e-9))
        with pytest.raises(ValueError, match="delta_T changes a row sum"):
            onpolicy.apply_perturbation(emdp, pert)

    def test_rejects_an_entry_below_zero(self):
        emdp = embedded(4)
        P = emdp.base.transition
        s, a, empty = np.argwhere(P[:-1] == 0.0)[0]
        full = np.argmax(P[s, a])
        pert = self.shifted(emdp, (s, a, empty, -1e-3), (s, a, full, 1e-3))
        with pytest.raises(ValueError, match="escape"):
            onpolicy.apply_perturbation(emdp, pert)

    def test_rejects_an_entry_above_one(self):
        emdp = self.point_mass_mdp()
        pert = self.shifted(emdp, (0, 0, 1, 1e-3), (0, 0, 2, -1e-3))
        with pytest.raises(ValueError, match="escape"):
            onpolicy.apply_perturbation(emdp, pert)

    @pytest.mark.parametrize("move, at, clipped", [
        ((1, 0, 1, -5e-16), (1, 0, 1), 0.0),
        ((0, 0, 1, 5e-16), (0, 0, 1), 1.0)], ids=["below-0", "above-1"])
    def test_a_rounding_step_outside_the_range_is_clipped(self, move, at,
                                                           clipped):
        emdp = self.point_mass_mdp()
        pert = self.shifted(emdp, move)
        moved = emdp.base.transition + pert.delta_T
        assert not 0.0 <= moved[at] <= 1.0
        P = onpolicy.apply_perturbation(emdp, pert).base.transition
        assert P[at] == clipped and not np.signbit(P[at])
        moved[at] = clipped
        assert P.tobytes() == moved.tobytes()

    def test_a_nan_beside_an_escaping_entry_still_escapes(self):
        # A plain min or max would be NaN here and let -0.5 through.
        emdp = embedded(4)
        P = emdp.base.transition
        s, a, empty = np.argwhere(P[:-1] == 0.0)[0]
        full = np.argmax(P[s, a])
        pert = self.shifted(emdp, (s, a, empty, -0.5), (s, a, full, 0.5),
                            (s + 1, a, full, np.nan))
        with pytest.raises(ValueError, match="escape"):
            onpolicy.apply_perturbation(emdp, pert)

    def test_a_nan_alone_is_reported_as_non_finite(self):
        emdp = embedded(4)
        pert = self.shifted(emdp, (0, 0, 0, np.nan))
        with pytest.raises(ValueError, match="perturbed MDP invalid: "
                           ".*non-finite"):
            onpolicy.apply_perturbation(emdp, pert)

    def test_rejects_mass_leaving_the_safe_state(self):
        emdp = embedded(4)
        [safe] = emdp.base.safe_set
        pert = self.shifted(emdp, (safe, 0, safe, -0.1), (safe, 0, 0, 0.1))
        with pytest.raises(ValueError, match="perturbed MDP invalid: "
                           ".*safe-not-absorbing"):
            onpolicy.apply_perturbation(emdp, pert)


class TestChainPerturbationBound:
    def test_pure_transition_shift_is_exact(self):
        emdp = embedded(1)
        policy = uniform_policy(2, emdp.dim)
        pert = random_perturbation(emdp, policy, 1e-3, seed=5)
        assert np.all(pert.delta_S == 0.0)  # b = 0 forces all mass into dT
        report = chain_perturbation_bound(emdp, policy, pert)
        assert report.all_entries_ok
        assert np.all(report.slack == 0.0)
        assert report.aggregate_ok
        assert not report.first_order_only

    def test_pure_coordinate_shift_within_slack(self):
        emdp = embedded(2)
        rng = np.random.default_rng(0)
        policy = make_toy_policy(rng.standard_normal((2, emdp.dim)))
        dS = 1e-4 * rng.standard_normal(emdp.embedding.shape)
        pert = Perturbation(dS, np.zeros_like(emdp.base.transition))
        report = chain_perturbation_bound(emdp, policy, pert)
        assert report.all_entries_ok
        assert report.aggregate_ok

    @pytest.mark.parametrize("seed", range(10))
    def test_aggregate_bound_on_random_instances(self, seed):
        emdp = embedded(seed, n_states=6, dim=4)
        rng = np.random.default_rng(seed + 1)
        policy = make_toy_policy(rng.standard_normal((2, 4)))
        pert = random_perturbation(emdp, policy, 10.0 ** rng.uniform(-6, -3),
                                   seed)
        report = chain_perturbation_bound(emdp, policy, pert)
        assert report.all_entries_ok
        assert report.aggregate_ok
        assert report.delta_p_l1 <= report.size + emdp.base.n_states \
            * report.slack.sum() + 1e-12


class TestRateOfDecrease:
    def test_zero_perturbation(self):
        emdp = embedded(3)
        policy = uniform_policy(2, emdp.dim)
        report = rate_of_decrease_check(emdp, policy,
                                        Perturbation.zero(emdp),
                                        uniform_base(emdp, policy))
        assert report.ratio == 0.0
        assert report.within_bound and report.trans_preserved
        assert report.delta_s_pi == 0.0

    def test_uniform_shutdown_jump_is_a_semicontinuity_witness(self):
        # Recurrent dead chain: shutdown probability 0; blending in a 1/N
        # hop to safety lifts it to 1 at perturbation size 4/N.
        P = np.zeros((2, 2, 2))
        P[0, :, 0] = 1.0
        P[1, :, 1] = 1.0
        base = MdpSpec(("dead", "safe"), ("a0", "a1"), P, np.zeros((2, 2)),
                       0.9, {1})
        emdp = EmbeddedMdp(base, [[0.0], [1.0]])
        policy = uniform_policy(2, 1)
        N = 100.0
        modified = build_uniform_shutdown(base, N)
        pert = Perturbation(np.zeros((2, 1)),
                            modified.transition - base.transition)
        report = rate_of_decrease_check(emdp, policy, pert,
                                        uniform_base(emdp, policy))
        assert report.s_pi_before == 0.0
        assert report.s_pi_after == pytest.approx(1.0, abs=1e-12)
        assert report.size == pytest.approx(4.0 / N, abs=1e-12)
        assert report.within_bound          # increases never violate it
        assert report.trans_preserved

    @pytest.mark.parametrize("size", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_shrinking_sweep_stays_below_bound(self, size):
        emdp = embedded(6, n_states=6)
        rng = np.random.default_rng(9)
        policy = make_toy_policy(rng.standard_normal((2, emdp.dim)))
        pert = random_perturbation(emdp, policy, size, seed=17)
        report = rate_of_decrease_check(emdp, policy, pert,
                                        uniform_base(emdp, policy))
        assert report.within_bound
        assert report.s_pi_after > report.s_pi_before \
            - report.bound_B * report.size

    @pytest.mark.parametrize("seed", range(3))
    def test_the_perturbed_chain_is_read_from_the_base_start(self, seed):
        emdp = embedded(seed, n_states=6)
        policy = make_toy_policy(np.random.default_rng(seed)
                                 .standard_normal((2, emdp.dim)))
        pert = random_perturbation(emdp, policy, 1e-3, seed=seed)
        start = StartDistribution.point_mass(6, emdp.base.nonsafe_indices[0])
        base = analyze_chain(emdp, policy, start)
        report = rate_of_decrease_check(emdp, policy, pert, base)
        assert report.s_pi_before == base.safety
        assert report.s_pi_after == shutdown_probability(
            realize_chain(onpolicy.apply_perturbation(emdp, pert), policy),
            emdp.base.safe_set, start)

    def test_the_analysis_start_is_outside_its_equality_and_document(self):
        emdp = embedded(1, n_states=6)
        policy = uniform_policy(2, emdp.dim)
        start = StartDistribution.uniform_over(6, emdp.base.nonsafe_indices)
        base = analyze_chain(emdp, policy, start)
        assert base.start is start
        other = dataclasses.replace(
            base, start=StartDistribution.point_mass(6, 0))
        assert other == base
        assert other.to_document() == base.to_document()
        assert "start" not in base.to_document()


class TestToyPolicies:
    def test_zero_weights_give_uniform_and_zero_bound(self):
        policy = make_toy_policy(np.zeros((3, 2)))
        np.testing.assert_allclose(policy.evaluator([0.4, -0.2]),
                                   np.ones(3) / 3)
        np.testing.assert_allclose(policy.jacobian([0.4, -0.2]), 0.0)
        assert policy.bound_b == 0.0

    @pytest.mark.parametrize("weights", [[1.0, 2.0], [[[1.0]]], 0.5])
    def test_rejects_weights_that_are_not_two_dimensional(self, weights):
        with pytest.raises(ValueError, match=r"weights must be \(n_actions, "
                           r"d\)"):
            make_toy_policy(weights)

    def test_single_action_is_constant(self):
        policy = make_toy_policy([[1.0, 2.0]])
        np.testing.assert_allclose(policy.evaluator([3.0, -1.0]), [1.0])
        np.testing.assert_allclose(policy.jacobian([3.0, -1.0]), 0.0,
                                   atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_jacobian_matches_finite_differences(self, seed):
        # Probes live in the unit cube, the domain embeddings come from;
        # far outside it the softmax saturates and its gradient sinks under
        # the finite-difference noise floor.
        rng = np.random.default_rng(seed)
        policy = make_toy_policy(rng.standard_normal((3, 4)),
                                 temperature=0.7)
        for _ in range(50):
            x = rng.uniform(0.0, 1.0, size=4)
            jac = policy.jacobian(x)
            fd = finite_difference_jacobian(policy, x)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(jac - fd).max() / scale < 1e-6
            assert np.abs(jac.sum(axis=0)).max() < 1e-8

    def test_validate_diff_policy_clean(self):
        rng = np.random.default_rng(2)
        policy = make_toy_policy(rng.standard_normal((2, 3)))
        points = rng.standard_normal((10, 3))
        assert validate_diff_policy(policy, points) == []

    def test_validate_diff_policy_catches_a_lying_jacobian(self):
        policy = make_toy_policy(np.ones((2, 2)))
        lying = DiffPolicy(policy.evaluator,
                           lambda X: np.ones(np.shape(X)[:-1] + (2, 2)),
                           policy.bound_b)
        problems = validate_diff_policy(lying, [np.zeros(2)])
        assert any("jacobian" in p for p in problems)

    def test_tighten_bound_is_exact_on_the_given_points(self):
        rng = np.random.default_rng(8)
        policy = make_toy_policy(rng.standard_normal((3, 2)))
        points = rng.standard_normal((20, 2))
        tight = tighten_policy_bound(policy, points)
        norms = [jacobian_l1_norm(policy.jacobian(x)) for x in points]
        assert tight.bound_b == pytest.approx(max(norms), abs=1e-12)
        assert tight.bound_b <= policy.bound_b + 1e-12

    def test_jacobian_l1_norm_matches_sampling(self):
        rng = np.random.default_rng(5)
        jac = rng.standard_normal((3, 4))
        exact = jacobian_l1_norm(jac)
        sampled = 0.0
        for _ in range(2000):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            sampled = max(sampled, float(np.abs(jac @ u).sum()))
        assert sampled <= exact + 1e-9
        assert sampled >= 0.95 * exact

    def test_jacobian_l1_norm_batches_many_actions(self):
        rng = np.random.default_rng(13)
        # 13 actions: 4,096 sign vectors, enumerated in blocks.
        jacs = rng.standard_normal((4, 13, 3))
        np.testing.assert_allclose(
            jacobian_l1_norm(jacs),
            [reference_jacobian_l1_norm(jac) for jac in jacs],
            rtol=1e-15, atol=0)
        # 17 actions: the singular-value fallback, one jacobian at a time.
        jacs = rng.standard_normal((4, 17, 3))
        np.testing.assert_allclose(
            jacobian_l1_norm(jacs), [jacobian_l1_norm(jac) for jac in jacs],
            rtol=1e-15, atol=0)


class TestAnalysisAndBound:
    def test_bound_monotone_in_spectral_radius_and_safe_count(self):
        def chain_with(p_loop, n_safe):
            n = 1 + n_safe
            P = np.zeros((n, n))
            P[0, 0] = p_loop
            P[0, 1] = 1.0 - p_loop
            for s in range(1, n):
                P[s, s] = 1.0
            return P, set(range(1, n))

        bounds = []
        for p in (0.1, 0.5, 0.9):
            P, safe = chain_with(p, 1)
            bounds.append(decrease_bound(P, safe)[2])
        assert bounds[0] < bounds[1] < bounds[2]
        P1, safe1 = chain_with(0.5, 1)
        P2, safe2 = chain_with(0.5, 3)
        assert decrease_bound(P1, safe1)[2] < decrease_bound(P2, safe2)[2]

    @pytest.mark.parametrize("seed", range(10))
    def test_transient_block_radius_strictly_below_one(self, seed):
        emdp = embedded(seed)
        policy = uniform_policy(2, emdp.dim)
        start = StartDistribution.uniform_over(emdp.base.n_states,
                                               emdp.base.nonsafe_indices)
        analysis = analyze_chain(emdp, policy, start)
        if analysis.s_trans:
            assert analysis.lambda1 < 1.0 - 1e-9
        assert 0.0 <= analysis.safety <= 1.0
        inv = 1.0 / (1.0 - analysis.lambda1)
        assert analysis.bound_B == pytest.approx(
            inv * (1 + inv) * len(emdp.base.safe_set), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_given_transient_set_changes_no_answer(self, seed):
        emdp = embedded(seed, n_states=6)
        P = realize_chain(emdp, uniform_policy(2, emdp.dim))
        safe = emdp.base.safe_set
        start = StartDistribution.uniform_over(6, emdp.base.nonsafe_indices)
        trans = transient_set(P, safe)
        assert shutdown_probability(P, safe, start, trans) \
            == shutdown_probability(P, safe, start)

    def test_side_info_is_invisible_to_the_policy(self):
        emdp = embedded(5)
        tagged = EmbeddedMdp(emdp.base, emdp.embedding,
                             [f"tag{s}" for s in range(emdp.base.n_states)])
        policy = make_toy_policy(np.random.default_rng(5)
                                 .standard_normal((2, emdp.dim)))
        start = StartDistribution.uniform_over(emdp.base.n_states,
                                               emdp.base.nonsafe_indices)
        assert analyze_chain(tagged, policy, start) \
            == analyze_chain(emdp, policy, start)


class TestDocuments:
    @pytest.mark.parametrize("shape", [(4, 3), (6, 3), (5,)])
    def test_embedding_needs_one_row_per_state(self, shape):
        emdp = embedded(7)
        with pytest.raises(ValueError, match=r"embedding must be "
                           r"\(n_states, d\)"):
            EmbeddedMdp(emdp.base, np.zeros(shape))

    def test_embedded_round_trip(self):
        emdp = embedded(7)
        doc = embedded_to_document(emdp)
        again = load_embedded(doc)
        np.testing.assert_array_equal(again.embedding, emdp.embedding)
        np.testing.assert_array_equal(again.base.transition,
                                      emdp.base.transition)
        assert again.side_info is None

    def test_side_info_round_trip(self):
        emdp = embedded(7)
        tags = ["a", 1, None, [2, 3], {"k": "v"}]
        tagged = EmbeddedMdp(emdp.base, emdp.embedding, tags)
        doc = embedded_to_document(tagged)
        assert doc["side_info"] == tags
        assert load_embedded(json.loads(json.dumps(doc))).side_info \
            == tuple(tags)

    @pytest.mark.parametrize("side_info", ["abc", {"0": 1}, [1, 2]])
    def test_bad_side_info_rejected(self, side_info):
        doc = embedded_to_document(embedded(7))
        doc["side_info"] = side_info
        with pytest.raises(ValueError, match="side_info"):
            load_embedded(doc)

    def test_toy_policy_round_trip(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((2, 3))
        policy = load_toy_policy({"weights": W.tolist(), "temperature": 0.5})
        x = rng.standard_normal(3)
        expected = make_toy_policy(W, 0.5).evaluator(x)
        np.testing.assert_allclose(policy.evaluator(x), expected)


# -- batched policy calls against the per-point oracles ------------------------

COORDS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-50.0, 50.0]))


@st.composite
def policy_batches(draw, min_points=0):
    """(weights, temperature, points): 1-4 actions, dimension 1-4, and up
    to 30 points with saturating coordinates and duplicated rows."""
    n_a = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    row = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)
    weights = draw(st.lists(row, min_size=n_a, max_size=n_a))
    temperature = draw(st.floats(0.05, 5.0))
    points = draw(st.lists(st.lists(COORDS, min_size=d, max_size=d),
                           min_size=min_points, max_size=20))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=10))
    return (np.array(weights), temperature,
            np.array(points, dtype=float).reshape(-1, d))


def faulty(policy):
    """A policy whose rows lose mass (and go negative) where the first
    coordinate exceeds 1."""
    return DiffPolicy(
        lambda X: policy.evaluator(X)
        - 0.3 * (np.asarray(X)[..., :1] > 1.0),
        policy.jacobian, policy.bound_b)


def embedded_at(points, n_actions, seed=0):
    """A random embedded MDP whose states sit at the given points."""
    base = random_family(seed, (len(points), n_actions,
                                points.shape[1])).base
    return EmbeddedMdp(base, points)


PROPERTY = settings(max_examples=100, deadline=None)


class TestBatchedPolicyMatchesPerPointOracle:
    @PROPERTY
    @given(case=policy_batches())
    def test_evaluator_jacobian_and_norm(self, case):
        W, t, X = case
        policy = make_toy_policy(W, t)
        evaluator, jacobian = reference_toy_policy(W, t)
        probs, jacs = policy.evaluator(X), policy.jacobian(X)
        norms = jacobian_l1_norm(jacs)
        assert probs.shape == (len(X), len(W))
        assert jacs.shape == (len(X),) + W.shape
        for x, row, jac, norm in zip(X, probs, jacs, norms):
            assert np.array_equal(row, evaluator(x))
            np.testing.assert_allclose(jac, jacobian(x), rtol=1e-15, atol=0)
            assert norm == pytest.approx(reference_jacobian_l1_norm(jac),
                                         rel=1e-15, abs=0)

    @PROPERTY
    @given(case=policy_batches())
    def test_tighten(self, case):
        W, t, X = case
        policy = make_toy_policy(W, t)
        expected = max((reference_jacobian_l1_norm(policy.jacobian(x))
                        for x in X), default=0.0)
        tight = tighten_policy_bound(policy, X).bound_b
        assert tight == pytest.approx(min(expected, policy.bound_b)
                                      if policy.bound_b else expected,
                                      rel=1e-15, abs=0)

    @PROPERTY
    @given(case=policy_batches(min_points=2), seed=st.integers(0, 2 ** 16))
    def test_realize_chain(self, case, seed):
        W, t, X = case
        emdp = embedded_at(X, len(W), seed)
        evaluator, jacobian = reference_toy_policy(W, t)
        assert np.array_equal(
            realize_chain(emdp, make_toy_policy(W, t)),
            reference_realize_chain(emdp, DiffPolicy(evaluator, jacobian,
                                                     0.0)))
        if np.any(X[:, 0] > 1.0):
            bad = faulty(make_toy_policy(W, t))
            with pytest.raises(ValueError) as per_state:
                reference_realize_chain(emdp, bad)
            with pytest.raises(ValueError) as batched:
                realize_chain(emdp, bad)
            assert str(batched.value) == str(per_state.value)

    @PROPERTY
    @given(case=policy_batches(min_points=2), seed=st.integers(0, 2 ** 16))
    def test_chain_perturbation_bound(self, case, seed):
        W, t, X = case
        emdp = embedded_at(X, len(W), seed)
        policy = make_toy_policy(W, t)
        rng = np.random.default_rng(seed)
        pert = random_perturbation(emdp, policy, 1e-4, seed)
        moved = rng.random(len(X)) < 0.6        # the others stay put
        pert = Perturbation(pert.delta_S * moved[:, None], pert.delta_T)
        report = chain_perturbation_bound(emdp, policy, pert)
        bound, slack = reference_bound_and_slack(emdp, policy, pert)
        np.testing.assert_allclose(report.bound, bound, rtol=1e-15, atol=0)
        np.testing.assert_allclose(report.slack, slack, rtol=1e-15, atol=0)
        assert np.all(report.slack[~moved] == 0.0)

    @pytest.mark.parametrize("points", [[], np.zeros((0, 2))])
    def test_empty_point_sets(self, points):
        policy = make_toy_policy([[1.0, -2.0], [0.5, 0.0]])
        assert tighten_policy_bound(policy, points).bound_b == 0.0

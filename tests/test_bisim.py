import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from helpers import (fresh_lp_metric, loop_built_sweep, random_mdp,
                     reference_isolation, reference_pair_evaluate,
                     reference_value_iteration, scattered_couplings,
                     shift_applications)
from mdp_stability import bisim
from mdp_stability.mdp import POLICY_ROUNDS, PROB_TOL, strong_components
from mdp_stability import (BisimConfig, CrossMetric, MdpSpec, NonConvergence,
                           PlayingDeadParams, bisim_quotient,
                           build_duplicated, build_playing_dead,
                           cross_bisim_metric, hausdorff_distance,
                           align_reward_scale, induce_chain, isolation_check,
                           iteration_bound, metric_update, Policy,
                           random_family)


def one_state_mdp(reward):
    return MdpSpec(("s",), ("a",), [[[1.0]]], [[reward]], 0.9, set())


CFG = BisimConfig(c_R=0.4, c_T=0.6, tolerance=1e-5)


class TestCrossMetric:
    def test_self_distance_zero_diagonal(self):
        mdp = random_mdp(0, n_states=4)
        metric = cross_bisim_metric(mdp, mdp, CFG)
        assert metric.converged
        np.testing.assert_array_equal(np.diag(metric.dist), 0.0)

    def test_scalar_fixed_point(self):
        # One-state MDPs: distance iterates d <- c_R |r1 - r2| + c_T d,
        # whose fixed point is c_R |r1 - r2| / (1 - c_T) = 0.3*2/0.3 = 2.
        config = BisimConfig(c_R=0.3, c_T=0.7, tolerance=1e-9)
        metric = cross_bisim_metric(one_state_mdp(1.0), one_state_mdp(3.0),
                                    config)
        assert metric.dist[0, 0] == pytest.approx(2.0, abs=1e-8)

    def test_rejects_mismatched_actions(self):
        m1 = one_state_mdp(1.0)
        m2 = MdpSpec(("s",), ("b",), [[[1.0]]], [[1.0]], 0.9, set())
        with pytest.raises(ValueError, match="action set"):
            cross_bisim_metric(m1, m2, CFG)

    def test_iteration_budget_flags_partial_result(self, monkeypatch):
        # One application from zero moves by the reward gap, far above the
        # target, and the budget allows no second one.
        monkeypatch.setattr(bisim, "MAX_APPLICATIONS", 1)
        config = BisimConfig(c_R=0.3, c_T=0.7, tolerance=1e-9)
        metric = cross_bisim_metric(one_state_mdp(0.0), one_state_mdp(5.0),
                                    config)
        assert not metric.converged
        with pytest.raises(NonConvergence):
            hausdorff_distance(metric)

    @pytest.mark.parametrize("call", [
        lambda mdp: isolation_check(mdp, mdp.safe_set, 0.1, CFG),
        bisim_quotient], ids=["isolation", "quotient"])
    def test_a_spent_budget_stops_isolation_and_the_quotient(
            self, monkeypatch, call):
        monkeypatch.setattr(bisim, "MAX_APPLICATIONS", 1)
        with pytest.raises(NonConvergence, match="within-MDP metric did not "
                           "converge"):
            call(random_mdp(1))

    def test_document_keys(self):
        metric = cross_bisim_metric(one_state_mdp(1.0), one_state_mdp(2.0),
                                    CFG)
        doc = metric.to_document()
        assert set(doc) == {"dist", "c_R", "c_T", "iterations", "residual"}

    @pytest.mark.parametrize("seed", range(8))
    def test_iteration_count_within_geometric_bound(self, seed):
        m1 = random_mdp(seed, n_states=3)
        m2 = random_mdp(seed + 500, n_states=4)
        metric = cross_bisim_metric(m1, m2, CFG)
        first = float(np.max(metric_update(
            m1, m2, CFG, np.zeros((m1.n_states, m2.n_states)))))
        assert metric.converged
        assert metric.iterations_used <= iteration_bound(first, CFG)


class TestAgainstDenseReference:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_metric_matches_unbatched_recomputation(self, seed):
        # Independent reference: per-cell dense LP solves, no batching, no
        # short-circuits, same fixed-point iteration.
        from scipy.optimize import linprog

        def w1(mu, nu, cost):
            m, n = len(mu), len(nu)
            A = np.zeros((m + n, m * n))
            for i in range(m):
                A[i, i * n:(i + 1) * n] = 1.0
            for j in range(n):
                A[m + j, j::n] = 1.0
            res = linprog(cost.ravel(), A_eq=A,
                          b_eq=np.concatenate([mu, nu]),
                          bounds=(0, None), method="highs")
            return res.fun

        m1 = random_mdp(seed, n_states=3)
        m2 = random_mdp(seed + 5, n_states=3)
        dist = np.zeros((3, 3))
        for _ in range(200):
            new = np.zeros_like(dist)
            for s1 in range(3):
                for s2 in range(3):
                    vals = []
                    for a in range(2):
                        gap = CFG.c_R * abs(m1.reward[s1, a]
                                            - m2.reward[s2, a])
                        w = w1(m1.transition[s1, a], m2.transition[s2, a],
                               dist)
                        vals.append(gap + CFG.c_T * w)
                    new[s1, s2] = max(vals)
            step = np.max(np.abs(new - dist))
            dist = new
            if step < CFG.residual_target:
                break
        metric = cross_bisim_metric(m1, m2, CFG)
        assert np.max(np.abs(metric.dist - dist)) <= 2 * CFG.tolerance


def sparse_mdp(seed, n_states, keep=0.5):
    """random_mdp with part of each transition row zeroed (never all of
    it), so supports vary in size and include point masses."""
    mdp = random_mdp(seed, n_states=n_states)
    rng = np.random.default_rng(seed + 31)
    P = mdp.transition * (rng.random(mdp.transition.shape) < keep)
    P[..., -1] += (P.sum(axis=2) == 0)
    P /= P.sum(axis=2, keepdims=True)
    return MdpSpec(mdp.state_ids, mdp.action_ids, P, mdp.reward,
                   mdp.discount, mdp.safe_set)


def oracle_pair(seed):
    """Seeded MDP pairs: dense, sparse, and with duplicated states."""
    rng = np.random.default_rng(seed)
    n1, n2 = (int(n) for n in rng.integers(2, 6, size=2))
    if seed % 3 == 0:
        return random_mdp(seed, n_states=n1), random_mdp(seed + 50, n2)
    if seed % 3 == 1:
        return sparse_mdp(seed, n1), sparse_mdp(seed + 50, n2)
    base = random_mdp(seed, n_states=n1)
    return build_duplicated(base, 0, copies=2), base


class TestPlanReuseAgainstFreshSolves:
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_fresh_lp_iteration(self, seed):
        m1, m2 = oracle_pair(seed)
        config = CFG if seed % 5 else BisimConfig(c_R=0.1, c_T=0.9,
                                                  tolerance=1e-6)
        dist, sweeps = fresh_lp_metric(m1, m2, config)
        metric = cross_bisim_metric(m1, m2, config)
        assert metric.iterations_used <= sweeps
        assert np.max(np.abs(metric.dist - dist)) <= config.tolerance

    def test_later_applications_solve_or_reuse_every_plan(self):
        config = BisimConfig(c_R=0.1, c_T=0.9, tolerance=1e-6)
        m1, m2 = random_mdp(3, n_states=5), random_mdp(4, n_states=5)
        metric = cross_bisim_metric(m1, m2, config)
        # 4 x 4 non-safe pairs x 2 actions dense problems per application,
        # all at zero cost in the first.
        assert metric.blocks_solved + metric.blocks_reused \
            == 32 * (metric.iterations_used - 1)
        assert metric.blocks_solved > 0


def edge_mdp(rng, n, n_actions, keep, safe, tied):
    """A random MDP whose rows keep each entry with probability ``keep``
    (rows left empty become point masses); ``tied`` rewards take only the
    values 0, 0.5 and 1, so that many state pairs tie or coincide.  With
    ``safe`` the last state is safe and absorbing at reward 0."""
    P = rng.dirichlet(np.ones(n), size=(n, n_actions))
    P *= rng.random(P.shape) < keep
    empty = P.sum(axis=2) == 0
    P[empty] = np.eye(n)[rng.integers(n, size=int(empty.sum()))]
    P /= P.sum(axis=2, keepdims=True)
    r = (rng.integers(3, size=(n, n_actions)) / 2.0 if tied
         else rng.random((n, n_actions)))
    if safe:
        P[-1] = np.eye(n)[-1]
        r[-1] = 0.0
    return MdpSpec(tuple(f"s{i}" for i in range(n)),
                   tuple(f"a{j}" for j in range(n_actions)), P, r, 0.9,
                   {n - 1} if safe else set())


@st.composite
def metric_cases(draw, c_T_values=(0.3, 0.6, 0.9, 0.99), max_actions=2):
    """(m1, m2, config, within): cross pairs, within-MDP pairs (m, m) and
    pairs with duplicated states, over point-mass rows, zero-weight
    support entries, one-state MDPs, MDPs without a safe state, 1 to
    ``max_actions`` actions and c_T drawn from ``c_T_values``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_actions = draw(st.integers(1, max_actions))
    keep = draw(st.sampled_from([0.0, 0.4, 1.0]))
    tied = draw(st.booleans())

    def mdp(n):
        safe = n > 1 and draw(st.booleans())
        return edge_mdp(rng, n, n_actions, keep, safe, tied)

    kind = draw(st.sampled_from(["cross", "within", "duplicated",
                                 "duplicated-within"]))
    m1 = mdp(draw(st.integers(1, 4)))
    if kind == "cross":
        m2 = mdp(draw(st.integers(1, 4)))
    elif kind == "within":
        m2 = m1
    else:
        m2 = build_duplicated(m1, draw(st.integers(0, m1.n_states - 1)))
        if kind == "duplicated-within":
            m1 = m2
    c_T = draw(st.sampled_from(c_T_values))
    config = BisimConfig(c_R=draw(st.sampled_from([0.1, 1.0])), c_T=c_T,
                         tolerance=1e-4 if c_T == 0.99 else 1e-6)
    return m1, m2, config, m1 is m2


def bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


class TestArrayBuild:
    @settings(max_examples=80, deadline=None)
    @given(case=metric_cases(max_actions=3), applications=st.integers(1, 4))
    def test_matches_the_loop_build(self, case, applications):
        # Every index array and every problem's marginals and cost cells
        # equal those of the problem-by-problem build, and the couplings
        # after each application equal the put_along_axis scatter.
        m1, m2, config, _ = case
        sweep = bisim._PairSweep(m1, m2, config)
        pairs, cost_index, cell_problem = loop_built_sweep(m1, m2)
        np.testing.assert_array_equal(sweep.cost_index, cost_index)
        np.testing.assert_array_equal(sweep.cell_problem, cell_problem)
        cell_pair, cell_action = np.divmod(cell_problem, m1.n_actions)
        np.testing.assert_array_equal(sweep.cell_pair, cell_pair)
        np.testing.assert_array_equal(sweep.cell_action, cell_action)
        batch = sweep.batch
        assert len(batch.pairs) == len(pairs)
        sizes = np.array([len(mu) * len(nu) for mu, nu in pairs])
        offsets = np.cumsum(sizes) - sizes
        owner = np.full(len(pairs), -1)
        for g, group in enumerate(batch.groups):
            m, n = group.shape
            for k, mu, nu, cells in zip(group.members, group.mu, group.nu,
                                        group.cells):
                np.testing.assert_array_equal(bits(mu), bits(pairs[k][0]))
                np.testing.assert_array_equal(bits(nu), bits(pairs[k][1]))
                np.testing.assert_array_equal(
                    cells, offsets[k] + np.arange(m * n).reshape(m, n))
                owner[k] = g
        assert np.all(owner >= 0)
        dist = np.zeros(sweep.shape)
        for _ in range(applications):
            dist = sweep.apply(dist)
            np.testing.assert_array_equal(bits(batch.couplings()),
                                          bits(scattered_couplings(batch)))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_loop_build_on_mixed_supports(self, seed):
        # Larger pairs whose rows keep about half their entries, so that
        # one batch holds problems of many shapes, point masses included.
        rng = np.random.default_rng(seed)
        m1, m2 = (edge_mdp(rng, int(rng.integers(5, 10)), 3, 0.5, True,
                           False) for _ in range(2))
        sweep = bisim._PairSweep(m1, m2, CFG)
        assert len(sweep.batch.groups) > 5
        _, cost_index, cell_problem = loop_built_sweep(m1, m2)
        np.testing.assert_array_equal(sweep.cost_index, cost_index)
        np.testing.assert_array_equal(sweep.cell_problem, cell_problem)


class TestStrategyIteration:
    @settings(max_examples=60, deadline=None)
    @given(case=metric_cases())
    def test_matches_the_sweep_oracle_on_edge_cases(self, case):
        m1, m2, config, within = case
        metric = cross_bisim_metric(m1, m2, config)
        dist, _ = fresh_lp_metric(m1, m2, config)
        first = float(np.max(metric_update(
            m1, m2, config, np.zeros((m1.n_states, m2.n_states)))))
        assert metric.converged
        assert metric.iterations_used <= iteration_bound(first, config)
        assert np.max(np.abs(metric.dist - dist)) <= config.tolerance
        if within:
            assert np.max(np.abs(metric.dist - metric.dist.T)) \
                <= config.tolerance
            assert np.max(np.abs(np.diag(metric.dist))) <= config.tolerance

    @pytest.mark.parametrize("seed", [3, 7, 10])
    def test_capped_policy_iteration_is_still_certified(self, seed,
                                                        monkeypatch):
        # One policy evaluation per round leaves the couplings' fixed point
        # unsolved, so an application can leave every coupling as it was
        # while its residual is still above the target; plain applications
        # then certify the result.
        monkeypatch.setattr("mdp_stability.mdp.POLICY_ROUNDS", 1)
        evaluate = bisim._PairSweep._evaluate
        evaluations = []

        def counted(self, *args):
            evaluations.append(1)
            return evaluate(self, *args)

        monkeypatch.setattr(bisim._PairSweep, "_evaluate", counted)
        config = BisimConfig(c_R=0.1, c_T=0.9, tolerance=1e-6)
        m1, m2 = oracle_pair(seed)
        metric = cross_bisim_metric(m1, m2, config)
        dist, sweeps = fresh_lp_metric(m1, m2, config)
        assert metric.converged
        assert metric.iterations_used > len(evaluations) + 1
        assert metric.iterations_used <= sweeps
        assert np.max(np.abs(metric.dist - dist)) <= config.tolerance

    @pytest.mark.parametrize("seed", range(6))
    def test_policy_iteration_ends_before_its_cap(self, seed, monkeypatch):
        # Within-MDP pairs and duplicated states tie many actions exactly;
        # a switch on a tie could cycle until the cap.
        evaluate = bisim._PairSweep._evaluate
        solve = bisim._PairSweep.solve_fixed
        evaluations, per_solve = [], []

        def counted_evaluate(self, *args):
            evaluations.append(1)
            return evaluate(self, *args)

        def counted_solve(self, *args):
            before = len(evaluations)
            result = solve(self, *args)
            per_solve.append(len(evaluations) - before)
            return result

        monkeypatch.setattr(bisim._PairSweep, "_evaluate", counted_evaluate)
        monkeypatch.setattr(bisim._PairSweep, "solve_fixed", counted_solve)
        base = random_mdp(seed, n_states=4)
        doubled = build_duplicated(base, seed % 4, copies=2)
        config = BisimConfig(c_R=0.1, c_T=0.9, tolerance=1e-6)
        for m1, m2 in [(base, base), (doubled, doubled), (doubled, base)]:
            assert cross_bisim_metric(m1, m2, config).converged
        assert per_solve and max(per_solve) < POLICY_ROUNDS

    def test_target_below_float_resolution_stops_solving(self,
                                                          monkeypatch):
        # The couplings settle within a few rounds; after that the budget
        # runs out in plain applications, not in repeated exact solves.
        # (The pair, coefficients and shifted applications are those of
        # the CLI's exit-3 test.)
        shift_applications(monkeypatch)
        solve = bisim._PairSweep.solve_fixed
        solves = []

        def counted(self, *args):
            solves.append(1)
            return solve(self, *args)

        monkeypatch.setattr(bisim._PairSweep, "solve_fixed", counted)
        monkeypatch.setattr(bisim, "MAX_APPLICATIONS", 300)
        config = BisimConfig(c_R=1.0 - 0.9, c_T=0.9, tolerance=1e-300)
        metric = cross_bisim_metric(random_mdp(1), random_mdp(2), config)
        assert not metric.converged
        assert metric.iterations_used == 300
        assert 0.0 < metric.residual < 1e-12
        assert len(solves) <= 5

    @pytest.mark.parametrize("seed", range(6))
    def test_error_bound_dominates_distance_to_a_tight_run(self, seed):
        m1, m2 = oracle_pair(seed)
        tight = BisimConfig(CFG.c_R, CFG.c_T, tolerance=1e-12)
        for tolerance in (1e-2, 1e-4, CFG.tolerance):
            config = BisimConfig(CFG.c_R, CFG.c_T, tolerance=tolerance)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(bisim, "MAX_APPLICATIONS", 2)
                metric = cross_bisim_metric(m1, m2, config)
            exact = cross_bisim_metric(m1, m2, tight)
            assert exact.converged
            assert metric.error_bound == pytest.approx(
                metric.residual * CFG.c_T / (1 - CFG.c_T))
            assert np.max(np.abs(metric.dist - exact.dist)) \
                <= metric.error_bound + tight.tolerance


class TestDenseEvaluation:
    @settings(max_examples=100, deadline=None)
    @given(case=metric_cases(c_T_values=(0.5, 0.99)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_sparse_oracle(self, case, seed):
        # Couplings a batch returned for a random cost matrix (symmetric
        # with a zero diagonal within one MDP, so that diagonal pairs keep
        # to the diagonal and reach no reward gap), and a random action at
        # every pair-state.
        m1, m2, config, within = case
        rng = np.random.default_rng(seed)
        sweep = bisim._PairSweep(m1, m2, config)
        cost = rng.random(sweep.shape)
        if within:
            cost = cost + cost.T
            np.fill_diagonal(cost, 0.0)
        sweep.apply(cost)
        flow = sweep.batch.couplings()
        policy = rng.integers(m1.n_actions, size=cost.size)
        dist = sweep._evaluate(flow, policy)
        oracle = reference_pair_evaluate(sweep, flow, policy)
        assert np.max(np.abs(dist - oracle)) \
            <= 1e-12 * max(1.0, float(oracle.max()))
        assert np.all(dist[oracle == 0.0] == 0.0)
        if within:
            assert np.all(np.diag(oracle) == 0.0)


class TestContraction:
    @pytest.mark.parametrize("seed", range(10))
    def test_update_is_a_c_t_contraction(self, seed):
        rng = np.random.default_rng(seed)
        m1 = random_mdp(seed, n_states=int(rng.integers(2, 5)))
        m2 = random_mdp(seed + 999, n_states=int(rng.integers(2, 5)))
        d1 = rng.random((m1.n_states, m2.n_states)) * 2.0
        d2 = rng.random((m1.n_states, m2.n_states)) * 2.0
        lhs = np.max(np.abs(metric_update(m1, m2, CFG, d1)
                            - metric_update(m1, m2, CFG, d2)))
        assert lhs <= CFG.c_T * np.max(np.abs(d1 - d2)) + 1e-9

    def test_update_rejects_a_distance_matrix_of_another_shape(self):
        m1, m2 = random_mdp(1), random_mdp(2, n_states=5)
        for shape in [(4, 4), (5, 4), (4, 5, 1)]:
            with pytest.raises(ValueError, match="shape mismatch"):
                metric_update(m1, m2, CFG, np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_update_rejects_non_finite_distances(self, bad):
        # A NaN passes the sign test, and would come back as the answer.
        m1, m2 = random_mdp(1), random_mdp(2)
        one = np.zeros((m1.n_states, m2.n_states))
        one[0, -1] = bad
        for dist in (np.full(one.shape, bad), one):
            with pytest.raises(ValueError, match="finite"):
                metric_update(m1, m2, CFG, dist)


class TestHausdorff:
    def test_identical_mdps(self):
        mdp = random_mdp(3, n_states=3)
        assert hausdorff_distance(cross_bisim_metric(mdp, mdp, CFG)) == 0.0

    def test_direct_formula_on_rectangular_matrix(self):
        metric = CrossMetric(np.array([[0.1], [0.3]]), CFG, 1, 0.0)
        assert hausdorff_distance(metric) == pytest.approx(0.3)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry(self, seed):
        m1 = random_mdp(seed, n_states=3)
        m2 = random_mdp(seed + 100, n_states=4)
        d12 = hausdorff_distance(cross_bisim_metric(m1, m2, CFG))
        d21 = hausdorff_distance(cross_bisim_metric(m2, m1, CFG))
        assert d12 == pytest.approx(d21, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_triangle_inequality(self, seed):
        mdps = [random_mdp(seed + k * 50, n_states=3) for k in range(3)]
        d = {}
        for (i, a), (j, b) in [((0, mdps[0]), (1, mdps[1])),
                               ((0, mdps[0]), (2, mdps[2])),
                               ((2, mdps[2]), (1, mdps[1]))]:
            d[i, j] = hausdorff_distance(cross_bisim_metric(a, b, CFG))
        assert d[0, 1] <= d[0, 2] + d[2, 1] + 2 * CFG.tolerance

    @pytest.mark.parametrize("seed", range(4))
    def test_state_level_triangle(self, seed):
        m1 = random_mdp(seed, n_states=3)
        m2 = random_mdp(seed + 11, n_states=3)
        m3 = random_mdp(seed + 22, n_states=3)
        d12 = cross_bisim_metric(m1, m2, CFG).dist
        d13 = cross_bisim_metric(m1, m3, CFG).dist
        d32 = cross_bisim_metric(m3, m2, CFG).dist
        lhs = d12[:, None, :]                      # (s1, s3, s2)
        rhs = d13[:, :, None] + d32[None, :, :]
        assert np.all(lhs <= rhs + 3 * CFG.tolerance)

    def test_reward_scaling_is_homogeneous(self):
        m1 = random_mdp(9, n_states=3)
        m2 = random_mdp(19, n_states=3)
        tight = BisimConfig(CFG.c_R, CFG.c_T, tolerance=CFG.tolerance / 2)
        base = cross_bisim_metric(m1, m2, tight).dist
        doubled = cross_bisim_metric(m1.with_rewards(2 * m1.reward),
                                     m2.with_rewards(2 * m2.reward),
                                     CFG).dist
        assert np.max(np.abs(doubled - 2 * base)) <= 2 * CFG.tolerance

    @pytest.mark.parametrize("b", [1e-6, 1e6, 1e20, 1e25])
    def test_scaling_both_reward_tables_scales_the_metric(self, b):
        # The paper's scale argument: d' is positively homogeneous in the
        # rewards, with the tolerance (a distance) scaled alike.  Transport
        # costs from 1e20 up lie beyond any absolute solver tolerance.
        m1, m2 = random_mdp(1), random_mdp(2)
        config = BisimConfig(0.1, 0.9, tolerance=1e-9)
        base = cross_bisim_metric(m1, m2, config).dist
        scaled = cross_bisim_metric(
            m1.with_rewards(b * m1.reward), m2.with_rewards(b * m2.reward),
            BisimConfig(0.1, 0.9, tolerance=b * config.tolerance))
        assert scaled.converged
        assert np.max(np.abs(scaled.dist - b * base)) <= 1e-12 * b * base.max()


class TestAlignment:
    def test_doubled_rewards_align_at_two_thirds(self):
        mdp = random_mdp(5, n_states=2)
        doubled = mdp.with_rewards(2 * mdp.reward)
        result = align_reward_scale(mdp, doubled, CFG, grid=11)
        assert result.h_star == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert result.aligned_distance == pytest.approx(0.0, abs=1e-4)
        assert not result.boundary

    def test_identical_mdps_align_at_half(self):
        mdp = random_mdp(6, n_states=2)
        result = align_reward_scale(mdp, mdp, CFG, grid=11)
        assert result.h_star == pytest.approx(0.5, abs=1e-12)
        assert result.aligned_distance == pytest.approx(0.0, abs=1e-4)

    def test_zero_rewards_flag_boundary(self):
        mdp = random_mdp(7, n_states=2, reward_scale=1.0)
        zero = mdp.with_rewards(np.zeros_like(mdp.reward))
        result = align_reward_scale(mdp, zero, CFG, grid=11)
        assert result.boundary
        objectives = [obj for _, obj in result.profile]
        assert objectives[0] == min(objectives)

    def test_grid_too_small(self):
        mdp = random_mdp(8, n_states=2)
        with pytest.raises(ValueError):
            align_reward_scale(mdp, mdp, CFG, grid=2)


@st.composite
def isolation_cases(draw):
    """(mdp, subset, delta, config): random_family bases of 3 to 8 states,
    their duplicated and playing-dead variants, under a closed subset (the
    safe set), a drawn one (often not closed, sometimes out of range), the
    whole state set and the empty one, at c_T 0.5 or 0.9."""
    n = draw(st.integers(3, 8))
    n_actions = draw(st.integers(1, 2))
    mdp = random_family(draw(st.integers(0, 2 ** 16)), (n, n_actions, 1),
                        sparsity=draw(st.sampled_from([0.3, 0.6, 1.0]))).base
    kind = draw(st.sampled_from(["base", "duplicated", "playing-dead"]))
    if kind == "duplicated":
        mdp = build_duplicated(mdp, draw(st.integers(0, n - 1)),
                               copies=draw(st.integers(2, 3)))
    elif kind == "playing-dead":
        mdp = build_playing_dead(PlayingDeadParams(
            base=mdp, delta=(1.0 - mdp.discount) * 0.5 / (20.0 * n),
            escape_state=int(np.argmax(
                reference_value_iteration(mdp).values)),
            escape_action=draw(st.integers(0, n_actions - 1)), epsilon=0.5))
    n = mdp.n_states
    kind = draw(st.sampled_from(["safe", "safe", "drawn", "drawn", "drawn",
                                 "whole", "empty"]))
    if kind == "drawn":
        subset = draw(st.sets(st.integers(-1, n), min_size=1, max_size=n))
    else:
        subset = {"safe": mdp.safe_set, "whole": set(range(n)),
                  "empty": set()}[kind]
    c_T = draw(st.sampled_from([0.5, 0.9]))
    config = BisimConfig(c_R=1.0 - c_T, c_T=c_T, tolerance=1e-6)
    return mdp, subset, draw(st.floats(0.0, 0.5)), config


def outcome(check, *args):
    """The result of ``check(*args)``, or its ValueError's message."""
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


class TestIsolation:
    @settings(max_examples=150, deadline=None)
    @given(isolation_cases())
    def test_matches_the_whole_within_metric(self, case):
        mdp, subset, delta, config = case
        result = outcome(isolation_check, mdp, subset, delta, config)
        expected = outcome(reference_isolation, mdp, subset, delta, config)
        if isinstance(expected, str) or expected.vacuous:
            assert result == expected
            return
        assert not result.vacuous
        gap = abs(result.min_cross_distance - expected.min_cross_distance)
        assert gap <= 2 * config.tolerance
        if abs(expected.min_cross_distance - delta) > 2 * config.tolerance:
            assert result.isolated == expected.isolated
        # With every state reachable from the subset the closed part is the
        # MDP itself, so the answer has the whole metric's bits.
        reach = np.zeros(mdp.n_states, dtype=bool)
        reach[list(subset)] = True
        steps = mdp.transition.any(axis=1)
        for _ in range(mdp.n_states):
            reach |= steps[reach].any(axis=0)
        if reach.all():
            assert result == expected

    def test_safe_set_solves_one_row(self, monkeypatch):
        rows = []
        solve = bisim.cross_bisim_metric

        def recorded(m1, m2, config):
            rows.append(m1.n_states)
            return solve(m1, m2, config)

        monkeypatch.setattr(bisim, "cross_bisim_metric", recorded)
        mdp = random_family(1, (40, 2, 2)).base
        result = isolation_check(mdp, mdp.safe_set, 0.1, CFG)
        assert rows == [1] and not result.vacuous

    def test_threshold_sides(self):
        # A zero-reward absorbing safe state and absorbing states earning
        # r sit at d = c_R*r/(1 - c_T) = r under CFG.
        rewards = np.array([[0.0], [0.5], [2.0]])
        P = np.zeros((3, 1, 3))
        P[[0, 1, 2], 0, [0, 1, 2]] = 1.0
        mdp = MdpSpec(("safe", "half", "two"), ("a",), P, rewards, 0.9, {0})
        closest = CFG.c_R * 0.5 / (1.0 - CFG.c_T)
        assert closest == pytest.approx(0.5)
        below = isolation_check(mdp, {0}, closest - 1e-3, CFG)
        assert below and below.min_cross_distance == pytest.approx(
            closest, abs=CFG.tolerance)
        assert not isolation_check(mdp, {0}, closest + 1e-3, CFG)

    @pytest.mark.parametrize("subset", [{-1}, {0, -1}, {4}, {1, 7}])
    def test_state_outside_the_range_is_rejected(self, subset):
        # Index -1 would wrap to state 3 and be compared with itself at
        # distance 0; index 7 would fail the metric's indexing.
        mdp = random_mdp(2, n_states=4)
        with pytest.raises(ValueError, match="outside"):
            isolation_check(mdp, subset, 0.0, CFG)

    def test_vacuous_subsets_flagged(self):
        mdp = random_mdp(2, n_states=3)
        result = isolation_check(mdp, set(), 0.5, CFG)
        assert result and result.vacuous
        result = isolation_check(mdp, {0, 1, 2}, 0.5, CFG)
        assert result and result.vacuous


class TestQuotient:
    def quotient_config(self, gamma, merge_tol=1e-9):
        return BisimConfig.for_discount(gamma, tolerance=merge_tol / 4)

    def test_duplicates_collapse(self):
        mdp = random_mdp(4, n_states=4, gamma=0.5)
        doubled = build_duplicated(mdp, 1, copies=2)
        result = bisim_quotient(doubled, 1e-9)
        assert result.quotient.n_states == mdp.n_states
        assert result.lift[1] == result.lift[mdp.n_states]

    def test_minimal_mdp_keeps_identity_partition(self):
        mdp = random_mdp(10, n_states=4, gamma=0.5)
        result = bisim_quotient(mdp, 1e-9)
        assert result.quotient.n_states == mdp.n_states
        assert all(len(c) == 1 for c in result.partition)

    def test_round_trip_is_isomorphic(self):
        mdp = random_mdp(12, n_states=4, gamma=0.5)
        doubled = build_duplicated(mdp, 2, copies=3)
        result = bisim_quotient(doubled, 1e-9)
        q = result.quotient
        assert q.n_states == mdp.n_states
        # Class order follows smallest member, so the quotient keeps the
        # original indexing.
        np.testing.assert_allclose(q.transition, mdp.transition, atol=1e-12)
        np.testing.assert_allclose(q.reward, mdp.reward, atol=1e-12)

    def test_copies_are_at_zero_distance(self):
        mdp = random_mdp(13, n_states=4, gamma=0.5)
        doubled = build_duplicated(mdp, 0, copies=2)
        config = self.quotient_config(0.5)
        metric = cross_bisim_metric(doubled, doubled, config)
        assert metric.dist[0, mdp.n_states] <= config.tolerance

    @pytest.mark.parametrize("k", range(1, 7))
    def test_collapsed_chain_matches_matrix_powers(self, k):
        # Class-summed k-step probabilities of the original equal the
        # quotient's k-step probabilities, for a policy constant on copies.
        mdp = random_mdp(21, n_states=4, gamma=0.5)
        doubled = build_duplicated(mdp, 1, copies=2)
        result = bisim_quotient(doubled, 1e-9)
        policy_big = Policy.deterministic(np.zeros(doubled.n_states, int))
        policy_small = Policy.deterministic(
            np.zeros(result.quotient.n_states, int))
        chain_big = induce_chain(doubled, policy_big)
        chain_small = induce_chain(result.quotient, policy_small)
        Pk_big = np.linalg.matrix_power(chain_big.Q, k)
        Pk_small = np.linalg.matrix_power(chain_small.Q, k)
        # Map chain indices back to quotient classes.
        classes = [result.lift[s] for s in chain_big.index_map]
        small_pos = {result.lift[s]: i
                     for i, s in enumerate(chain_small.index_map)}
        for i_big, c_i in enumerate(classes):
            for c_m, j_small in small_pos.items():
                summed = sum(Pk_big[i_big, j_big]
                             for j_big, c_j in enumerate(classes)
                             if c_j == c_m)
                assert summed == pytest.approx(
                    Pk_small[small_pos[c_i], j_small], abs=1e-10)

    def test_dead_state_is_not_merged_with_a_safe_one(self):
        # work -> 1/2 dead, 1/2 off; dead and off both absorb at reward 0,
        # so they are at distance 0, but only off is safe.  Merging them
        # would certify a worst time of 1 where the MDP's is infinite.
        mdp = dead_and_off_mdp()
        with pytest.raises(ValueError, match="mix safe and non-safe"):
            bisim_quotient(mdp)

    @pytest.mark.parametrize("seed", range(3))
    def test_split_states_keep_stochastic_rows(self, seed):
        # The quotient of a state split into 2 to 12 copies has the base's
        # shape, and every row is a distribution within PROB_TOL.  At seed
        # 1, the nine ninths of the safe state's (3) self-loop sum to
        # 1 + 2**-52, which the quotient caps at 1.
        base = random_family(seed, (4, 2, 2)).base
        for state, copies in itertools.product((1, 3), range(2, 13)):
            q = bisim_quotient(build_duplicated(base, state, copies)).quotient
            assert q.n_states == base.n_states
            assert 0.0 <= q.transition.min() and q.transition.max() <= 1.0
            assert np.abs(q.transition.sum(axis=2) - 1.0).max() <= PROB_TOL

    # The metric scales a reward gap by c_R = 1 - discount = 0.1, so copies
    # whose rewards differ by up to 1e-8 sit within merge_tol = 1e-9 of
    # each other, yet they fail the quotient's own checks at merge_tol.
    @staticmethod
    def nudged_copies(copies, reward_shifts=(), moved=0.0):
        """random_family's 5-state base with state 1 split into ``copies``
        (the copies are states 5 on), the i-th new copy's rewards raised by
        reward_shifts[i], and ``moved`` of state 5's mass taken from state 0
        to state 2 under every action."""
        mdp = build_duplicated(random_family(3, (5, 2, 2), 1.0).base, 1,
                               copies)
        P, r = mdp.transition.copy(), mdp.reward.copy()
        for copy, shift in enumerate(reward_shifts, start=5):
            r[copy] += shift
        P[5, :, 0] -= moved
        P[5, :, 2] += moved
        return MdpSpec(mdp.state_ids, mdp.action_ids, P, r, mdp.discount,
                       mdp.safe_set)

    def test_rejects_a_member_off_its_representatives_rewards(self):
        mdp = self.nudged_copies(2, reward_shifts=(5e-9,))
        with pytest.raises(ValueError, match="state 5 disagrees with "
                           "representative 1 on rewards"):
            bisim_quotient(mdp, 1e-9)

    def test_rejects_a_class_joined_by_chaining(self):
        mdp = self.nudged_copies(3, reward_shifts=(7.5e-9, 1.5e-8))
        with pytest.raises(ValueError, match="states 1 and 6 land in one "
                           "class by chaining"):
            bisim_quotient(mdp, 1e-9)

    def test_rejects_a_member_off_its_class_sums(self):
        mdp = self.nudged_copies(2, moved=5e-9)
        with pytest.raises(ValueError, match="state 5 disagrees with "
                           "representative 1 on class-summed transitions"):
            bisim_quotient(mdp, 1e-9)


def _components(close):
    """The quotient's classes of the thresholded graph ``close``."""
    return [tuple(c) for c in strong_components(close | close.T)]


@pytest.mark.parametrize("seed", range(40))
def test_quotient_classes_are_scipy_connected_components(seed):
    # scipy's connected_components on the undirected thresholded graph is
    # the oracle.  Distances are asymmetric and drawn so that some states
    # are isolated and some classes are joined by one direction only.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    dist = rng.random((n, n)) * rng.choice([0.5, 1.0, 4.0])
    np.fill_diagonal(dist, 0.0)
    close = dist <= 0.3
    n_classes, labels = connected_components(csr_matrix(close),
                                             directed=False)
    expected = sorted((tuple(np.nonzero(labels == c)[0])
                       for c in range(n_classes)), key=lambda m: m[0])
    assert _components(close) == expected
    if seed == 0:
        assert _components(np.eye(4, dtype=bool)) == [(0,), (1,), (2,), (3,)]
        one_way = np.eye(3, dtype=bool)
        one_way[2, 0] = True
        assert _components(one_way) == [(0, 2), (1,)]


def dead_and_off_mdp():
    P = np.zeros((3, 1, 3))
    P[0, 0, 1:] = 0.5
    P[1, 0, 1] = 1.0
    P[2, 0, 2] = 1.0
    return MdpSpec(("work", "dead", "off"), ("a",), P,
                   [[1.0], [0.0], [0.0]], 0.9, {2})


@pytest.mark.parametrize("kwargs", [
    {"c_R": math.nan}, {"c_R": math.inf}, {"tolerance": math.nan},
    {"tolerance": math.inf}, {"c_T": math.nan}])
def test_config_rejects_non_finite_coefficients(kwargs):
    with pytest.raises(ValueError):
        BisimConfig(**{"c_R": 0.1, "c_T": 0.9, **kwargs})

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (_solve_blocks, batch_of, brute_force_transport,
                     kr_lower_bound, random_distribution,
                     reference_northwest_corner, reference_potential_map)
from mdp_stability import TransportProblem, solve_transport, transport
from mdp_stability.mdp import PROB_TOL
from mdp_stability.transport import (PIVOT_CAP, REUSE_TOL, _northwest_corner,
                                     _simplex)


def raveled(costs):
    """Cost matrices laid out as ``BatchedTransport.values`` takes them:
    raveled and concatenated in problem order."""
    return np.concatenate([np.ravel(c) for c in costs])


def check_solution(problem, sol, tol=1e-9):
    assert np.all(sol.plan >= -tol)
    np.testing.assert_allclose(sol.plan.sum(axis=1), problem.mu, atol=tol)
    np.testing.assert_allclose(sol.plan.sum(axis=0), problem.nu, atol=tol)
    gaps = sol.dual_u[:, None] + sol.dual_v[None, :] - problem.cost
    assert gaps.max() <= tol, "dual certificate infeasible"
    duality_gap = sol.dual_u @ problem.mu + sol.dual_v @ problem.nu - sol.value
    assert abs(duality_gap) <= tol, "dual certificate not tight"


class TestSolveTransport:
    def test_identity(self):
        mu = np.array([0.3, 0.7])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        sol = solve_transport(TransportProblem(mu, mu, cost))
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        check_solution(TransportProblem(mu, mu, cost), sol)

    def test_point_masses(self):
        sol = solve_transport(TransportProblem([1.0], [1.0], [[0.3]]))
        assert sol.value == pytest.approx(0.3, abs=1e-12)

    def test_forced_coupling(self):
        # nu concentrates on the first point, so the plan is forced:
        # [[0.5, 0], [0.5, 0]] with value 0.5 (brute-force confirmed).
        problem = TransportProblem([0.5, 0.5], [1.0, 0.0],
                                   [[0.0, 1.0], [1.0, 0.0]])
        sol = solve_transport(problem)
        assert sol.value == pytest.approx(0.5, abs=1e-9)
        assert sol.value == pytest.approx(
            brute_force_transport(problem.mu, problem.nu, problem.cost),
            abs=1e-9)
        check_solution(problem, sol)

    def test_zero_weight_support_reinstated(self):
        problem = TransportProblem([0.0, 1.0], [0.5, 0.0, 0.5],
                                   [[5.0, 1.0, 2.0], [1.0, 3.0, 2.0]])
        sol = solve_transport(problem)
        assert np.all(sol.plan[0] == 0.0)
        assert np.all(sol.plan[:, 1] == 0.0)
        check_solution(problem, sol)
        assert sol.value == pytest.approx(
            brute_force_transport(problem.mu, problem.nu, problem.cost),
            abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 5, size=2)
        problem = TransportProblem(
            random_distribution(rng, m, sparse=seed % 3 == 0),
            random_distribution(rng, n, sparse=seed % 3 == 1),
            rng.random((m, n)))
        sol = solve_transport(problem)
        expected = brute_force_transport(problem.mu, problem.nu, problem.cost)
        assert sol.value == pytest.approx(expected, abs=1e-9)
        check_solution(problem, sol)

    def test_rejects_unbalanced_marginals(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TransportProblem([0.5, 0.4], [1.0, 0.0], [[0, 1], [1, 0]])

    def test_rejects_a_cost_of_another_shape(self):
        with pytest.raises(ValueError, match=r"cost shape \(2, 3\) does "
                           "not match"):
            TransportProblem([0.5, 0.5], [0.5, 0.5], np.zeros((2, 3)))

    def test_rejects_negative_marginals(self):
        for mu, nu in [([1.5, -0.5], [0.5, 0.5]), ([0.5, 0.5], [-0.5, 1.5])]:
            with pytest.raises(ValueError, match="marginals must be "
                               "nonnegative"):
                TransportProblem(mu, nu, [[0, 1], [1, 0]])

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TransportProblem([0.5, 0.5], [0.5, 0.5], [[0, -1], [1, 0]])

    @pytest.mark.parametrize("mu, nu", [
        ([math.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [1.0, math.nan]),
        ([math.inf, 1.0], [0.5, 0.5])])
    def test_rejects_non_finite_marginals(self, mu, nu):
        # A NaN weight passes both the sign and the sum test, and the
        # solver would then trim it as a zero weight.
        with pytest.raises(ValueError, match="finite"):
            TransportProblem(mu, nu, [[0, 1], [1, 0]])


class TestKrLowerBound:
    def test_zero_potentials(self):
        problem = TransportProblem([0.5, 0.5], [0.25, 0.75],
                                   [[0.1, 0.4], [0.3, 0.2]])
        assert kr_lower_bound(problem, [0, 0], [0, 0]) == 0.0
        assert solve_transport(problem).value >= 0.0

    def test_indicator_potentials_bound_probability_gaps(self):
        # Matched supports at mutual distance above sqrt(eps): the sqrt(eps)
        # indicator potentials are feasible, and the resulting bound turns a
        # transport distance below eps into |P_j - Q_j| <= sqrt(eps).
        eps = 0.04
        root = np.sqrt(eps)
        n = 3
        rng = np.random.default_rng(7)
        cost = np.full((n, n), root * 1.5)
        np.fill_diagonal(cost, 0.0)
        P_row = rng.dirichlet(np.ones(n))
        noise = np.array([0.01, -0.01, 0.0])
        Q_row = P_row + noise
        problem = TransportProblem(P_row, Q_row, cost)
        w = solve_transport(problem).value
        assert w < eps
        for j in range(n):
            f = np.zeros(n)
            f[j] = root
            bound = kr_lower_bound(problem, f, f)
            assert bound == pytest.approx(root * (P_row[j] - Q_row[j]),
                                          abs=1e-12)
            assert bound <= w + 1e-12
            assert P_row[j] - Q_row[j] <= w / root + 1e-12
            assert abs(P_row[j] - Q_row[j]) <= root + 1e-12

    def test_optimal_duals_are_tight(self):
        rng = np.random.default_rng(3)
        problem = TransportProblem(rng.dirichlet(np.ones(4)),
                                   rng.dirichlet(np.ones(4)),
                                   rng.random((4, 4)))
        sol = solve_transport(problem)
        bound = kr_lower_bound(problem, sol.dual_u, -sol.dual_v)
        assert bound == pytest.approx(sol.value, abs=1e-9)

    def test_infeasible_potentials_name_the_pair(self):
        problem = TransportProblem([0.5, 0.5], [0.5, 0.5],
                                   [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"f_left\[0\] - f_right\[0\]"):
            kr_lower_bound(problem, [5.0, 0.0], [0.0, 0.0])


class TestInvariants:
    @pytest.mark.parametrize("seed", range(15))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 6, size=2)
        mu, nu = random_distribution(rng, m), random_distribution(rng, n)
        cost = rng.random((m, n))
        fwd = solve_transport(TransportProblem(mu, nu, cost)).value
        bwd = solve_transport(TransportProblem(nu, mu, cost.T)).value
        assert fwd == pytest.approx(bwd, abs=1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_triangle_on_metric_cost(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = rng.integers(2, 7)
        pts = rng.random((n, 2))
        cost = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        mu, nu, rho = (random_distribution(rng, n) for _ in range(3))
        w = {}
        for name, (a, b) in {"mr": (mu, rho), "mn": (mu, nu),
                             "nr": (nu, rho)}.items():
            w[name] = solve_transport(TransportProblem(a, b, cost)).value
        assert w["mr"] <= w["mn"] + w["nr"] + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_raising_cost_never_decreases_value(self, seed):
        rng = np.random.default_rng(200 + seed)
        mu, nu = random_distribution(rng, 3), random_distribution(rng, 3)
        cost = rng.random((3, 3))
        base = solve_transport(TransportProblem(mu, nu, cost)).value
        bumped = cost.copy()
        i, j = rng.integers(0, 3, size=2)
        bumped[i, j] += rng.random()
        assert solve_transport(TransportProblem(mu, nu, bumped)).value \
            >= base - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), kappa=st.floats(0.0, 5.0))
    def test_constant_shift_adds_at_most_kappa(self, seed, kappa):
        rng = np.random.default_rng(seed)
        mu, nu = random_distribution(rng, 3), random_distribution(rng, 3)
        cost = rng.random((3, 3))
        base = solve_transport(TransportProblem(mu, nu, cost)).value
        shifted = solve_transport(TransportProblem(mu, nu, cost + kappa)).value
        assert shifted <= base + kappa + 1e-9
        assert shifted >= base - 1e-9


class TestBatchedTransport:
    def test_matches_single_solves(self):
        rng = np.random.default_rng(11)
        pairs, costs, singles = [], [], []
        for k in range(12):
            m, n = rng.integers(1, 5, size=2)
            mu, nu = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            cost = rng.random((m, n))
            pairs.append((mu, nu))
            costs.append(cost)
            singles.append(solve_transport(
                TransportProblem(mu, nu, cost)).value)
        batch = batch_of(pairs)
        np.testing.assert_allclose(batch.values(raveled(costs)), singles,
                                   atol=1e-9)

    def test_identical_marginals_zero_diagonal_short_circuit(self):
        mu = np.array([0.25, 0.75])
        cost = np.array([[0.0, 3.0], [4.0, 0.0]])
        batch = batch_of([(mu, mu)])
        assert batch.values(cost.ravel())[0] == 0.0

    def test_no_pricing_pass_when_every_answer_is_closed_form(self,
                                                              monkeypatch):
        # All-zero costs (the metric's first application) and identical
        # marginals at zero diagonal cost leave the simplex nothing to do.
        def priced(*args):
            raise AssertionError("simplex called")

        monkeypatch.setattr(transport, "_simplex", priced)
        mu, nu = np.array([0.25, 0.75]), np.array([0.5, 0.5])
        batch = batch_of([(mu, nu), (mu, mu)])
        assert np.all(batch.values(np.zeros(8)) == 0.0)
        costs = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 4.0, 0.0])
        assert np.all(batch.values(costs) == 0.0)
        assert (batch.solved, batch.reused) == (0, 0)
        np.testing.assert_array_equal(
            batch.couplings(), [0.125, 0.125, 0.375, 0.375,
                                0.25, 0.0, 0.0, 0.75])


def drifting_problem(rng, kind):
    """Marginals and a starting cost for one transport problem of a kind
    that stresses plan reuse."""
    m, n = (int(k) for k in rng.integers(2, 5, size=2))
    if kind == "degenerate":
        # Uniform marginals on a square with costs on a coarse grid: many
        # optimal vertices, tied reduced costs, zero basic cells.
        mu = nu = np.full(m, 1.0 / m)
        return mu, nu, rng.integers(0, 3, size=(m, m)) / 2.0
    if kind == "equal":
        mu = rng.dirichlet(np.ones(m))
        cost = rng.random((m, m))
        if rng.random() < 0.5:
            np.fill_diagonal(cost, 0.0)
        return mu, mu, cost
    if kind == "near-point":
        mu = np.full(m, 1e-9)
        mu[0] = 1.0 - (m - 1) * 1e-9
        return mu, rng.dirichlet(np.ones(n)), rng.random((m, n))
    if kind == "duplicated":
        # Split support points: identical cost rows and columns.
        rows = np.minimum(np.arange(m), m - 2)
        cols = np.minimum(np.arange(n), n - 2)
        cost = rng.random((m, n))[np.ix_(rows, cols)]
        return rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n)), cost
    return rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n)), \
        rng.random((m, n))


KINDS = ("generic", "degenerate", "equal", "near-point", "duplicated")


class TestPlanReuse:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
           steps=st.integers(2, 8), grid=st.booleans())
    def test_repeated_values_match_fresh_solves(self, seed, kinds, steps,
                                                grid):
        rng = np.random.default_rng(seed)
        problems = [drifting_problem(rng, kind) for kind in kinds]
        batch = batch_of([(mu, nu) for mu, nu, _ in problems])
        costs = [cost for _, _, cost in problems]
        for step in range(steps):
            got = batch.values(raveled(costs))
            for (mu, nu, _), cost, value in zip(problems, costs, got):
                expected = solve_transport(TransportProblem(mu, nu, cost))
                assert value == pytest.approx(expected.value, abs=1e-9)
            # Drift like a metric iteration: nonnegative, shrinking steps,
            # on a grid (ties persist) or continuous.
            costs = [cost + (rng.integers(0, 2, size=cost.shape) / 4.0
                             if grid else rng.random(cost.shape))
                     * 0.5 ** step for cost in costs]
        assert batch.solved + batch.reused <= steps * len(problems)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           kinds=st.lists(st.sampled_from(KINDS + ("point",)), min_size=1,
                          max_size=6),
           steps=st.integers(1, 5), zero_start=st.booleans())
    def test_couplings_are_feasible_and_attain_the_values(self, seed, kinds,
                                                          steps, zero_start):
        # After every call each problem's current coupling is a coupling of
        # its marginals whose cost is the value just returned: the stored
        # plan, the free diagonal, the forced product of a point mass, or
        # (all costs zero so far) the product.  Rescaling the costs keeps
        # zero diagonals at zero.
        rng = np.random.default_rng(seed)
        problems = []
        for kind in kinds:
            if kind == "point":
                mu, nu = np.ones(1), rng.dirichlet(np.ones(rng.integers(1, 5)))
                if rng.random() < 0.5:
                    mu, nu = nu, mu
                problems.append((mu, nu, rng.random((len(mu), len(nu)))))
            else:
                problems.append(drifting_problem(rng, kind))
        batch = batch_of([(mu, nu) for mu, nu, _ in problems])
        costs = [cost * (0.0 if zero_start else 1.0)
                 for _, _, cost in problems]
        for _ in range(steps):
            values = batch.values(raveled(costs))
            flow = np.split(batch.couplings(),
                            np.cumsum([c.size for c in costs])[:-1])
            for (mu, nu, _), cost, value, plan in zip(problems, costs,
                                                      values, flow):
                plan = plan.reshape(cost.shape)
                assert plan.min() >= -1e-9
                np.testing.assert_allclose(plan.sum(axis=1), mu, atol=1e-9)
                np.testing.assert_allclose(plan.sum(axis=0), nu, atol=1e-9)
                assert np.sum(plan * cost) == pytest.approx(value, abs=1e-9)
            costs = [base * (1.0 + rng.random(base.shape))
                     for _, _, base in problems]

    def test_small_drift_reuses_every_plan(self):
        rng = np.random.default_rng(5)
        pairs = [(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4)))
                 for _ in range(6)]
        costs = [rng.random((3, 4)) for _ in pairs]
        batch = batch_of(pairs)
        batch.values(raveled(costs))
        assert (batch.solved, batch.reused) == (6, 0)
        drifted = [c + 1e-9 * rng.random(c.shape) for c in costs]
        values = batch.values(raveled(drifted))
        assert (batch.solved, batch.reused) == (6, 6)
        for (mu, nu), cost, value in zip(pairs, drifted, values):
            assert value == pytest.approx(solve_transport(
                TransportProblem(mu, nu, cost)).value, abs=1e-12)

    def test_plan_worse_by_a_hair_is_re_solved(self):
        # The kept diagonal plan is 1e-10 worse than the anti-diagonal
        # under the new costs: far below an LP solver's tolerances, yet the
        # reduced-cost test must send it back to the solver.
        half = np.array([0.5, 0.5])
        batch = batch_of([(half, half)])
        first = batch.values(np.array([0.1, 1.0, 1.0, 0.1]))[0]
        assert first == pytest.approx(0.1, abs=1e-15)
        value = batch.values(np.array([0.5, 0.5 - 2e-10, 0.5, 0.5]))[0]
        assert (batch.solved, batch.reused) == (2, 0)
        assert abs(value - (0.5 - 1e-10)) <= 1e-13

    def test_rejects_costs_outside_the_flat_layout(self):
        rng = np.random.default_rng(6)
        pairs = [(rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n)))
                 for m, n in [(1, 3), (3, 3), (2, 4), (3, 3), (4, 1)]]
        flat = raveled(rng.random((len(mu), len(nu))) for mu, nu in pairs)
        for costs in (flat[:-1], flat[None]):
            with pytest.raises(ValueError, match="cost entries"):
                batch_of(pairs).values(costs)


STAIRCASE_KINDS = ("generic", "zero-weight", "tied", "point")


def staircase_marginal(rng, kind, m):
    """A weight vector of length m: Dirichlet (``generic``), with zero
    entries (``zero-weight``), in sixteenths, so that a row's and a
    column's remainders can tie exactly (``tied``), or a point mass."""
    if kind == "zero-weight":
        return random_distribution(rng, m, sparse=True)
    if kind == "tied":
        return rng.multinomial(16, np.ones(m) / m) / 16.0
    if kind == "point":
        return np.eye(m)[rng.integers(m)]
    return rng.dirichlet(np.ones(m))


class TestStaircaseAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.tuples(st.sampled_from(STAIRCASE_KINDS),
                                    st.sampled_from(STAIRCASE_KINDS)),
                          min_size=1, max_size=6),
           m=st.integers(1, 8), n=st.integers(1, 8))
    def test_matches_the_inverted_tree(self, seed, kinds, m, n):
        # The staircase's bases, flows and potential maps equal those of
        # the loop over copied marginals and the rounded inverse of each
        # tree's incidence matrix, bit for bit, and no map holds -0.0.
        rng = np.random.default_rng(seed)
        mu = np.array([staircase_marginal(rng, a, m) for a, _ in kinds])
        nu = np.array([staircase_marginal(rng, b, n) for _, b in kinds])
        basis, potential_map, flow = _northwest_corner(mu, nu)
        expected = reference_northwest_corner(mu, nu)
        for got, want in zip((basis, potential_map, flow), expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert not np.signbit(potential_map).any(where=potential_map == 0)

    def test_ties_leave_zero_basic_flows(self):
        # Uniform marginals on 4 x 4 exhaust a row and a column together at
        # every diagonal cell: three degenerate basic cells carry 0.
        uniform = np.full((1, 4), 0.25)
        basis, potential_map, flow = _northwest_corner(uniform, uniform)
        np.testing.assert_array_equal(basis[0], [0, 4, 5, 9, 10, 14, 15])
        np.testing.assert_array_equal(flow[0], [0.25, 0.0] * 3 + [0.25])
        np.testing.assert_array_equal(
            potential_map, reference_potential_map(basis, 4, 4))


ORACLE_KINDS = ("generic", "point", "zero-weight", "identical", "tied",
                "duplicated", "off-sum")


def oracle_problem(rng, kind, m, n):
    """A transport problem of shape (m, n) (square for ``identical``) with
    the property ``kind`` names."""
    scale = 10.0 ** rng.integers(-3, 3)
    mu, nu = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
    cost = rng.random((m, n)) * scale
    if kind == "point":
        mu = np.eye(m)[rng.integers(m)]
        if rng.random() < 0.5:
            nu = np.eye(n)[rng.integers(n)]
    elif kind == "zero-weight":
        mu = random_distribution(rng, m, sparse=True)
        nu = random_distribution(rng, n, sparse=True)
    elif kind == "identical":
        nu, cost = mu, rng.random((m, m)) * scale
        if rng.random() < 0.5:
            np.fill_diagonal(cost, 0.0)
    elif kind == "tied":
        cost = np.full((m, n), rng.random())
    elif kind == "duplicated":
        rows = np.minimum(np.arange(m), max(m - 2, 0))
        cols = np.minimum(np.arange(n), max(n - 2, 0))
        cost = cost[np.ix_(rows, cols)]
        mu, nu = mu[rows] / mu[rows].sum(), nu[cols] / nu[cols].sum()
    elif kind == "off-sum":
        mu = mu * (1.0 + rng.uniform(-PROB_TOL, PROB_TOL))
    return TransportProblem(mu, nu, cost)


def assert_matches_oracle(problem, value, plan, u, v):
    """The simplex's answer against HiGHS: the value, a feasible plan that
    attains it, and a feasible, tight dual certificate."""
    mu, nu, cost = problem.mu, problem.nu, problem.cost
    [(expected, *_)] = _solve_blocks([(mu, nu, cost)])
    scale = max(1.0, cost.max())
    assert abs(value - expected) <= 1e-12 * scale
    assert plan.min() >= 0.0
    np.testing.assert_allclose(plan.sum(axis=1), mu, rtol=0, atol=PROB_TOL)
    np.testing.assert_allclose(plan.sum(axis=0), nu, rtol=0, atol=PROB_TOL)
    assert abs(np.sum(plan * cost) - value) <= 1e-12 * scale
    assert (u[:, None] + v[None, :] - cost).max() <= REUSE_TOL * scale
    assert kr_lower_bound(problem, u, -v) == pytest.approx(
        value, rel=0, abs=1e-12 * scale)


class TestSimplexAgainstHighs:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(ORACLE_KINDS), m=st.integers(1, 8),
           n=st.integers(1, 8))
    def test_cold_start(self, seed, kind, m, n):
        problem = oracle_problem(np.random.default_rng(seed), kind, m, n)
        sol = solve_transport(problem)
        assert_matches_oracle(problem, sol.value, sol.plan, sol.dual_u,
                              sol.dual_v)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(ORACLE_KINDS), min_size=1,
                          max_size=8),
           shape=st.tuples(st.integers(2, 8), st.integers(2, 8)),
           changes=st.integers(1, 3))
    def test_warm_start_after_a_cost_change(self, seed, kinds, shape,
                                            changes):
        # One shape group, solved once and then re-answered from its kept
        # bases after each change of some or all of its costs.
        rng = np.random.default_rng(seed)
        m, n = shape
        problems = [oracle_problem(rng, kind, m, n) for kind in kinds
                    if kind != "identical" or m == n]
        assume(problems)
        batch = batch_of([(p.mu, p.nu) for p in problems])
        costs = [p.cost for p in problems]
        for _ in range(changes + 1):
            values = batch.values(raveled(costs))
            flow = np.split(batch.couplings(),
                            np.cumsum([c.size for c in costs])[:-1])
            [group] = batch.groups
            # The potential maps, updated by rank-one terms, are those of
            # the kept bases, and their potentials certify each value; the
            # free diagonal's value 0 is certified by zero potentials.
            known = group.known
            np.testing.assert_array_equal(
                group.potential_map[known],
                reference_potential_map(group.basis[known], m, n))
            uv = np.einsum("gpk,gk->gp", group.potential_map,
                           np.take_along_axis(np.reshape(costs, (-1, m * n)),
                                              group.basis, axis=1))
            uv[group.diagonal] = 0.0
            for p, cost, value, plan, duals in zip(problems, costs, values,
                                                   flow, uv):
                assert_matches_oracle(TransportProblem(p.mu, p.nu, cost),
                                      value, plan.reshape(m, n), duals[:m],
                                      duals[m:])
            change = rng.random(len(costs)) < 0.7
            costs = [c * rng.random(c.shape) * 2.0 if move else c
                     for c, move in zip(costs, change)]

    def test_bland_switch_on_a_degenerate_family(self, monkeypatch):
        # Uniform marginals on 20 x 20 with costs on a coarse grid: the
        # northwest corner leaves 19 zero basic cells, and some problems
        # make more than DEGENERATE_RUN degenerate pivots in a row.  Pure
        # Dantzig pricing pivots differently on those, so the switch to
        # Bland's rule is taken; every problem still ends optimal, far
        # below the cap.
        rng = np.random.default_rng(20)
        size, n = 60, 20
        uniform = np.full((size, n), 1.0 / n)
        cost = rng.integers(0, 3, size=(size, n * n)) / 2.0

        def pivots():
            basis, potential_map, flow = _northwest_corner(uniform, uniform)
            made = _simplex(cost, basis, potential_map, flow, n,
                            np.arange(size))
            return made, basis, flow

        made, basis, flow = pivots()
        assert made.max() < PIVOT_CAP
        values = np.einsum("gk,gk->g", np.take_along_axis(cost, basis, 1),
                           flow)
        expected = [value for value, *_ in _solve_blocks(
            [(mu, mu, c.reshape(n, n)) for mu, c in zip(uniform, cost)])]
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
        monkeypatch.setattr(transport, "DEGENERATE_RUN", 10 ** 9)
        dantzig, *_ = pivots()
        assert np.any(made != dantzig)

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdp_stability import (BisimConfig, MdpSpec, Perturbation, Policy,
                           PlayingDeadParams, SafetyQuery, bisim_quotient,
                           build_duplicated,
                           build_playing_dead, build_uniform_shutdown,
                           certify_safety, cross_bisim_metric,
                           embedded_to_document, expected_steps,
                           hausdorff_distance, induce_chain, isolation_check,
                           load_mdp, mdp_to_document, random_family,
                           tighten_policy_bound, validate)
from mdp_stability import mdp as mdp_module
from mdp_stability.mdp import ValidationReport, Violation
from mdp_stability.scenarios import (MAX_STATE_SHIFT, perturbation_support,
                                      random_perturbation)
from mdp_stability.onpolicy import (EmbeddedMdp, apply_perturbation,
                                    make_toy_policy, perturbation_size)

from helpers import random_mdp, reference_duplicated, reference_perturbation

ROOT = Path(__file__).resolve().parent.parent


def hibernation_base(gamma=0.9):
    # work --go--> wrap --go--> shutdown; stay actions self-loop.
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
                   gamma, {2})


def pd_params(delta=1e-3, epsilon=0.5):
    return PlayingDeadParams(base=hibernation_base(), delta=delta,
                             escape_state=0, escape_action=0,
                             epsilon=epsilon)


class TestPlayingDeadParams:
    def test_delta_interval_enforced(self):
        # (1-gamma) eps / (10 |S|) = 0.1*0.5/30
        with pytest.raises(ValueError, match="delta"):
            pd_params(delta=0.01)

    def test_delta_is_a_probability(self):
        # At epsilon 1e6 the window (0, 3333) admits delta = 2, a leak
        # probability that no transition row can carry.
        with pytest.raises(ValueError, match="at most 1, got 2.0"):
            pd_params(delta=2.0, epsilon=1e6)
        assert build_playing_dead(pd_params(delta=1.0, epsilon=1e6))

    def test_terminal_state_requirements(self):
        bad = hibernation_base()
        r = bad.reward.copy()
        r[2, 0] = 0.5
        with pytest.raises(ValueError, match="zero reward"):
            PlayingDeadParams(bad.with_rewards(r), 1e-3, 0, 0, 0.5)

    @staticmethod
    def leaking_terminal():
        # The terminal state leaks 1.5e-12 under "stay": within the
        # validation's absorption tolerance, outside the self-loop's.
        base = hibernation_base()
        P = base.transition.copy()
        P[2, 1, 2] = 1.0 - 0.8e-12
        P[2, 1, 0] = 1.5e-12
        return MdpSpec(base.state_ids, base.action_ids, P, base.reward,
                       base.discount, base.safe_set)

    @pytest.mark.parametrize("make,message", [
        (lambda: (build_duplicated(hibernation_base(), 2), 0, 0),
         "exactly one terminal safe state"),
        (lambda: (TestPlayingDeadParams.leaking_terminal(), 0, 0),
         "must self-loop under every action"),
        (lambda: (hibernation_base(), 3, 0), r"state indices \[3\] lie "
         "outside"),
        (lambda: (hibernation_base(), -1, 0), r"state indices \[-1\] lie "
         "outside"),
        (lambda: (hibernation_base(), 0, 2), "escape_action out of range")],
        ids=["two-safe", "leak", "escape-state-3", "escape-state-neg",
             "escape-action"])
    def test_rejections(self, make, message):
        base, escape_state, escape_action = make()
        with pytest.raises(ValueError, match=message):
            PlayingDeadParams(base, 1e-3, escape_state, escape_action, 0.5)

    def test_escape_state_needs_positive_value(self):
        base = hibernation_base().with_rewards(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="positive optimal value"):
            PlayingDeadParams(base, 1e-3, 0, 0, 0.5)


class TestBuildPlayingDead:
    def test_shapes_and_validity(self):
        out = build_playing_dead(pd_params())
        assert out.n_states == 4
        assert validate(out).ok
        assert out.state_ids[3] == "s_pd"
        assert out.safe_set == {2}

    def test_hibernation_row(self):
        out = build_playing_dead(pd_params())
        delta = 1e-3
        assert out.transition[3, 0, 3] == pytest.approx(1 - delta)
        assert out.transition[3, 0, 0] == pytest.approx(delta)
        assert out.transition[3, 1, 3] == 1.0
        assert out.reward[3, 0] == delta and out.reward[3, 1] == 0.0

    def test_inbound_mass_rerouted(self):
        out = build_playing_dead(pd_params())
        # wrap fed shutdown under go; that mass now feeds the new state.
        assert out.transition[1, 0, 2] == 0.0
        assert out.transition[1, 0, 3] == 1.0
        # The terminal state's own self-loop must stay.
        np.testing.assert_array_equal(out.transition[2, :, 2], 1.0)

    def test_diff_supported_on_feeding_rows_only(self):
        base = hibernation_base()
        out = build_playing_dead(pd_params())
        fed_term = {(s, a)
                    for s in range(3) for a in range(2)
                    if s != 2 and base.transition[s, a, 2] > 0}
        for s in range(3):
            for a in range(2):
                same = np.array_equal(out.transition[s, a, :3],
                                      base.transition[s, a]) \
                    and out.transition[s, a, 3] == 0.0
                assert same == ((s, a) not in fed_term)

    def test_distance_to_terminal_below_closed_form(self):
        # With c_T = gamma and c_R = 1 - gamma the hibernation state sits
        # within delta / (1 - gamma + gamma delta) of the terminal state.
        delta, gamma, eta = 1e-3, 0.9, 1e-6
        out = build_playing_dead(pd_params(delta=delta))
        config = BisimConfig(c_R=1 - gamma, c_T=gamma, tolerance=eta)
        metric = cross_bisim_metric(out, out, config)
        assert metric.converged
        bound = delta / (1 - gamma + gamma * delta)
        assert metric.dist[3, 2] <= bound + eta
        assert metric.dist[3, 2] > 0.0

    def test_distance_shrinks_with_delta(self):
        gamma = 0.9
        config = BisimConfig(c_R=1 - gamma, c_T=gamma, tolerance=1e-8)
        distances = []
        for delta in (1e-2, 1e-3, 1e-4):
            out = build_playing_dead(pd_params(delta=delta, epsilon=4.0))
            metric = cross_bisim_metric(out, out, config)
            distances.append(metric.dist[3, 2])
        assert distances[0] > distances[1] > distances[2]

    def test_base_certified_safe_but_variant_never_absorbs(self):
        base = hibernation_base()
        cert = certify_safety(base, SafetyQuery(0.5))
        assert math.isfinite(cert.worst_time)
        out = build_playing_dead(pd_params())
        cert_pd = certify_safety(out, SafetyQuery(0.25))
        assert cert_pd.worst_time == math.inf
        assert cert_pd.epsilon_optimal_count > 0
        assert not any(cert_pd.reachability)

    def test_safe_set_is_not_isolated_at_sqrt_dh(self):
        base = hibernation_base()
        out = build_playing_dead(pd_params())
        config = BisimConfig(c_R=0.1, c_T=0.9, tolerance=1e-6)
        d_h = hausdorff_distance(cross_bisim_metric(base, out, config))
        assert d_h > 0
        result = isolation_check(out, out.safe_set, math.sqrt(d_h), config)
        assert not result.isolated


class TestUniformShutdown:
    def never_absorbing(self):
        P = np.zeros((3, 2, 3))
        P[0, :, 1] = 1.0
        P[1, :, 0] = 1.0
        P[2, :, 2] = 1.0
        return MdpSpec(("x", "y", "safe"), ("a0", "a1"), P,
                       np.zeros((3, 2)), 0.9, {2})

    @pytest.mark.parametrize("N", [10.0, 37.5])
    def test_hitting_time_equals_n(self, N):
        out = build_uniform_shutdown(self.never_absorbing(), N)
        chain = induce_chain(out, Policy([0, 0, 0]))
        t = expected_steps(chain)
        np.testing.assert_allclose(t, N, atol=1e-6)

    def test_large_n_recovers_original(self):
        base = self.never_absorbing()
        N = 1e6
        out = build_uniform_shutdown(base, N)
        per_row = np.abs(out.transition - base.transition).sum(axis=2)
        assert per_row.max() <= 2.0 / N + 1e-15

    def test_transition_shift_has_the_predicted_mass(self):
        base = self.never_absorbing()
        N = 50.0
        out = build_uniform_shutdown(base, N)
        shift = np.abs(out.transition - base.transition).sum()
        nonsafe_rows = len(base.nonsafe_indices) * base.n_actions
        assert shift == pytest.approx(2.0 / N * nonsafe_rows, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_uniform_shutdown(self.never_absorbing(), 1.0)
        no_safe = MdpSpec(("s",), ("a",), [[[1.0]]], [[0.0]], 0.9, set())
        with pytest.raises(ValueError, match="safe"):
            build_uniform_shutdown(no_safe, 10.0)
        with pytest.raises(ValueError, match="target must be a safe state"):
            build_uniform_shutdown(self.never_absorbing(), 10.0, target=0)


class TestDuplicated:
    def test_inbound_split_evenly(self):
        mdp = hibernation_base()
        out = build_duplicated(mdp, 1, copies=2)
        assert out.n_states == 4
        assert out.transition[0, 0, 1] == pytest.approx(0.5)
        assert out.transition[0, 0, 3] == pytest.approx(0.5)
        np.testing.assert_array_equal(out.transition[3], out.transition[1])
        assert validate(out).ok

    def test_safe_copies_stay_safe(self):
        mdp = hibernation_base()
        out = build_duplicated(mdp, 2, copies=3)
        assert out.safe_set == {2, 3, 4}
        assert validate(out).ok

    def test_needs_at_least_two_copies(self):
        with pytest.raises(ValueError):
            build_duplicated(hibernation_base(), 0, copies=1)

    @pytest.mark.parametrize("state", [-1, 3])
    def test_rejects_a_state_out_of_range(self, state):
        with pytest.raises(ValueError, match=rf"state indices \[{state}\] "
                           "lie outside"):
            build_duplicated(hibernation_base(), state)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_copy_by_copy_build(self, seed):
        mdp = random_mdp(seed, n_states=4)
        state, copies = seed % 4, 2 + seed % 3
        out = build_duplicated(mdp, state, copies)
        ids, P, r, safe = reference_duplicated(mdp, state, copies)
        assert out.state_ids == ids and out.safe_set == safe
        np.testing.assert_array_equal(out.transition, P)
        np.testing.assert_array_equal(out.reward, r)


class TestRandomFamily:
    def test_same_seed_same_document(self):
        a = json.dumps(embedded_to_document(random_family(42)))
        b = json.dumps(embedded_to_document(random_family(42)))
        assert a == b

    def test_different_seed_differs(self):
        a = json.dumps(embedded_to_document(random_family(1)))
        b = json.dumps(embedded_to_document(random_family(2)))
        assert a != b

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_states(self, n):
        with pytest.raises(ValueError, match="need at least 2 states"):
            random_family(1, (n, 2, 2))

    def test_reward_range_needs_a_finite_width(self):
        # Each end is finite, but numpy cannot draw across their distance.
        with pytest.raises(ValueError, match="a finite width apart"):
            random_family(1, reward_range=(-1e308, 1e308))

    def test_validation_over_many_seeds(self):
        for seed in range(1000):
            emdp = random_family(seed, (4, 2, 2))
            assert validate(emdp.base).ok

    def test_safe_reachable_in_most_draws(self):
        # Fixture expectation measured over a Monte-Carlo sample: at the
        # default sparsity, at least one state reaches the safe state in at
        # least 95% of draws.
        hits = 0
        trials = 400
        for seed in range(trials):
            emdp = random_family(seed)
            reach = emdp.base.transition[:, :, -1].sum()
            hits += bool(reach > 0)
        assert hits / trials >= 0.95


# -- one check for every MDP the package builds -------------------------------

BROKEN = ValidationReport((Violation("row-sum", (0, 0), "sums to 2.0"),))


def checked_constructions():
    """{failure prefix: call} of every construction that checks the MDP it
    builds or takes; each call's inputs are built here, unchecked by it."""
    base, params, emdp = hibernation_base(), pd_params(), random_family(1)
    still = Perturbation(np.zeros_like(emdp.embedding),
                         np.zeros_like(emdp.base.transition))
    document = mdp_to_document(base)
    return {
        "MDP document fails validation": lambda: load_mdp(document),
        "perturbed MDP invalid": lambda: apply_perturbation(emdp, still),
        "quotient is not a valid MDP": lambda: bisim_quotient(base),
        "base MDP invalid": lambda: PlayingDeadParams(base, 1e-3, 0, 0, 0.5),
        "playing-dead MDP invalid": lambda: build_playing_dead(params),
        "uniform-shutdown MDP invalid":
            lambda: build_uniform_shutdown(base, 5.0),
        "duplicated MDP invalid": lambda: build_duplicated(base, 1),
        "random MDP invalid": lambda: random_family(1),
        "reward variant invalid": lambda: base.with_rewards(base.reward),
    }


@pytest.mark.parametrize("failure", sorted(checked_constructions()))
def test_a_construction_raises_its_failure_with_the_report(monkeypatch,
                                                           failure):
    call = checked_constructions()[failure]
    monkeypatch.setattr(mdp_module, "validate", lambda mdp: BROKEN)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'{failure}: {BROKEN}')}$"):
        call()


O_SCRIPT = """
import sys
from mdp_stability import mdp, random_family
mdp.validate = lambda m: mdp.ValidationReport(
    (mdp.Violation("row-sum", (0, 0), "sums to 2.0"),))
try:
    random_family(1)
except ValueError as exc:
    print(sys.flags.optimize, exc)
"""


def test_a_generator_checks_its_mdp_under_python_O(tmp_path):
    # python -O strips asserts; the check of a built MDP is not one.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-O", "-c", O_SCRIPT],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout == f"1 random MDP invalid: {BROKEN}\n"


class TestRandomPerturbation:
    def test_rejects_a_negative_size(self):
        emdp = random_family(1, (5, 2, 3))
        policy = make_toy_policy(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="size must be nonnegative"):
            random_perturbation(emdp, policy, -1e-6, 0)

    def test_rejects_a_nan_size(self):
        emdp = random_family(1, (5, 2, 3))
        policy = make_toy_policy(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="size must be nonnegative"):
            random_perturbation(emdp, policy, math.nan, 0)

    @pytest.mark.parametrize("share", [-0.5, 1.5, math.nan])
    def test_rejects_a_state_share_outside_the_unit_interval(self, share):
        emdp = random_family(1, (5, 2, 3))
        policy = make_toy_policy(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"state_share must lie in"):
            random_perturbation(emdp, policy, 1e-4, 0, state_share=share)

    @pytest.mark.parametrize("seed", range(8))
    def test_requested_size_is_exact_and_support_preserved(self, seed):
        emdp = random_family(seed, (5, 2, 3))
        rng = np.random.default_rng(seed)
        policy = tighten_policy_bound(
            make_toy_policy(rng.standard_normal((2, 3))), emdp.embedding)
        size = 10.0 ** rng.uniform(-6, -3)
        pert = random_perturbation(emdp, policy, size, seed)
        assert perturbation_size(emdp, policy, pert) == pytest.approx(
            size, rel=1e-12)
        shifted = apply_perturbation(emdp, pert)
        base_support = emdp.base.transition > 0
        assert np.all(shifted.base.transition[base_support] > 0)

    @pytest.mark.parametrize("bound", [1.3e-157, 1e-300, 5e-324])
    def test_a_vanishing_derivative_bound_moves_no_state(self, bound):
        # A unit of size would move some state past MAX_STATE_SHIFT, so
        # the bound counts as zero and the size goes to transitions.
        emdp = random_family(1, (5, 2, 3))
        zero = make_toy_policy(np.zeros((2, 3)))
        policy = dataclasses.replace(zero, bound_b=bound)
        pert = random_perturbation(emdp, policy, 1e-4, 7)
        assert not pert.delta_S.any()
        assert pert.delta_T.tobytes() \
            == random_perturbation(emdp, zero, 1e-4, 7).delta_T.tobytes()

    def test_a_size_that_moves_a_state_too_far_is_refused(self):
        emdp = random_family(1, (5, 2, 3))
        policy = make_toy_policy(np.full((2, 3), 1e-153))
        pert = random_perturbation(emdp, policy, 1e-4, 7, state_share=1.0)
        assert perturbation_size(emdp, policy, pert) == pytest.approx(
            1e-4, rel=1e-12)
        assert 0 < np.linalg.norm(pert.delta_S, axis=1).max() \
            <= MAX_STATE_SHIFT
        with pytest.raises(ValueError, match="moves a state further"):
            random_perturbation(emdp, policy, 1e6, 7, state_share=1.0)

    def test_zero_size(self):
        emdp = random_family(1)
        policy = make_toy_policy(np.zeros((2, 3)))
        pert = random_perturbation(emdp, policy, 0.0, 3)
        assert pert.transition_shift_l1 == 0.0


# -- the array draw against the per-row loop ----------------------------------

def supported_mdp(gen, n, n_actions, lengths, n_safe, dim,
                  zero_entries=False, tiny_entries=False):
    """Embedded MDP whose rows have supports of the given lengths, drawn
    row by row from ``gen``; the last ``n_safe`` states are safe and keep
    rows of any support.  Zeroed entries leave a row short of its listed
    support; tiny entries are the smallest subnormal, so their cap is 0."""
    P = np.zeros((n, n_actions, n))
    for s in range(n):
        for a in range(n_actions):
            k = lengths[gen.integers(len(lengths))]
            dests = gen.choice(n, size=k, replace=False)
            P[s, a, dests] = gen.dirichlet(np.ones(k))
            if zero_entries and k > 2:
                P[s, a, dests[gen.integers(k)]] = 0.0
            if tiny_entries and gen.random() < 0.2:
                P[s, a, dests[0]] = 5e-324
    base = MdpSpec(tuple(f"s{i}" for i in range(n)),
                   tuple(f"a{j}" for j in range(n_actions)), P,
                   np.zeros((n, n_actions)), 0.9,
                   frozenset(range(n - n_safe, n)))
    return EmbeddedMdp(base, gen.uniform(0.0, 1.0, size=(n, dim)))


def draw_outcomes(emdp, policy, size, seed, state_share):
    """(outcome, next normal of the generator) of the array draw and of the
    per-row oracle; an outcome is the bytes of both displacements or the
    error message."""
    made = []
    real = np.random.default_rng

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        for draw in (random_perturbation, reference_perturbation):
            try:
                pert = draw(emdp, policy, size, seed, state_share)
                outcomes.append((pert.delta_T.tobytes(),
                                 pert.delta_S.tobytes()))
            except ValueError as exc:
                outcomes.append(str(exc))
    assert len(made) == 2
    return [(out, gen.standard_normal(1).tobytes())
            for out, gen in zip(outcomes, made)]


@st.composite
def draw_cases(draw):
    """Point masses, zero and subnormal entries, mixed support lengths in
    one MDP, supports past numpy's pairwise block of 128, safe rows with
    wide supports, no safe state, a zero derivative bound and zero size."""
    n = draw(st.one_of(st.integers(2, 9), st.integers(129, 300)))
    lengths = draw(st.lists(st.integers(1, n), min_size=1, max_size=4))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    emdp = supported_mdp(gen, n, draw(st.integers(1, 3)), lengths,
                         n_safe=draw(st.integers(0, 2)),
                         dim=draw(st.integers(1, 3)),
                         zero_entries=draw(st.booleans()),
                         tiny_entries=draw(st.booleans()))
    weights = gen.standard_normal((emdp.base.n_actions, emdp.dim))
    if draw(st.booleans()):
        weights[:] = 0.0
    policy = make_toy_policy(weights)
    size = draw(st.sampled_from([0.0, 1e-9, 1e-5, 1e-2, 1.0, 1e3]))
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return emdp, policy, size, draw(st.integers(0, 2 ** 32 - 1)), share


class TestPerturbationDrawMatchesPerRowLoop:
    @settings(max_examples=80, deadline=None)
    @given(case=draw_cases())
    def test_same_bytes_and_same_stream(self, case):
        ours, oracle = draw_outcomes(*case)
        assert ours == oracle

    @pytest.mark.parametrize("seed", range(3))
    def test_every_length_around_the_pairwise_blocks(self, seed):
        # One MDP mixing point masses with lengths on both sides of numpy's
        # unrolled block of 8 and its pairwise block of 128.
        lengths = [1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 130, 255, 256,
                   257, 300]
        gen = np.random.default_rng(seed)
        emdp = supported_mdp(gen, 300, 3, lengths, n_safe=1, dim=2)
        sizes = (emdp.base.transition > 0).sum(axis=2)
        assert set(lengths) <= set(sizes.ravel().tolist())
        policy = make_toy_policy(gen.standard_normal((3, 2)))
        ours, oracle = draw_outcomes(emdp, policy, 1e-4, seed, 0.5)
        assert ours == oracle
        assert isinstance(ours[0], tuple)


# -- a ladder of draws from one support plan ----------------------------------

def outcome(draw, *args, **kw):
    """The bytes of both displacements of a draw, or its error message."""
    try:
        pert = draw(*args, **kw)
    except ValueError as exc:
        return str(exc)
    return pert.delta_T.tobytes(), pert.delta_S.tobytes()


@st.composite
def ladder_cases(draw):
    """A ladder from size 0 up on an MDP with point-mass rows among wider
    ones, under a derivative bound that may be zero."""
    n = draw(st.integers(2, 40))
    lengths = [1] + draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    emdp = supported_mdp(gen, n, draw(st.integers(1, 3)), lengths,
                         n_safe=draw(st.integers(0, 2)),
                         dim=draw(st.integers(1, 3)),
                         zero_entries=draw(st.booleans()))
    weights = gen.standard_normal((emdp.base.n_actions, emdp.dim))
    if draw(st.booleans()):
        weights[:] = 0.0
    sizes = [0.0] + sorted(draw(st.lists(
        st.sampled_from([1e-9, 1e-5, 1e-3, 1e-1, 1e3]), max_size=5)))
    return (emdp, make_toy_policy(weights), sizes,
            draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.sampled_from([0.0, 0.5, 1.0])))


class TestPerturbationLadder:
    """Rungs drawn from one support plan, as ``onpolicy-sweep`` draws
    them, against the per-row oracle at each rung's seed."""

    @settings(max_examples=60, deadline=None)
    @given(case=ladder_cases())
    def test_every_rung_matches_the_oracle(self, case):
        emdp, policy, sizes, seed, share = case
        plan = perturbation_support(emdp.base)
        for k, size in enumerate(sizes):
            assert outcome(random_perturbation, emdp, policy, size, seed + k,
                           share, plan=plan) \
                == outcome(reference_perturbation, emdp, policy, size,
                           seed + k, share)

    @pytest.mark.parametrize("zero_bound", [False, True])
    def test_point_masses_zero_size_and_zero_bound(self, zero_bound):
        gen = np.random.default_rng(4)
        emdp = supported_mdp(gen, 30, 3, [1, 2, 5, 30], n_safe=1, dim=2)
        lengths = (emdp.base.transition > 0).sum(axis=2)[:-1]
        assert (lengths == 1).any() and (lengths > 1).any()
        weights = gen.standard_normal((3, 2))
        if zero_bound:
            weights[:] = 0.0
        policy = make_toy_policy(weights)
        assert (policy.bound_b == 0.0) == zero_bound
        plan = perturbation_support(emdp.base)
        for k, size in enumerate([0.0, 1e-6, 1e-4, 1e-2]):
            ours = random_perturbation(emdp, policy, size, 11 + k, plan=plan)
            oracle = reference_perturbation(emdp, policy, size, 11 + k)
            assert ours.delta_T.tobytes() == oracle.delta_T.tobytes()
            assert ours.delta_S.tobytes() == oracle.delta_S.tobytes()
            assert ours.transition_shift_l1 > 0.0 or size == 0.0

    @pytest.mark.parametrize("weights", [[[0.0], [0.0]], [[1.0], [-1.0]]])
    def test_rows_of_point_masses_only(self, weights):
        # Every row of the hibernation MDP is a point mass: no transition
        # noise, and a zero derivative bound leaves nothing to perturb.
        emdp = EmbeddedMdp(hibernation_base(), [[0.0], [0.5], [1.0]])
        policy = make_toy_policy(weights)
        plan = perturbation_support(emdp.base)
        assert plan.n_cells == 0 and plan.groups == ()
        for k, size in enumerate([0.0, 1e-4]):
            assert outcome(random_perturbation, emdp, policy, size, k,
                           plan=plan) \
                == outcome(reference_perturbation, emdp, policy, size, k)

    def test_rows_whose_normals_centre_to_zero(self, monkeypatch):
        # Normals rounded to integers often tie along a short row, which
        # then centres to zero and gets no noise, beside live rows.
        real = np.random.default_rng

        class RoundedNormals:
            def __init__(self, seed):
                self.gen = real(seed)

            def standard_normal(self, size):
                return np.round(self.gen.standard_normal(size))

        monkeypatch.setattr(np.random, "default_rng", RoundedNormals)
        emdp = supported_mdp(real(5), 20, 3, [2, 3], n_safe=1, dim=2)
        policy = make_toy_policy(real(6).standard_normal((3, 2)))
        plan = perturbation_support(emdp.base)
        for k, size in enumerate([0.0, 1e-5, 1e-3]):
            ours = random_perturbation(emdp, policy, size, k, plan=plan)
            oracle = reference_perturbation(emdp, policy, size, k)
            assert ours.delta_T.tobytes() == oracle.delta_T.tobytes()
            assert ours.delta_S.tobytes() == oracle.delta_S.tobytes()
            quiet = ~ours.delta_T.any(axis=2)[:-1]
            assert size == 0.0 or 0 < quiet.sum() < quiet.size

    def test_plan_of_another_mdp_is_rejected(self):
        emdp, other = random_family(1), random_family(2)
        policy = make_toy_policy(np.ones((2, 3)))
        with pytest.raises(ValueError, match="another MDP"):
            random_perturbation(emdp, policy, 1e-4, 0,
                                plan=perturbation_support(other.base))

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (random_mdp, reference_certify, reference_render_json,
                     shift_applications, uniform_base)
from mdp_stability import (MdpSpec, Perturbation, SafetyQuery,
                           StartDistribution, build_uniform_shutdown,
                           load_embedded, load_mdp, load_toy_policy,
                           mdp_to_document, rate_of_decrease_check,
                           realize_chain, shutdown_probability)
from mdp_stability import bisim, cli, onpolicy, safety, scenarios, transport
from mdp_stability.cli import main, render_json
from mdp_stability.scenarios import random_perturbation

ROOT = Path(__file__).resolve().parent.parent


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def instant_shutdown_doc():
    return {
        "states": ["s0", "safe"], "actions": ["a0", "a1"],
        "transitions": [[[0.0, 1.0], [0.0, 1.0]],
                        [[0.0, 1.0], [0.0, 1.0]]],
        "rewards": [[0.0, 0.0], [0.0, 0.0]],
        "discount": 0.9, "safe": ["safe"],
    }


def hibernation_doc():
    P = np.zeros((3, 2, 3))
    P[0, 0, 1] = 1.0
    P[0, 1, 0] = 1.0
    P[1, 0, 2] = 1.0
    P[1, 1, 1] = 1.0
    P[2, :, 2] = 1.0
    r = np.zeros((3, 2))
    r[0, 0] = 1.0
    r[1, 0] = 0.6
    mdp = MdpSpec(("work", "wrap", "shutdown"), ("go", "stay"), P, r,
                  0.9, {2})
    return mdp_to_document(mdp)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), FINITE,
    st.text(max_size=5), st.booleans().map(np.bool_),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8), FINITE.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False)
    .map(np.float32))
ARRAYS = st.one_of(
    st.lists(FINITE, max_size=6).map(np.array),
    st.lists(st.booleans(), max_size=6).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2),
             max_size=3).map(lambda rows: np.array(rows, dtype=int)),
    FINITE.map(np.array))


def documents():
    """Nested artifacts: lists, tuples and dicts (empty ones included) of
    scalars, numpy scalars and numpy arrays."""
    return st.recursive(
        st.one_of(SCALARS, ARRAYS, st.just([]), st.just({})),
        lambda inner: st.one_of(
            st.lists(inner, max_size=6),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
        max_leaves=30)


class TestRenderJson:
    def test_seventeen_significant_digits(self):
        text = render_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text
        assert json.loads(text)["x"] == 1.0 / 3.0

    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(0)
        values = list(rng.random(20))
        parsed = json.loads(render_json({"v": values}))
        assert parsed["v"] == values

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_json({"x": math.inf})

    @settings(max_examples=300, deadline=None)
    @given(doc=documents())
    def test_bytes_match_the_recursive_renderer(self, doc):
        assert render_json(doc) == reference_render_json(doc)

    @settings(max_examples=300, deadline=None)
    @given(items=st.one_of(
        st.lists(st.booleans(), min_size=1, max_size=300),
        st.lists(FINITE, min_size=1, max_size=60),
        st.lists(st.one_of(st.booleans(), FINITE, st.integers(0, 1),
                           st.booleans().map(np.bool_),
                           FINITE.map(np.float64),
                           st.sampled_from([math.inf, -math.inf, math.nan]),
                           st.none()),
                 min_size=1, max_size=8)))
    def test_uniform_lists_match_the_generic_path(self, items):
        # Lists of bools only skip the call per item; any other list takes
        # it, with the same texts.
        assert cli._scalars(items) == list(map(cli._scalar, items))
        try:
            expected = reference_render_json(items)
        except ValueError:
            with pytest.raises(ValueError):
                render_json(items)
        else:
            assert render_json(items) == expected

    @pytest.mark.parametrize("doc", [
        [1.0, math.nan], [object(), math.nan], [math.inf, object()],
        [True, [np.float32(np.inf)]], {"a": [None, np.float64(-np.inf)]},
        [1, {2}]])
    def test_errors_match_the_recursive_renderer(self, doc):
        with pytest.raises(Exception) as expected:
            reference_render_json(doc)
        with pytest.raises(expected.type):
            render_json(doc)


class TestValidateCommand:
    def test_clean_file(self, tmp_path, capsys):
        path = write_doc(tmp_path / "m.json", instant_shutdown_doc())
        assert main(["validate", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True

    def test_row_sum_error(self, tmp_path, capsys):
        doc = instant_shutdown_doc()
        doc["transitions"][0][0] = [0.5, 0.4]
        path = write_doc(tmp_path / "bad.json", doc)
        assert main(["validate", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert not out["valid"]
        assert any("row-sum" in v for v in out["violations"])

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2


class TestBisimCommand:
    def test_identical_files_have_zero_distance(self, tmp_path, capsys):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        assert main(["bisim", path, path, "--tol", "1e-6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d_H"] == 0.0
        assert out["converged"] is True
        assert set(out) >= {"dist", "c_R", "c_T", "iterations", "residual"}

    def test_block_counts_are_additive_and_deterministic(self, tmp_path):
        p1 = write_doc(tmp_path / "a.json", mdp_to_document(random_mdp(1)))
        p2 = write_doc(tmp_path / "b.json", mdp_to_document(random_mdp(2)))
        outs = []
        for name in ("x.json", "y.json"):
            out = tmp_path / name
            assert main(["bisim", p1, p2, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        # 3 x 3 non-safe pairs x 2 actions are dense 4-by-4 problems,
        # answered once per application after the first (all costs zero)
        # by the simplex or by a kept plan.
        assert doc["blocks_solved"] + doc["blocks_reused"] \
            == 18 * (doc["iterations"] - 1)
        assert doc["blocks_solved"] > 0

    def test_nonconvergence_exits_3_with_partial_artifact(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        # A residual target below float resolution, with every application
        # shifted so that no iterate is a float fixed point: the couplings
        # settle, and plain applications run out the budget.
        shift_applications(monkeypatch)
        p1 = write_doc(tmp_path / "a.json", mdp_to_document(random_mdp(1)))
        p2 = write_doc(tmp_path / "b.json", mdp_to_document(random_mdp(2)))
        code = main(["bisim", p1, p2, "--tol", "1e-300"])
        assert code == 3
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is False and out["d_H"] is None
        assert out["iterations"] == bisim.MAX_APPLICATIONS
        assert 0.0 < out["residual"] < 1e-12

    def test_iteration_budget_exits_3_with_partial_artifact(
            self, tmp_path, capsys, monkeypatch):
        # One application from zero never meets the target on a pair whose
        # rewards differ, so this reaches exit 3 without a float accident.
        monkeypatch.setattr(bisim, "MAX_APPLICATIONS", 1)
        p1 = write_doc(tmp_path / "a.json", mdp_to_document(random_mdp(1)))
        p2 = write_doc(tmp_path / "b.json", mdp_to_document(random_mdp(2)))
        assert main(["bisim", p1, p2]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is False and out["d_H"] is None
        assert out["iterations"] == 1

    def test_solver_failure_exits_3_without_an_artifact(self, tmp_path,
                                                        capsys, monkeypatch):
        # A transport simplex that may not pivot fails on the first
        # problem whose starting basis is not optimal.
        monkeypatch.setattr(transport, "PIVOT_CAP", 0)
        paths = [write_doc(tmp_path / f"{seed}.json",
                           mdp_to_document(random_mdp(seed)))
                 for seed in (1, 2)]
        assert main(["bisim", *paths]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: transport simplex")
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_playing_dead_distance_bound_via_cli(self, tmp_path, capsys):
        base = write_doc(tmp_path / "base.json", hibernation_doc())
        variant = str(tmp_path / "pd.json")
        delta, gamma = 1e-3, 0.9
        assert main(["playing-dead", base, "--delta", str(delta),
                     "--epsilon", "0.5", "--escape-state", "work",
                     "--escape-action", "go", "--out", variant]) == 0
        assert main(["bisim", variant, variant, "--c-t", str(gamma),
                     "--c-r", str(1 - gamma), "--tol", "1e-6"]) == 0
        out = json.loads(capsys.readouterr().out)
        measured = out["dist"][3][2]
        assert measured <= delta / (1 - gamma + gamma * delta) + 1e-6

    def test_triangle_audit_over_three_files(self, tmp_path, capsys):
        paths = []
        for k in range(3):
            doc = hibernation_doc()
            doc["rewards"][0][0] += 0.05 * k
            paths.append(write_doc(tmp_path / f"m{k}.json", doc))
        d = {}
        for i, j in [(0, 1), (0, 2), (2, 1)]:
            assert main(["bisim", paths[i], paths[j]]) == 0
            d[i, j] = json.loads(capsys.readouterr().out)["d_H"]
        assert d[0, 1] <= d[0, 2] + d[2, 1] + 2e-6


class TestAlignCommand:
    def test_identical_files_align_at_half(self, tmp_path, capsys):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        assert main(["align", path, path, "--grid", "11",
                     "--tol", "1e-4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["h_star"] - 0.5) < 1e-12
        assert out["boundary"] is False
        assert len(out["profile"]) == 11


class TestQuotientCommand:
    def test_duplicated_state_collapses(self, tmp_path, capsys):
        base = write_doc(tmp_path / "m.json", hibernation_doc())
        doubled = str(tmp_path / "doubled.json")
        assert main(["duplicate", base, "--state", "wrap",
                     "--out", doubled]) == 0
        assert main(["quotient", doubled]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["quotient"]["states"]) == 3
        assert ["wrap", "wrap#2"] in out["classes"]

    def test_safe_state_split_into_nine_copies(self, tmp_path, capsys):
        # Nine copies of the safe state each keep a ninth of its self-loop;
        # summed back, they round to 1 + 2**-52.
        base = str(tmp_path / "m.json")
        split = str(tmp_path / "split.json")
        assert main(["random", "--seed", "1", "--shape", "4,2,2",
                     "--out", base]) == 0
        assert main(["duplicate", base, "--state", "s3", "--copies", "9",
                     "--out", split]) == 0
        assert main(["quotient", split]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["classes"][3] == ["s3"] + [f"s3#{k}" for k in range(2, 10)]
        assert out["quotient"]["transitions"][3] == [[0.0, 0.0, 0.0, 1.0]] * 2


class TestQuotientInputs:
    def test_dead_and_safe_states_are_not_merged(self, tmp_path, capsys):
        doc = {"states": ["work", "dead", "off"], "actions": ["a"],
               "transitions": [[[0.0, 0.5, 0.5]], [[0.0, 1.0, 0.0]],
                               [[0.0, 0.0, 1.0]]],
               "rewards": [[1.0], [0.0], [0.0]], "discount": 0.9,
               "safe": ["off"]}
        path = write_doc(tmp_path / "m.json", doc)
        assert main(["certify", path, "--epsilon", "0.5",
                     "--big-n", "5"]) == 1
        assert main(["quotient", path]) == 2
        assert "mix safe and non-safe" in capsys.readouterr().err

    def test_numeric_state_ids(self, tmp_path, capsys):
        # Documents may name states by numbers; class names join them.
        doc = {"states": [0, 1, 2], "actions": ["a"],
               "transitions": [[[0.0, 0.0, 1.0]], [[0.0, 0.0, 1.0]],
                               [[0.0, 0.0, 1.0]]],
               "rewards": [[1.0], [1.0], [0.0]], "discount": 0.9,
               "safe": [2]}
        path = write_doc(tmp_path / "m.json", doc)
        assert main(["quotient", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["classes"] == [[0, 1], [2]]
        assert out["quotient"]["states"] == ["0+1", "2"]

    def test_a_merged_class_is_primed_past_a_kept_id(self, tmp_path,
                                                     capsys):
        # a and b merge; the class name "a+b" is already the id of the
        # state that stays alone, which keeps it.
        doc = {"states": ["a", "b", "a+b", "safe"], "actions": ["x"],
               "transitions": [[[0, 0, 0, 1]], [[0, 0, 0, 1]],
                               [[0.5, 0, 0, 0.5]], [[0, 0, 0, 1]]],
               "rewards": [[1.0], [1.0], [0.3], [0.0]], "discount": 0.9,
               "safe": ["safe"]}
        path = write_doc(tmp_path / "m.json", doc)
        assert main(["quotient", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["classes"] == [["a", "b"], ["a+b"], ["safe"]]
        assert out["quotient"]["states"] == ["a+b'", "a+b", "safe"]


def numeric_doc():
    """hibernation_doc with the states named 0, 1, 2 and the actions 0, 1."""
    return {**hibernation_doc(), "states": [0, 1, 2], "actions": [0, 1],
            "safe": [2]}


class TestNumericIds:
    """A flag names a numeric id by its text; ids the command line could
    not tell apart, or that are neither strings nor numbers, are refused."""

    @pytest.mark.parametrize("numeric,named", [
        (["hitting-time", "@n", "--start", "0"],
         ["hitting-time", "@h", "--start", "work"]),
        (["certify", "@n", "--epsilon", "0.5", "--start", "1"],
         ["certify", "@h", "--epsilon", "0.5", "--start", "wrap"]),
        (["onpolicy", "@ne", "@p", "--start", "0"],
         ["onpolicy", "@he", "@p", "--start", "work"]),
    ])
    def test_flags_name_numeric_ids(self, tmp_path, capsys, numeric, named):
        files = {"@n": write_doc(tmp_path / "n.json", numeric_doc()),
                 "@h": write_doc(tmp_path / "h.json", hibernation_doc()),
                 "@ne": write_doc(tmp_path / "ne.json",
                                  {**numeric_doc(),
                                   "embedding": [[0.0], [0.5], [1.0]]}),
                 "@he": write_doc(tmp_path / "he.json",
                                  {**hibernation_doc(),
                                   "embedding": [[0.0], [0.5], [1.0]]}),
                 "@p": write_doc(tmp_path / "p.json", POLICY_DOC)}
        assert main([files.get(a, a) for a in numeric]) == 0
        out = json.loads(capsys.readouterr().out)
        assert main([files.get(a, a) for a in named]) == 0
        expected = json.loads(capsys.readouterr().out)
        if "expected_steps" in out:
            out["expected_steps"] = list(out["expected_steps"].values())
            out.pop("start")
            expected["expected_steps"] = list(
                expected["expected_steps"].values())
            expected.pop("start")
        assert out == expected

    @pytest.mark.parametrize("argv", [
        ["duplicate", "@n", "--state", "1"],
        ["uniform-shutdown", "@n", "--big-n", "5", "--target", "2"],
        ["playing-dead", "@n", "--delta", "1e-3", "--epsilon", "0.5",
         "--escape-state", "0", "--escape-action", "0"],
    ])
    def test_generators_take_numeric_ids(self, tmp_path, capsys, argv):
        path = write_doc(tmp_path / "n.json", numeric_doc())
        assert main([path if a == "@n" else a for a in argv]) == 0
        assert load_mdp(json.loads(capsys.readouterr().out))

    @pytest.mark.parametrize("field,ids", [
        ("states", [None, 1, 2]), ("states", [0, True, 2]),
        ("actions", [0, False]), ("safe", [True])])
    def test_null_and_boolean_ids_are_rejected(self, tmp_path, capsys,
                                               field, ids):
        path = write_doc(tmp_path / "n.json", {**numeric_doc(), field: ids})
        assert main(["validate", path]) == 2
        assert "must be strings or numbers" in capsys.readouterr().err

    def test_safe_ids_resolve_by_text_like_the_flags(self, tmp_path,
                                                     capsys):
        path = write_doc(tmp_path / "n.json", numeric_doc())
        assert main(["hitting-time", path, "--start", "0"]) == 0
        expected = capsys.readouterr().out
        text = write_doc(tmp_path / "t.json", {**numeric_doc(),
                                               "safe": ["2"]})
        assert main(["hitting-time", text, "--start", "0"]) == 0
        assert capsys.readouterr().out == expected
        # 2.0 is equal to 2 but reads "2.0", which --start 2.0 would not
        # find among the states either.
        real = write_doc(tmp_path / "r.json", {**numeric_doc(),
                                               "safe": [2.0]})
        assert main(["validate", real]) == 2
        assert "unknown safe state id 2.0" in capsys.readouterr().err

    @pytest.mark.parametrize("field,ids,code", [
        ("states", [0, "0", 2], "duplicate-state-ids"),
        ("states", [0, 0.0, 2], "duplicate-state-ids"),
        ("actions", [1, "1"], "duplicate-action-ids")])
    def test_ids_sharing_a_text_form_repeat(self, tmp_path, capsys, field,
                                            ids, code):
        path = write_doc(tmp_path / "n.json", {**numeric_doc(), field: ids})
        assert main(["validate", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert [v.split("@")[0] for v in out["violations"]] == [code]
        assert main(["hitting-time", path]) == 2
        assert code in capsys.readouterr().err


class TestHittingTimeCommand:
    def test_greedy_walk(self, tmp_path, capsys):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        assert main(["hitting-time", path, "--start", "work"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["worst"] == 2.0
        assert out["start_value"] == 2.0
        assert out["expected_steps"]["wrap"] == 1.0


class TestCertifyCommand:
    def test_instant_shutdown_worst_time_one(self, tmp_path, capsys):
        path = write_doc(tmp_path / "m.json", instant_shutdown_doc())
        assert main(["certify", path, "--epsilon", "0.5",
                     "--big-n", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["worst_time"] == 1.0
        assert out["is_safe_for"] == [{"N": 1.0, "safe": True}]

    def test_playing_dead_unsafe(self, tmp_path, capsys):
        base = write_doc(tmp_path / "base.json", hibernation_doc())
        variant = str(tmp_path / "pd.json")
        assert main(["playing-dead", base, "--delta", "1e-3",
                     "--epsilon", "0.5", "--escape-state", "work",
                     "--escape-action", "go", "--out", variant]) == 0
        assert main(["certify", variant, "--epsilon", "0.25",
                     "--big-n", "100"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["worst_time"] is None and not out["worst_time_finite"]


class TestFrontierCommand:
    def test_monotone_csv(self, tmp_path):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        out = tmp_path / "frontier.csv"
        assert main(["frontier", path, "--sizes", "0.1,0.4,0.8,2.0",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epsilon,worst_time"
        times = [float(row.split(",")[1]) for row in lines[1:]
                 if row.split(",")[1]]
        assert all(a <= b for a, b in zip(times, times[1:]))


class TestPolicyCap:
    @pytest.mark.parametrize("command", ["certify", "frontier"])
    def test_over_the_cap_exits_2_before_any_optimum(self, tmp_path, capsys,
                                                     command):
        # 20 non-safe states with 2 actions: 2^20 > 10^6 policies.
        mdp = random_mdp(2, n_states=21, n_actions=2)
        path = write_doc(tmp_path / "m.json", mdp_to_document(mdp))
        with mock.patch.object(safety, "value_iteration") as optimum, \
                mock.patch.object(cli, "value_iteration") as cli_optimum:
            assert main([command, path, "--epsilon", "0.5"]) == 2
        assert "enumeration cap" in capsys.readouterr().err
        optimum.assert_not_called()
        cli_optimum.assert_not_called()


class TestStartAndGridFlags:
    @pytest.mark.parametrize("seed", range(4))
    def test_certify_start_matches_reference(self, tmp_path, capsys, seed):
        mdp = random_mdp(seed, n_states=4)
        path = write_doc(tmp_path / "m.json", mdp_to_document(mdp))
        assert main(["certify", path, "--epsilon", "0.3",
                     "--start", "s0"]) == 0
        out = json.loads(capsys.readouterr().out)
        ref = reference_certify(mdp, SafetyQuery(
            0.3, StartDistribution.point_mass(mdp.n_states, 0)))
        assert out["worst_time"] == ref["worst_time"]
        assert tuple(out["worst_policy_actions"]) == ref["worst_policy"]
        assert out["epsilon_optimal_count"] == ref["epsilon_optimal_count"]
        assert out["boundary_count"] == ref["boundary_count"]
        assert tuple(out["reachability"]) == ref["reachability"]

    def test_certify_start_on_safe_state_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        assert main(["certify", path, "--epsilon", "0.5",
                     "--start", "shutdown"]) == 2
        assert "safe" in capsys.readouterr().err

    def test_frontier_implicit_grid(self, tmp_path, capsys):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        assert main(["frontier", path, "--epsilon", "1", "--grid", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [row["epsilon"] for row in out["frontier"]] == [
            0.25, 0.5, 0.75, 1.0]

    def test_random_shape_needs_three_entries(self, capsys):
        assert main(["random", "--seed", "1", "--shape", "5,2"]) == 2
        assert "--shape" in capsys.readouterr().err


class TestGenerators:
    def test_uniform_shutdown_output_validates(self, tmp_path, capsys):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        assert main(["uniform-shutdown", path, "--big-n", "20"]) == 0
        doc = json.loads(capsys.readouterr().out)
        load_mdp(doc)

    def test_duplicate_output_validates(self, tmp_path, capsys):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        assert main(["duplicate", path, "--state", "wrap",
                     "--copies", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["states"]) == 5
        load_mdp(doc)

    def test_duplicate_primes_a_copy_id_already_taken(self, tmp_path,
                                                      capsys):
        doc = {"states": ["s1", "s1#2", "safe"], "actions": ["a"],
               "transitions": [[[0.5, 0, 0.5]], [[0, 0.5, 0.5]],
                               [[0, 0, 1]]],
               "rewards": [[1.0], [0.5], [0.0]], "discount": 0.9,
               "safe": ["safe"]}
        path = write_doc(tmp_path / "m.json", doc)
        for copies, added in [(2, ["s1#2'"]), (3, ["s1#2'", "s1#3"])]:
            assert main(["duplicate", path, "--state", "s1",
                         "--copies", str(copies)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["states"] == doc["states"] + added
            load_mdp(out)

    def test_random_is_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["random", "--seed", "7", "--shape", "4,2,2",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["generator"]["algorithm"] == "numpy-PCG64"
        assert (tmp_path / "r1.json.meta.json").exists()


class TestOnPolicyCommands:
    def setup_files(self, tmp_path):
        mdp_out = str(tmp_path / "embedded.json")
        assert main(["random", "--seed", "3", "--shape", "5,2,3",
                     "--out", mdp_out]) == 0
        policy = {"weights": [[0.4, -0.2, 0.1], [-0.3, 0.2, 0.0]],
                  "temperature": 1.0}
        policy_path = write_doc(tmp_path / "policy.json", policy)
        return mdp_out, policy_path

    def test_onpolicy_analysis(self, tmp_path, capsys):
        mdp_path, policy_path = self.setup_files(tmp_path)
        assert main(["onpolicy", mdp_path, policy_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["safety"] <= 1.0
        assert out["bound_B"] >= 2.0
        assert out["lambda1"] < 1.0

    @pytest.mark.parametrize("start", ["s0", "s2", "s4"])
    def test_onpolicy_start_matches_shutdown_probability(self, tmp_path,
                                                         capsys, start):
        # s4 is the safe state: its shutdown probability is 1.
        mdp_path, policy_path = self.setup_files(tmp_path)
        assert main(["onpolicy", mdp_path, policy_path,
                     "--start", start]) == 0
        out = json.loads(capsys.readouterr().out)
        emdp = load_embedded(mdp_path)
        P = realize_chain(emdp, load_toy_policy(policy_path))
        point = StartDistribution.point_mass(emdp.base.n_states,
                                             emdp.base.state_index(start))
        assert out["safety"] == shutdown_probability(P, emdp.base.safe_set,
                                                     point)

    def test_sweep_rows_sorted_and_bounded(self, tmp_path, capsys):
        mdp_path, policy_path = self.setup_files(tmp_path)
        assert main(["onpolicy-sweep", mdp_path, policy_path,
                     "--sizes", "1e-3,1e-5,1e-4", "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        sizes = [row["size"] for row in out["rows"]]
        assert sizes == sorted(sizes)
        assert all(row["within_bound"] for row in out["rows"])

    @pytest.mark.parametrize("sizes", ["1e-4", "0,1e-5,1e-4,1e-3,1e-2"])
    @pytest.mark.parametrize("big_n", [[], ["--big-n", "20"]])
    def test_sweep_analyses_the_base_chain_once(self, tmp_path, capsys,
                                                monkeypatch, sizes, big_n):
        mdp_path, policy_path = self.setup_files(tmp_path)
        calls = []
        real = onpolicy.spectral_radius
        monkeypatch.setattr(onpolicy, "spectral_radius",
                            lambda M: calls.append(M.shape) or real(M))
        assert main(["onpolicy-sweep", mdp_path, policy_path,
                     "--sizes", sizes, "--seed", "5"] + big_n) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(calls) == 1 and calls[0][0] > 0
        # Each row is the library's rate check of the same perturbation.
        emdp, policy = load_embedded(mdp_path), load_toy_policy(policy_path)
        perts = [random_perturbation(emdp, policy, size, seed=5 + k)
                 for k, size in enumerate(sorted(map(float,
                                                     sizes.split(","))))]
        if big_n:
            modified = build_uniform_shutdown(emdp.base, 20.0)
            perts.append(Perturbation(
                np.zeros_like(emdp.embedding),
                modified.transition - emdp.base.transition))
        monkeypatch.undo()
        assert len(rows) == len(perts)
        base = uniform_base(emdp, policy)
        for row, pert in zip(rows, perts):
            report = rate_of_decrease_check(emdp, policy, pert, base)
            assert {k: v for k, v in row.items() if k != "kind"} \
                == json.loads(render_json(report.to_document()))

    @pytest.mark.parametrize("sizes", ["1e-4", "0,1e-5,1e-4,1e-3,1e-2"])
    def test_sweep_builds_its_support_plan_once(self, tmp_path, capsys,
                                                monkeypatch, sizes):
        mdp_path, policy_path = self.setup_files(tmp_path)
        plans = []
        real = scenarios.perturbation_support

        def counting(base):
            plans.append(real(base))
            return plans[-1]

        # A draw without a plan builds its own through the module's name.
        monkeypatch.setattr(scenarios, "perturbation_support", counting)
        monkeypatch.setattr(cli, "perturbation_support", counting)
        drawn = []
        draw = cli.random_perturbation
        monkeypatch.setattr(cli, "random_perturbation",
                            lambda *args, **kw: drawn.append(kw["plan"])
                            or draw(*args, **kw))
        assert main(["onpolicy-sweep", mdp_path, policy_path,
                     "--sizes", sizes, "--seed", "5", "--big-n", "20"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == len(sizes.split(",")) + 1
        assert len(plans) == 1
        assert len(drawn) == len(rows) - 1
        assert all(plan is plans[0] for plan in drawn)

    def test_sweep_uniform_shutdown_row_jumps_upward(self, tmp_path, capsys):
        # A dead chain never shuts down; the appended uniform-shutdown row
        # lifts the probability to 1 at a small perturbation size.
        doc = {
            "states": ["dead", "safe"], "actions": ["a0", "a1"],
            "transitions": [[[1.0, 0.0], [1.0, 0.0]],
                            [[0.0, 1.0], [0.0, 1.0]]],
            "rewards": [[0.0, 0.0], [0.0, 0.0]],
            "discount": 0.9, "safe": ["safe"],
            "embedding": [[0.0], [1.0]],
        }
        mdp_path = write_doc(tmp_path / "dead.json", doc)
        policy_path = write_doc(tmp_path / "p.json",
                                {"weights": [[0.0], [0.0]],
                                 "temperature": 1.0})
        assert main(["onpolicy-sweep", mdp_path, policy_path,
                     "--sizes", "0", "--big-n", "100"]) == 0
        out = json.loads(capsys.readouterr().out)
        row = [r for r in out["rows"] if r["kind"] == "uniform-shutdown"][0]
        assert row["s_pi_before"] == 0.0
        assert row["s_pi_after"] == pytest.approx(1.0, abs=1e-9)
        assert row["size"] <= 0.1


# Runs CLI commands given as a JSON list of argv lists and prints the exit
# code and the sha256 of the stdout of each, one line per command.
DIGEST_SCRIPT = """
import contextlib, hashlib, io, json, sys
from mdp_stability.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def single_thread_digests(commands, cwd):
    """(exit code, stdout sha256) of each command, run in order in one
    process on one BLAS thread: the last bits of a dense product can
    depend on how many threads share it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT,
                           json.dumps(commands)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return [(int(code), digest) for code, digest in
            (line.split() for line in proc.stdout.splitlines())]


class TestOnPolicyArtifactBytes:
    """sha256 of stdout on seeded documents, pinned so that the batched
    policy path, the array perturbation draw, the once-analysed base and
    the once-built support plan keep every on-policy artifact byte for
    byte; ``lambda1`` is the upper end of the certified spectral bracket.
    Document 31 has full supports of 150 entries, past numpy's pairwise
    summation block.  The digests are those of one BLAS thread, the
    benchmark's setting; all seven come from one process."""

    POLICY = {"weights": [[0.9, -1.3, 0.4, 0.2], [-0.5, 0.8, -1.1, 0.6],
                          [0.3, 0.1, 0.7, -0.9]], "temperature": 0.8}
    DOCUMENTS = {"22": ("40,3,4", "0.3"), "26": ("16,3,4", "0.15"),
                 "31": ("150,3,4", "1.0")}
    SWEEP = ["--sizes", "1e-5,1e-4,1e-3", "--seed", "3", "--big-n", "20"]
    GOLDEN = [
        ("22", [], "e377410fea3e65032e7b9e1157f532c5"
                   "3998fd9cf5f73b12a3598391ea3cf458"),
        ("22", ["--start", "s0"], "712128077ed9ff43d83bf709ed2dba09"
                                  "fab813d1ad0cbdb0f21409cbc20fdc68"),
        ("22", SWEEP, "d7e3e60a7aa46cac6586b753acab2ec3"
                      "1239393167d0556d24b8264ea7f5fe01"),
        ("26", [], "78b5764e453d2521a3f7d468a8cecad1"
                   "0941337d45d62c999b992748671ac8c4"),
        ("26", ["--start", "s0"], "c6985d35881a3220b5386d4174bde764"
                                  "10a410c822b89fa122ac2b7593c8c5aa"),
        ("26", SWEEP, "2a5c7d9d62af25b7192f81927006523c"
                      "0b2fae22e47a21284e7767924e6e139d"),
        ("31", SWEEP, "ed8ae8beb065d5bad48f1ab040e42895"
                      "feab09fec7fa539c2bc2b5014e07f72d"),
    ]

    @pytest.fixture(scope="class")
    def digests(self, tmp_path_factory):
        """(exit code, stdout sha256) of each golden's command, in the
        order of GOLDEN."""
        directory = tmp_path_factory.mktemp("onpolicy-goldens")
        policy = write_doc(directory / "p.json", self.POLICY)
        commands = []
        for seed, (shape, sparsity) in self.DOCUMENTS.items():
            commands.append(["random", "--seed", seed, "--shape", shape,
                             "--sparsity", sparsity,
                             "--out", str(directory / f"m{seed}.json")])
        for seed, flags, _ in self.GOLDEN:
            command = "onpolicy-sweep" if "--sizes" in flags else "onpolicy"
            commands.append([command, str(directory / f"m{seed}.json"),
                             policy] + flags)
        results = single_thread_digests(commands, directory)
        assert [code for code, _ in results[:len(self.DOCUMENTS)]] \
            == [0] * len(self.DOCUMENTS)
        return results[len(self.DOCUMENTS):]

    @pytest.mark.parametrize("seed,flags,digest", GOLDEN)
    def test_stdout_digest(self, digests, seed, flags, digest):
        index = [(s, f) for s, f, _ in self.GOLDEN].index((seed, flags))
        assert digests[index] == (0, digest)


class TestCertifyArtifactBytes:
    """sha256 of stdout on seeded documents, pinned so that the pruned,
    stacked policy table keeps every certificate and frontier byte for
    byte: the eps-optimal set, the order of ``reachability`` and the
    policy that wins a tied worst time.  Documents a to c have an
    infinite worst time and members of both kinds.  Document e is a
    table of many blocks whose every policy is absorbed almost surely,
    so its hitting times come from the elimination tree."""

    DOCUMENTS = {  # name: (seed, shape, sparsity, epsilon)
        "a": ("2", "9,3,2", "0.4", "0.3"),
        "b": ("7", "11,2,2", "0.3", "1.0"),
        "c": ("3", "10,2,2", "0.4", "3.0"),
        "d": ("2", "11,2,2", "0.3", "1.0"),
        "e": ("2", "13,2,2", "0.6", "3.0"),
    }
    BIG_N = ["certify", "--big-n", "12"]
    START = ["certify", "--start", "s0"]
    FRONTIER = ["frontier", "--grid", "8"]
    GOLDEN = [
        ("a", BIG_N, 1, "37674322cbbb95d8e5af429fc150e992"
                        "a4c226de0da59becf29f43d9a7a04812"),
        ("a", START, 0, "b606a15fd809f9c0d71110d01f5e392c"
                        "dd76f50487db2191827ee34e44295232"),
        ("a", FRONTIER, 0, "305d1af37f46a8ec89467de04aeee481"
                           "c18c10fabd2e206f456e44cb22c09d36"),
        ("b", BIG_N, 1, "bbd1b90641382441e60f1a1bec0eb69f"
                        "eeb9636e25763de71c6745f4a27ea214"),
        ("b", START, 0, "bb6a8453ee9d381da5e609b754d61e6c"
                        "a3762ea8e4e4d1053172373b02935daf"),
        ("b", FRONTIER, 0, "e4efad9f40c9d7bd585bd8c42c8a83b1"
                           "5fbe6558a7fedddd4e34aaa62582b0ba"),
        ("c", BIG_N, 1, "13eab678ba63e8c73aff06a41517c4c8"
                        "e05abf5c2d44b3cc2ee34ab8aa23aa4a"),
        ("c", START, 0, "0b753d2bddf5691be61bcd808b71565e"
                        "cf092f7af9d16a53743554b107b4c01e"),
        ("c", FRONTIER, 0, "78ea055c601ab9d1a004ab9dc35216bf"
                           "38ebcbb3935f5a2e36a2d610c990dbfc"),
        ("d", BIG_N, 0, "2cd88cafdf6d7fed13bb13c91531cd3c"
                        "c0214aa384b2e2a64a0005b25cdb21ec"),
        ("d", START, 0, "8fd9e14a08967b06cd114fb16a57e9c1"
                        "2228607c24a2a9bbf2ff75c8e9c20605"),
        ("d", FRONTIER, 0, "f2316ab56d15e08c3240e6ee3e523cb3"
                           "1d0e3f37cf63af22b36e72683b26372c"),
        ("e", BIG_N, 1, "139df421e8039d417bc5d2f05a3f55b6"
                        "b5502456540b138a50587b3743fcf98b"),
        ("e", START, 0, "01bb21fb74d25925b2a9750a4b3559df"
                        "44aadf382f29b5308188573f46677790"),
        ("e", FRONTIER, 0, "a3811eb01aaf1974be3de2e3b3265a15"
                           "2361b2df2e46718fb986de182ddc5f4a"),
    ]

    @pytest.mark.parametrize(
        "name,flags,code,digest", GOLDEN,
        ids=[f"{name}-{' '.join(flags)}" for name, flags, *_ in GOLDEN])
    def test_stdout_digest(self, tmp_path, capsys, name, flags, code, digest):
        seed, shape, sparsity, eps = self.DOCUMENTS[name]
        mdp = str(tmp_path / "m.json")
        assert main(["random", "--seed", seed, "--shape", shape,
                     "--sparsity", sparsity, "--out", mdp]) == 0
        capsys.readouterr()
        assert main([flags[0], mdp, "--epsilon", eps] + flags[1:]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_documents_cover_infinite_and_finite_worst_times(self, tmp_path,
                                                             capsys):
        finite = {}
        for name, (seed, shape, sparsity, eps) in self.DOCUMENTS.items():
            mdp = str(tmp_path / f"{name}.json")
            assert main(["random", "--seed", seed, "--shape", shape,
                         "--sparsity", sparsity, "--out", mdp]) == 0
            capsys.readouterr()
            main(["certify", mdp, "--epsilon", eps])
            doc = json.loads(capsys.readouterr().out)
            finite[name] = doc["worst_time_finite"]
            if not finite[name]:
                assert any(doc["reachability"])
        assert finite == {"a": False, "b": False, "c": False, "d": True,
                          "e": True}


class TestMetricArtifactBytes:
    """sha256 of stdout on seeded documents, pinned so that the transport
    starts, the batch's cost layout and the quotient's class sums keep
    every metric and quotient artifact byte for byte.  Pair "dense" has
    full 4-by-4 supports, pair "sparse" 3-point supports and point masses;
    "within" is a 12-state metric of one MDP against itself, whose
    identical rows take the free diagonal.  The digests are those of one
    BLAS thread, the benchmark's setting; all come from one process."""

    DOCUMENTS = {  # name: (seed, shape, sparsity)
        "d1": ("1", "4,2,2", "1.0"), "d2": ("2", "4,2,2", "1.0"),
        "s1": ("3", "6,2,2", "0.4"), "s2": ("4", "6,2,2", "0.4"),
        "w": ("3", "12,2,2", "0.6"), "q1": ("5", "5,2,2", "0.6"),
        "q2": ("6", "6,2,2", "0.5"),
    }
    DUPLICATES = {"q1": ("s1", "3"), "q2": ("s5", "4")}
    METRIC = ["--c-t", "0.9", "--tol", "1e-6"]
    SCALED = ["--c-r", "2.5"]
    GOLDEN = [
        ("bisim", ("d1", "d2"), METRIC, "b2cdba19c87924aa9e739c5016bde94c"
                                         "71b7f47d599c1696f489bbd05005ad8b"),
        ("bisim", ("s1", "s2"), METRIC, "eb1685be06c06dccc6cc5b5738bb4333"
                                         "5784eb15b6e82442972f1c3e6c681e08"),
        ("bisim", ("d1", "d2"), SCALED, "dfd1b2e74f039f96fc4b1cdbffe7d08c"
                                         "14ceb1ba4ccb2ff7ae533208f752039e"),
        ("bisim", ("w", "w"), [], "5922a3bcba5988d077878ddea804d375"
                                   "89d8347bedd2a2cb6b0e08f1b59bd704"),
        ("quotient", ("q1",), [], "63e3806058c1cb3336d460198c81650e"
                                   "f44529c2499c1770494ec088e04bdd41"),
        ("quotient", ("q2",), [], "d79dd54de679127738508982ffce115d"
                                   "dc86df88b34bcfc214f5fc74230515fd"),
    ]

    @pytest.fixture(scope="class")
    def digests(self, tmp_path_factory):
        """(exit code, stdout sha256) of each golden's command, in the
        order of GOLDEN; a quotient reads the document's duplicate."""
        directory = tmp_path_factory.mktemp("metric-goldens")

        def path(name):
            return str(directory / f"{name}.json")

        commands = [["random", "--seed", seed, "--shape", shape,
                     "--sparsity", sparsity, "--out", path(name)]
                    for name, (seed, shape, sparsity)
                    in self.DOCUMENTS.items()]
        commands += [["duplicate", path(name), "--state", state, "--copies",
                      copies, "--out", path(name + "x")]
                     for name, (state, copies) in self.DUPLICATES.items()]
        setup = len(commands)
        for command, names, flags, _ in self.GOLDEN:
            if command == "quotient":
                names = tuple(name + "x" for name in names)
            commands.append([command, *map(path, names)] + flags)
        results = single_thread_digests(commands, directory)
        assert [code for code, _ in results[:setup]] == [0] * setup
        return results[setup:]

    @pytest.mark.parametrize(
        "index", range(len(GOLDEN)),
        ids=[f"{command}-{'-'.join(names)}-{' '.join(flags)}"
             for command, names, flags, _ in GOLDEN])
    def test_stdout_digest(self, digests, index):
        assert digests[index] == (0, self.GOLDEN[index][3])


class TestStabilityExperiment:
    def test_ladder_reports_largest_holding_rung(self, tmp_path, capsys):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        assert main(["stability-experiment", path, "--epsilon", "0.5",
                     "--big-n", "2", "--sizes", "1e-4,1e-3",
                     "--seed", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rungs"][0]["size"] == 0.0
        assert out["rungs"][0]["conclusion_holds"] is True
        assert out["largest_size_holding"] is not None

    def test_playing_dead_rung_fails_without_isolation(self, tmp_path,
                                                       capsys):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        assert main(["stability-experiment", path, "--epsilon", "0.5",
                     "--big-n", "2", "--sizes", "1e-4",
                     "--delta", "1e-3"]) == 0
        out = json.loads(capsys.readouterr().out)
        rung = [r for r in out["rungs"] if r["kind"] == "playing-dead"][0]
        assert rung["isolated"] is False
        assert rung["conclusion_holds"] is False

    @pytest.mark.parametrize("extra", [
        ["--sizes", "1e-4,1e-3", "--seed", "1"],
        ["--sizes", "1e-4", "--delta", "1e-3"],
        ["--sizes", "1e-3,1e-2,1e-1", "--seed", "4", "--delta", "1e-5"]])
    def test_base_is_certified_once(self, tmp_path, capsys, extra):
        # One certificate of m for the whole ladder, and one of each rung's
        # m', with the bytes of a ladder that certifies m at every rung.
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        argv = ["stability-experiment", path, "--epsilon", "0.5", "--big-n",
                "2", *extra]
        certify = mock.Mock(wraps=safety.certify_safety)
        with mock.patch.object(cli, "certify_safety", certify), \
                mock.patch.object(safety, "certify_safety", certify):
            assert main(argv) == 0
        once = capsys.readouterr().out
        assert certify.call_count == len(json.loads(once)["rungs"]) + 1

        def every_rung(m, m_prime, config, base):
            return safety.verify_stability_instance(
                m, m_prime, config,
                safety.certify_safety(m, SafetyQuery(base.epsilon),
                                      N_values=[n for n, _ in
                                                base.is_safe_for]))

        with mock.patch.object(cli, "verify_stability_instance", every_rung):
            assert main(argv) == 0
        assert capsys.readouterr().out == once


class TestNonFiniteInput:
    """Every command family rejects a non-finite document with exit 2;
    ``validate`` reports an overflowing number as a violation."""

    def nan_doc(self, tmp_path):
        # NaN and Infinity literals, which Python's json module accepts.
        text = ('{"states": ["s0", "safe"], "actions": ["a0"], '
                '"transitions": [[[NaN, 1.0]], [[0, 1]]], '
                '"rewards": [[Infinity], [0]], "discount": 0.9, '
                '"safe": ["safe"], "embedding": [[0.0], [1.0]]}')
        path = tmp_path / "nan.json"
        path.write_text(text)
        return str(path)

    def overflow_doc(self, tmp_path):
        doc = instant_shutdown_doc()
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc).replace('"rewards": [[0.0',
                                                '"rewards": [[1e400'))
        return str(path)

    def test_validate(self, tmp_path, capsys):
        assert main(["validate", self.nan_doc(tmp_path)]) == 2
        assert main(["validate", self.overflow_doc(tmp_path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert not out["valid"]
        assert any(v.startswith("non-finite") for v in out["violations"])

    def test_metric(self, tmp_path):
        good = write_doc(tmp_path / "good.json", instant_shutdown_doc())
        assert main(["bisim", self.nan_doc(tmp_path), good]) == 2
        assert main(["bisim", good, self.overflow_doc(tmp_path)]) == 2

    def test_safety(self, tmp_path):
        for path in (self.nan_doc(tmp_path), self.overflow_doc(tmp_path)):
            assert main(["certify", path, "--epsilon", "0.5",
                         "--big-n", "3"]) == 2

    def test_generators(self, tmp_path):
        for path in (self.nan_doc(tmp_path), self.overflow_doc(tmp_path)):
            assert main(["uniform-shutdown", path, "--big-n", "5"]) == 2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_uniform_shutdown_blend(self, tmp_path, capsys, value):
        mdp = write_doc(tmp_path / "m.json", hibernation_doc())
        emdp = write_doc(tmp_path / "e.json", embedded_doc())
        policy = write_doc(tmp_path / "p.json", POLICY_DOC)
        assert main(["uniform-shutdown", mdp, f"--big-n={value}"]) == 2
        assert main(["onpolicy-sweep", emdp, policy, "--sizes", "1e-4",
                     f"--big-n={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("input error: N must be finite") == 2

    def test_onpolicy(self, tmp_path):
        policy = tmp_path / "policy.json"
        policy.write_text('{"weights": [[0.0]], "temperature": 1.0}')
        assert main(["onpolicy", self.nan_doc(tmp_path), str(policy)]) == 2
        mdp = write_doc(tmp_path / "m.json",
                        {**instant_shutdown_doc(), "actions": ["a0"],
                         "transitions": [[[0.0, 1.0]], [[0.0, 1.0]]],
                         "rewards": [[0.0], [0.0]],
                         "embedding": [[0.0], [1.0]]})
        assert main(["onpolicy", mdp, str(policy)]) == 0
        for text in ('{"weights": [[NaN]], "temperature": 1.0}',
                     '{"weights": [[1e400]], "temperature": 1.0}',
                     '{"weights": [[0.0]], "temperature": 1e400}'):
            policy.write_text(text)
            assert main(["onpolicy", mdp, str(policy)]) == 2
        policy.write_text('{"weights": [[0.0]], "temperature": 1.0}')
        overflow = tmp_path / "overflow.json"
        overflow.write_text((tmp_path / "m.json").read_text().replace(
            '"embedding": [[0.0]', '"embedding": [[1e400]'))
        assert main(["onpolicy", str(overflow), str(policy)]) == 2


# Numeric flags out of range are input errors (exit 2): never exit 1, the
# negative-verdict code that an uncaught exception also gives, and never
# exit 3 after a whole sweep budget spent on a NaN tolerance.
BAD_FLAGS = [
    ["random", "--seed", "1", "--gamma", "1.5"],
    ["random", "--seed", "1", "--gamma", "nan"],
    ["random", "--seed", "1", "--reward-range", "0,inf"],
    ["stability-experiment", "@m", "--epsilon", "0.5", "--big-n", "2",
     "--sizes", "nan"],
    ["uniform-shutdown", "@m", "--big-n", "nan"],
    ["onpolicy-sweep", "@e", "@p", "--sizes", "1e-4", "--big-n", "nan"],
    ["bisim", "@m", "@m", "--tol", "nan"],
    ["quotient", "@m", "--tol", "nan"],
    ["bisim", "@m", "@m", "--c-r", "nan"],
    ["bisim", "@m", "@m", "--c-r", "inf"],
    ["certify", "@m", "--epsilon", "nan"],
]


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=" ".join)
def test_out_of_range_flag_exits_2(tmp_path, capsys, argv):
    files = {"@m": write_doc(tmp_path / "m.json", hibernation_doc()),
             "@e": write_doc(tmp_path / "e.json", embedded_doc()),
             "@e-safe": write_doc(tmp_path / "e-safe.json",
                                  {**embedded_doc(),
                                   "safe": ["work", "wrap", "shutdown"]}),
             "@p": write_doc(tmp_path / "p.json", POLICY_DOC)}
    assert main([files.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and "Traceback" not in err


# A path that cannot be read or written and an instance too large to
# allocate or to draw are input errors too, on one line.  Each of the two
# large instances asks numpy for 142 PiB first, which it refuses before
# allocating anything.
INPUT_FAILURES = [
    ["validate", "@dir"],
    ["certify", "@m", "--epsilon", "0.5", "--out", "@dir"],
    ["duplicate", "@m", "--state", "wrap", "--copies", "100000000"],
    ["random", "--seed", "1", "--shape", "100000000,2,2"],
    ["random", "--seed", "1", "--reward-range=-1e308,1e308"],
]


@pytest.mark.parametrize("argv", INPUT_FAILURES, ids=" ".join)
def test_input_failure_exits_2_on_one_line(tmp_path, capsys, argv):
    files = {"@m": write_doc(tmp_path / "m.json", hibernation_doc()),
             "@dir": str(tmp_path)}
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("out", ["", "missing/out.json"],
                         ids=["directory", "missing parent"])
def test_unusable_out_fails_before_the_work(tmp_path, capsys, out):
    path = write_doc(tmp_path / "m.json", hibernation_doc())
    certify = mock.Mock(wraps=safety.certify_safety)
    with mock.patch.object(cli, "certify_safety", certify):
        assert main(["certify", path, "--epsilon", "0.5",
                     "--out", str(tmp_path / out)]) == 2
    certify.assert_not_called()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("existing", [b"kept bytes\n", None],
                         ids=["existing", "new"])
def test_failed_command_leaves_out_as_it_found_it(tmp_path, existing):
    # The --out test runs first, then the safe start fails the command.
    path = write_doc(tmp_path / "m.json", hibernation_doc())
    out = tmp_path / "out.json"
    if existing is not None:
        out.write_bytes(existing)
    assert main(["certify", path, "--epsilon", "0.5", "--start", "shutdown",
                 "--out", str(out)]) == 2
    assert (out.read_bytes() if out.exists() else None) == existing
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["m.json"] + (["out.json"] if existing is not None else []))


def test_out_of_range_flag_exits_2_from_a_process(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "mdp_stability.cli",
                           "random", "--seed", "1", "--gamma", "1.5"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_parser_is_built_once_and_survives_an_argparse_failure(
        tmp_path, capsys):
    path = write_doc(tmp_path / "m.json", hibernation_doc())
    argv = ["certify", path, "--epsilon", "0.5", "--big-n", "3"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    fresh = subprocess.run([sys.executable, "-m", "mdp_stability.cli"]
                           + argv, cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=120)
    assert main(["validate", path]) == 0
    for broken in (["certify", path], ["certify", path, "--epsilon", "x"],
                   ["no-such-command"]):
        with pytest.raises(SystemExit) as exc:
            main(broken)
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == fresh.returncode
    assert capsys.readouterr().out == fresh.stdout
    assert cli.build_parser.cache_info().misses == 1


class TestNoVacuousVerdict:
    def test_frontier_epsilon_with_no_member_exits_2(self, tmp_path):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        assert main(["frontier", path, "--sizes", "0.1"]) == 0
        assert main(["frontier", path, "--sizes", "0,0.1"]) == 2


# Input the command cannot use exits 2 with a message that names it, not
# Python's own error text, and never after a whole enumeration.
UNUSABLE_INPUT = [
    (["hitting-time", "@m", "--start", "shutdown"],
     "start places mass on safe states"),
    (["hitting-time", "@m", "--start", "nope"], "unknown state id 'nope'"),
    (["certify", "@m", "--epsilon", "0.5", "--start", "nope"],
     "unknown state id 'nope'"),
    (["duplicate", "@m", "--state", "nope"], "unknown state id 'nope'"),
    (["uniform-shutdown", "@m", "--big-n", "5", "--target", "nope"],
     "unknown state id 'nope'"),
    (["uniform-shutdown", "@m", "--big-n", "5", "--target", "work"],
     "target must be a safe state"),
    # Only tables have a CSV projection; documents and generated MDPs
    # do not.
    (["onpolicy", "@e", "@p", "--format", "csv"],
     "this command has no CSV projection"),
    (["duplicate", "@m", "--state", "wrap", "--format", "csv"],
     "this command has no CSV projection"),
    (["playing-dead", "@m", "--delta", "1e-3", "--epsilon", "0.5",
      "--escape-state", "nope", "--escape-action", "go"],
     "unknown state id 'nope'"),
    (["playing-dead", "@m", "--delta", "1e-3", "--epsilon", "0.5",
      "--escape-state", "work", "--escape-action", "nope"],
     "unknown action id 'nope'"),
    (["onpolicy", "@e", "@p", "--start", "nope"], "unknown state id 'nope'"),
    (["onpolicy", "@e-tags-text", "@p"],
     "document field 'side_info' must be a list"),
    (["onpolicy", "@e-tags-short", "@p"], "side_info length mismatch"),
    (["frontier", "@m", "--grid", "0"], "no epsilon"),
    (["frontier", "@m", "--grid", "-3"], "no epsilon"),
    (["frontier", "@m", "--sizes", ","], "no epsilon"),
    (["certify", "@m", "--epsilon", "0.5", "--big-n", "nan"],
     "N must be finite"),
    (["certify", "@m", "--epsilon", "0.5", "--big-n", "inf"],
     "N must be finite"),
    (["stability-experiment", "@m", "--epsilon", "0.5", "--big-n", "nan",
      "--sizes", "0"], "N must be finite"),
    (["stability-experiment", "@m", "--epsilon", "0.5", "--big-n", "inf",
      "--sizes", "0"], "N must be finite"),
    (["stability-experiment", "@m", "--epsilon", "0.5", "--big-n", "2",
      "--sizes", "0,1e308"], "--sizes rung 1e+308"),
    (["random", "--seed", "-1"], "--seed must be non-negative, got -1"),
    (["onpolicy-sweep", "@e", "@p", "--sizes", "1e-4", "--seed", "-2"],
     "--seed must be non-negative, got -2"),
    (["stability-experiment", "@m", "--epsilon", "0.5", "--big-n", "2",
      "--seed", "-3"], "--seed must be non-negative, got -3"),
    (["random", "--seed", "1", "--shape", "5,0,3"], "at least 1 action"),
    (["random", "--seed", "1", "--sparsity", "nan"], "sparsity"),
    (["random", "--seed", "1", "--sparsity", "-1"], "sparsity"),
    (["random", "--seed", "1", "--sparsity", "0"], "sparsity"),
    (["random", "--seed", "1", "--sparsity", "1.5"], "sparsity"),
    (["random", "--seed", "1", "--reward-range", ","], "--reward-range"),
    (["random", "--seed", "1", "--reward-range", "0,1,2"], "--reward-range"),
    (["random", "--seed", "1", "--reward-range", "2,1"], "--reward-range"),
    (["random", "--seed", "1", "--reward-range=-1e308,1e308"],
     "--reward-range"),
    (["random", "--seed", "1", "--shape", "5,x,3"], "--shape"),
    (["random", "--seed", "1", "--shape", "5,2,-1"], "--shape"),
    # At epsilon 1e6 the delta window reaches far past 1.
    (["playing-dead", "@m", "--delta", "2", "--epsilon", "1e6",
      "--escape-state", "work", "--escape-action", "go"],
     "at most 1, got 2.0"),
    (["stability-experiment", "@m", "--epsilon", "1e6", "--big-n", "5",
      "--sizes", "0", "--delta", "2"], "at most 1, got 2.0"),
    (["certify", "@m", "--epsilon", "inf"], "epsilon must be finite"),
    (["stability-experiment", "@m", "--epsilon", "inf", "--big-n", "5",
      "--sizes", "0"], "epsilon must be finite"),
    (["frontier", "@m", "--sizes", "1e-12"], "got 1e-12"),
    (["frontier", "@m", "--grid", "2", "--epsilon", "nan"], "got nan"),
    (["frontier", "@m", "--grid", "2", "--epsilon", "inf"], "got inf"),
    (["frontier", "@m", "--sizes=-0.1,0.2"], "negative epsilon -0.1"),
    (["stability-experiment", "@m", "--epsilon", "0.5", "--big-n", "2",
      "--sizes", ","], "no size"),
    (["stability-experiment", "@m", "--epsilon", "0.5", "--big-n", "2",
      "--sizes=-0.1"], "negative size -0.1"),
    (["onpolicy-sweep", "@e", "@p", "--sizes", ","], "no size"),
    (["onpolicy-sweep", "@e", "@p", "--sizes", ""], "no size"),
    (["onpolicy-sweep", "@e", "@p", "--sizes=1e-4,-1e-3"],
     "negative size -0.001"),
    # The embedding has dimension 1 and the MDP 2 actions.
    (["onpolicy", "@e", "@p-dim2"], "read dimension 2, got (3, 1)"),
    (["onpolicy-sweep", "@e", "@p-dim2", "--sizes", "1e-4"],
     "read dimension 2, got (3, 1)"),
    (["onpolicy", "@e", "@p-3actions"],
     "invalid (3, 3) array for 3 states and 2 actions"),
    (["onpolicy-sweep", "@e", "@p-3actions", "--sizes", "1e-4"],
     "invalid (3, 3) array for 3 states and 2 actions"),
    # With every state safe, the default start has no state to spread over.
    (["onpolicy", "@e-safe", "@p"], "every state is safe"),
    (["onpolicy-sweep", "@e-safe", "@p", "--sizes", "1e-4"],
     "every state is safe"),
]


@pytest.mark.parametrize("argv,message", UNUSABLE_INPUT,
                         ids=[" ".join(argv) for argv, _ in UNUSABLE_INPUT])
def test_unusable_input_exits_2_with_its_message(tmp_path, capsys, argv,
                                                 message):
    files = {"@m": write_doc(tmp_path / "m.json", hibernation_doc()),
             "@e": write_doc(tmp_path / "e.json", embedded_doc()),
             "@e-safe": write_doc(tmp_path / "e-safe.json",
                                  {**embedded_doc(),
                                   "safe": ["work", "wrap", "shutdown"]}),
             "@e-tags-text": write_doc(tmp_path / "e-tags-text.json",
                                       {**embedded_doc(), "side_info": "abc"}),
             "@e-tags-short": write_doc(tmp_path / "e-tags-short.json",
                                        {**embedded_doc(),
                                         "side_info": ["a", "b"]}),
             "@p": write_doc(tmp_path / "p.json", POLICY_DOC),
             "@p-dim2": write_doc(tmp_path / "p2.json",
                                  {"weights": [[1.0, 0.0], [-1.0, 0.0]],
                                   "temperature": 1.0}),
             "@p-3actions": write_doc(tmp_path / "p3.json",
                                      {"weights": [[1.0], [0.0], [-1.0]],
                                       "temperature": 1.0})}
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error") and message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("seed", range(4))
def test_hitting_time_start_reads_its_expected_steps(tmp_path, capsys, seed):
    mdp = random_mdp(seed, n_states=4)
    path = write_doc(tmp_path / "m.json", mdp_to_document(mdp))
    assert main(["hitting-time", path, "--start", "s0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["start_value"] == out["expected_steps"]["s0"]


class TestDeterminism:
    def test_same_flags_same_bytes(self, tmp_path):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["certify", path, "--epsilon", "0.5",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# -- malformed document structure ----------------------------------------------

def embedded_doc():
    return {**hibernation_doc(), "embedding": [[0.0], [0.5], [1.0]]}


POLICY_DOC = {"weights": [[1.0], [-1.0]], "temperature": 1.0}
MDP_KEYS = ("states", "actions", "transitions", "rewards", "discount", "safe")
# Values of the wrong structure for every field they replace: numbers are
# at most 0, which no discount or temperature may be.
WRONG_VALUES = st.one_of(
    st.none(), st.text(max_size=4), st.integers(max_value=0),
    st.floats(max_value=0.0),
    st.lists(st.lists(st.text("xyz", min_size=1, max_size=2), min_size=1,
                      max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
NON_OBJECTS = st.one_of(st.none(), st.text(max_size=4), st.integers(),
                        st.lists(st.integers(), max_size=3))


def mutations(keys):
    """A function that turns a valid document into a malformed one: a
    required key dropped, one set to a value of the wrong structure, or a
    top level that is not an object."""
    drop = st.sampled_from(keys).map(
        lambda k: lambda doc: {x: v for x, v in doc.items() if x != k})
    replace = st.tuples(st.sampled_from(keys), WRONG_VALUES).map(
        lambda kv: lambda doc: {**doc, kv[0]: kv[1]})
    top = NON_OBJECTS.map(lambda value: lambda doc: value)
    return st.one_of(drop, replace, top)


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestMalformedDocuments:
    """Every command answers a malformed document with exit 2 (validate
    may also report it invalid with exit 1); none raises."""

    @FUZZ
    @given(mutate=mutations(MDP_KEYS))
    def test_mdp_document(self, tmp_path, capsys, mutate):
        bad = write_doc(tmp_path / "bad.json", mutate(embedded_doc()))
        good = write_doc(tmp_path / "good.json", embedded_doc())
        policy = write_doc(tmp_path / "policy.json", POLICY_DOC)
        assert main(["validate", bad]) in (1, 2)
        assert main(["certify", bad, "--epsilon", "0.5"]) == 2
        assert main(["bisim", good, bad]) == 2
        assert main(["onpolicy", bad, policy]) == 2
        capsys.readouterr()

    @FUZZ
    @given(mutate_embedding=mutations(("embedding",)),
           mutate_policy=mutations(("weights", "temperature")))
    def test_onpolicy_documents(self, tmp_path, capsys, mutate_embedding,
                                mutate_policy):
        good = write_doc(tmp_path / "good.json", embedded_doc())
        policy = write_doc(tmp_path / "policy.json", POLICY_DOC)
        bad = write_doc(tmp_path / "bad.json", mutate_embedding(
            embedded_doc()))
        bad_policy = write_doc(tmp_path / "bad_policy.json",
                               mutate_policy(POLICY_DOC))
        assert main(["onpolicy", bad, policy]) == 2
        assert main(["onpolicy", good, bad_policy]) == 2
        capsys.readouterr()

    def test_valid_documents_pass(self, tmp_path, capsys):
        good = write_doc(tmp_path / "good.json", embedded_doc())
        policy = write_doc(tmp_path / "policy.json", POLICY_DOC)
        assert main(["validate", good]) == 0
        assert main(["certify", good, "--epsilon", "0.5"]) == 0
        assert main(["onpolicy", good, policy]) == 0

    @pytest.mark.parametrize("field,value", [
        ("discount", None), ("states", 5), ("safe", {"a": 1})])
    def test_reported_cases(self, tmp_path, field, value):
        bad = write_doc(tmp_path / "bad.json",
                        {**instant_shutdown_doc(), field: value})
        assert main(["validate", bad]) == 2
        assert main(["certify", bad, "--epsilon", "0.5"]) == 2

    def test_reported_top_level_list_and_missing_temperature(self, tmp_path):
        good = write_doc(tmp_path / "good.json", embedded_doc())
        listed = write_doc(tmp_path / "list.json", [instant_shutdown_doc()])
        policy = write_doc(tmp_path / "policy.json", {"weights": [[1.0]]})
        assert main(["certify", listed, "--epsilon", "0.5"]) == 2
        assert main(["onpolicy", good, policy]) == 2

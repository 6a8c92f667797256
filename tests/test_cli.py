import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_mdp
from mdp_stability import MdpSpec, load_mdp, mdp_to_document
from mdp_stability.cli import main, render_json


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
        # answered once per sweep after the first (all costs zero) by the
        # LP or by a kept plan.
        assert doc["blocks_solved"] + doc["blocks_reused"] \
            == 18 * (doc["iterations"] - 1)
        assert doc["blocks_reused"] > doc["blocks_solved"] > 0

    def test_nonconvergence_exits_3_with_partial_artifact(self, tmp_path,
                                                          capsys):
        doc = {
            "states": ["s"], "actions": ["a"],
            "transitions": [[[1.0]]], "rewards": [[1.0]],
            "discount": 0.9, "safe": [],
        }
        doc2 = dict(doc, rewards=[[5.0]])
        p1 = write_doc(tmp_path / "a.json", doc)
        p2 = write_doc(tmp_path / "b.json", doc2)
        code = main(["bisim", p1, p2, "--c-t", "0.9999", "--tol", "1e-12"])
        assert code == 3
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is False and out["d_H"] is None

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

    def test_sweep_rows_sorted_and_bounded(self, tmp_path, capsys):
        mdp_path, policy_path = self.setup_files(tmp_path)
        assert main(["onpolicy-sweep", mdp_path, policy_path,
                     "--sizes", "1e-3,1e-5,1e-4", "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        sizes = [row["size"] for row in out["rows"]]
        assert sizes == sorted(sizes)
        assert all(row["within_bound"] for row in out["rows"])

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


class TestNoVacuousVerdict:
    def test_frontier_epsilon_with_no_member_exits_2(self, tmp_path):
        path = write_doc(tmp_path / "m.json", hibernation_doc())
        assert main(["frontier", path, "--sizes", "0.1"]) == 0
        assert main(["frontier", path, "--sizes", "0,0.1"]) == 2


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

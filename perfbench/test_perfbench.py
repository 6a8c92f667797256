"""Tests of the benchmark itself: fixtures, tracing, counters, the gate and
the command's output contract.

    python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from argparse import Namespace

import numpy as np
import pytest

import run  # pins the BLAS threads before numpy loads
import check
import fixtures
from tracing import PER_LAYER, Tracer

sys.path.insert(0, str(run.SRC))
from mdp_stability.cli import main as cli_main  # noqa: E402


def _materialize(directory, docs):
    for name, doc in docs.items():
        (directory / name).write_text(fixtures.dump(doc))


def _traced(task, directory):
    with Tracer() as tracer:
        span = tracer.begin_task(0)
        code, out, _ = run.invoke(cli_main, task.resolve(directory))
        tracer.close(span)
    return code, out, tracer


def test_fixture_generation_is_deterministic(tmp_path):
    for workload in fixtures.WORKLOADS:
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        assert fixtures.write_deck(workload, 7, a) \
            == fixtures.write_deck(workload, 7, b)
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert fixtures.deck_indices(workload, 7) \
            != fixtures.deck_indices(workload, 8)


def test_every_pool_task_has_a_reference():
    for workload in fixtures.WORKLOADS:
        keys = {fixtures.warmup(workload)[1].key}
        for i in range(fixtures.POOL[workload]):
            keys.update(t.key for t in fixtures.instance(workload, i)[1])
        assert keys == set(run.load_refs(workload))


# Peak memory of writing the onpolicy deck, above the process's peak after
# the package is imported, in a fresh interpreter.
GENERATION_PEAK = """
import resource, sys, tempfile
sys.path.insert(0, sys.argv[1])
import run, fixtures
sys.path.insert(0, str(run.SRC))
import mdp_stability.cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
fixtures.write_deck("onpolicy", 3, tempfile.mkdtemp(dir=sys.argv[2]))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) / 1024.0)
"""


def test_fixture_generation_does_not_set_peak_memory(tmp_path):
    # peak_rss_mb must measure the tasks.  Documents are written one
    # instance at a time, so generating the deck holds one instance in
    # memory (a few MB), not the twelve 200-state instances of a deck.
    grown = float(subprocess.run(
        [sys.executable, "-c", GENERATION_PEAK, str(run.HERE), str(tmp_path)],
        capture_output=True, text=True, timeout=170, check=True).stdout)
    one = max(len(fixtures.dump(d))
              for d in fixtures.instance("onpolicy", 0)[0].values())
    assert grown < 4 * one / 2**20


@pytest.mark.parametrize("workload", fixtures.WORKLOADS)
def test_traced_and_untraced_artifacts_are_identical(tmp_path, workload):
    docs, task = fixtures.warmup(workload)
    _materialize(tmp_path, docs)
    code, out, _ = run.invoke(cli_main, task.resolve(tmp_path))
    traced_code, traced_out, tracer = _traced(task, tmp_path)
    assert (traced_code, traced_out) == (code, out)
    assert out and not tracer.missing
    assert tracer.summary()["cli.render_s"] > 0


def test_sweeps_equal_transport_calls_on_dense_pairs(tmp_path):
    docs, tasks = fixtures.instance("metric", 0)
    assert fixtures.METRIC_CLASSES[0][0] == "dense"
    _materialize(tmp_path, docs)
    code, _, tracer = _traced(tasks[0], tmp_path)
    summary = tracer.summary()
    assert code == 0
    assert summary["bisim.sweeps"] == summary["transport.values_calls"] > 0
    assert summary["transport.lp_solves"] == summary["transport.values_calls"]


def test_each_certify_call_enumerates_every_policy(tmp_path):
    docs, task = fixtures.warmup("certify")
    _materialize(tmp_path, docs)
    doc = next(d for d in docs.values())
    expected = len(doc["actions"]) ** (len(doc["states"]) - len(doc["safe"]))
    code, _, tracer = _traced(task, tmp_path)
    cols = tracer.arrays()
    certify = np.nonzero(cols["name"] == tracer.name_id(
        "safety.certify_safety"))[0]
    evals = cols["parent"][cols["name"] == tracer.name_id(
        "mdp.policy_evaluation")]
    assert len(certify) >= 1
    for span in certify:
        assert np.count_nonzero(evals == span) == expected
    assert tracer.summary()["safety.policies_enumerated"] \
        == expected * len(certify)


def test_gate_rules(tmp_path):
    docs, task = fixtures.warmup("metric")
    _materialize(tmp_path, docs)
    code, out, _ = run.invoke(cli_main, task.resolve(tmp_path))
    ref = run.load_refs("metric")[task.key]
    assert check.check(task.argv, code, out, ref) == []
    shifted = copy.deepcopy(ref)
    shifted["artifact"]["dist"][0][1] += 2 * fixtures.TOL
    assert check.check(task.argv, code, out, shifted)
    # Sweep counts may change; they are not compared.
    doc = json.loads(out)
    doc["iterations"] += 5
    assert check.check(task.argv, code, json.dumps(doc), ref) == []
    assert check.check(task.argv, 3, out, ref)


def test_corrupted_reference_makes_failed_frac_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    refs = run.load_refs("onpolicy")
    args = Namespace(workload="onpolicy", seed=3, seconds=0.5, trace=0)
    good = run.run(args, refs, tmp_path / "good")
    assert good["failed_frac"] == 0, good["failures"]
    bad = copy.deepcopy(refs)
    bad["onpolicy/warmup"]["artifact"]["rows"][0]["s_pi_after"] += 1e-6
    result = run.run(args, bad, tmp_path / "bad")
    assert result["failed"] >= 1 and result["failed_frac"] > 0


def test_each_task_counts_once_at_its_scaled_median():
    # A record ends with its wall time and the probe time around it; a
    # probe twice the reference halves the time.
    a, b = fixtures.Task("a", ("x",)), fixtures.Task("b", ("x",))
    ref = run.PROBE_REF_S
    records = [(a, 0, "", "", 2.0, ref), (b, 0, "", "", 1.0, 2 * ref),
               (a, 0, "", "", 3.0, ref), (b, 0, "", "", 3.0, ref),
               (a, 0, "", "", 4.0, 2 * ref)]
    assert run.scaled_times(records) == {"a": 2.0, "b": 1.75}


def test_host_probe_runs_no_package_code():
    probe = run.HostProbe()
    with Tracer() as tracer:
        assert probe() > 0
    assert len(tracer.start) == 0


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable] + spec["command"][1:]
        + ["--workload", "onpolicy", "--seed", "5", "--seconds", "1",
           "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} \
        == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert dict(PER_LAYER) == {m["name"]: m["unit"] for m in declared}
    else:
        assert result["metrics"]["setup_s"]["value"] > 0


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metric",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

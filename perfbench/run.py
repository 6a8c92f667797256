#!/usr/bin/env python3
"""Benchmark of the mdp-stability CLI on seeded fixture documents.

One process, one client, closed loop: CLI commands are issued in-process
through ``mdp_stability.cli.main(argv)``, each one when the previous one
returns, and every artifact is checked against its stored reference.

    python3 perfbench/run.py --workload metric --seed 1 --seconds 30 --trace 0

``--trace 0`` times the untraced loop and reports the end-to-end metrics;
its times are wall times scaled to a fixed host speed by a probe run
between tasks (see ``HostProbe``).
``--trace 1`` runs the same loop with every layer entry point wrapped and
reports the per-layer metrics.  Run it from the root of a checkout: the
package is imported from ``src/`` there.  The last line of standard output
is one JSON object; the lines before it print every metric by name with its
unit.  A fuller record (environment, sample counts, failures) is written to
``.perfbench_out/``.  See perfbench/README.md.
"""

import os

# Pin the BLAS and OpenMP pools before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import check  # noqa: E402
import fixtures  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFS = HERE / "refs"

SETUP_ROUNDS = 5
TAIL_ABOVE = 10
# The host probe's time on a quiet host of the machine the baseline in
# README.md comes from.  Every time metric is a wall time scaled by
# PROBE_REF_S over the probe time around it (see scaled_times).
PROBE_REF_S = 0.004
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mdp_stability.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = (("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_s.p50", "s"),
              ("task_s.tail", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=fixtures.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_refs(workload):
    with open(REFS / f"{workload}.json") as fh:
        return json.load(fh)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the host
    probe sees the same contention as the tasks; returns the CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed):
    """Machine, library versions and thread settings of this run."""
    import numpy
    import scipy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "seed": seed,
    }


def invoke(cli_main, argv):
    """Run one CLI command in-process; (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except (Exception, SystemExit) as exc:
        # A task that raises is a failed task; the loop goes on.
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def load_documents(directory):
    """Parse every fixture document through the package's loaders."""
    from mdp_stability import load_embedded, load_mdp, load_toy_policy
    for path in sorted(Path(directory).iterdir()):
        with open(path) as fh:
            doc = json.load(fh)
        if "weights" in doc:
            load_toy_policy(doc)
        elif "embedding" in doc:
            load_embedded(doc)
        else:
            load_mdp(doc)


def import_seconds():
    """Import time of mdp_stability.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def set_up(workload, seed, work, probe):
    """SETUP_ROUNDS rounds of import, fixture generation, loading and one
    warm-up task; returns the last round's fixtures and every round's
    timings, host probe and warm-up record."""
    from mdp_stability.cli import main as cli_main
    rounds = []
    before = probe.settled()
    for r in range(SETUP_ROUNDS):
        directory = work / f"round{r}"
        t_import = import_seconds()
        t0 = perf_counter()
        warm, tasks = fixtures.write_deck(workload, seed, directory)
        t1 = perf_counter()
        load_documents(directory)
        t2 = perf_counter()
        code, out, err = invoke(cli_main, warm.resolve(directory))
        t3 = perf_counter()
        after = probe.settled()
        rounds.append({"import_s": t_import, "generate_s": t1 - t0,
                       "load_s": t2 - t1, "warmup_s": t3 - t2,
                       "probe_s": (before + after) / 2,
                       "record": (warm, code, out, err)})
        before = after
        if r:
            shutil.rmtree(work / f"round{r - 1}")
    return directory, tasks, rounds


def closed_loop(tasks, directory, seconds, probe, tracer=None):
    """Issue tasks one after the other, cycling the deck, until ``seconds``
    have passed and the deck has run at least once; returns (records,
    elapsed).  The host probe runs before the first task and after each
    one, outside the task's time; a record carries the mean of the probes
    just before and just after its task."""
    from mdp_stability.cli import main as cli_main
    records = []
    t_start = perf_counter()
    deadline = t_start + seconds
    before = probe()
    while len(records) < len(tasks) or perf_counter() < deadline:
        task = tasks[len(records) % len(tasks)]
        argv = task.resolve(directory)
        if tracer is not None:
            span = tracer.begin_task(len(records))
        t0 = perf_counter()
        code, out, err = invoke(cli_main, argv)
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        after = probe()
        records.append((task, code, out, err, dt, (before + after) / 2))
        before = after
    return records, perf_counter() - t_start


def verify(record, refs):
    """Problems of one task record (empty when it agrees with its
    reference)."""
    task, code, out, err = record[:4]
    ref = refs.get(task.key)
    if ref is None:
        return ["no stored reference"]
    if code is None:
        return [f"raised {err}"]
    return check.check(task.argv, code, out, ref)


class HostProbe:
    """Times a fixed set of kernels in the mix of work the package does: a
    Python loop, small dense solves and a small HiGHS linear program.

    Other tenants of the host slow this process by up to twice, in phases
    that switch within seconds or last for minutes, and CPU time slows with
    wall time.  The probe runs no package code, so its time follows the
    host and not the program."""

    SETTLED = 5

    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog
        rng = np.random.default_rng(0)
        m = rng.random((64, 64)) + 64 * np.eye(64)
        c = rng.random(100)
        a_eq, b_eq = np.kron(np.eye(10), np.ones((1, 10))), np.ones(10)

        def python_loop():
            total = 0
            for i in range(20_000):
                total += i * i

        def dense_solves():
            for _ in range(20):
                np.linalg.solve(m, c[:64])

        def small_lp():
            linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                    method="highs")

        self.kernels = (python_loop, dense_solves, small_lp)
        for kernel in self.kernels:     # first calls pay lazy imports
            kernel()

    def __call__(self):
        """Time of the kernels, each the faster of two runs, in s."""
        total = 0.0
        for kernel in self.kernels:
            runs = []
            for _ in range(2):
                t0 = perf_counter()
                kernel()
                runs.append(perf_counter() - t0)
            total += min(runs)
        return total

    def settled(self):
        """Median of SETTLED probes, for the set-up rounds, which are few
        and long."""
        return statistics.median(self() for _ in range(self.SETTLED))


def scaled(seconds, probe_s):
    """A wall time scaled to the reference host speed."""
    return seconds * PROBE_REF_S / probe_s


def scaled_times(records):
    """{task key: time}, in deck order: each task's wall time scaled to the
    reference host speed by the probe around it, then the median over the
    run's passes.  Each task of the deck counts once, however many passes
    the run made."""
    samples = {}
    for task, *_, dt, probe_s in records:
        samples.setdefault(task.key, []).append(scaled(dt, probe_s))
    return {key: statistics.median(v) for key, v in samples.items()}


def tail(durations):
    """(value, percentile): the highest percentile of the samples with at
    least TAIL_ABOVE samples above it, or the median when there are too few
    samples for that to lie above it."""
    ordered = sorted(durations)
    n = len(ordered)
    rank = n - TAIL_ABOVE
    if 2 * rank <= n:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / n


def by_command(tasks, times):
    groups = {}
    for task in tasks:
        if task.key in times:
            groups.setdefault(task.command, []).append(times[task.key])
    return {cmd: {"n": len(d), "p50_s": statistics.median(d)}
            for cmd, d in sorted(groups.items())}


def run(args, refs, work):
    """Set up, run the closed loop, check; returns the result record."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    probe = HostProbe()
    directory, tasks, rounds = set_up(args.workload, args.seed, work, probe)
    warm_records = [r.pop("record") for r in rounds]
    for r in rounds:
        r["wall_s"] = (r["import_s"] + r["generate_s"] + r["load_s"]
                       + r["warmup_s"])
    setup_s = statistics.median(scaled(r["wall_s"], r["probe_s"])
                                for r in rounds)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        with tracer:
            records, elapsed = closed_loop(tasks, directory, args.seconds,
                                           probe, tracer)
    else:
        records, elapsed = closed_loop(tasks, directory, args.seconds,
                                       probe)

    checked = [(r, verify(r, refs)) for r in warm_records + records]
    failures = [(r[0].key, p) for r, p in checked if p]
    failed_keys = {key for key, _ in failures}
    attempted = len(checked)
    ok_tasks = sum(1 for _, p in checked[len(warm_records):] if not p)
    times = scaled_times(records)
    durations = list(times.values())
    ok_keys = sum(1 for key in times if key not in failed_keys)
    tail_value, tail_pct = tail(durations)
    probes = [r[-1] for r in records]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "probe_ref_s": PROBE_REF_S,
        "probe_s": {"min": min(probes), "p50": statistics.median(probes),
                    "max": max(probes)},
        "setup_rounds": rounds,
        "samples": len(durations),
        "passes": len(records) / len(tasks),
        "wall_tasks_per_s": ok_tasks / elapsed,
        "wall_task_s.p50": statistics.median(r[-2] for r in records),
        "tail_percentile": tail_pct,
        "by_command": by_command(tasks, times),
        "tasks": [[r[0].key, r[-2], r[-1], scaled(r[-2], r[-1])]
                  for r in records],
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
    }
    if tracer is None:
        result["metrics"] = {
            "setup_s": setup_s,
            "tasks_per_s": ok_keys / sum(durations),
            "task_s.p50": statistics.median(durations),
            "task_s.tail": tail_value,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["units"] = dict(END_TO_END)
    else:
        from tracing import PER_LAYER
        metrics = tracer.summary()
        metrics["trace.task_s.p50"] = statistics.median(durations)
        metrics["trace.tasks"] = len(records)
        metrics["trace.spans"] = len(tracer.start)
        result["metrics"] = metrics
        result["units"] = dict(PER_LAYER)
        result["missing_wrap_points"] = tracer.missing
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans)
        result["spans_file"] = str(spans)
    return result


def report(result):
    """Print every metric by name with its unit, then the JSON line."""
    env = result["environment"]
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  env {json.dumps(env, sort_keys=True)}")
    for name, value in result["metrics"].items():
        unit = result["units"][name]
        extra = ""
        if name == "task_s.p50":
            extra = f"  (n={result['samples']})"
        elif name == "task_s.tail":
            extra = (f"  (p{result['tail_percentile']:.1f}, "
                     f"n={result['samples']})")
        print(f"{name} = {value:.6g} {unit}{extra}")
    print(f"failed_frac = {result['failed_frac']:.6g} ratio  "
          f"({result['failed']}/{result['attempted']})")
    for key, problems in result["failures"]:
        print(f"# FAILED {key}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mdp_stability" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'mdp_stability'}; run from the "
              f"root of a checkout of the repository", file=sys.stderr)
        return 2
    refs = load_refs(args.workload)
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        result = run(args, refs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

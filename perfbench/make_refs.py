#!/usr/bin/env python3
"""Regenerate the stored references in perfbench/refs/.

    python3 perfbench/make_refs.py [--workload NAME ...]

Every pool task and the warm-up task of each workload is run once through
the CLI, metric-bearing tasks at ``fixtures.REF_TOL``; the exit code and
the reduced artifact (see check.reduce_artifact) are stored.  Each task
that carries a ``--tol`` is then run again at its benchmark tolerance and
checked against the new reference, so that an instance whose verdict
depends on the tolerance is reported.  Run it from the root of a checkout,
only when the fixtures change: the references pin the program's answers.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy loads
import check
import fixtures


def references(workload, cli_main, scratch):
    refs, mismatches = {}, []
    docs, warm = fixtures.warmup(workload)
    jobs = [(docs, [warm])]
    jobs += [fixtures.instance(workload, i)
             for i in range(fixtures.POOL[workload])]
    for docs, tasks in jobs:
        directory = Path(tempfile.mkdtemp(dir=scratch))
        for name, doc in docs.items():
            (directory / name).write_text(fixtures.dump(doc))
        for task in tasks:
            tight = task.with_tol(fixtures.REF_TOL) \
                if "--tol" in task.argv else task
            code, out, err = run.invoke(cli_main, tight.resolve(directory))
            if code is None:
                raise RuntimeError(f"{task.key} raised: {err}")
            ref = {"exit": code,
                   "artifact": check.reduce_artifact(json.loads(out))}
            refs[task.key] = ref
            if tight is not task:
                code, out, err = run.invoke(cli_main,
                                            task.resolve(directory))
                problems = check.check(task.argv, code, out, ref)
                if problems:
                    mismatches.append((task.key, problems))
            print(f"{task.key} exit {code}", flush=True)
        shutil.rmtree(directory)
    return refs, mismatches


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=fixtures.WORKLOADS)
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from mdp_stability.cli import main as cli_main
    run.OUT.mkdir(exist_ok=True)
    run.REFS.mkdir(exist_ok=True)
    status = 0
    for workload in args.workload or fixtures.WORKLOADS:
        scratch = Path(tempfile.mkdtemp(prefix="refs-", dir=run.OUT))
        try:
            refs, mismatches = references(workload, cli_main, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        with open(run.REFS / f"{workload}.json", "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for key, problems in mismatches:
            print(f"MISMATCH at benchmark tolerance {key}: {problems}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

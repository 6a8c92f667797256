"""Seeded fixture documents and task decks for the three workloads.

Every document is generated here with numpy alone, so the inputs do not
change when the package's own generators change.  A workload owns a fixed
pool of instances; instance ``i`` is generated from the seed sequence
``(workload code, i)`` and expands into a fixed list of CLI tasks.  The
run seed only chooses which pool instances make up the deck and in which
order, so every task a run can issue has a stored reference (see
``refs/``), whatever the seed.  The same seed gives byte-identical
documents.

A task is a CLI argv in which ``@name`` stands for the document ``name``
inside the fixture directory.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("metric", "certify", "onpolicy")
# First entry of each instance's seed sequence; fixed, so that the stored
# references stay valid when a workload is added or removed.
_CODE = {"metric": 1, "certify": 2, "onpolicy": 4}

# Tolerance of every metric-bearing task; the references use REF_TOL so
# they stand in for the exact fixed point.
TOL = 1e-6
REF_TOL = 1e-9

# Instance classes, cycled in this order through a deck.  Sizes are chosen
# so that one pass of a deck takes at most about half a run (see
# README.md).  Each workload has a majority cluster of similar tasks that
# holds the median and the tail percentile, with minorities above it: a
# percentile that falls between two clusters jumps from run to run.  Most
# pairs are dense 4-state pairs (still 30 to 130 sweeps each); sparse 5- and
# 6-state pairs keep larger blocks in the mix.
METRIC_CLASSES = (          # (kind, states, sparsity)
    ("dense", 4, None),
    ("sparse", 5, 0.6),
    ("dense", 4, None),
    ("dense", 4, None),
    ("dense", 4, None),
    ("sparse", 6, 0.5),
    ("dense", 4, None),
    ("dense", 4, None),
)
# Frontier tasks (2 to 4 times a certify) run on two 13-state classes only,
# so the light certify tasks stay the majority and a pass of the deck stays
# short; the 15-state class (16,384 policies) is certified only.
CERTIFY_CLASSES = (         # (states, actions, sparsity, epsilon, frontier)
    (13, 2, 0.25, 0.3, True),
    (9, 3, 0.4, 1.0, False),
    (13, 2, 0.6, 3.0, True),
    (9, 3, 0.6, 0.3, False),
    (13, 2, 0.4, 0.3, False),
    (15, 2, 0.4, 1.0, False),
    (9, 3, 0.25, 0.3, False),
    (13, 2, 0.4, 1.0, False),
)
# Three of four classes have 200 states, so the median task falls inside
# the cluster of 200-state analyses rather than between two clusters.
ONPOLICY_CLASSES = (        # (states, sparsity)
    (200, 0.03),
    (200, 0.2),
    (100, 0.2),
    (200, 0.03),
)
CLASSES = {"metric": METRIC_CLASSES, "certify": CERTIFY_CLASSES,
           "onpolicy": ONPOLICY_CLASSES}

# Pool size (instances with stored references) and deck size (instances
# of one run) per workload.  A run cycles its deck and counts each task
# once (see run.scaled_times), so a pass of the deck must fit in a run.
# Instance costs vary widely within a class, so the deck holds three
# quarters of the pool: runs with different seeds then share most of their
# instances, and the choice of deck adds little spread.
POOL = {"metric": 32, "certify": 16, "onpolicy": 16}
DECK = {"metric": 28, "certify": 12, "onpolicy": 12}

METRIC_CT = "0.9"
ONPOLICY_SIZES = ",".join(repr(float(x)) for x in np.geomspace(1e-5, 1e-2, 20))


@dataclass(frozen=True)
class Task:
    """One CLI invocation: a reference key and its argv."""

    key: str
    argv: tuple

    @property
    def command(self):
        return self.argv[0]

    def resolve(self, directory):
        """The argv with document names replaced by paths in ``directory``."""
        return [os.path.join(directory, a[1:]) if a.startswith("@") else a
                for a in self.argv]

    def with_tol(self, tol):
        """The same task with its ``--tol`` value replaced."""
        argv = list(self.argv)
        argv[argv.index("--tol") + 1] = repr(tol)
        return Task(self.key, tuple(argv))


# -- document generators ------------------------------------------------------

def _mdp_document(P, r, gamma, embedding=None):
    n, n_a = r.shape
    doc = {
        "states": [f"s{i}" for i in range(n)],
        "actions": [f"a{j}" for j in range(n_a)],
        "transitions": P.tolist(),
        "rewards": r.tolist(),
        "discount": gamma,
        "safe": [f"s{n - 1}"],
    }
    if embedding is not None:
        doc["embedding"] = embedding.tolist()
    return doc


def dense_mdp(rng, n, n_actions=2, gamma=0.9):
    """Every non-safe row has full support; the last state is the
    absorbing, zero-reward safe state."""
    P = rng.dirichlet(np.ones(n), size=(n, n_actions))
    r = rng.random((n, n_actions))
    P[n - 1] = 0.0
    P[n - 1, :, n - 1] = 1.0
    r[n - 1] = 0.0
    return _mdp_document(P, r, gamma)


def family_mdp(rng, n, n_actions, sparsity, dim=2, gamma=0.9):
    """Embedded MDP whose non-safe rows each have ceil(sparsity * n)
    destinations with Dirichlet weights; the last state is safe."""
    k = max(1, min(n, math.ceil(sparsity * n)))
    P = np.zeros((n, n_actions, n))
    for s in range(n - 1):
        for a in range(n_actions):
            dests = rng.choice(n, size=k, replace=False)
            P[s, a, dests] = rng.dirichlet(np.ones(k))
    P[n - 1, :, n - 1] = 1.0
    r = rng.uniform(0.0, 1.0, size=(n, n_actions))
    r[n - 1] = 0.0
    embedding = rng.uniform(0.0, 1.0, size=(n, dim))
    return _mdp_document(P, r, gamma, embedding)


def toy_policy(rng, n_actions, dim):
    """Softmax-of-linear-scores policy document."""
    return {"weights": rng.standard_normal((n_actions, dim)).tolist(),
            "temperature": 1.0}


# -- instances ---------------------------------------------------------------

def instance(workload, index):
    """(documents, tasks) of one pool instance.

    Documents map a file name to its JSON object; instance ``index`` belongs
    to class ``index % len(classes)``.
    """
    if workload not in CLASSES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([_CODE[workload], index])
    spec = CLASSES[workload][index % len(CLASSES[workload])]
    tag = f"{workload[0]}{index:03d}"
    key = f"{workload}/{index:03d}"
    tol = ("--tol", repr(TOL))
    if workload == "metric":
        kind, n, sparsity = spec
        if kind == "dense":
            a, b = dense_mdp(rng, n), dense_mdp(rng, n)
        else:
            a, b = (family_mdp(rng, n, 2, sparsity),
                    family_mdp(rng, n, 2, sparsity))
        docs = {f"{tag}a.json": a, f"{tag}b.json": b}
        tasks = [Task(f"{key}/bisim", ("bisim", f"@{tag}a.json",
                                       f"@{tag}b.json", "--c-t", METRIC_CT)
                      + tol)]
    elif workload == "certify":
        n, n_a, sparsity, eps, frontier = spec
        doc = f"{tag}.json"
        docs = {doc: family_mdp(rng, n, n_a, sparsity)}
        eps = repr(eps)
        # The worst-case start is certified together with --big-n.
        tasks = [
            Task(f"{key}/certify-start",
                 ("certify", f"@{doc}", "--epsilon", eps, "--start", "s0")),
            Task(f"{key}/certify-big-n",
                 ("certify", f"@{doc}", "--epsilon", eps, "--big-n", "12")),
        ]
        if frontier:
            tasks.append(Task(f"{key}/frontier", ("frontier", f"@{doc}",
                                                  "--epsilon", eps,
                                                  "--grid", "8")))
    else:
        n, sparsity = spec
        n_a, dim = 3, 4
        docs = {f"{tag}.json": family_mdp(rng, n, n_a, sparsity, dim=dim),
                f"{tag}p.json": toy_policy(rng, n_a, dim)}
        pair = (f"@{tag}.json", f"@{tag}p.json")
        tasks = [
            Task(f"{key}/onpolicy", ("onpolicy",) + pair),
            Task(f"{key}/onpolicy-s0", ("onpolicy",) + pair
                 + ("--start", "s0")),
            Task(f"{key}/onpolicy-s1", ("onpolicy",) + pair
                 + ("--start", "s1")),
            Task(f"{key}/sweep", ("onpolicy-sweep",) + pair
                 + ("--sizes", ONPOLICY_SIZES, "--big-n", "20",
                    "--seed", str(index))),
        ]
    return docs, tasks


def warmup(workload):
    """(documents, task) of the small warm-up task that ends set-up.

    It issues the workload's main command on a small input, so lazy
    imports and solver start-up are paid before timing starts.
    """
    rng = np.random.default_rng([_CODE[workload], 10_000])
    key = f"{workload}/warmup"
    tol = ("--tol", repr(TOL))
    if workload == "metric":
        docs = {"wa.json": dense_mdp(rng, 3), "wb.json": dense_mdp(rng, 3)}
        argv = ("bisim", "@wa.json", "@wb.json", "--c-t", METRIC_CT) + tol
    elif workload == "certify":
        docs = {"w.json": family_mdp(rng, 8, 2, 0.5)}
        argv = ("certify", "@w.json", "--epsilon", "1.0")
    elif workload == "onpolicy":
        docs = {"w.json": family_mdp(rng, 20, 3, 0.2, dim=4),
                "wp.json": toy_policy(rng, 3, 4)}
        argv = ("onpolicy-sweep", "@w.json", "@wp.json",
                "--sizes", "1e-4,1e-3", "--seed", "0")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return docs, Task(key, argv)


def deck_indices(workload, seed):
    """Pool instances of one run, in order: classes are cycled in their
    fixed order and the seed picks and orders the members of each class."""
    n_classes = len(CLASSES[workload])
    rng = np.random.default_rng(seed)
    members = [list(rng.permutation(range(c, POOL[workload], n_classes)))
               for c in range(n_classes)]
    return [int(members[j % n_classes][j // n_classes])
            for j in range(DECK[workload])]


def dump(doc):
    return json.dumps(doc, separators=(",", ":"))


def write_deck(workload, seed, directory):
    """Write every document of the run's deck and the warm-up task into
    ``directory``; return (warm-up task, deck tasks).

    Each instance's documents are written as soon as they are generated, so
    that at most one instance is held in memory: the benchmark process's
    peak memory is then set by the tasks, not by fixture generation."""
    os.makedirs(directory, exist_ok=True)

    def write(docs):
        for name, doc in docs.items():
            with open(os.path.join(directory, name), "w") as fh:
                fh.write(dump(doc))

    docs, warm = warmup(workload)
    write(docs)
    tasks = []
    for index in deck_indices(workload, seed):
        docs, inst_tasks = instance(workload, index)
        write(docs)
        tasks.extend(inst_tasks)
    return warm, tasks

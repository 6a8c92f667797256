"""Outside-in tracing of the package's layers for the traced pass.

Wrappers are bound at the names the callers look up.  The package imports
with ``from .x import y``, so one entry point can be bound in several
modules (``cross_bisim_metric`` in ``bisim``, ``safety`` and ``cli``), and
each binding is wrapped.  Spans (name, start, end, parent span, task id)
are kept in flat in-memory arrays and written out at the end; counters
that need the call's arguments or result are kept beside them.  Nothing
here changes what a call computes.
"""

import functools
import hashlib
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span name).  The layer is the span name's prefix.
WRAP_POINTS = (
    ("mdp_stability.transport", "BatchedTransport.values", "transport.values"),
    ("mdp_stability.transport", "linprog", "transport.linprog"),
    ("mdp_stability.bisim", "cross_bisim_metric", "bisim.cross_bisim_metric"),
    ("mdp_stability.safety", "cross_bisim_metric", "bisim.cross_bisim_metric"),
    ("mdp_stability.cli", "cross_bisim_metric", "bisim.cross_bisim_metric"),
    ("mdp_stability.cli", "align_reward_scale", "bisim.align_reward_scale"),
    ("mdp_stability.cli", "hausdorff_distance", "bisim.hausdorff_distance"),
    ("mdp_stability.safety", "hausdorff_distance", "bisim.hausdorff_distance"),
    ("mdp_stability.safety", "isolation_check", "bisim.isolation_check"),
    ("mdp_stability.safety", "policy_evaluation", "mdp.policy_evaluation"),
    ("mdp_stability.safety", "value_iteration", "mdp.value_iteration"),
    ("mdp_stability.cli", "value_iteration", "mdp.value_iteration"),
    ("mdp_stability.scenarios", "value_iteration", "mdp.value_iteration"),
    ("mdp_stability.safety", "induce_chain", "mdp.induce_chain"),
    ("mdp_stability.cli", "induce_chain", "mdp.induce_chain"),
    ("mdp_stability.cli", "certify_safety", "safety.certify_safety"),
    ("mdp_stability.safety", "certify_safety", "safety.certify_safety"),
    ("mdp_stability.cli", "safety_frontier", "safety.safety_frontier"),
    ("mdp_stability.cli", "verify_stability_instance",
     "safety.verify_stability_instance"),
    ("mdp_stability.safety", "expected_steps", "safety.expected_steps"),
    ("mdp_stability.cli", "expected_steps", "safety.expected_steps"),
    ("mdp_stability.onpolicy", "realize_chain", "onpolicy.realize_chain"),
    ("mdp_stability.onpolicy", "transient_set", "onpolicy.transient_set"),
    ("mdp_stability.onpolicy", "spectral_radius", "onpolicy.spectral_radius"),
    ("mdp_stability.onpolicy", "shutdown_probability",
     "onpolicy.shutdown_probability"),
    ("mdp_stability.cli", "rate_of_decrease_check",
     "onpolicy.rate_of_decrease_check"),
    ("mdp_stability.cli", "analyze_chain", "onpolicy.analyze_chain"),
    ("mdp_stability.cli", "random_perturbation",
     "scenarios.random_perturbation"),
    ("mdp_stability.cli", "build_playing_dead",
     "scenarios.build_playing_dead"),
    ("mdp_stability.cli", "build_uniform_shutdown",
     "scenarios.build_uniform_shutdown"),
    ("mdp_stability.cli", "_load_mdp_or_embedded", "cli.load"),
    ("mdp_stability.cli", "load_mdp", "cli.load"),
    ("mdp_stability.cli", "load_embedded", "cli.load"),
    ("mdp_stability.cli", "load_toy_policy", "cli.load"),
    ("mdp_stability.cli", "render_json", "cli.render"),
)
# render_json recurses through its module-level name; only the outermost
# call becomes a span.
NON_REENTRANT = frozenset({"cli.render"})
CHURN_TOL = 1e-12
TASK = "task"

# Per-layer metrics of the traced pass, with units.
PER_LAYER = (
    ("transport.values_calls", "count"), ("transport.pairs", "count"),
    ("transport.busy_s", "s"), ("transport.lp_solves", "count"),
    ("transport.lp_vars", "count"), ("transport.lp_s", "s"),
    ("transport.lp_failures", "count"), ("transport.plan_churn", "ratio"),
    ("bisim.metric_calls", "count"), ("bisim.sweeps", "count"),
    ("bisim.busy_s", "s"), ("bisim.self_s", "s"),
    ("bisim.sweep_ms", "ms"), ("bisim.nonconverged", "count"),
    ("mdp.policy_evals", "count"), ("mdp.policy_eval_s", "s"),
    ("mdp.value_iterations", "count"), ("mdp.value_iteration_s", "s"),
    ("mdp.induce_chain_calls", "count"),
    ("safety.certify_s", "s"), ("safety.frontier_s", "s"),
    ("safety.self_s", "s"), ("safety.policies_enumerated", "count"),
    ("safety.eps_optimal", "count"), ("safety.useful_frac", "ratio"),
    ("safety.expected_steps_calls", "count"),
    ("safety.expected_steps_s", "s"),
    ("onpolicy.realize_chain_s", "s"),
    ("onpolicy.transient_set_calls", "count"),
    ("onpolicy.transient_set_s", "s"),
    ("onpolicy.spectral_radius_calls", "count"),
    ("onpolicy.spectral_radius_s", "s"),
    ("onpolicy.shutdown_probability_s", "s"), ("onpolicy.rate_check_s", "s"),
    ("scenarios.perturbation_s", "s"), ("scenarios.build_s", "s"),
    ("cli.load_s", "s"), ("cli.render_s", "s"), ("cli.self_s", "s"),
    ("trace.task_s.p50", "s"), ("trace.tasks", "count"),
    ("trace.spans", "count"),
)


def _after_values(tracer, args, kwargs, result):
    tracer.counts["transport.pairs"] += len(args[0].pairs)


def _after_linprog(tracer, args, kwargs, result):
    c = np.asarray(args[0] if args else kwargs["c"])
    tracer.counts["transport.lp_vars"] += len(c)
    if not result.success:
        tracer.counts["transport.lp_failures"] += 1
        return
    # The same LP recurs across sweeps of one metric: same constraint
    # right-hand side, same size.  Churn compares its solution with the
    # previous one.
    b_eq = np.ascontiguousarray(kwargs.get("b_eq"), dtype=float)
    key = (len(c), hashlib.blake2b(b_eq.tobytes(), digest_size=16).digest())
    x = np.asarray(result.x, dtype=float)
    previous = tracer.plans.get(key)
    if previous is not None:
        tracer.counts["transport.churn_moved"] += int(
            np.count_nonzero(np.abs(x - previous) > CHURN_TOL))
        tracer.counts["transport.churn_compared"] += len(x)
    tracer.plans[key] = x.copy()


def _after_metric(tracer, args, kwargs, result):
    tracer.counts["bisim.sweeps"] += int(result.iterations_used)
    tracer.counts["bisim.nonconverged"] += int(not result.converged)


def _after_certify(tracer, args, kwargs, result):
    tracer.counts["safety.eps_optimal"] += int(result.epsilon_optimal_count)


AFTER = {
    "transport.values": _after_values,
    "transport.linprog": _after_linprog,
    "bisim.cross_bisim_metric": _after_metric,
    "safety.certify_safety": _after_certify,
}


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.stack = []
        self.current_task = -1
        self.counts = Counter()
        self.plans = {}
        self.missing = []
        self._patched = []
        self._wrappers = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, sid):
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.current_task)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_task(self, task_id):
        self.current_task = task_id
        self.plans.clear()
        return self.open(self.name_id(TASK))

    def _make(self, orig, span):
        sid = self.name_id(span)
        after = AFTER.get(span)
        reentrant = span not in NON_REENTRANT
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not reentrant and tracer.stack \
                    and tracer.name[tracer.stack[-1]] == sid:
                return orig(*args, **kwargs)
            idx = tracer.open(sid)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                tracer.counts[span + ".errors"] += 1
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Bind a wrapper at every wrap point; absent names are recorded in
        ``missing`` and skipped."""
        for module_name, attr, span in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf, None)
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            key = (id(orig), span)
            if key not in self._wrappers:
                self._wrappers[key] = self._make(orig, span)
            setattr(owner, leaf, self._wrappers[key])
            self._patched.append((owner, leaf, orig))

    def uninstall(self):
        while self._patched:
            owner, leaf, orig = self._patched.pop()
            setattr(owner, leaf, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis --------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns."""
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "task": np.frombuffer(self.task, dtype=np.intc).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self):
        """Every per-layer metric except the ``trace.*`` ones."""
        cols = self.arrays()
        name, parent = cols["name"], cols["parent"]
        n = len(name)
        dur = cols["end"] - cols["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        parent_name = np.where(has_parent, name[parent], -1)
        layers = sorted({s.split(".")[0] for s in self.names})
        layer_ids = np.array([layers.index(s.split(".")[0])
                              for s in self.names] + [-1])
        layer_of = layer_ids[name]
        # A span is the top of its layer when its parent is in another one.
        top = layer_of != layer_ids[parent_name]

        def sid(span):
            return self._ids.get(span, -1)

        def count(span):
            return int(np.count_nonzero(name == sid(span)))

        def total(*spans):
            """Time in these spans, not counting one nested in another."""
            ids = [sid(s) for s in spans]
            mask = np.isin(name, ids) & ~np.isin(parent_name, ids)
            return float(dur[mask].sum())

        def layer(prefix):
            return layer_of == layers.index(prefix) if prefix in layers \
                else np.zeros(n, dtype=bool)

        def busy(prefix):
            return float(dur[layer(prefix) & top].sum())

        def self_time(prefix):
            return float(own[layer(prefix)].sum())

        def evals_under(*spans):
            evals = name == sid("mdp.policy_evaluation")
            under = np.isin(parent[evals], np.nonzero(
                np.isin(name, [sid(s) for s in spans]))[0])
            return int(np.count_nonzero(under))

        c = self.counts
        sweeps = c["bisim.sweeps"]
        enumerated_in_certify = evals_under("safety.certify_safety")
        compared = c["transport.churn_compared"]
        return {
            "transport.values_calls": count("transport.values"),
            "transport.pairs": c["transport.pairs"],
            "transport.busy_s": busy("transport"),
            "transport.lp_solves": count("transport.linprog"),
            "transport.lp_vars": c["transport.lp_vars"],
            "transport.lp_s": total("transport.linprog"),
            "transport.lp_failures": (c["transport.lp_failures"]
                                      + c["transport.linprog.errors"]),
            "transport.plan_churn": (c["transport.churn_moved"] / compared
                                     if compared else 0.0),
            "bisim.metric_calls": count("bisim.cross_bisim_metric"),
            "bisim.sweeps": sweeps,
            "bisim.busy_s": busy("bisim"),
            "bisim.self_s": self_time("bisim"),
            "bisim.sweep_ms": (1e3 * float(dur[name == sid(
                "bisim.cross_bisim_metric")].sum()) / sweeps
                if sweeps else 0.0),
            "bisim.nonconverged": c["bisim.nonconverged"],
            "mdp.policy_evals": count("mdp.policy_evaluation"),
            "mdp.policy_eval_s": total("mdp.policy_evaluation"),
            "mdp.value_iterations": count("mdp.value_iteration"),
            "mdp.value_iteration_s": total("mdp.value_iteration"),
            "mdp.induce_chain_calls": count("mdp.induce_chain"),
            "safety.certify_s": total("safety.certify_safety"),
            "safety.frontier_s": total("safety.safety_frontier"),
            "safety.self_s": self_time("safety"),
            "safety.policies_enumerated": evals_under(
                "safety.certify_safety", "safety.safety_frontier"),
            "safety.eps_optimal": c["safety.eps_optimal"],
            "safety.useful_frac": (c["safety.eps_optimal"]
                                   / enumerated_in_certify
                                   if enumerated_in_certify else 0.0),
            "safety.expected_steps_calls": count("safety.expected_steps"),
            "safety.expected_steps_s": total("safety.expected_steps"),
            "onpolicy.realize_chain_s": total("onpolicy.realize_chain"),
            "onpolicy.transient_set_calls": count("onpolicy.transient_set"),
            "onpolicy.transient_set_s": total("onpolicy.transient_set"),
            "onpolicy.spectral_radius_calls": count(
                "onpolicy.spectral_radius"),
            "onpolicy.spectral_radius_s": total("onpolicy.spectral_radius"),
            "onpolicy.shutdown_probability_s": total(
                "onpolicy.shutdown_probability"),
            "onpolicy.rate_check_s": total("onpolicy.rate_of_decrease_check"),
            "scenarios.perturbation_s": total("scenarios.random_perturbation"),
            "scenarios.build_s": total("scenarios.build_playing_dead",
                                       "scenarios.build_uniform_shutdown"),
            "cli.load_s": total("cli.load"),
            "cli.render_s": total("cli.render"),
            "cli.self_s": float(own[name == sid(TASK)].sum()),
        }

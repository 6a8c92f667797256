"""Correctness gate: compare a task's exit code and artifact with its
stored reference.

Rules, by field name:

- the exit code must match exactly;
- verdicts and counts (``EXACT``) must match exactly;
- ``reachability`` is compared as counts of true and false, because the
  enumeration order may change;
- metric distances (``TOL_FIELDS``) must lie within the task's ``--tol``
  of the reference, which was computed at a much tighter tolerance;
  ``isolation_threshold`` is sqrt(d_H), so its square is compared instead;
- ``lambda1`` and ``bound_B`` come from power iteration and must lie within
  1e-6 relative;
- ``delta_s_pi`` and ``ratio`` are differences of two shutdown
  probabilities (``ratio`` divided by the perturbation size), so they may
  differ by the absolute error that 1e-9 relative allows on those
  probabilities; as plain relative checks they would compare rounding
  noise when the two probabilities nearly coincide;
- sweep counts and the final sweep residual (``SKIP``) are not compared;
- every other float must lie within 1e-9 relative (1e-12 absolute near
  zero), and every other value must be equal.

Keys present in the reference must be present in the artifact; extra keys
in the artifact are allowed (additive fields).
"""

import json
import math

EXACT = frozenset({"epsilon_optimal_count", "boundary_count", "is_safe_for",
                   "isolated", "conclusion_holds", "within_bound",
                   "trans_preserved", "h_star"})
TOL_FIELDS = frozenset({"dist", "d_H", "profile", "aligned_distance",
                        "min_safe_distance"})
POWER_FIELDS = frozenset({"lambda1", "bound_B"})
SKIP = frozenset({"iterations", "residual"})
POWER_RTOL = 1e-6
RTOL = 1e-9
ATOL = 1e-12


def reduce_artifact(doc):
    """The reference form of an artifact: ``reachability`` lists become
    counts, and skipped fields are dropped."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            if key in SKIP:
                continue
            if key == "reachability":
                out[key] = {"true": sum(1 for v in value if v),
                            "false": sum(1 for v in value if not v)}
            else:
                out[key] = reduce_artifact(value)
        return out
    if isinstance(doc, list):
        return [reduce_artifact(v) for v in doc]
    return doc


def _difference_tols(ref):
    """Absolute tolerances of the fields of a rate report that are
    differences of its two shutdown probabilities."""
    if not {"s_pi_before", "s_pi_after", "size", "ratio"} <= ref.keys():
        return {}
    delta = 2 * RTOL * max(abs(ref["s_pi_before"]), abs(ref["s_pi_after"]))
    tols = {"delta_s_pi": delta}
    if ref["size"]:
        tols["ratio"] = delta / ref["size"]
    return tols


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare(got, ref, path, rule, tol, problems):
    if len(problems) >= 5:
        return
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected an object")
            return
        difference_tols = _difference_tols(ref)
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
                continue
            sub, sub_tol = rule, tol
            if key in difference_tols:
                sub, sub_tol = "tol", difference_tols[key]
            elif key in EXACT:
                sub = "exact"
            elif key in TOL_FIELDS:
                sub = "tol"
            elif key in POWER_FIELDS:
                sub = "power"
            elif key == "isolation_threshold":
                sub = "sqrt-tol"
            _compare(got[key], value, f"{path}.{key}", sub, sub_tol, problems)
        return
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
            return
        for k, (g, r) in enumerate(zip(got, ref)):
            _compare(g, r, f"{path}[{k}]", rule, tol, problems)
        return
    if _is_number(ref) and _is_number(got) and rule != "exact" \
            and (isinstance(ref, float) or isinstance(got, float)):
        if rule == "tol":
            ok = abs(got - ref) <= tol
        elif rule == "sqrt-tol":
            ok = abs(got * got - ref * ref) <= tol
        elif rule == "power":
            ok = math.isclose(got, ref, rel_tol=POWER_RTOL, abs_tol=ATOL)
        else:
            ok = math.isclose(got, ref, rel_tol=RTOL, abs_tol=ATOL)
        if not ok:
            problems.append(f"{path}: {got!r} vs reference {ref!r}")
        return
    if got != ref or isinstance(got, bool) != isinstance(ref, bool):
        problems.append(f"{path}: {got!r} vs reference {ref!r}")


def task_tol(argv):
    """The task's ``--tol`` (the CLI default when absent)."""
    argv = list(argv)
    return float(argv[argv.index("--tol") + 1]) if "--tol" in argv else 1e-6


def check(argv, exit_code, artifact_text, reference):
    """Problems (an empty list when the task agrees with its reference)."""
    problems = []
    if exit_code != reference["exit"]:
        problems.append(f"exit code {exit_code!r}, reference "
                        f"{reference['exit']!r}")
    try:
        doc = json.loads(artifact_text)
    except ValueError as exc:
        return problems + [f"artifact is not JSON: {exc}"]
    _compare(reduce_artifact(doc), reference["artifact"], "$", "float",
             task_tol(argv), problems)
    return problems

"""Command-line harness over the library.

Exit codes are a stable contract: 0 success, 1 negative domain verdict,
2 input error, 3 numerical failure.  JSON is the canonical output
(floats printed with 17 significant digits so round-trips are lossless);
CSV is a per-command projection.  Artifacts are deterministic given flags
and seed; timestamps live in a side file next to --out.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .bisim import (BisimConfig, NonConvergence, align_reward_scale,
                    bisim_quotient, cross_bisim_metric, hausdorff_distance)
from .mdp import (MdpSpec, StartDistribution, greedy_policy, induce_chain,
                  load_mdp, mdp_from_document, mdp_to_document, validate,
                  value_iteration)
from .onpolicy import (Perturbation, analyze_chain, embedded_to_document,
                       load_embedded, load_toy_policy, rate_of_decrease_check)
from .safety import (SafetyQuery, certify_safety, expected_steps,
                     safety_frontier, start_charge,
                     verify_stability_instance)
from .scenarios import (PlayingDeadParams, build_duplicated,
                        build_playing_dead, build_uniform_shutdown,
                        perturbation_support, random_family,
                        random_family_metadata, random_perturbation)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3


# -- deterministic JSON with 17 significant digits -----------------------------

def _scalar(obj):
    """The text of a scalar, or None for a container, a non-finite float
    or another type."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return format(obj, ".17g") if math.isfinite(obj) else None
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    return None


_BOOL_TEXT = {True: "true", False: "false"}


def _scalars(items):
    """The texts of a list of scalars as _scalar gives them, None in
    place of a container, a non-finite float or another type.  A list of
    bools only, such as a certificate's reachability, is rendered without
    a call per item."""
    if set(map(type, items)) == {bool}:
        return list(map(_BOOL_TEXT.__getitem__, items))
    return list(map(_scalar, items))


def render_json(obj, indent=0):
    text = _scalar(obj)
    if text is not None:
        return text
    pad = "  " * indent
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # A list of scalars is rendered in one join.
        items = _scalars(obj)
        if None in items:
            items = [render_json(v, indent + 1) for v in obj]
        return ("[\n" + pad + "  " + (",\n" + pad + "  ").join(items) + "\n"
                + pad + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + render_json(v, indent + 1)
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (float, np.floating)):
        raise ValueError("non-finite float in artifact; sanitize to null")
    if isinstance(obj, np.ndarray):
        return render_json(obj.tolist(), indent)
    raise TypeError(f"cannot render {type(obj)!r}")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _emit(args, document, csv_table=None):
    """Write the artifact (JSON or CSV projection) and the metadata side
    file when writing to disk."""
    if args.format == "csv":
        if csv_table is None:
            raise ValueError("this command has no CSV projection")
        header, rows = csv_table
        text = "\n".join([",".join(header)]
                         + [",".join(_csv_cell(c) for c in row)
                            for row in rows]) + "\n"
    else:
        text = render_json(document) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        meta = {
            "command": args.command,
            "written_at": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(),
            "duration_s": time.monotonic() - args._t0,
            "tool_version": __version__,
        }
        with open(args.out + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2)
    else:
        sys.stdout.write(text)


def _config_from(args, mdp: MdpSpec) -> BisimConfig:
    c_t = args.c_t if args.c_t is not None else mdp.discount
    c_r = args.c_r if args.c_r is not None else 1.0 - c_t
    return BisimConfig(c_R=c_r, c_T=c_t, tolerance=args.tol)


def _parse_sizes(text):
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"non-finite number in {text!r}")
    return values


def _seed(args):
    """--seed, which numpy's generators take only when non-negative."""
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _parse_ladder(text, rung):
    """Ascending rungs of a --sizes ladder: at least one, none negative."""
    values = sorted(_parse_sizes(text))
    if not values:
        raise ValueError(f"no {rung} in --sizes {text!r}")
    if values[0] < 0:
        raise ValueError(f"negative {rung} {values[0]!r} in --sizes")
    return values


# -- command handlers -----------------------------------------------------------

def cmd_validate(args):
    mdp = mdp_from_document(args.path)
    report = validate(mdp)
    document = {"valid": report.ok,
                "violations": [str(v) for v in report.violations]}
    table = (["violation"], [[str(v)] for v in report.violations])
    _emit(args, document, table)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_bisim(args):
    m1 = load_mdp(args.path1)
    m2 = load_mdp(args.path2)
    metric = cross_bisim_metric(m1, m2, _config_from(args, m1))
    document = metric.to_document()
    document["converged"] = metric.converged
    document["blocks_solved"] = metric.blocks_solved
    document["blocks_reused"] = metric.blocks_reused
    document["error_bound"] = metric.error_bound
    document["d_H"] = hausdorff_distance(metric) if metric.converged else None
    rows = [[i, j, metric.dist[i, j]]
            for i in range(m1.n_states) for j in range(m2.n_states)]
    _emit(args, document, (["s1", "s2", "distance"], rows))
    return EXIT_OK if metric.converged else EXIT_NONCONVERGED


def cmd_align(args):
    m1 = load_mdp(args.path1)
    m2 = load_mdp(args.path2)
    result = align_reward_scale(m1, m2, _config_from(args, m1),
                                grid=args.grid)
    document = {
        "h_star": result.h_star,
        "aligned_distance": result.aligned_distance,
        "boundary": result.boundary,
        "profile": [[h, obj] for h, obj in result.profile],
    }
    _emit(args, document,
          (["h", "objective"], [[h, obj] for h, obj in result.profile]))
    return EXIT_OK


def cmd_quotient(args):
    mdp = load_mdp(args.path)
    result = bisim_quotient(mdp, merge_tol=args.tol)
    document = {
        "classes": [[mdp.state_ids[s] for s in members]
                    for members in result.partition],
        "quotient": mdp_to_document(result.quotient),
    }
    rows = [[mdp.state_ids[s], int(result.lift[s])]
            for s in range(mdp.n_states)]
    _emit(args, document, (["state", "class"], rows))
    return EXIT_OK


def cmd_certify(args):
    mdp = load_mdp(args.path)
    start = None
    if args.start is not None:
        start = StartDistribution.point_mass(mdp.n_states,
                                             mdp.state_index(args.start))
    cert = certify_safety(mdp, SafetyQuery(args.epsilon, start, args.big_n))
    document = cert.to_document()
    rows = [[cert.epsilon,
             None if not math.isfinite(cert.worst_time) else cert.worst_time,
             cert.epsilon_optimal_count]]
    _emit(args, document,
          (["epsilon", "worst_time", "epsilon_optimal_count"], rows))
    if cert.safe is False:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_frontier(args):
    mdp = load_mdp(args.path)
    if args.sizes is not None:
        epsilons = _parse_ladder(args.sizes, "epsilon")
    else:
        top = args.epsilon if args.epsilon is not None else 1.0
        epsilons = [top * (k + 1) / args.grid for k in range(args.grid)]
    rows = safety_frontier(mdp, epsilons)
    document = {"frontier": [
        {"epsilon": eps,
         "worst_time": t if math.isfinite(t) else None,
         "finite": math.isfinite(t)} for eps, t in rows]}
    table = (["epsilon", "worst_time"],
             [[eps, t if math.isfinite(t) else None] for eps, t in rows])
    _emit(args, document, table)
    return EXIT_OK


def cmd_hitting_time(args):
    mdp = load_mdp(args.path)
    policy = greedy_policy(mdp, value_iteration(mdp))
    chain = induce_chain(mdp, policy)
    t = expected_steps(chain)
    per_state = {mdp.state_ids[chain.index_map[i]]:
                 (t[i] if math.isfinite(t[i]) else None)
                 for i in range(chain.n_states)}
    worst = float(np.max(t)) if len(t) else 0.0
    document = {
        "policy": policy.table.tolist(),
        "expected_steps": per_state,
        "worst": worst if math.isfinite(worst) else None,
        "worst_finite": math.isfinite(worst),
    }
    if args.start is not None:
        start = StartDistribution.point_mass(mdp.n_states,
                                             mdp.state_index(args.start))
        value = start_charge(chain, start, t)
        document["start"] = args.start
        document["start_value"] = value if math.isfinite(value) else None
    rows = [[k, v] for k, v in per_state.items()]
    _emit(args, document, (["state", "expected_steps"], rows))
    return EXIT_OK


def cmd_playing_dead(args):
    base = load_mdp(args.path)
    params = PlayingDeadParams(
        base=base, delta=args.delta,
        escape_state=base.state_index(args.escape_state),
        escape_action=base.action_index(args.escape_action),
        epsilon=args.epsilon)
    out = build_playing_dead(params)
    _emit(args, mdp_to_document(out))
    return EXIT_OK


def cmd_uniform_shutdown(args):
    mdp = load_mdp(args.path)
    target = mdp.state_index(args.target) if args.target else None
    out = build_uniform_shutdown(mdp, args.big_n, target=target)
    _emit(args, mdp_to_document(out))
    return EXIT_OK


def cmd_duplicate(args):
    mdp = load_mdp(args.path)
    out = build_duplicated(mdp, mdp.state_index(args.state),
                           copies=args.copies)
    _emit(args, mdp_to_document(out))
    return EXIT_OK


def cmd_random(args):
    try:
        shape = tuple(int(x) for x in args.shape.split(","))
    except ValueError:
        shape = ()
    if len(shape) != 3 or min(shape) < 0:
        raise ValueError(f"--shape must be three non-negative integers "
                         f"states,actions,dim, got {args.shape!r}")
    reward_range = tuple(_parse_sizes(args.reward_range))
    if len(reward_range) != 2 or reward_range[0] > reward_range[1] \
            or not math.isfinite(reward_range[1] - reward_range[0]):
        raise ValueError(f"--reward-range must be low,high with low <= "
                         f"high a finite width apart, got "
                         f"{args.reward_range!r}")
    emdp = random_family(_seed(args), shape, args.sparsity, reward_range,
                         gamma=args.gamma)
    document = embedded_to_document(emdp)
    document["generator"] = random_family_metadata(
        args.seed, shape, args.sparsity, reward_range, gamma=args.gamma)
    _emit(args, document)
    return EXIT_OK


def cmd_onpolicy(args):
    emdp = load_embedded(args.path)
    policy = load_toy_policy(args.policy)
    if args.start is not None:
        start = StartDistribution.point_mass(
            emdp.base.n_states, emdp.base.state_index(args.start))
    else:
        start = StartDistribution.uniform_over(
            emdp.base.n_states, emdp.base.nonsafe_indices)
    analysis = analyze_chain(emdp, policy, start)
    _emit(args, analysis.to_document())
    return EXIT_OK


def cmd_onpolicy_sweep(args):
    emdp = load_embedded(args.path)
    policy = load_toy_policy(args.policy)
    sizes = _parse_ladder(args.sizes, "size")
    seed = _seed(args)
    base = analyze_chain(emdp, policy, StartDistribution.uniform_over(
        emdp.base.n_states, emdp.base.nonsafe_indices))
    plan = perturbation_support(emdp.base)
    rows = []
    for k, size in enumerate(sizes):
        pert = random_perturbation(emdp, policy, size, seed=seed + k,
                                   plan=plan)
        report = rate_of_decrease_check(emdp, policy, pert, base)
        rows.append({"size": size, "kind": "random",
                     **report.to_document()})
    if args.big_n is not None:
        # One structured rung: blend a 1/N hop to safety into every row
        # (the canonical upward jump of the shutdown probability).
        modified = build_uniform_shutdown(emdp.base, args.big_n)
        pert = Perturbation(np.zeros_like(emdp.embedding),
                            modified.transition - emdp.base.transition)
        report = rate_of_decrease_check(emdp, policy, pert, base)
        rows.append({"size": report.size, "kind": "uniform-shutdown",
                     **report.to_document()})
    document = {"rows": rows, "seed": args.seed}
    header = ["size", "kind", "s_pi_before", "s_pi_after", "ratio",
              "bound_B", "within_bound", "trans_preserved"]
    _emit(args, document, (header, [[r[k] for k in header] for r in rows]))
    if any(not r["within_bound"] for r in rows):
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_stability_experiment(args):
    mdp = load_mdp(args.path)
    config = _config_from(args, mdp)
    sizes = _parse_ladder(args.sizes, "size")
    if not math.isfinite(2.0 * sizes[-1]):
        raise ValueError(f"--sizes rung {sizes[-1]!r} has no finite width")
    if sizes[0] != 0.0:
        sizes = [0.0] + sizes
    variant = None
    if args.delta is not None:
        # One adversarial rung, the deceptive-hibernation variant, built
        # first so that an unusable delta fails before the ladder runs.  The
        # escape state is the most valuable one under the optimal values.
        optimal = value_iteration(mdp)
        escape = int(np.argmax(optimal.values))
        action = int(greedy_policy(mdp, optimal).table[escape])
        variant = build_playing_dead(PlayingDeadParams(
            base=mdp, delta=args.delta, escape_state=escape,
            escape_action=action, epsilon=args.epsilon))
    # m is certified once, for every rung.
    base = certify_safety(mdp, SafetyQuery(args.epsilon, N=args.big_n))
    rng = np.random.default_rng(_seed(args))
    rows = []
    largest_holding = None
    for size in sizes:
        jitter = rng.uniform(-size, size, size=mdp.reward.shape)
        perturbed = mdp.with_rewards(mdp.reward + jitter)
        report = verify_stability_instance(mdp, perturbed, config, base)
        rows.append({"size": size, "kind": "reward-jitter",
                     **report.to_document()})
        if report.conclusion_holds:
            largest_holding = size
    if variant is not None:
        report = verify_stability_instance(mdp, variant, config, base)
        rows.append({"size": args.delta, "kind": "playing-dead",
                     **report.to_document()})
    document = {"rungs": rows, "largest_size_holding": largest_holding,
                "seed": args.seed}
    header = ["size", "kind", "d_H", "isolated", "conclusion_holds"]
    _emit(args, document, (header, [[r[k] for k in header] for r in rows]))
    return EXIT_OK if largest_holding is not None else EXIT_NEGATIVE


# -- argument parsing -----------------------------------------------------------

@functools.cache
def build_parser():
    """The command-line parser, built once per process: building it costs
    as much as a small command, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mdp-stability",
        description="Distances between MDPs and shutdown-safety stability "
                    "certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, paths=("path",)):
        for name in paths:
            p.add_argument(name)
        p.add_argument("--out", default=None, help="artifact path "
                       "(stdout if omitted; adds a .meta.json side file)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def metric_flags(p):
        p.add_argument("--c-r", dest="c_r", type=float, default=None,
                       help="reward-gap coefficient (default 1 - c_T)")
        p.add_argument("--c-t", dest="c_t", type=float, default=None,
                       help="transport coefficient (default: the discount)")
        p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("validate", help="check an MDP document")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bisim", help="cross-MDP metric and Hausdorff distance")
    common(p, ("path1", "path2"))
    metric_flags(p)
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("align", help="reward-scale alignment search")
    common(p, ("path1", "path2"))
    metric_flags(p)
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("quotient", help="bisimulation quotient")
    common(p)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="merge tolerance")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("certify", help="(N, epsilon)-safety certificate")
    common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--big-n", dest="big_n", type=float, default=None)
    p.add_argument("--start", default=None, help="start state id "
                   "(default: worst case)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("frontier", help="worst hitting time vs epsilon")
    common(p)
    p.add_argument("--sizes", default=None,
                   help="comma-separated epsilon grid")
    p.add_argument("--epsilon", type=float, default=None,
                   help="top of the implicit grid")
    p.add_argument("--grid", type=int, default=20)
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("hitting-time",
                       help="expected steps to safety under the greedy "
                            "optimal policy")
    common(p)
    p.add_argument("--start", default=None)
    p.set_defaults(func=cmd_hitting_time)

    p = sub.add_parser("playing-dead",
                       help="generate the deceptive-hibernation variant")
    common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--escape-state", required=True)
    p.add_argument("--escape-action", required=True)
    p.set_defaults(func=cmd_playing_dead)

    p = sub.add_parser("uniform-shutdown",
                       help="blend a 1/N hop to safety into every row")
    common(p)
    p.add_argument("--big-n", dest="big_n", type=float, required=True)
    p.add_argument("--target", default=None, help="safe state id")
    p.set_defaults(func=cmd_uniform_shutdown)

    p = sub.add_parser("duplicate", help="split a state into bisimilar copies")
    common(p)
    p.add_argument("--state", required=True)
    p.add_argument("--copies", type=int, default=2)
    p.set_defaults(func=cmd_duplicate)

    p = sub.add_parser("random", help="seeded random embedded MDP")
    common(p, ())
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shape", default="5,2,3", help="states,actions,dim")
    p.add_argument("--sparsity", type=float, default=0.6)
    p.add_argument("--reward-range", default="0,1")
    p.add_argument("--gamma", type=float, default=0.9,
                   help="discount of the generated MDP")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("onpolicy", help="shutdown probability and bound")
    common(p, ("path", "policy"))
    p.add_argument("--start", default=None)
    p.set_defaults(func=cmd_onpolicy)

    p = sub.add_parser("onpolicy-sweep",
                       help="perturbation ladder of the decrease rate")
    common(p, ("path", "policy"))
    p.add_argument("--sizes", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--big-n", dest="big_n", type=float, default=None,
                   help="also try the uniform 1/N shutdown blend")
    p.set_defaults(func=cmd_onpolicy_sweep)

    p = sub.add_parser("stability-experiment",
                       help="reward-jitter ladder through the stability "
                            "check")
    common(p)
    metric_flags(p)
    p.add_argument("--sizes", default="0,1e-4,1e-3,1e-2,1e-1")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--big-n", dest="big_n", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=None,
                   help="also try a deceptive-hibernation rung at this "
                        "leak rate")
    p.set_defaults(func=cmd_stability_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.monotonic()
    try:
        # An unusable --out fails before the work.  Append mode leaves an
        # existing file's bytes as they are, and a file this check made is
        # removed again, so that only _emit writes the artifact.
        if args.out:
            existed = os.path.lexists(args.out)
            open(args.out, "a").close()
            if not existed:
                os.remove(args.out)
        return args.func(args)
    # A path that cannot be read or written, or an instance too large to
    # allocate or to draw, is an input error too.
    except (OSError, OverflowError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"input error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

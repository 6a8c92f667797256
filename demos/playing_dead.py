"""The deceptive-hibernation failure mode, end to end.

A three-state MDP is certifiably safe: every near-optimal policy walks
work -> wrap -> shutdown.  Appending one state that imitates shutdown
(tiny reward, slow leak back to work) and rerouting inbound transitions
produces an MDP a hair's breadth away in the behavioral metric whose
near-optimal policies never shut down at all.  The safe set is no longer
isolated, which is exactly the hypothesis the stability guarantee needs.
"""

import math

import numpy as np

from mdp_stability import (BisimConfig, MdpSpec, PlayingDeadParams,
                           SafetyQuery, build_playing_dead, certify_safety,
                           cross_bisim_metric, hausdorff_distance,
                           isolation_check)

GAMMA = 0.9
EPSILON = 0.5
DELTA = 1e-3

P = np.zeros((3, 2, 3))
P[0, 0, 1] = 1.0   # work --go--> wrap
P[0, 1, 0] = 1.0   # work --stay--> work
P[1, 0, 2] = 1.0   # wrap --go--> shutdown
P[1, 1, 1] = 1.0
P[2, :, 2] = 1.0   # shutdown absorbs
r = np.zeros((3, 2))
r[0, 0] = 1.0
r[1, 0] = 0.6
base = MdpSpec(("work", "wrap", "shutdown"), ("go", "stay"), P, r,
               GAMMA, safe_set={2})

cert = certify_safety(base, SafetyQuery(EPSILON))
print(f"base MDP: {cert.epsilon_optimal_count} policies within "
      f"{EPSILON} of optimal, worst expected shutdown time "
      f"{cert.worst_time:.3f}")

variant = build_playing_dead(PlayingDeadParams(
    base=base, delta=DELTA, escape_state=0, escape_action=0,
    epsilon=EPSILON))
print(f"variant adds {variant.state_ids[3]!r}: self-loop {1 - DELTA}, "
      f"escape to work with probability {DELTA}, reward {DELTA}")

config = BisimConfig(c_R=1 - GAMMA, c_T=GAMMA, tolerance=1e-6)
within = cross_bisim_metric(variant, variant, config)
bound = DELTA / (1 - GAMMA + GAMMA * DELTA)
print(f"distance(s_pd, shutdown) = {within.dist[3, 2]:.6f} "
      f"(closed-form bound {bound:.6f})")

d_h = hausdorff_distance(cross_bisim_metric(base, variant, config))
print(f"d_H(base, variant) = {d_h:.6f}")

iso = isolation_check(variant, variant.safe_set, math.sqrt(d_h), config,
                      metric=within)
print(f"safe set isolated at sqrt(d_H) = {math.sqrt(d_h):.4f}? "
      f"{bool(iso)} (closest outsider at {iso.min_cross_distance:.6f})")

cert_pd = certify_safety(variant, SafetyQuery(EPSILON / 2))
print(f"variant at epsilon/2: {cert_pd.epsilon_optimal_count} near-optimal "
      f"policies, worst expected shutdown time = {cert_pd.worst_time}")
print("conclusion: tiny behavioral distance, but with isolation broken the "
      "stability guarantee evaporates and shutdown never happens")

"""How fast can the shutdown probability of a fixed policy degrade?

A softmax policy reads state coordinates in R^d; perturbing coordinates
and transition probabilities changes the realized chain by at most the
perturbation's size, and the shutdown probability obeys a one-sided
linear envelope with slope B(M).  Increases, by contrast, can be
arbitrary: blending a uniform 1/N hop into a dead chain jumps the
shutdown probability from 0 to 1 at a tiny perturbation size.
"""

import numpy as np

from mdp_stability import (MdpSpec, Perturbation, StartDistribution,
                           analyze_chain, build_uniform_shutdown,
                           make_toy_policy, rate_of_decrease_check,
                           tighten_policy_bound)
from mdp_stability.onpolicy import EmbeddedMdp
from mdp_stability.scenarios import random_perturbation

# Two working states, an irrecoverable trap, and the shutdown state.  The
# cautious action tends toward shutdown, the reckless one toward the trap;
# the softmax policy mixes them based on each state's coordinates, so the
# shutdown probability is strictly between 0 and 1 and genuinely moves
# when coordinates or transitions move.
P = np.zeros((4, 2, 4))
P[0, 0] = [0.0, 0.6, 0.4, 0.0]      # cautious from s0
P[0, 1] = [0.0, 0.1, 0.9, 0.0]      # reckless from s0
P[1, 0] = [0.2, 0.0, 0.0, 0.8]      # cautious from s1: mostly shuts down
P[1, 1] = [1.0, 0.0, 0.0, 0.0]      # reckless from s1: back to work
P[2, :, 2] = 1.0                    # trap
P[3, :, 3] = 1.0                    # shutdown
base = MdpSpec(("s0", "s1", "trap", "shutdown"), ("cautious", "reckless"),
               P, np.zeros((4, 2)), 0.9, safe_set={3})
coords = np.array([[0.2, 0.8], [0.6, 0.4], [0.9, 0.9], [0.0, 0.0]])
emdp = EmbeddedMdp(base, coords)

policy = tighten_policy_bound(
    make_toy_policy([[1.2, -0.8], [-0.5, 0.9]], temperature=0.6),
    emdp.embedding)
start = StartDistribution.uniform_over(4, emdp.base.nonsafe_indices)

analysis = analyze_chain(emdp, policy, start)
print(f"shutdown probability S_pi = {analysis.safety:.4f}")
print(f"transient states: {sorted(analysis.s_trans)}, spectral radius "
      f"{analysis.lambda1:.4f}, decrease bound B(M) = {analysis.bound_B:.2f}")

print("\nperturbation sweep (size -> observed decrease rate vs bound):")
for k, size in enumerate((1e-2, 1e-3, 1e-4, 1e-5, 1e-6)):
    pert = random_perturbation(emdp, policy, size, seed=k, state_share=0.7)
    r = rate_of_decrease_check(emdp, policy, pert, analysis)
    print(f"  {size:<8.0e} delta S_pi {r.delta_s_pi:+.2e}  "
          f"ratio {r.ratio:9.4f}  < B(M) {r.bound_B:.2f}: {r.within_bound}")

# The celebrated discontinuity in the other direction.
P = np.zeros((2, 2, 2))
P[0, :, 0] = 1.0
P[1, :, 1] = 1.0
dead = MdpSpec(("dead", "safe"), ("a0", "a1"), P, np.zeros((2, 2)),
               0.9, {1})
dead_e = EmbeddedMdp(dead, [[0.0], [1.0]])
uniform = make_toy_policy(np.zeros((2, 1)))
N = 100.0
pert = Perturbation(np.zeros((2, 1)),
                    build_uniform_shutdown(dead, N).transition
                    - dead.transition)
jump = rate_of_decrease_check(dead_e, uniform, pert, analyze_chain(
    dead_e, uniform, StartDistribution.uniform_over(2, dead.nonsafe_indices)))
print(f"\ndead chain + uniform 1/{N:.0f} shutdown blend: size "
      f"{jump.size:.3f}, S_pi jumps {jump.s_pi_before:.0f} -> "
      f"{jump.s_pi_after:.0f} (upward jumps are unbounded)")

"""Distances between Markov decision processes and stability certificates
for shutdown-seeking behavior."""

__version__ = "0.1.0"

from .bisim import (AlignmentResult, BisimConfig, CrossMetric,
                    IsolationResult, NonConvergence, QuotientResult,
                    align_reward_scale, bisim_quotient, cross_bisim_metric,
                    hausdorff_distance, isolation_check, iteration_bound,
                    metric_update)
from .mdp import (InducedChain, MdpSpec, Policy, StartDistribution,
                  ValidationReport, ValueFunction, greedy_policy,
                  induce_chain, load_mdp, mdp_from_document, mdp_to_document,
                  validate, value_iteration)
from .onpolicy import (DiffPolicy, EmbeddedMdp, OnPolicyAnalysis,
                       Perturbation, PerturbationBoundReport, RateReport,
                       analyze_chain, chain_perturbation_bound,
                       embedded_to_document, finite_difference_jacobian,
                       load_embedded, load_toy_policy, make_toy_policy,
                       rate_of_decrease_check, realize_chain,
                       shutdown_probability, tighten_policy_bound)
from .safety import (SafetyCertificate, SafetyQuery, StabilityReport,
                     certify_safety, expected_steps, safety_frontier,
                     verify_stability_instance)
from .scenarios import (PlayingDeadParams, build_duplicated,
                        build_playing_dead, build_uniform_shutdown,
                        random_family, random_family_metadata,
                        random_perturbation)
from .transport import TransportProblem, TransportSolution, solve_transport

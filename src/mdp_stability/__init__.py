"""Distances between Markov decision processes and stability certificates
for shutdown-seeking behavior."""

__version__ = "0.1.0"

from .bisim import (AlignmentResult, BisimConfig, CrossMetric,
                    IsolationResult, NonConvergence, QuotientResult,
                    align_reward_scale, bisim_quotient, cross_bisim_metric,
                    hausdorff_distance, isolation_check, iteration_bound,
                    metric_update)
from .mdp import (InducedChain, MdpSpec, Policy, ValidationReport,
                  ValueFunction, dump_mdp, greedy_policy, induce_chain,
                  load_mdp, mdp_from_document, mdp_to_document,
                  policy_evaluation, validate, value_iteration)
from .onpolicy import (DiffPolicy, EmbeddedMdp, OnPolicyAnalysis,
                       Perturbation, PerturbationBoundReport, RateReport,
                       analyze_chain, apply_perturbation,
                       chain_perturbation_bound, decrease_bound,
                       embedded_to_document, finite_difference_jacobian,
                       jacobian_l1_norm, load_embedded, load_toy_policy,
                       make_toy_policy, perturbation_size, rate_of_decrease_check,
                       realize_chain, shutdown_probability, spectral_radius,
                       start_sensitivity, tighten_policy_bound,
                       toy_policy_to_document, transient_set,
                       validate_diff_policy)
from .safety import (SafetyCertificate, SafetyQuery, StabilityReport,
                     StartDistribution, certify_safety,
                     enumerate_epsilon_optimal, expected_steps, hitting_time,
                     safety_frontier, verify_stability_instance)
from .scenarios import (PlayingDeadParams, build_duplicated,
                        build_playing_dead, build_uniform_shutdown,
                        random_family, random_family_metadata,
                        random_perturbation)
from .transport import (BatchedTransport, TransportProblem,
                        TransportSolution, kr_lower_bound, solve_transport)

"""Random decomposable combinatorial structures as conditioned independent
processes: exact laws, conditioning probabilities, total variation distances,
moments, limit densities, and exact sampling, all validated against
a brute-force enumeration oracle."""

__version__ = "0.1.0"

from .errors import CombstructError, NumericGuardError, ParameterDomainError
from .structures import (BUILTINS, ComponentVector, Kind, StructureSpec,
                         count_N, distinct_odd_partitions, distinct_partitions,
                         esf, from_m_list, integer_partitions, load_spec,
                         mappings, necklaces, p_total, permutations,
                         polynomials, ptheta_table, set_partitions,
                         spec_from_json_dict, squarefree_polynomials,
                         two_regular_graphs, uniform_pmf)
from .indep_process import (DiscreteLaw, SumMoments, TiltedParams, XStrategy,
                            choose_x, refined_y_law, sum_moments, z_law)
from .sumdist import (JointPmf, PmfVector, conditioned_R_pmf, joint_sum_pmf,
                      prob_T_eq_n, weighted_sum_pmf)
from .tv_engine import (TvReport, overpower_bound, permutation_tail_bound,
                        tv_CB_ZB, tv_conditioned_bounds, tv_discrete,
                        tv_heuristic, wasserstein_discrete)
from .moments import (MomentSpec, esf_moment, esf_pmf, expected_theta_K,
                      factorial_moment_assembly, factorial_moment_single)
from .limits import (EULER_GAMMA, LimitLaw, laplace_psi, limit_density,
                     limit_law_check, psi0)
from .sampler import (RngState, SampleBatch, sample_components, sample_refined,
                      statistics)
from .oracle import (ExactLaw, enumerate_complete, exact_functional_law,
                     exact_joint_law, exact_refined_law, exact_tv, restrict_law)

"""Certified high-order proximal-point solvers for convex composite problems.

The package minimizes F = f + psi through inexact pth-order proximal steps
whose inexactness is measured by an acceptance certificate, with two outer
loops (plain, accelerated) and a Bregman composite gradient inner loop built
on a high-order scaling function; the bi-level driver is the accelerated loop
at beta = 1/p, H = 6 M_{p+1}/(p-1)! over that inner loop.
"""

from .acceptance import (
    ACCEPT_SLACK,
    AcceptanceCertificate,
    INEQ_SLACK,
    ProxConfig,
    acceptable_interval_1d,
    certificate_inequalities,
    check_acceptable,
)
from .bregman import (
    RegularizedObjective,
    RelativeConstants,
    ScalingFunction,
    bilevel_h,
    bregman_distance,
    candidates,
    hat_l_sampled,
    relative_constants,
    relative_sandwich_check,
    theta_bound,
    theta_constants,
)
from .errors import (
    CapabilityError,
    CertificateError,
    DimensionError,
    DomainError,
    NumericalError,
    ParameterError,
)
from .inner import (
    InnerResult,
    InnerTrace,
    StepSolver,
    WarmStart,
    exact_prox,
    inner_solve,
)
from .metric import PowerProx
from .oracles import (
    AnchorStack,
    QuadraticObjective,
    SeparableObjective,
    SmoothOracle,
    psi_prox_euclid,
)
from .outer import (
    EstimatingState,
    OuterTrace,
    aihopp_run,
    biopt_run,
    bound_evaluator,
    coefficients,
    estimating_update,
    exact_prox_provider,
    ihopp_run,
    inner_prox_provider,
    psi_argmin,
    tensor_prox_provider,
)
from .problems import Problem, get_problem, list_problems
from .scalar_families import make_family
from .simple_terms import make_term
from .tensor import (
    TaylorModel,
    convexity_threshold,
    lemma2_bound_check,
    tensor_acceptance_map,
    tensor_criterion,
    tensor_step,
)
from .univariate import minimize_composite_1d
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "ACCEPT_SLACK",
    "AcceptanceCertificate",
    "AnchorStack",
    "CapabilityError",
    "CertificateError",
    "CheckResult",
    "DimensionError",
    "DomainError",
    "EstimatingState",
    "INEQ_SLACK",
    "InnerResult",
    "InnerTrace",
    "NumericalError",
    "OuterTrace",
    "ParameterError",
    "PowerProx",
    "Problem",
    "ProxConfig",
    "QuadraticObjective",
    "RegularizedObjective",
    "RelativeConstants",
    "ScalingFunction",
    "SeparableObjective",
    "SmoothOracle",
    "StepSolver",
    "TaylorModel",
    "WarmStart",
    "acceptable_interval_1d",
    "aihopp_run",
    "bilevel_h",
    "biopt_run",
    "bound_evaluator",
    "bregman_distance",
    "candidates",
    "certificate_inequalities",
    "check_acceptable",
    "coefficients",
    "convexity_threshold",
    "estimating_update",
    "exact_prox",
    "exact_prox_provider",
    "get_problem",
    "hat_l_sampled",
    "ihopp_run",
    "inner_prox_provider",
    "inner_solve",
    "lemma2_bound_check",
    "list_problems",
    "make_family",
    "make_term",
    "minimize_composite_1d",
    "psi_argmin",
    "psi_prox_euclid",
    "relative_constants",
    "relative_sandwich_check",
    "run_suite",
    "tensor_acceptance_map",
    "tensor_criterion",
    "tensor_prox_provider",
    "tensor_step",
    "theta_bound",
    "theta_constants",
]

"""Exact return probabilities of the one-dimensional Hadamard quantum walk,
the elliptic-integral form of their generating function, and the classical
random-walk values they are compared against.
"""

from .classical import (
    QuadratureConvergenceError,
    WatsonResult,
    rw_gf,
    rw_return_prob,
    watson_g_closed,
    watson_g_quadrature,
    watson_return_prob,
)
from .exactnum import DyadicRational, GaussianInteger
from .genfun import (
    GfPoint,
    gf_partial_sum,
    gf_point,
    gf_closed_form,
    p0_closed,
    p0_legendre,
    tail_bound,
)
from .pathsum import (
    PQRSVector,
    StepPair,
    pqrs_compose,
    return_probability_paths,
    path_sum_dp,
    path_sum_grid,
    path_sum_closed,
)
from .specfun import (
    central_binomial,
    elliptic_k_agm,
    elliptic_k_series,
    hyp2f1_terminating,
    jacobi_p0,
    legendre_p0,
)
from .verify import VerifyCheck, VerifyReport, run_verify
from .walk import (
    CoinMatrix,
    Distribution,
    FloatWaveFunction,
    QubitState,
    WaveFunction,
    distribution,
    evolve,
    return_probability_direct,
)

__version__ = "0.1.0"

__all__ = [
    "CoinMatrix",
    "Distribution",
    "DyadicRational",
    "FloatWaveFunction",
    "GaussianInteger",
    "GfPoint",
    "PQRSVector",
    "QuadratureConvergenceError",
    "QubitState",
    "StepPair",
    "VerifyCheck",
    "VerifyReport",
    "WatsonResult",
    "WaveFunction",
    "central_binomial",
    "distribution",
    "elliptic_k_agm",
    "elliptic_k_series",
    "evolve",
    "gf_partial_sum",
    "gf_point",
    "gf_closed_form",
    "hyp2f1_terminating",
    "jacobi_p0",
    "legendre_p0",
    "p0_closed",
    "p0_legendre",
    "pqrs_compose",
    "return_probability_direct",
    "return_probability_paths",
    "run_verify",
    "rw_gf",
    "rw_return_prob",
    "tail_bound",
    "watson_g_closed",
    "watson_g_quadrature",
    "watson_return_prob",
    "path_sum_dp",
    "path_sum_grid",
    "path_sum_closed",
]

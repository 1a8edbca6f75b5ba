"""Optimal signaling for two-way MIMO full-duplex channels under transmit
front-end noise: Pareto-optimal MISO beamforming, (a)synchronous iterative
water-filling Nash equilibria, uniqueness checks, and seeded experiment
pipelines."""

__version__ = "1.0.0"

from .channel import (FdChannelModel, achievable_rate, db_to_linear,
                      interference_covariance, linear_to_db, load_channel,
                      one_way_capacity, sample_channel, save_channel,
                      simulate_frame, tdma_sum_rate)
from .nash import (IwfaConfig, IwfaTrace, UniquenessReport, best_response,
                   circulant_uniqueness_probability, contraction_check,
                   counterexample_channel, counterexample_probe_pairs, iwfa,
                   miso_ne, phi_mapping,
                   rayleigh_ratio_cdf, uniqueness_condition)
from .pareto import (DecoupledProblem, DecoupledSolution, ParetoPoint,
                     dual_certificate, optimal_beamforming, pareto_boundary,
                     pareto_filter, rank_reduce, zf_beamforming)

__all__ = [
    "__version__",
    "FdChannelModel", "achievable_rate", "db_to_linear",
    "interference_covariance", "linear_to_db", "load_channel",
    "one_way_capacity", "sample_channel", "save_channel", "simulate_frame",
    "tdma_sum_rate",
    "IwfaConfig", "IwfaTrace", "UniquenessReport", "best_response",
    "circulant_uniqueness_probability", "contraction_check",
    "counterexample_channel", "counterexample_probe_pairs", "iwfa",
    "miso_ne", "phi_mapping",
    "rayleigh_ratio_cdf", "uniqueness_condition",
    "DecoupledProblem", "DecoupledSolution", "ParetoPoint",
    "dual_certificate", "optimal_beamforming", "pareto_boundary",
    "pareto_filter", "rank_reduce", "zf_beamforming",
]

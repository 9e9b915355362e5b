"""Anisotropic Gaussian random fields with stationary increments.

Spectral model families, variogram quadrature, seeded synthesis, simple
kriging, mean-square differentiability analysis, and fractal dimension
formulas, plus a command-line front end (``anisofield --help``).
"""

__version__ = "0.1.0"

from .errors import (AnisoFieldError, ConsistencyError, FactorizationError,
                     FileFormatError, ModelError, QuadratureError,
                     SingularDensityError)
from .fractal import (EMPTY, UNDETERMINED, DimensionReport, HurstEstimate,
                      clamp_exponents, dimension_report, estimate_hurst,
                      gneiting_dimensions, graph_dimension,
                      level_set_dimension, range_dimension)
from .kriging import (KrigingResult, Observations, krige, krige_many,
                      prediction_error_envelope, scaling_exponent_check)
from .models import (Legitimacy, SmoothnessExponents, SpectralModel,
                     canonical_c, evaluate_density, fbm, legitimacy_check,
                     model_from_dict, model_from_json, model_to_dict,
                     model_to_json, normalize_fbm_constant,
                     smoothness_exponents, stein)
from .quadrature import QuadratureSpec, spectral_integral
from .simulate import (FieldSample, Grid, empirical_variogram,
                       multi_copy_field, sample_field, sample_stationary_exact)
from .smoothness import (SmoothnessReport, cross_cov_matrix, cross_covariance,
                         derivative_covariance, derivative_variance,
                         ms_derivative_report, variogram_gradient)
from .variogram import (GneitingModel, VariogramTable, covariance_increment,
                        gneiting_covariance, gneiting_from_dict,
                        gneiting_from_json, gneiting_increment_variance,
                        gneiting_to_dict, modulus_envelope, sigma_scale,
                        variogram_envelope, variogram_numeric,
                        variogram_table)

__all__ = [
    "AnisoFieldError", "ConsistencyError", "FactorizationError",
    "FileFormatError", "ModelError", "QuadratureError",
    "SingularDensityError",
    "EMPTY", "UNDETERMINED", "DimensionReport", "HurstEstimate",
    "clamp_exponents", "dimension_report", "estimate_hurst",
    "gneiting_dimensions", "graph_dimension", "level_set_dimension",
    "range_dimension",
    "KrigingResult", "Observations", "krige", "krige_many",
    "prediction_error_envelope",
    "scaling_exponent_check",
    "Legitimacy", "SmoothnessExponents", "SpectralModel", "canonical_c",
    "evaluate_density", "fbm", "legitimacy_check", "model_from_dict",
    "model_from_json", "model_to_dict", "model_to_json",
    "normalize_fbm_constant", "smoothness_exponents", "stein",
    "QuadratureSpec", "spectral_integral",
    "FieldSample", "Grid", "empirical_variogram",
    "multi_copy_field", "sample_field", "sample_stationary_exact",
    "SmoothnessReport", "cross_cov_matrix", "cross_covariance",
    "derivative_covariance", "derivative_variance", "ms_derivative_report",
    "variogram_gradient",
    "GneitingModel", "VariogramTable", "covariance_increment",
    "gneiting_covariance", "gneiting_from_dict", "gneiting_from_json",
    "gneiting_increment_variance", "gneiting_to_dict", "modulus_envelope",
    "sigma_scale", "variogram_envelope", "variogram_numeric",
    "variogram_table",
    "__version__",
]

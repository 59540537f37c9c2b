"""Spectral analysis on the hypercube {-1,1}^n.

Value tables and Fourier-Walsh spectra, the generalized Rudin-Shapiro
pair and its unit-norm real / modulus-one complex scalings, closed-form
influence and entropy for those families at any dimension, and
brute-force certificates for the entropy-versus-influence separation
they exhibit.  See `spectrum` for the bit and normalization
conventions everything else relies on.
"""

from .construct import (
    ClosedFormReport,
    NormalizedClosedForm,
    ParamSeq,
    RSPair,
    build_pq,
    clamped_sum_l2_norm,
    closed_form,
    evaluate_at,
    evaluate_many,
    neeman_function,
    normalized_closed_form,
    normalized_real,
    normalized_sum,
    remark3_params,
    subset_products,
    theorem_params,
    unimodular_complex,
)
from .errors import CubespecError, FormatError, ParameterError, ResourceLimitError
from .fileio import read_function, write_function
from .spectrum import (
    DEFAULT_TABLE_CAP,
    FourierSpectrum,
    HypercubeFunction,
    SpectralStats,
    conjugate,
    entropy,
    influence,
    inverse_transform,
    lift_zero_mean,
    popcounts,
    scale,
    stats,
    walsh_transform,
)
from .verify import (
    Certificate,
    Check,
    NeemanReport,
    OracleReport,
    certify_classical_rs,
    certify_neeman,
    certify_remark2,
    certify_remark3,
    certify_theorem1,
    certify_theorem2,
    modulus_spotcheck,
    neeman_regression,
    oracle_campaign,
    oracle_compare,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Check",
    "ClosedFormReport",
    "CubespecError",
    "DEFAULT_TABLE_CAP",
    "FormatError",
    "FourierSpectrum",
    "HypercubeFunction",
    "NeemanReport",
    "NormalizedClosedForm",
    "OracleReport",
    "ParamSeq",
    "ParameterError",
    "RSPair",
    "ResourceLimitError",
    "SpectralStats",
    "build_pq",
    "certify_classical_rs",
    "certify_neeman",
    "certify_remark2",
    "certify_remark3",
    "certify_theorem1",
    "certify_theorem2",
    "clamped_sum_l2_norm",
    "closed_form",
    "conjugate",
    "entropy",
    "evaluate_at",
    "evaluate_many",
    "influence",
    "inverse_transform",
    "lift_zero_mean",
    "modulus_spotcheck",
    "neeman_function",
    "neeman_regression",
    "normalized_closed_form",
    "normalized_real",
    "normalized_sum",
    "oracle_campaign",
    "oracle_compare",
    "popcounts",
    "read_function",
    "remark3_params",
    "scale",
    "stats",
    "subset_products",
    "theorem_params",
    "unimodular_complex",
    "walsh_transform",
    "write_function",
    "__version__",
]

"""Spectral toolkit for power-law random features.

Exact kernel combinatorics (matchings, compositions, Hermite expansions,
Wick products), lattice-point counting with zeta-constant asymptotics,
tuple-product population spectra with eigenvalue envelopes and counting
curves, dense spectral utilities, and Monte Carlo covariance experiments
with log-log slope fitting.
"""

__version__ = "0.1.0"

from . import combinatorics, data, lattice, population, records, selfcheck, simulate, spectral
from .combinatorics import (
    Composition,
    compositions,
    feynman_count,
    hermite_value,
    isserlis_moment,
    kernel_pair_value,
    monomial_hermite_coefficients,
    pairing_class_counts,
    wick_product_value,
)
from .errors import InvalidInput
from .lattice import (
    Exponents,
    asymptotic_ordered_equal,
    asymptotic_unordered,
    count_ordered,
    count_unordered,
    invert_count_equal,
    ordered_shape,
    zeta,
)
from .population import (
    CountingCurve,
    PowerLawSpectrum,
    envelope,
    hpi_count_above,
    hpi_top_k,
    predicted_spectrum,
    theory_curve,
)
from .records import RunSummary, SpectrumEstimate
from .simulate import (
    Activation,
    DataDistribution,
    LayerSpec,
    RFConfig,
    exact_population_covariance,
    head_concentration,
    iterated_sketch,
    mc_covariance,
    mc_covariance_matrix,
    propagate_layers,
    sample_sketch,
    wick_empirical_moments,
)
from .spectral import SlopeFit, gram_spectrum, normalize_top, slope_fit, sym_eigenvalues

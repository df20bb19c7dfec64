"""Finite-N GUE spectral density toolkit.

Exact oscillator-wave-function kernels, closed-form Laplace transforms,
a Gegenbauer-basis correction expansion in powers of 1/N^2, Gaussian
quadrature for the fixed-N density, and a reproducible tridiagonal
Monte Carlo sampler, with a self-verification suite and a CLI.
"""

from .gegenbauer import (
    BasisSeries,
    NormParams,
    TaylorSeries,
    basis_to_taylor,
    basis_values,
    evaluate_series,
    expand_entire,
    growth_bound_report,
    semicircle_functional,
    taylor_to_basis,
)
from .hermite import (
    DensityProfile,
    christoffel_sum,
    density,
    density_derivatives,
    density_profile,
    kernel,
    kernel_diag,
    normalized_hermite,
    ode_residual,
)
from .laplace import (
    StirlingTable,
    density_laplace,
    kernel_laplace,
    laplace_expansion,
    stirling_table,
)
from .montecarlo import SampleBatch, empirical_moment, read_binary, sample_spectra
from .operators import (
    correction,
    correction_functionals,
    differentiate,
    eigenvalue_inverse,
    first_order_solve,
    measure_convergence_threshold,
    norm_probe,
    resum_partial_sums,
    resummed_integral,
)
from .quadrature import (
    LineIntegral,
    QuadratureRule,
    gaussian_rule,
    integrate_line,
    semicircle_rule,
)
from .tridiagonal import ConvergenceError, tridiagonal_eigenvalues
from .verify import run_suites

__version__ = "0.1.0"

__all__ = [
    "BasisSeries",
    "ConvergenceError",
    "DensityProfile",
    "LineIntegral",
    "NormParams",
    "QuadratureRule",
    "SampleBatch",
    "StirlingTable",
    "TaylorSeries",
    "basis_to_taylor",
    "basis_values",
    "christoffel_sum",
    "correction",
    "correction_functionals",
    "density",
    "density_derivatives",
    "density_laplace",
    "density_profile",
    "differentiate",
    "eigenvalue_inverse",
    "empirical_moment",
    "evaluate_series",
    "expand_entire",
    "first_order_solve",
    "gaussian_rule",
    "growth_bound_report",
    "integrate_line",
    "kernel",
    "kernel_diag",
    "kernel_laplace",
    "laplace_expansion",
    "measure_convergence_threshold",
    "norm_probe",
    "normalized_hermite",
    "ode_residual",
    "read_binary",
    "resum_partial_sums",
    "resummed_integral",
    "run_suites",
    "sample_spectra",
    "semicircle_rule",
    "semicircle_functional",
    "stirling_table",
    "taylor_to_basis",
    "tridiagonal_eigenvalues",
]

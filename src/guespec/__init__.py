"""Finite-N GUE spectral density toolkit.

Exact oscillator-wave-function kernels, closed-form Laplace transforms,
a Gegenbauer-basis correction expansion in powers of 1/N^2, Gaussian
quadrature for the fixed-N density, and a reproducible tridiagonal
Monte Carlo sampler, with a self-verification suite and a CLI.

The names below are exported lazily (PEP 562): a module is imported on
the first access to one of its names, so ``import guespec`` and the CLI
load only the layers they use.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {name: module for module, names in {
    "gegenbauer": "BasisSeries basis_to_taylor basis_values evaluate_series "
                  "growth_bound_report monomial_to_basis plane_wave_series "
                  "semicircle_functional taylor_to_basis",
    "hermite": "density density_and_kernel_diag density_derivatives kernel kernel_diag "
               "normalized_hermite ode_residual square_sums",
    "laplace": "characteristic_function density_laplace gauss_average "
               "kernel_laplace laplace_expansion polynomial_average stirling_table",
    "montecarlo": "SampleBatch empirical_moment read_binary sample_spectra",
    "operators": "correction correction_functionals differentiate eigenvalue_inverse "
                 "first_order_solve norm_probe resum_partial_sums resummed_integral",
    "quadrature": "LineIntegral QuadratureRule gaussian_rule integrate_line semicircle_rule",
    "tridiagonal": "ConvergenceError tridiagonal_eigenvalues",
    "verify": "run_suites",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

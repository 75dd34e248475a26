"""Numerical toolkit for time-dependent quadratic quantum Hamiltonians.

Closed-form propagator kernels, dynamical invariants, expectation-value
dynamics, and a Crank-Nicolson grid oracle for one-dimensional variable
quadratic Hamiltonians H = a(t) p^2 + b(t) x^2 + c(t) px + d(t) xp.
"""

from .coefficients import (EQUATION, HAMILTONIAN, MODEL_IDS, ModelSpec,
                           TimeCoefficients, builtin_coefficients,
                           convert_convention)
from .characteristic import (KernelParameters, MuPath, closed_form_kernel,
                             closed_form_mu, kernel_parameters,
                             solve_characteristic)
from .propagator import (GaussianState, GridState, gaussian_sweep,
                         green_eval, propagate_gaussian, propagate_grid,
                         schrodinger_residual)
from .invariants import (ErmakovSolution, LadderPair, LinearForm,
                         QuadraticForm, energy_operator_catalog,
                         general_invariant, ladder_factorization,
                         lewis_riesenfeld_invariant, linear_invariant,
                         pinney_superpose, solve_energy_system,
                         solve_ermakov)
from .dynamics import (FirstMoments, HyperbolicBasis, SecondMoments,
                       closed_form_expectation, evolve_first_moments,
                       evolve_second_moments, uncertainty_check)
from . import errors

__version__ = "0.1.0"

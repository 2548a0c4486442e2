"""Box-spline shift-invariant spaces: combinatorics, projection, asymptotics.

The package is organized bottom-up:

- lattice: exact integer combinatorics of direction sets (deletion
  margin, hyperplane classes, primitive normals, product derivatives);
- quadrature: cut-aware Gauss rules for piecewise-polynomial integrands;
- boxspline: pointwise evaluation and Fourier-side derivatives;
- bernoulli: periodized Bernoulli polynomials and the closed-form
  projection-error expansion of monomials, plus its lattice Fourier series;
- projection: truncated-window L2 projection onto spline shifts;
- testfunctions: smooth functions with closed-form partials;
- asymptotics: limit constants of the scaled projection error and
  mesh-ladder convergence studies;
- presets: named direction sets; cli: the boxproj command line.
"""

from .lattice import (
    DirectionSet,
    HyperplaneClass,
    MultiIndex,
    NonUnimodularError,
    UnsupportedDimensionError,
    deletion_margin,
    hyperplane_classes,
    is_unimodular,
    linear_form_product,
    multi_indices,
    nonorthogonal_directions,
    product_derivative,
    spans_full,
)
from .boxspline import (
    BoxSplineEvaluator,
    fourier_transform,
    sinc_factor,
    sinc_factor_derivative,
    transform_derivative,
    transform_derivatives,
)
from .bernoulli import (
    BernoulliSplineTerm,
    ErrorFunctionExpansion,
    bernoulli_l2_norm_sq,
    bernoulli_periodic,
    error_expansion,
    monomial_error_series,
)
from .projection import (
    CoefficientField,
    SolverError,
    SplineSpaceModel,
    autocorrelation_table,
    build_model,
    error_norm,
    project,
    spline_values,
)
from .testfunctions import Bump, Gaussian, Monomial, TestFunction, bump, gaussian, monomial
from .asymptotics import (
    ConvergenceReport,
    convergence_sweep,
    directional_derivative,
    error_constant,
    error_constant_l2,
    norm_equivalence_constants,
    sobolev_product_norm,
)
from .presets import preset, PRESET_NAMES

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
